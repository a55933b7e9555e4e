"""Homotopy invariants of gauge groups over closed 5-manifolds whose
fundamental group is cyclic of order c.

The manifold enters through the numbers (c, m) and three boolean flags; the
group through a catalog of simply connected compact simple Lie groups.
Submodules:

  arith           valuations, factorization, gcd classes
  abelian         finitely generated abelian groups in canonical form
  localization    which primes are invertible
  lie             the group catalog: types, orders, loop offsets
  manifold        homology, Moore-space homotopy, suspension splittings
  spaces          formal product expressions and their normal form
  decomposition   the three looped-gauge-group decompositions
  classification  homotopy-type counting and the Dirichlet oracle
  exponents       homotopy-exponent upper bounds
  bott            stable homotopy via Bott periodicity
  rational        Hilbert-series rational models
  cli             the gauge5 command
"""

from .abelian import FGAbelianGroup
from .arith import (
    divisor_count,
    divisors,
    factorize,
    gcd_class,
    legendre_valuation,
    nu_p,
)
from .bott import StableQuery, bott_table, stability_threshold, stable_pi_gauge
from .classification import (
    ClassificationReport,
    classify_looped_manifold,
    classify_moore,
    dirichlet_min,
    dirichlet_oracle,
    same_type_moore,
    trivial_case,
)
from .decomposition import gauge_away_from_c, loops2_gauge, loops3_gauge
from .errors import CatalogError, HypothesisError
from .exponents import (
    ExponentBound,
    best_bound,
    exceptional_table,
    exp_bound_closed_form,
    exp_bound_regular,
    exp_bound_theriault,
    exp_moore_fiber,
)
from .lie import (
    LieGroupSpec,
    catalog_order,
    in_theriault_range,
    is_p_regular,
    l_of,
    ord_partial1_tilde,
    r_of,
    rank_of,
    rational_degrees,
    stable_pi,
    type_of,
)
from .localization import Localization
from .manifold import (
    ManifoldSpec,
    bundle_classes,
    homology,
    pi6_P4,
    pi7_P5,
    pi_moore_self,
    pi_with_coefficients,
    suspension_image_order,
    suspension_splitting,
)
from .rational import (
    GeneratorLedger,
    HilbertSeries,
    RationalGroupModel,
    em_expansion,
    rational_B_star,
    rational_cohomology_ring,
    rational_gauge,
    rational_rank_formula,
)
from .spaces import SpaceAtom, SpaceExpr

__all__ = [
    "CatalogError",
    "ClassificationReport",
    "ExponentBound",
    "FGAbelianGroup",
    "GeneratorLedger",
    "HilbertSeries",
    "HypothesisError",
    "LieGroupSpec",
    "Localization",
    "ManifoldSpec",
    "RationalGroupModel",
    "SpaceAtom",
    "SpaceExpr",
    "StableQuery",
    "best_bound",
    "bott_table",
    "bundle_classes",
    "catalog_order",
    "classify_looped_manifold",
    "classify_moore",
    "dirichlet_min",
    "dirichlet_oracle",
    "divisor_count",
    "divisors",
    "em_expansion",
    "exceptional_table",
    "exp_bound_closed_form",
    "exp_bound_regular",
    "exp_bound_theriault",
    "exp_moore_fiber",
    "factorize",
    "gauge_away_from_c",
    "gcd_class",
    "homology",
    "in_theriault_range",
    "is_p_regular",
    "l_of",
    "legendre_valuation",
    "loops2_gauge",
    "loops3_gauge",
    "nu_p",
    "ord_partial1_tilde",
    "pi6_P4",
    "pi7_P5",
    "pi_moore_self",
    "pi_with_coefficients",
    "r_of",
    "rank_of",
    "rational_B_star",
    "rational_cohomology_ring",
    "rational_degrees",
    "rational_gauge",
    "rational_rank_formula",
    "same_type_moore",
    "stability_threshold",
    "stable_pi",
    "stable_pi_gauge",
    "suspension_image_order",
    "suspension_splitting",
    "trivial_case",
    "type_of",
]
