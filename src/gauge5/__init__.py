"""Homotopy invariants of gauge groups over closed 5-manifolds whose
fundamental group is cyclic of order c.

The manifold enters through the numbers (c, m) and three boolean flags; the
group through a catalog of simply connected compact simple Lie groups.
Submodules:

  arith           valuations, factorization, gcd classes
  abelian         finitely generated abelian groups in canonical form
  localization    which primes are invertible
  lie             the group catalog: types, orders, loop offsets
  manifold        homology, the pi_4(G) = 0 check, Moore spaces, suspensions
  spaces          formal product expressions and their normal form
  decomposition   the three looped-gauge-group decompositions
  classification  homotopy-type counting and the Dirichlet minimum
  exponents       homotopy-exponent upper bounds
  bott            stable homotopy via Bott periodicity
  rational        Hilbert-series rational models
  cli             the gauge5 command

`import gauge5` loads none of them: a submodule loads on first use, when a
name exported here or the submodule itself is first looked up, so a
`gauge5 <verb>` launch imports only what that verb needs.
"""

from importlib import import_module

_SUBMODULES = frozenset(
    "abelian arith bott classification cli decomposition errors exponents lie"
    " localization manifold rational records spaces value".split()
)

# each public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "abelian": "FGAbelianGroup",
        "arith": "divisor_count factorize gcd_class legendre_valuation nu_p",
        "bott": "StableQuery bott_table stability_threshold stable_pi stable_pi_gauge",
        "classification": "ClassificationReport classify_looped_manifold classify_moore"
        " dirichlet_min same_type_moore trivial_case",
        "decomposition": "gauge_away_from_c loops2_gauge loops3_gauge",
        "errors": "CatalogError HypothesisError",
        "exponents": "ExponentBound best_bound exceptional_table exp_bound_closed_form"
        " exp_bound_regular exp_bound_theriault exp_moore_fiber",
        "lie": "LieGroupSpec catalog_order in_theriault_range is_p_regular l_of"
        " ord_partial1_tilde r_of rational_degrees type_of",
        "localization": "Localization",
        "manifold": "ManifoldSpec bundle_classes homology pi6_P4 pi7_P5 pi_moore_self"
        " pi_with_coefficients suspension_image_order suspension_splitting",
        "rational": "GeneratorLedger HilbertSeries RationalGroupModel em_expansion"
        " rational_B_star rational_cohomology_ring rational_gauge rational_rank_formula",
        "spaces": "SpaceAtom SpaceExpr",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
