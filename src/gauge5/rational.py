"""Rational decompositions of gauge groups driven by Hilbert series.

The base space enters only through its rational Betti numbers b_i, and the
group only through its rational generator degrees, so everything is exact
integer bookkeeping:

  rational_gauge      Map(X, BG)-model: product of b_i copies of Omega^i G
  rational_B_star     moduli of connections: b_i copies of Omega^(i-1) G
  em_expansion        the same space written in sphere / K(Q, n) atoms
  rational_rank_formula   rank of pi_q from the b_i and the degrees
  rational_cohomology_ring  free (graded-commutative) generator ledger

_looped_degrees is the one degree rule: Omega^i of a degree-d generator
has degree d - i, kept from a least degree on. The gauge group keeps
degrees >= 2 (the loop space of S^3 twice is rationally K(Q, 1), a point in
the simply connected modeling used here); the b_star ring loops BG's
generators and keeps degree 1, since there the ring genuinely has a
degree-1 class.
"""

from . import records
from .errors import HypothesisError, require_listable
from .lie import LieGroupSpec, rational_degrees
from .localization import Localization
from .manifold import ManifoldSpec
from .spaces import SpaceExpr, em_factor, loops_g, sphere_factor
from .value import Value


def _integers(items, text: str, example: str) -> tuple[int, ...]:
    """The integers `items` spell, or a refusal quoting the whole `text`."""
    try:
        return tuple(int(x.strip()) for x in items)
    except ValueError:
        raise ValueError(
            f"expected comma-separated integers as in {example}, got {text!r}"
        ) from None


class HilbertSeries(Value):
    """Finite-support rational Betti numbers b_0, b_1, ..., with b_0 = 1.

    >>> HilbertSeries((1, 0, 0, 0, 1))
    HilbertSeries('1 + t^4')
    >>> HilbertSeries.sphere(4) == HilbertSeries((1, 0, 0, 0, 1))
    True
    """

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        coeffs = tuple(coefficients)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("b_0 must be 1 (connected space)")
        if any(b < 0 for b in coeffs):
            raise ValueError("Betti numbers must be nonnegative")
        last = max(i for i, b in enumerate(coeffs) if b)  # b_0 = 1 is nonzero
        self.__dict__.update(coefficients=coeffs[: last + 1])

    @staticmethod
    def sphere(n: int) -> "HilbertSeries":
        if n < 2:
            raise ValueError(f"sphere dimension must be >= 2, got {n}")
        return HilbertSeries((1,) + (0,) * (n - 1) + (1,))

    @staticmethod
    def for_manifold(M: ManifoldSpec) -> "HilbertSeries":
        """Rational Betti numbers of the 5-manifold: (1, 0, m-1, m-1, 0, 1)."""
        return HilbertSeries((1, 0, M.m - 1, M.m - 1, 0, 1))

    @staticmethod
    def parse(text: str) -> "HilbertSeries":
        """Comma-separated coefficients, b_0 first: '1,0,2,2,0,1'."""
        return HilbertSeries(_integers(text.split(","), text, "'1,0,2,2,0,1', b_0 first"))

    def coefficient(self, i: int) -> int:
        return self.coefficients[i] if 0 <= i < len(self.coefficients) else 0

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def require_simply_connected(self) -> None:
        if self.coefficient(1) != 0:
            raise HypothesisError("not rationally simply connected: b_1 != 0")

    def __str__(self) -> str:
        terms = []
        for i, b in enumerate(self.coefficients):
            if not b:
                continue
            if i == 0:
                terms.append(str(b))
            else:
                head = "" if b == 1 else str(b)
                terms.append(f"{head}t^{i}" if i > 1 else f"{head}t")
        return " + ".join(terms) or "0"

    def __repr__(self) -> str:
        return f"HilbertSeries({str(self)!r})"


def _free_algebra(exterior, polynomial) -> str:
    """'Λ(3,5) ⊗ Q[4]': the free graded-commutative algebra on these degrees."""
    parts = []
    if exterior:
        parts.append("Λ(" + ",".join(map(str, exterior)) + ")")
    if polynomial:
        parts.append("Q[" + ",".join(map(str, polynomial)) + "]")
    return " ⊗ ".join(parts) or "Q"


class RationalGroupModel(Value):
    """Generator degrees of H*(G; Q): exterior odd >= 3, polynomial even >= 2.

    >>> RationalGroupModel.from_lie(LieGroupSpec("SU", 3)).exterior_degrees
    (3, 5)
    >>> print(RationalGroupModel.parse("3,5/4"))
    Λ(3,5) ⊗ Q[4]
    """

    exterior_degrees: tuple[int, ...]
    polynomial_degrees: tuple[int, ...]

    def __init__(
        self, exterior_degrees: tuple[int, ...], polynomial_degrees: tuple[int, ...] = ()
    ) -> None:
        ext = tuple(sorted(exterior_degrees))
        poly = tuple(sorted(polynomial_degrees))
        if any(d % 2 == 0 or d < 3 for d in ext):
            raise ValueError(f"exterior degrees must be odd >= 3, got {ext}")
        if any(d % 2 or d < 2 for d in poly):
            raise ValueError(f"polynomial degrees must be even >= 2, got {poly}")
        self.__dict__.update(exterior_degrees=ext, polynomial_degrees=poly)

    @staticmethod
    def from_lie(G: LieGroupSpec) -> "RationalGroupModel":
        return RationalGroupModel(rational_degrees(G))

    @staticmethod
    def parse(text: str) -> "RationalGroupModel":
        """'ext degrees / poly degrees', comma lists, either side empty:
        '3,5/4', '3,7/', '/2'."""
        ext_s, _, poly_s = text.partition("/")
        ext = _integers([d for d in ext_s.split(",") if d.strip()], text, "'3,5/4'")
        poly = _integers([d for d in poly_s.split(",") if d.strip()], text, "'3,5/4'")
        return RationalGroupModel(ext, poly)

    def all_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.exterior_degrees + self.polynomial_degrees))

    def require_finite_dimensional(self) -> None:
        if self.polynomial_degrees:
            raise HypothesisError(
                "rational homology must be finite dimensional:"
                f" polynomial generators {list(self.polynomial_degrees)} present"
            )

    def __str__(self) -> str:
        return _free_algebra(self.exterior_degrees, self.polynomial_degrees)


class GeneratorLedger(Value):
    """Multiset of (degree, kind) free generators of a graded-commutative
    algebra, kind exterior or polynomial."""

    generators: tuple[tuple[int, str], ...]

    def __init__(self, generators: tuple[tuple[int, str], ...]) -> None:
        generators = tuple(generators)  # an iterator is read once
        for degree, kind in generators:
            if kind not in ("exterior", "polynomial"):
                raise ValueError(f"unknown generator kind {kind!r}")
            if degree < 1:
                raise ValueError(f"generator degree must be >= 1, got {degree}")
            if kind == "exterior" and degree % 2 == 0:
                raise ValueError(f"exterior generators have odd degree, got {degree}")
            if kind == "polynomial" and degree % 2:
                raise ValueError(f"polynomial generators have even degree, got {degree}")
        self.__dict__.update(generators=tuple(sorted(generators)))

    def __str__(self) -> str:
        return _free_algebra(
            [d for d, kind in self.generators if kind == "exterior"],
            [d for d, kind in self.generators if kind == "polynomial"],
        )

    def machine(self) -> str:
        return "\n".join(records.record("generator", degree=d, kind=k) for d, k in self.generators)


# -- the decomposition formulas ------------------------------------------------


def rational_gauge(X: HilbertSeries, G: RationalGroupModel, based: bool = False) -> SpaceExpr:
    """Rational model of the gauge group of any principal bundle over X:
    b_i copies of Omega^i G, with Omega^0 G = G itself.

    >>> print(rational_gauge(HilbertSeries.sphere(4), RationalGroupModel.parse("3,5,7/")))
    G × Ω⁴G
    >>> print(rational_gauge(HilbertSeries((1,)), RationalGroupModel.parse("3/")))
    G
    """
    X.require_simply_connected()
    start = 1 if based else 0
    # a zero b_i adds no factor: SpaceExpr drops zero multiplicities
    pairs = tuple((loops_g(i), X.coefficient(i)) for i in range(start, X.degree() + 1))
    return SpaceExpr(pairs, localization=Localization.rational(), group=G)


def rational_B_star(X: HilbertSeries, G: RationalGroupModel) -> SpaceExpr:
    """Rational model of the moduli space of based connections:
    b_i copies of Omega^(i-1) G for i >= 1.

    >>> print(rational_B_star(HilbertSeries.sphere(4), RationalGroupModel.parse("3/")))
    Ω³G
    >>> print(rational_B_star(HilbertSeries.parse("1,0,1,1"), RationalGroupModel.parse("3,5/")))
    ΩG × Ω²G
    """
    X.require_simply_connected()
    G.require_finite_dimensional()
    # i = 1 is ruled out by b_1 = 0
    pairs = tuple((loops_g(i - 1), X.coefficient(i)) for i in range(2, X.degree() + 1))
    return SpaceExpr(pairs, localization=Localization.rational(), group=G)


def em_expansion(X: HilbertSeries, G: RationalGroupModel, based: bool = False) -> SpaceExpr:
    """The gauge group written in irreducible rational atoms: each factor
    Omega^i (sphere or K(Q, n)) collapses to a single atom of degree d - i.

    >>> print(em_expansion(HilbertSeries.sphere(2), RationalGroupModel.parse("3/")))
    S³
    >>> print(em_expansion(HilbertSeries.sphere(2), RationalGroupModel.parse("3/"), based=True))
    *
    >>> print(em_expansion(HilbertSeries.sphere(4), RationalGroupModel.parse("3/")))
    S³
    """
    mults: dict[int, int] = {}  # degree -> multiplicity: one atom per degree
    for n, b in _looped_degrees(X, G.all_degrees(), 2, based):
        mults[n] = mults.get(n, 0) + b
    # every kept degree is >= 2: odd ones are spheres, even ones K(Q, n)
    pairs = tuple(((sphere_factor if n % 2 else em_factor)(n), b) for n, b in mults.items())
    return SpaceExpr(pairs, localization=Localization.rational(), group=G)


def _looped_degrees(X: HilbertSeries, degrees, least: int, based: bool = False) -> list:
    """(degree, multiplicity) of each irreducible rational factor of the
    maps from X into a space with generators of these degrees: Omega^i of
    the degree-d generator, b_i times, has degree d - i and is kept when
    d - i >= least. The one degree rule: em_expansion (an atom per degree)
    and the gauge ring (a generator per pair) loop G's degrees from 2, the
    b_star ring BG's degrees from 1, and rational_rank_formula counts the
    pairs of one degree."""
    X.require_simply_connected()
    out = []
    for i in range(1 if based else 0, X.degree() + 1):
        b = X.coefficient(i)
        if b:
            out += [(d - i, b) for d in degrees if d - i >= least]
    return out


def rational_rank_formula(
    X: HilbertSeries, G: RationalGroupModel, q: int, based: bool = False
) -> int:
    """rank pi_q of the gauge group: the summed b_i of the degree rule's
    pairs (d - i, b_i) for G with d - i = q, counted without building
    them. It answers for b_1 > 0 too, as it needs no simply connected X:
    BG is rationally a product of K(Q, d + 1) over G's degrees d, each
    component of Map(X, K(Q, n)) has pi_k = H^(n-k)(X; Q) for connected
    finite X (Thom), and components localize as BG is nilpotent
    (Hilton-Mislin-Roitberg), so rank pi_(q+1) Map_P(X, BG) = sum of
    b_(d-q). The other ops refuse b_1 != 0: their product models drop the
    factors of degree <= 1.

    >>> rational_rank_formula(HilbertSeries.sphere(4), RationalGroupModel.parse("3,5,7/"), 3)
    2
    """
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    # a pair has degree q exactly when its loop count i is d - q
    start = 1 if based else 0
    return sum(X.coefficient(d - q) for d in G.all_degrees() if d - q >= start)


def rational_cohomology_ring(target: str, X: HilbertSeries, G: RationalGroupModel) -> GeneratorLedger:
    """Free generator ledger of H*(target; Q), target 'gauge' or 'b_star'.

    Each reads its generators off the degree rule, one exterior (odd
    degree) or polynomial (even degree) generator per pair, without
    building the factors: gauge loops G's degrees and keeps those >= 2, as
    em_expansion does; b_star loops BG's degrees (each exterior degree a of
    G gives a + 1) and keeps those >= 1.

    >>> print(rational_cohomology_ring("b_star", HilbertSeries.sphere(4), RationalGroupModel.parse("3/")))
    Q[4]
    >>> print(rational_cohomology_ring("gauge", HilbertSeries((1,)), RationalGroupModel.parse("3,5/4")))
    Λ(3,5) ⊗ Q[4]
    """
    if target == "gauge":
        counted = _looped_degrees(X, G.all_degrees(), 2)
    elif target != "b_star":
        raise ValueError(f"target must be gauge or b_star, got {target!r}")
    else:
        X.require_simply_connected()
        G.require_finite_dimensional()
        counted = _looped_degrees(X, [a + 1 for a in G.exterior_degrees], 1)
    require_listable(sum(b for _, b in counted))
    return GeneratorLedger(
        tuple((n, "exterior" if n % 2 else "polynomial") for n, b in counted for _ in range(b))
    )
