"""Homotopy-type counting for gauge groups over mod-c Moore spaces and,
after looping, over the 5-manifolds.

Everything here is one-directional: matching gcd classes is a sufficient
condition for a p-local equivalence, and class counts are upper bounds.
The connecting-map order feeding d = gcd(ord, c) is the degree-4 sphere
value, which the Moore-space order only divides; gcd classes taken with
respect to a multiple refine those of a divisor, so sufficiency survives
and the counts stay honest upper bounds. A report's machine record carries
source=upper_bound_from_S4, and its table says "upper bound from the sphere
case", to keep that visible. No two gauge groups are ever asserted
inequivalent.
"""

import math

from . import records
from .arith import factorize, gcd_class, nu_p, prime_divisors
from .errors import CatalogError
from .lie import EXCEPTIONAL, LieGroupSpec, _lookup, _require_odd_prime, _rows
from .localization import Localization
from .manifold import (
    ManifoldSpec,
    require_moore_order,
    require_not_divisible_by_6,
    require_odd,
    require_pi4_trivial,
    require_stably_parallelizable,
)
from .value import Value


class ClassificationReport(Value):
    """Upper-bound type counts, built in one step from (G, c) and the loop degree."""

    G: LieGroupSpec
    c: int
    ord: int  # catalog order of the degree-4 connecting map
    order_validity: str  # prime condition of the catalog row used
    d: int  # gcd(ord, c)
    count_integral: int  # number of gcd classes
    count_at_p: tuple[tuple[int, int], ...]  # (p, nu_p(d) + 1) for p | d
    classes: tuple[tuple[int, "GcdClass"], ...]  # (gcd value, members)
    looped: int | None  # loop degree when the count is for Omega^i over M

    def __init__(self, G: LieGroupSpec, c: int, looped: int | None = None) -> None:
        require_moore_order(c)
        ord_value, validity, d = _order(G, c)
        factors = factorize(d)  # once, for the counts and every class
        classes = _gcd_classes(c, d, factors)
        self.__dict__.update(
            G=G, c=c, ord=ord_value, order_validity=validity, d=d, count_integral=len(classes),
            count_at_p=tuple((f.p, f.e + 1) for f in factors), classes=classes, looped=looped,
        )

    def is_single_type(self) -> bool:
        return self.d == 1

    def subject(self) -> str:
        if self.looped is None:
            return f"gauge groups over P⁴({self.c})"
        return f"Ω^{self.looped} of gauge groups over M (c = {self.c})"

    def table(self) -> str:
        lines = [
            f"{self.subject()}, G = {self.G}",
            f"  connecting-map order {self.ord}"
            f" (validity: {self.order_validity}; upper bound from the sphere case)",
            f"  d = gcd(ord, c) = {self.d}:"
            f" at most {self.count_integral} homotopy type(s)",
        ]
        for p, count in self.count_at_p:
            lines.append(f"  at p = {p}: at most {count} type(s)")
        if self.is_single_type():
            lines.append("  single class: all k are p-locally equivalent at every p")
        for g, members in self.classes:
            shown = ", ".join(str(k) for k in members[:8])
            more = "" if members.size <= 8 else f", … ({members.size} total)"
            lines.append(f"  class gcd={g}: k = {shown}{more}")
        return "\n".join(lines)

    def machine(self) -> str:
        head = records.record(
            "classify", group=self.G.token(),
            c=self.c, ord=self.ord, validity=self.order_validity, d=self.d,
            count=self.count_integral, looped=self.looped, source="upper_bound_from_S4",
        )
        at_p = [records.record("at_p", p=p, count=count) for p, count in self.count_at_p]
        classes = [records.record("class", gcd=g, size=m.size, rep=m[0]) for g, m in self.classes]
        return "\n".join([head, *at_p, *classes])


class GcdClass(Value):
    """The k in range(c) with gcd(k, d) = g (gcd(0, d) = d), ascending, for
    g dividing d dividing c, without building them.

    There are (c/d) phi(d/g) members. Member i is j d + g s_i' with (j, i')
    = divmod(i, phi(d/g)) and s_i' the i'-th residue in [0, d/g) coprime to
    d/g (0 when g = d), found by Mobius counting over the primes of d/g and
    bisection. These are its only operations, and none builds the members
    it does not return: `len`, `in`, hashing and comparing two classes take
    O(2^omega(d/g)) steps, and indexing O(2^omega(d/g) log(d/g)). Iterating
    or a slice with step 1 takes one index step plus a few gcds per member
    returned, any other slice one index step per member, and `reversed`
    indexes from the end.

    >>> cls = GcdClass(9, 3, 1)
    >>> len(cls), cls[0], cls[-1], cls[1:4], cls[::-2], 7 in cls
    (6, 1, 8, (2, 4, 5), (8, 5, 2), True)
    >>> tuple(cls) == (1, 2, 4, 5, 7, 8), cls == (1, 2, 4, 5, 7, 8)
    (True, False)

    Equality and hashing read the members, not the fields c, d and g. A
    class equals only a class with the same members, never a tuple of them,
    which it could not hash alike without O(c) work.
    """

    c: int
    d: int
    g: int

    def __init__(self, c: int, d: int, g: int, *, _primes=None) -> None:
        # _primes: d/g's primes, ascending, from a caller that has them (_gcd_classes)
        mobius = [(1, 1)]  # (e, mu(e)) for the squarefree e dividing d/g
        for p in prime_divisors(d // g) if _primes is None else _primes:
            mobius += [(e * p, -mu) for e, mu in mobius]
        phi = sum(mu * (d // g // e) for e, mu in mobius)
        self.__dict__.update(c=c, d=d, g=g, _mobius=tuple(mobius), _phi=phi)

    @property
    def size(self) -> int:
        """The number of members, which `len` cannot return past sys.maxsize."""
        return self.c // self.d * self._phi

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        picked = range(self.size)[i]  # IndexError out of range
        if isinstance(picked, int):
            return next(self._run(picked, 1))
        if picked.step == 1:
            return tuple(self._run(picked.start, len(picked)))
        return tuple(next(self._run(k, 1)) for k in picked)

    def __iter__(self):
        return self._run(0, self.size)

    def __contains__(self, k) -> bool:
        return isinstance(k, int) and 0 <= k < self.c and math.gcd(k, self.d) == self.g

    def __eq__(self, other):
        if isinstance(other, GcdClass):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        # the members are g t for t < c/g coprime to rad(d/g), the last
        # Mobius term; only {0} (c = g) has more than one such description
        return (0,) if self.c == self.g else (self.g, self.c, self._mobius[-1][0])

    def _coprime_below(self, x: int) -> int:
        """How many s in [0, x) are coprime to d/g."""
        return sum(mu * -(-x // e) for e, mu in self._mobius)

    def _run(self, i: int, count: int):
        """count members from member i on: the first by bisection, the rest
        by stepping s to the next residue coprime to m = d/g."""
        m = self.d // self.g
        j, i = divmod(i, self._phi)
        # s is the least residue with i + 1 coprimes in [0, s]; s_0 is 0 or 1
        lo, hi = 0, (m - 1 if i else 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._coprime_below(mid + 1) > i:
                hi = mid
            else:
                lo = mid + 1
        s = lo
        for _ in range(count):
            yield j * self.d + self.g * s
            s += 1
            while s < m and math.gcd(s, m) != 1:
                s += 1
            if s == m:
                j, s = j + 1, int(m > 1)


def _gcd_classes(c: int, d: int, factors) -> tuple[tuple[int, GcdClass], ...]:
    """(g, GcdClass(c, d, g)) for each divisor g of d, ascending, from d's
    factorization: a prime p divides d/g exactly when nu_p(g) < nu_p(d)."""
    divs = [(1, ())]  # (g, the primes of d/g among those seen so far)
    for f in factors:
        divs = [
            (g * f.p**a, primes + (f.p,) if a < f.e else primes)
            for g, primes in divs
            for a in range(f.e + 1)
        ]
    divs.sort()
    return tuple((g, GcdClass(c, d, g, _primes=primes)) for g, primes in divs)


def _order(G: LieGroupSpec, c: int) -> tuple[int, str, int]:
    """G's catalog order, its validity tag and d = gcd(ord, c), from G's first
    row (lie._rows) whatever p: the one p-blind catalog read. The order is an
    upper bound even where that row is p-local, so a report shows its tag.
    Read by the report and same_type_moore (the benchmark pins both to the
    first row) and by trivial_case for an exceptional group's one ord."""
    rows, n = _rows(G)
    if not rows:
        raise CatalogError(f"no catalog row for {G}")
    ord_value = rows[0].ord_value(n)
    return ord_value, rows[0].prime_cond, math.gcd(ord_value, c)


def same_type_moore(k: int, l: int, G: LieGroupSpec, c: int) -> bool:
    """Sufficient condition for the k-th and l-th gauge groups over the
    4-dimensional mod-c Moore space to be p-locally equivalent at every p.

    >>> G = LieGroupSpec("SU", 3)
    >>> same_type_moore(1, 5, G, 7)
    True
    >>> same_type_moore(0, 1, G, 9)
    False
    """
    require_moore_order(c)
    d = _order(G, c)[2]
    return gcd_class(k, d) == gcd_class(l, d)


def classify_moore(G: LieGroupSpec, c: int) -> ClassificationReport:
    """Upper-bound type counts for gauge groups over P⁴(c).

    >>> r = classify_moore(LieGroupSpec("SU", 3), 9)
    >>> r.d, r.count_integral, r.count_at_p
    (3, 2, ((3, 2),))
    >>> classify_moore(LieGroupSpec("G2"), 21).count_integral
    4
    """
    return ClassificationReport(G, c)


def classify_looped_manifold(
    M: ManifoldSpec,
    G: LieGroupSpec,
    i: int,
    ctx: Localization | None = None,
) -> ClassificationReport:
    """Type counts for Omega^i of the gauge groups over M (i = 2 or 3).

    >>> r = classify_looped_manifold(ManifoldSpec(c=5, m=2), LieGroupSpec("SU", 3), 2)
    >>> r.d, r.is_single_type()
    (1, True)
    """
    if i == 2:
        require_not_divisible_by_6(M.c)
    elif i == 3:
        require_odd(M.c)
        require_stably_parallelizable(M)
    else:
        raise ValueError(f"loop degree must be 2 or 3, got {i}")
    require_pi4_trivial(G, ctx or Localization.integral())
    return ClassificationReport(G, M.c, looped=i)


# least prime of the one-type criterion for each exceptional group
_TRIVIAL_P_MIN = {"G2": 3, "F4": 5, "E6": 5, "E7": 7, "E8": 7}


def trivial_case(G: LieGroupSpec, p: int, c: int) -> bool:
    """Does the one-type criterion hold for (G, p, c)?

    A matrix group needs a catalog row that holds at p (lie._lookup) and
    reads nu_p(gcd(ord, c)) = 1 from it literally (not <= 1). Exceptional
    groups need p at least the criterion's threshold and c not divisible by
    the radical of ord. One difference from the catalog's tags is not yet
    checked against the paper: Sp(1) is out.

    >>> trivial_case(LieGroupSpec("G2"), 5, 5)
    True
    >>> trivial_case(LieGroupSpec("E7"), 7, 7 * 11 * 19)
    False
    >>> trivial_case(LieGroupSpec("F4"), 5, 13)
    True
    """
    require_moore_order(c)
    _require_odd_prime(p)
    if G.family in EXCEPTIONAL:
        ord_value = _order(G, c)[0]
        return p >= _TRIVIAL_P_MIN[G.family] and c % math.prod(prime_divisors(ord_value)) != 0
    row, n = _lookup(G, p)
    # the difference above: Sp(1), the one n = 1, is out
    return row is not None and n > 1 and nu_p(math.gcd(row.ord_value(n), c), p) == 1


# -- the arithmetic-progression minimum ---------------------------------------


def dirichlet_min(k: int, ord_value: int, c: int, N: int) -> int:
    """min of gcd(ord, k + c i) over 0 <= i <= N, stopping early when the
    floor gcd(k, ord, c) is reached (every term is divisible by it, so
    nothing smaller can appear later)."""
    require_moore_order(c)
    if ord_value < 1 or N < 1:
        raise ValueError("need ord >= 1, N >= 1")
    floor = math.gcd(k, math.gcd(ord_value, c))
    best: int | None = None
    for i in range(N + 1):
        g = math.gcd(ord_value, k + c * i)
        if best is None or g < best:
            best = g
            if best == floor:
                break
    return best
