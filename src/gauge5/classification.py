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
from collections.abc import Sequence

from . import records
from .arith import factorize, gcd_class, nu_p, prime_divisors
from .lie import (
    EXCEPTIONAL, LieGroupSpec, _family_key, _l_at, _require_odd_prime, _within, catalog_order,
)
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
    G: LieGroupSpec
    c: int
    ord: int  # catalog order of the degree-4 connecting map
    order_validity: str  # prime condition of the catalog row used
    d: int  # gcd(ord, c)
    count_integral: int  # number of gcd classes
    count_at_p: tuple[tuple[int, int], ...]  # (p, nu_p(d) + 1) for p | d
    classes: tuple[tuple[int, "GcdClass"], ...]  # (gcd value, members)
    looped: int | None  # loop degree when the count is for Omega^i over M

    def __init__(
        self,
        G: LieGroupSpec,
        c: int,
        ord: int,
        order_validity: str,
        d: int,
        count_integral: int,
        count_at_p: tuple[tuple[int, int], ...],
        classes: tuple[tuple[int, "GcdClass"], ...],
        looped: int | None = None,
    ) -> None:
        self.__dict__.update(
            G=G, c=c, ord=ord, order_validity=order_validity, d=d,
            count_integral=count_integral, count_at_p=count_at_p, classes=classes,
            looped=looped,
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


class GcdClass(Value, Sequence):
    """The k in range(c) with gcd(k, d) = g (gcd(0, d) = d), ascending, for
    g dividing d dividing c, without building them.

    There are (c/d) phi(d/g) members. Member i is j d + g s_i' with (j, i')
    = divmod(i, phi(d/g)) and s_i' the i'-th residue in [0, d/g) coprime to
    d/g (0 when g = d), found by Mobius counting over the primes of d/g and
    bisection. No operation builds the members it does not return: `len`,
    `in`, hashing and comparing two classes take O(2^omega(d/g)) steps,
    indexing O(2^omega(d/g) log(d/g)), and a slice one such step plus a few
    gcds per returned member (with step 1) or one per member (otherwise).

    >>> cls = GcdClass(9, 3, 1)
    >>> len(cls), cls[0], cls[-1], cls[1:4], cls[::-2], 7 in cls
    (6, 1, 8, (2, 4, 5), (8, 5, 2), True)
    >>> cls == (1, 2, 4, 5, 7, 8)
    True

    Equality and hashing read the members, not the fields c, d and g. A
    class equals a tuple with the same members but hashes apart from it:
    hashing the tuple would cost O(c).
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
        if isinstance(other, tuple):
            return len(other) == self.size and all(a == b for a, b in zip(self, other))
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
    ord_value, _ = catalog_order(G)
    d = math.gcd(ord_value, c)
    return gcd_class(k, d) == gcd_class(l, d)


def classify_moore(G: LieGroupSpec, c: int) -> ClassificationReport:
    """Upper-bound type counts for gauge groups over P⁴(c).

    >>> r = classify_moore(LieGroupSpec("SU", 3), 9)
    >>> r.d, r.count_integral, r.count_at_p
    (3, 2, ((3, 2),))
    >>> classify_moore(LieGroupSpec("G2"), 21).count_integral
    4
    """
    return _classify(G, c)


def _classify(G: LieGroupSpec, c: int, looped: int | None = None) -> ClassificationReport:
    """classify_moore's report, for Omega^looped over M when looped is set;
    d is factored once for the counts and every class."""
    require_moore_order(c)
    ord_value, validity = catalog_order(G)
    d = math.gcd(ord_value, c)
    factors = factorize(d)
    classes = _gcd_classes(c, d, factors)
    return ClassificationReport(
        G=G,
        c=c,
        ord=ord_value,
        order_validity=validity,
        d=d,
        count_integral=len(classes),
        count_at_p=tuple((f.p, f.e + 1) for f in factors),
        classes=classes,
        looped=looped,
    )


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
    return _classify(G, M.c, looped=i)


# least prime of the one-type criterion for each exceptional group
_TRIVIAL_P_MIN = {"G2": 3, "F4": 5, "E6": 5, "E7": 7, "E8": 7}


def trivial_case(G: LieGroupSpec, p: int, c: int) -> bool:
    """Does the one-type criterion hold for (G, p, c)?

    The connecting-map order ord comes from the catalog. Matrix groups need
    l(G) <= (p-1)^2 (lie's trivial_range) and read the valuation condition
    nu_p(gcd(ord, c)) = 1 literally (not <= 1); exceptional groups need p
    at least the criterion's threshold and c not divisible by the radical
    of ord. Two differences from the catalog's range tags are not yet
    checked against the paper: Sp(1) is out, and Spin(2n) reads l = 2n - 1,
    out at 2n = (p-1)^2 + 2 (Spin(18) at p = 5), where p divides no packaged ord.

    >>> trivial_case(LieGroupSpec("G2"), 5, 5)
    True
    >>> trivial_case(LieGroupSpec("E7"), 7, 7 * 11 * 19)
    False
    >>> trivial_case(LieGroupSpec("F4"), 5, 13)
    True
    """
    require_moore_order(c)
    _require_odd_prime(p)
    ord_value, _ = catalog_order(G)
    if G.family in EXCEPTIONAL:
        return p >= _TRIVIAL_P_MIN[G.family] and c % math.prod(prime_divisors(ord_value)) != 0
    key, n = _family_key(G)
    # the two differences above: Sp(1), the one n = 1, is out; Spin(2n) reads Spin(2n+1)'s l
    l = _l_at("SpinOdd" if key == "SpinEven" else key, n) if n > 1 else math.inf
    return _within("trivial_range", l, p) and nu_p(math.gcd(ord_value, c), p) == 1


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
