"""Homotopy-type counting for gauge groups over mod-c Moore spaces and,
after looping, over the 5-manifolds.

Everything here is one-directional: matching gcd classes is a sufficient
condition for a p-local equivalence, and class counts are upper bounds.
The connecting-map order feeding d = gcd(ord, c) is the degree-4 sphere
value, which the Moore-space order only divides; gcd classes taken with
respect to a multiple refine those of a divisor, so sufficiency survives
and the counts stay honest upper bounds. Reports carry order_source =
"upper_bound_from_S4" to keep that visible. No two gauge groups are ever
asserted inequivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import records
from .arith import divisor_count, divisors, gcd_class, is_prime, nu_p, prime_divisors
from .lie import EXCEPTIONAL, LieGroupSpec, catalog_order
from .localization import Localization
from .manifold import (
    ManifoldSpec,
    require_not_divisible_by_6,
    require_odd,
    require_pi4_trivial,
    require_stably_parallelizable,
)


@dataclass(frozen=True)
class ClassificationReport:
    G: LieGroupSpec
    c: int
    ord: int  # catalog order of the degree-4 connecting map
    order_validity: str  # prime condition of the catalog row used
    d: int  # gcd(ord, c)
    count_integral: int  # number of gcd classes
    count_at_p: tuple[tuple[int, int], ...]  # (p, nu_p(d) + 1) for p | d
    classes: tuple[tuple[int, tuple[int, ...]], ...]  # (gcd value, members)
    looped: int | None = None  # loop degree when the count is for Omega^i over M
    order_source: str = "upper_bound_from_S4"

    def count_at(self, p: int) -> int:
        """Type count at any prime (1 when p does not divide d)."""
        return nu_p(self.d, p) + 1

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
            more = "" if len(members) <= 8 else f", … ({len(members)} total)"
            lines.append(f"  class gcd={g}: k = {shown}{more}")
        return "\n".join(lines)

    def machine(self) -> str:
        head = records.record(
            "classify", group=self.G.family + ("" if self.G.n is None else f":{self.G.n}"),
            c=self.c, ord=self.ord, validity=self.order_validity, d=self.d,
            count=self.count_integral, looped=self.looped, source=self.order_source,
        )
        at_p = [records.record("at_p", p=p, count=count) for p, count in self.count_at_p]
        classes = [records.record("class", gcd=g, size=len(m), rep=m[0]) for g, m in self.classes]
        return "\n".join([head, *at_p, *classes])


def _gcd_classes(c: int, d: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    buckets: dict[int, list[int]] = {g: [] for g in divisors(d)}
    for k in range(c):
        buckets[gcd_class(k, d)].append(k)
    return tuple((g, tuple(ks)) for g, ks in sorted(buckets.items()))


def same_type_moore(k: int, l: int, G: LieGroupSpec, c: int) -> bool:
    """Sufficient condition for the k-th and l-th gauge groups over the
    4-dimensional mod-c Moore space to be p-locally equivalent at every p.

    >>> G = LieGroupSpec("SU", 3)
    >>> same_type_moore(1, 5, G, 7)
    True
    >>> same_type_moore(0, 1, G, 9)
    False
    """
    if c < 2:
        raise ValueError(f"c must be >= 2, got {c}")
    ord_value, _ = catalog_order(G)
    d = math.gcd(ord_value, c)
    return gcd_class(k, d) == gcd_class(l, d)


def classify_moore(G: LieGroupSpec, c: int) -> ClassificationReport:
    """Upper-bound type counts for gauge groups over P⁴(c).

    >>> r = classify_moore(LieGroupSpec("SU", 3), 9)
    >>> r.d, r.count_integral, r.count_at(3)
    (3, 2, 2)
    >>> classify_moore(LieGroupSpec("G2"), 21).count_integral
    4
    """
    if c < 2:
        raise ValueError(f"c must be >= 2, got {c}")
    ord_value, validity = catalog_order(G)
    d = math.gcd(ord_value, c)
    return ClassificationReport(
        G=G,
        c=c,
        ord=ord_value,
        order_validity=validity,
        d=d,
        count_integral=divisor_count(d),
        count_at_p=tuple((p, nu_p(d, p) + 1) for p in prime_divisors(d)),
        classes=_gcd_classes(c, d),
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
    return replace(classify_moore(G, M.c), looped=i)


# least prime of the one-type criterion for each exceptional group
_TRIVIAL_P_MIN = {"G2": 3, "F4": 5, "E6": 5, "E7": 7, "E8": 7}


def trivial_case(G: LieGroupSpec, p: int, c: int) -> bool:
    """Does the one-type criterion hold for (G, p, c)?

    The connecting-map order ord comes from the catalog. Matrix groups need
    G in the criterion's range at p and read the valuation condition
    nu_p(gcd(ord, c)) = 1 literally (not <= 1); exceptional groups need p
    at least the criterion's threshold and c not divisible by the radical
    of ord.

    >>> trivial_case(LieGroupSpec("G2"), 5, 5)
    True
    >>> trivial_case(LieGroupSpec("E7"), 7, 7 * 11 * 19)
    False
    >>> trivial_case(LieGroupSpec("F4"), 5, 13)
    True
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"odd primes only, got {p}")
    ord_value, _ = catalog_order(G)
    if G.family in EXCEPTIONAL:
        return p >= _TRIVIAL_P_MIN[G.family] and c % math.prod(prime_divisors(ord_value)) != 0
    bound = (p - 1) ** 2 + 1
    if G.family == "SU":
        in_range = G.n <= bound
    elif G.family == "Sp":
        in_range = 4 <= 2 * G.n <= bound
    elif G.n % 2:  # Spin(2n+1)
        in_range = 4 <= 2 * (G.n // 2) <= bound
    else:  # Spin(2n)
        in_range = p >= 5 and 6 <= 2 * (G.n // 2) <= bound
    return in_range and nu_p(math.gcd(ord_value, c), p) == 1


# -- the arithmetic-progression oracle ----------------------------------------


def dirichlet_oracle(k: int, ord_value: int, c: int, N: int) -> set[int]:
    """{ gcd(ord, k + c i) : 0 <= i <= N }, by direct enumeration.

    >>> min(dirichlet_oracle(1, 24, 9, 100))
    1
    >>> min(dirichlet_oracle(3, 24, 9, 100))
    3
    >>> min(dirichlet_oracle(0, 24, 9, 100))
    3
    """
    if c < 2 or ord_value < 1 or N < 1:
        raise ValueError("need c >= 2, ord >= 1, N >= 1")
    return {math.gcd(ord_value, k + c * i) for i in range(N + 1)}


def dirichlet_min(k: int, ord_value: int, c: int, N: int) -> int:
    """min(dirichlet_oracle(k, ord, c, N)), stopping early when the floor
    gcd(k, ord, c) is reached (every term is divisible by it, so nothing
    smaller can appear later)."""
    if c < 2 or ord_value < 1 or N < 1:
        raise ValueError("need c >= 2, ord >= 1, N >= 1")
    floor = math.gcd(k, math.gcd(ord_value, c))
    best: int | None = None
    for i in range(N + 1):
        g = math.gcd(ord_value, k + c * i)
        if best is None or g < best:
            best = g
            if best == floor:
                break
    return best
