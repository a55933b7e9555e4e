"""Homotopy-exponent upper bounds for gauge groups over the 5-manifolds.

All bounds are powers of an odd prime p; an ExponentBound holds the exponent
only (the bound is p^exponent). Three computational routes:

  regular      needs G p-regular; exponent nu_p(ord) + max(l(G), nu_p(c)),
               plus 1 for SU(2) and SU(3)
  theriault    needs (G, p) in the loop-filtration range; exponent
               r + nu_p(ord) + max(r + l(G), nu_p(c))
  closed_form  the relaxed matrix-family formulas; evaluated as stated,
               with no range check

plus the small fiber bound exp_moore_fiber (exponent nu_p(c)). Upper bounds
only: nothing here is claimed sharp.
"""

from __future__ import annotations

from .arith import nu_p
from .errors import HypothesisError
from .lie import (
    EXCEPTIONAL,
    LieGroupSpec,
    exceptional_rows,
    in_theriault_range,
    is_p_regular,
    l_of,
    ord_partial1_tilde,
    r_of,
)
from .manifold import ManifoldSpec, require_not_divisible_by_6
from .value import Value


class ExponentBound(Value):
    p: int
    exponent: int
    route: str  # regular | theriault | closed_form | moore_fiber
    assumptions: tuple[str, ...]
    alternatives: tuple["ExponentBound", ...]

    def __init__(
        self,
        p: int,
        exponent: int,
        route: str,
        assumptions: tuple[str, ...] = (),
        alternatives: tuple["ExponentBound", ...] = (),
    ) -> None:
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        self.__dict__.update(
            p=p, exponent=exponent, route=route, assumptions=assumptions, alternatives=alternatives
        )

    def __str__(self) -> str:
        return f"exp <= {self.p}^{self.exponent} [{self.route}]"


def exp_bound_regular(M: ManifoldSpec, G: LieGroupSpec, p: int) -> ExponentBound:
    """Exponent bound at a p-regular prime.

    >>> M = ManifoldSpec(c=5, m=2)
    >>> exp_bound_regular(M, LieGroupSpec("SU", 4), 5).exponent
    4
    >>> exp_bound_regular(M, LieGroupSpec("SU", 3), 5).exponent
    3
    """
    require_not_divisible_by_6(M.c)
    if not is_p_regular(G, p):
        raise HypothesisError(
            f"{G} is not p-regular at p = {p}; try the theriault route"
        )
    nu_ord = nu_p(ord_partial1_tilde(G, p), p)
    exponent = nu_ord + max(l_of(G), nu_p(M.c, p))
    assumptions = [f"{G} p-regular at {p}"]
    if G.family == "SU" and G.n in (2, 3):
        exponent += 1
        assumptions.append("low-rank SU adjustment (+1)")
    return ExponentBound(p, exponent, "regular", tuple(assumptions))


def exp_bound_theriault(M: ManifoldSpec, G: LieGroupSpec, p: int) -> ExponentBound:
    """Exponent bound through the looped-sphere filtration.

    >>> M = ManifoldSpec(c=7, m=2)
    >>> exp_bound_theriault(M, LieGroupSpec("F4"), 5).exponent
    15
    >>> exp_bound_theriault(M, LieGroupSpec("E8"), 31).exponent
    30
    """
    require_not_divisible_by_6(M.c)
    if not in_theriault_range(G, p):
        raise HypothesisError(f"({G}, p = {p}) outside the loop-filtration range")
    r = r_of(G, p)
    nu_ord = nu_p(ord_partial1_tilde(G, p), p)
    exponent = r + nu_ord + max(r + l_of(G), nu_p(M.c, p))
    return ExponentBound(
        p, exponent, "theriault", (f"({G}, p = {p}) in the loop-filtration range",)
    )


def exp_bound_closed_form(G: LieGroupSpec, p: int, c: int) -> ExponentBound:
    """The relaxed matrix-family bounds, evaluated verbatim.

    No range check on purpose: the statement is a formula and callers may
    quote it outside the sharper range (the tag says which route produced
    the number).

    >>> exp_bound_closed_form(LieGroupSpec("SU", 4), 5, 1).exponent
    9
    >>> exp_bound_closed_form(LieGroupSpec("Spin", 8), 5, 1).exponent
    10
    >>> exp_bound_closed_form(LieGroupSpec("Sp", 2), 3, 3**5).exponent
    6
    """
    nu_c = nu_p(c, p)
    if G.family == "SU":
        exponent = max(G.n + 2 * p - 5, nu_c + p - 1)
    elif G.family == "Sp":
        exponent = max(2 * G.n + 2 * p - 6, nu_c + p - 2)
    elif G.family == "Spin":
        half = G.n // 2
        if G.n % 2:
            exponent = max(2 * half + 2 * p - 6, nu_c + p - 2)
        else:
            exponent = max(2 * half + 2 * p - 8, nu_c + p - 2)
    else:
        raise HypothesisError(
            f"no closed form for {G.family}; use the exceptional table route"
        )
    return ExponentBound(p, exponent, "closed_form", (f"{G.family} closed form",))


def exp_moore_fiber(c: int, p: int) -> ExponentBound:
    """Exponent of the double-looped power-map fiber factor.

    >>> exp_moore_fiber(9, 3).exponent
    2
    """
    if p == 2:
        raise ValueError("odd primes only")
    return ExponentBound(p, nu_p(c, p), "moore_fiber", ("power-map fiber factor",))


def best_bound(M: ManifoldSpec, G: LieGroupSpec, p: int) -> ExponentBound:
    """Minimum over the applicable regular/theriault routes; the losing
    route (when both apply) is kept in alternatives."""
    candidates: list[ExponentBound] = []
    errors: list[str] = []
    for route in (exp_bound_regular, exp_bound_theriault):
        try:
            candidates.append(route(M, G, p))
        except HypothesisError as exc:
            if str(exc) not in errors:
                errors.append(str(exc))
    if not candidates:
        raise HypothesisError("; ".join(errors))
    candidates.sort(key=lambda b: b.exponent)
    best = candidates[0]
    if len(candidates) > 1:
        best = ExponentBound(
            best.p, best.exponent, best.route, best.assumptions, tuple(candidates[1:])
        )
    return best


# -- the exceptional-group table ----------------------------------------------


class ExponentTableRow(Value):
    family: str
    prime_cond: str  # "p=5" or "p>=11"
    base: int  # the constant arm of the max
    offset: int  # exponent is max(base, nu_p(c) + offset)

    def __init__(self, family: str, prime_cond: str, base: int, offset: int) -> None:
        self.__dict__.update(family=family, prime_cond=prime_cond, base=base, offset=offset)

    def bound_text(self) -> str:
        nu = "ν_p(c)" if self.offset == 0 else f"ν_p(c)+{self.offset}"
        return f"max({self.base}, {nu})"


def exceptional_table() -> list[ExponentTableRow]:
    """One row per (exceptional family, prime condition): the bound as a
    piecewise max in nu_p(c).

    The base/offset arms come from the catalog through the same arithmetic
    as exp_bound_theriault, so this table is a restatement, not a second
    source of truth.
    """
    rows = []
    for family in EXCEPTIONAL:
        G = LieGroupSpec(family)
        l = l_of(G)
        # representative prime: the least one the row covers; for a
        # "p>=K" row that works because ord has no prime factor that large
        for prime_cond, p_rep, ord_value, r in exceptional_rows(family):
            offset = r + nu_p(ord_value, p_rep)
            rows.append(ExponentTableRow(family, prime_cond, l + r + offset, offset))
    return rows
