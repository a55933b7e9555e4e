"""Homotopy-exponent upper bounds for gauge groups over the 5-manifolds.

All bounds are powers of an odd prime p; an ExponentBound holds the exponent
only (the bound is p^exponent). Three computational routes:

  regular      needs G p-regular; exponent nu_p(ord) + max(l(G), nu_p(c)),
               plus 1 for SU(2) and SU(3)
  theriault    needs (G, p) in the loop-filtration range; exponent
               r + nu_p(ord) + max(r + l(G), nu_p(c)) = max(A, nu_p(c) + B)
               with the arms (A, B) of lie._arms
  closed_form  the relaxed matrix-family formulas; evaluated as stated,
               with no range check

plus the small fiber bound exp_moore_fiber (exponent nu_p(c)). Upper bounds
only: nothing here is claimed sharp. The regular and theriault routes share
one reading of (G, p, c), _routes: exp_bound_regular, exp_bound_theriault
and best_bound (the better of the two) each make one catalog lookup,
lie._lookup, which returns the one row that holds at p. The exceptional
table is the loaded catalog's exceptional rows themselves, whose published
arms (A, B) the loader checked against lie._arms as it built each row.
"""

from .arith import nu_p
from .errors import HypothesisError
from .lie import (
    EXCEPTIONAL, CatalogRow, LieGroupSpec, _arms, _entry, _lookup, _ord_at, _r_at,
    _require_odd_prime, _within, l_of,
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


def _routes(M: ManifoldSpec, G: LieGroupSpec, p: int, regular: bool, theriault: bool) -> list:
    """(exponent, route, assumptions) of each asked route that applies, regular
    first: the one reading of (G, p, c) behind every route. 6 ∤ c and the odd
    prime p are checked once, (G, p) resolved once (lie._lookup), and
    l(G), nu_p(c), nu_p(ord) read once; if no asked route applies, one
    HypothesisError joins their refusals."""
    require_not_divisible_by_6(M.c)
    _require_odd_prime(p)
    l = l_of(G)
    is_regular, in_range, refusals = _within("p_regular", l, p), _within("theriault", l, p), []
    if regular and not is_regular:
        refusals.append(f"{G} is not p-regular at p = {p}; try the theriault route")
    if theriault and not in_range:
        refusals.append(f"({G}, p = {p}) outside the loop-filtration range")
    if len(refusals) == regular + theriault:
        raise HypothesisError("; ".join(refusals))
    row, n = _lookup(G, p)  # one scan: the row whose ord and r cells both routes read
    nu_c, nu_ord, found = nu_p(M.c, p), None, []
    if regular and is_regular:  # its ord lookup refuses before the r lookup below
        nu_ord = nu_p(_ord_at(G, row, n, p), p)
        exponent, assumptions = nu_ord + max(l, nu_c), (f"{G} p-regular at {p}",)
        if G.family == "SU" and G.n in (2, 3):
            exponent += 1
            assumptions += ("low-rank SU adjustment (+1)",)
        found.append((exponent, "regular", assumptions))
    if theriault and in_range:
        r = _r_at(G, row, n, p)
        nu_ord = nu_p(_ord_at(G, row, n, p), p) if nu_ord is None else nu_ord
        base, offset = _arms(r, nu_ord, l)
        assumptions = (f"({G}, p = {p}) in the loop-filtration range",)
        found.append((max(base, nu_c + offset), "theriault", assumptions))
    return found


def exp_bound_regular(M: ManifoldSpec, G: LieGroupSpec, p: int) -> ExponentBound:
    """Exponent bound at a p-regular prime.

    >>> M = ManifoldSpec(c=5, m=2)
    >>> exp_bound_regular(M, LieGroupSpec("SU", 4), 5).exponent
    4
    >>> exp_bound_regular(M, LieGroupSpec("SU", 3), 5).exponent
    3
    """
    return ExponentBound(p, *_routes(M, G, p, True, False)[0])


def exp_bound_theriault(M: ManifoldSpec, G: LieGroupSpec, p: int) -> ExponentBound:
    """Exponent bound through the looped-sphere filtration.

    >>> M = ManifoldSpec(c=7, m=2)
    >>> exp_bound_theriault(M, LieGroupSpec("F4"), 5).exponent
    15
    >>> exp_bound_theriault(M, LieGroupSpec("E8"), 31).exponent
    30
    """
    return ExponentBound(p, *_routes(M, G, p, False, True)[0])


def _require_c_positive(c: int) -> None:
    """The routes that read nu_p(c) directly need c >= 1."""
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")


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
    _require_c_positive(c)
    if G.family in EXCEPTIONAL:
        raise HypothesisError(f"no closed form for {G.family}; use the exceptional table route")
    _require_odd_prime(p)
    # SU(n)'s max(n + 2p - 5, nu_p(c) + p - 1), Spin(2n)'s max(2n + 2p - 8, nu_p(c) + p - 2)
    # and Sp(n)'s and Spin(2n+1)'s max(2n + 2p - 6, nu_p(c) + p - 2), read through l(G)
    exponent = max(l_of(G) + 2 * p - 5, nu_p(c, p) + p - 2) + (G.family == "SU")
    return ExponentBound(p, exponent, "closed_form", (f"{G.family} closed form",))


def exp_moore_fiber(c: int, p: int) -> ExponentBound:
    """Exponent of the double-looped power-map fiber factor.

    >>> exp_moore_fiber(9, 3).exponent
    2
    """
    _require_odd_prime(p)
    _require_c_positive(c)
    return ExponentBound(p, nu_p(c, p), "moore_fiber", ("power-map fiber factor",))


def best_bound(M: ManifoldSpec, G: LieGroupSpec, p: int) -> ExponentBound:
    """Minimum over the applicable regular/theriault routes (regular on a
    tie); the losing route (when both apply) is kept in alternatives."""
    found = sorted(_routes(M, G, p, True, True), key=lambda bound: bound[0])
    return ExponentBound(p, *found[0], tuple(ExponentBound(p, *bound) for bound in found[1:]))


# -- the exceptional-group table ----------------------------------------------

def exceptional_table() -> list[CatalogRow]:
    """The loaded catalog's exceptional rows, in EXCEPTIONAL order and each
    family's in file order. A row's bound is max(row.base, nu_p(c) + row.offset).

    base and offset are the row's published arms (A, B), which the loader
    checked against the arms exp_bound_theriault evaluates at every prime the
    row covers (lie.CatalogRow). Each call returns a new list of those rows.
    """
    index = _entry()[1]
    return [row for family in EXCEPTIONAL for row in index.get((family, None), ())]
