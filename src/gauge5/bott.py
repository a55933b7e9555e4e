"""Stable homotopy of gauge groups over the 5-manifolds.

For G = SU(n) or Spin(n) with n large against r, pi_r of the gauge group is
computed by pushing the away-from-c decomposition through the stable
homotopy of the family: each factor Omega^j G contributes
stable_pi(family, r + j). The shift multiset comes from normalize(), so a
normalization bug shows up here as a wrong table entry, which is the point.

The shift multiset depends on M and the localization only, not on r: M fixes
the factors (G x Omega^5 G x (Omega^2 G x Omega^3 G)^(m-1), or the CP^2 form
for non-spin M) and the localization decides which of them normalize()
splits or drops. That is Bott periodicity for the gauge group, and it lets
bott_rows compute the localization and the multiset once per table; each
row is then a sum of stable groups. The multiset is built on the query's
one localization, so c is factored once per query, in
StableQuery.localization(); normalize() only asks whether that
localization inverts c, which it answers by division.

Results below the stability threshold are refused, not extrapolated.
"""

from __future__ import annotations

from .abelian import FGAbelianGroup
from .decomposition import _away_from_c_atoms
from .errors import HypothesisError
from .lie import LieGroupSpec, stable_pi
from .localization import Localization
from .manifold import ManifoldSpec, require_pi4_trivial
from .spaces import SpaceExpr
from .value import Value

_STABLE_FAMILIES = ("SU", "Spin")


def stability_threshold(family: str, r: int) -> int:
    """Least n making pi_r of the family's gauge groups stable.

    >>> stability_threshold("SU", 8)
    7
    >>> stability_threshold("Spin", 2)
    9
    >>> stability_threshold("SU", 1)
    4
    """
    if family == "SU":
        if r < 1:
            raise ValueError(f"need r >= 1, got {r}")
        return (r + 7) // 2  # least n with n >= r/2 + 3
    if family == "Spin":
        if r < 2:
            raise ValueError(f"need r >= 2, got {r}")
        return r + 7
    raise ValueError(f"stable families are SU and Spin, got {family!r}")


class StableQuery(Value):
    M: ManifoldSpec
    family: str  # SU | Spin
    k: int
    r: int
    ctx: str  # away_c | away_2c

    def __init__(self, M: ManifoldSpec, family: str, k: int, r: int, ctx: str = "away_c") -> None:
        self.__dict__.update(M=M, family=family, k=k, r=r, ctx=ctx)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.family not in _STABLE_FAMILIES:
            raise ValueError(f"stable families are SU and Spin, got {self.family!r}")
        if self.ctx not in ("away_c", "away_2c"):
            raise ValueError(f"ctx must be away_c or away_2c, got {self.ctx!r}")
        low = 1 if self.family == "SU" else 2
        if self.r < low:
            raise ValueError(f"need r >= {low} for {self.family}, got {self.r}")
        if not self.M.spin and self.ctx != "away_2c":
            raise HypothesisError(
                "non-spin manifolds need localization away from 2c"
            )

    def localization(self) -> Localization:
        if self.ctx == "away_2c":
            return Localization.away_from([2, self.M.c])
        return Localization.away_from([self.M.c])


def _representative(family: str, r: int) -> LieGroupSpec:
    # any group above the threshold works; pi_4 must also vanish, which
    # rules out nothing here (SU(n >= 3), Spin(n >= 6))
    n = stability_threshold(family, r)
    if family == "SU":
        return LieGroupSpec("SU", max(n, 3))
    return LieGroupSpec("Spin", max(n, 9))


def shift_multiset(q: StableQuery, ctx: Localization) -> tuple[int, ...]:
    """Loop shifts of the normalized away-from-c decomposition, with
    multiplicity, ascending.

    The multiset depends on q.M and the localization only: q.r picks the
    representative group, which never changes what normalize() returns
    here, so one multiset serves every r of a period (bott_rows computes it
    once per table). q.k is unused: every component agrees away from c.
    The expression is built on ctx, the query's one localization
    (q.localization(), which the callers already hold).
    """
    G = _representative(q.family, q.r)
    require_pi4_trivial(G, ctx)
    expr = SpaceExpr(_away_from_c_atoms(q.M), localization=ctx, group=G, c=q.M.c).normalize()
    shifts: list[int] = []
    for atom, mult in expr.atoms:
        if atom.kind == "group":
            shifts.extend([0] * mult)
        elif atom.kind == "loops_g":
            shifts.extend([atom.j] * mult)
        else:
            raise AssertionError(f"unexpected stable factor {atom}")
    return tuple(sorted(shifts))


def _shifted_sum(
    family: str, r: int, shifts: tuple[int, ...], ctx: Localization
) -> FGAbelianGroup:
    return FGAbelianGroup.direct_sum([stable_pi(family, r + s) for s in shifts]).localize(ctx)


def stable_pi_gauge(q: StableQuery) -> FGAbelianGroup:
    """pi_r of the stable gauge group, in the query's localization.

    >>> M = ManifoldSpec(c=5, m=2)
    >>> str(stable_pi_gauge(StableQuery(M, "SU", 0, 9)))
    'Z^2'
    >>> str(stable_pi_gauge(StableQuery(M, "Spin", 0, 6)))
    'Z ⊕ Z/2 ⊕ Z/2'
    """
    ctx = q.localization()
    return _shifted_sum(q.family, q.r, shift_multiset(q, ctx), ctx)


def bott_rows(M: ManifoldSpec, family: str, k: int = 0, ctx: str = "away_c") -> list:
    """One period of stable pi_r for (M, family): (r, period, pi_r) per row.

    Every row builds its StableQuery, so it is validated and refused as
    stable_pi_gauge would be; the localization and the shift multiset are
    computed once for the period (see shift_multiset).
    """
    period = 2 if family == "SU" else (4 if ctx == "away_2c" else 8)
    low = 1 if family == "SU" else 2
    queries = [StableQuery(M, family, k, r, ctx) for r in range(low, low + period)]
    local = queries[0].localization()
    # the top r's representative group is above the threshold of every row
    shifts = shift_multiset(queries[-1], local)
    return [(q.r, period, _shifted_sum(family, q.r, shifts, local)) for q in queries]


def bott_table(M: ManifoldSpec, family: str, k: int = 0, ctx: str = "away_c") -> str:
    """One period of stable pi_r for (M, family), rendered as rows."""
    head = (
        f"stable pi_r of {family} gauge groups over M"
        f" (c = {M.c}, m = {M.m}, {'spin' if M.spin else 'non-spin'},"
        f" {'away from 2c' if ctx == 'away_2c' else 'away from c'})"
    )
    rows = [f"  r ≡ {r % P} (mod {P}): {value}" for r, P, value in bott_rows(M, family, k, ctx)]
    return "\n".join([head] + rows)
