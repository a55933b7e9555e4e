"""Stable homotopy of gauge groups over the 5-manifolds.

For G = SU(n) or Spin(n) with n large against r, pi_r of the gauge group is
computed by pushing the away-from-c decomposition through the stable
homotopy of the family: each factor Omega^j G contributes
stable_pi(family, r + j). The shift multiset comes from normalize(), so a
normalization bug shows up here as a wrong table entry, which is the point.

Results below the stability threshold are refused, not extrapolated.
"""

from __future__ import annotations

from .abelian import FGAbelianGroup
from .decomposition import gauge_away_from_c
from .errors import HypothesisError
from .lie import LieGroupSpec, stable_pi
from .localization import Localization
from .manifold import ManifoldSpec
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


def shift_multiset(q: StableQuery) -> tuple[int, ...]:
    """Loop shifts of the normalized away-from-c decomposition, with
    multiplicity, ascending."""
    expr = gauge_away_from_c(q.M, _representative(q.family, q.r), q.k)
    expr = expr.replace(localization=q.localization()).normalize()
    shifts: list[int] = []
    for atom, mult in expr.atoms:
        if atom.kind == "group":
            shifts.extend([0] * mult)
        elif atom.kind == "loops_g":
            shifts.extend([atom.j] * mult)
        else:
            raise AssertionError(f"unexpected stable factor {atom}")
    return tuple(sorted(shifts))


def stable_pi_gauge(q: StableQuery) -> FGAbelianGroup:
    """pi_r of the stable gauge group, in the query's localization.

    >>> M = ManifoldSpec(c=5, m=2)
    >>> str(stable_pi_gauge(StableQuery(M, "SU", 0, 9)))
    'Z^2'
    >>> str(stable_pi_gauge(StableQuery(M, "Spin", 0, 6)))
    'Z ⊕ Z/2 ⊕ Z/2'
    """
    ctx = q.localization()
    parts = [stable_pi(q.family, q.r + s) for s in shift_multiset(q)]
    return FGAbelianGroup.direct_sum(parts).localize(ctx)


def bott_rows(M: ManifoldSpec, family: str, k: int = 0, ctx: str = "away_c") -> list:
    """One period of stable pi_r for (M, family): (r, period, pi_r) per row."""
    period = 2 if family == "SU" else (4 if ctx == "away_2c" else 8)
    low = 1 if family == "SU" else 2
    return [
        (r, period, stable_pi_gauge(StableQuery(M, family, k, r, ctx)))
        for r in range(low, low + period)
    ]


def bott_table(M: ManifoldSpec, family: str, k: int = 0, ctx: str = "away_c") -> str:
    """One period of stable pi_r for (M, family), rendered as rows."""
    head = (
        f"stable pi_r of {family} gauge groups over M"
        f" (c = {M.c}, m = {M.m}, {'spin' if M.spin else 'non-spin'},"
        f" {'away from 2c' if ctx == 'away_2c' else 'away from c'})"
    )
    rows = [f"  r ≡ {r % P} (mod {P}): {value}" for r, P, value in bott_rows(M, family, k, ctx)]
    return "\n".join([head] + rows)
