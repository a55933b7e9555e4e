"""Stable homotopy of gauge groups over the 5-manifolds.

For G = SU(n) or Spin(n) with n large against r, pi_r of the gauge group is
computed by pushing the away-from-c decomposition through the family's Bott
groups (_STABLE): each factor Omega^j G contributes stable_pi(family, r + j).
The shift multiset comes from normalize(), so a normalization bug shows up
here as a wrong table entry, which is the point.

The shift multiset depends on M and the localization only: M fixes the
factors (G x Omega^5 G x (Omega^2 G x Omega^3 G)^(m-1), or the CP^2 form
for non-spin M) and the localization decides which of them normalize()
splits. That is Bott periodicity for the gauge group, and it lets bott_rows
compute the localization and the multiset once per table. Bott periodicity
of the family folds normalize()'s (shift, multiplicity) pairs into a count
per residue of its _STABLE period, keeping only the residues the shifts
hit: at most 4, as the shifts are 0, 2, 3 and 5 in both forms. Each Bott
group is localized once, when a row first reads it, so a row is one group
summed over at most 4 residue classes. The fold's cost does not grow with
m: a row of about m summands costs what its output costs. c is read only
through its parity (see StableQuery.localization): c is never factored,
and every c >= 2 answers.
"""

from .abelian import FGAbelianGroup
from .decomposition import _away_from_c_atoms
from .errors import require_listable
from .localization import Localization
from .manifold import ManifoldSpec, require_spin_or_away_from_2
from .spaces import SpaceExpr
from .value import Value

_AWAY_FROM_2 = Localization.away_from([2])

# Each stable family's least r and pi_r of its stable groups by residue of r:
# SU mod 2, Spin mod 8 (as cyclic orders, 0 encoding Z and 1 the zero group).
# Groups are immutable, so every caller shares these.
_STABLE = {
    "SU": (1, (FGAbelianGroup.trivial(), FGAbelianGroup.free(1))),
    "Spin": (2, tuple(FGAbelianGroup.cyclic(n) for n in (2, 2, 1, 0, 1, 1, 1, 0))),
}


def _stable_family(family: str, r: int | None = None) -> tuple[int, tuple[FGAbelianGroup, ...]]:
    """(least r, Bott groups by residue of r) of the SU or Spin family; the
    one check that a given r is at least the family's least r."""
    try:
        least, groups = _STABLE[family]
    except (KeyError, TypeError):
        raise ValueError(f"stable families are SU and Spin, got {family!r}") from None
    if r is not None and r < least:
        raise ValueError(f"need r >= {least} for {family}, got {r}")
    return least, groups


def stable_pi(family: str, r: int) -> FGAbelianGroup:
    """Stable pi_r for the SU or Spin family (Bott periodicity).

    >>> str(stable_pi("SU", 7)), str(stable_pi("SU", 8))
    ('Z', '0')
    >>> str(stable_pi("Spin", 11)), str(stable_pi("Spin", 13))
    ('Z', '0')
    """
    groups = _stable_family(family, r)[1]
    return groups[r % len(groups)]


def stability_threshold(family: str, r: int) -> int:
    """Least n making pi_r of the family's gauge groups stable.

    >>> stability_threshold("SU", 8)
    7
    >>> stability_threshold("Spin", 2)
    9
    >>> stability_threshold("SU", 1)
    4
    """
    _stable_family(family, r)
    # least n with n >= r/2 + 3 (SU) or n >= r + 7 (Spin)
    return (r + 7) // 2 if family == "SU" else r + 7


class StableQuery(Value):
    M: ManifoldSpec
    family: str  # SU | Spin
    k: int
    r: int
    ctx: str  # away_c | away_2c

    def __init__(self, M: ManifoldSpec, family: str, k: int, r: int, ctx: str = "away_c") -> None:
        _stable_family(family, r)
        if ctx not in ("away_c", "away_2c"):
            raise ValueError(f"ctx must be away_c or away_2c, got {ctx!r}")
        require_spin_or_away_from_2(M, ctx == "away_2c")
        self.__dict__.update(M=M, family=family, k=k, r=r, ctx=ctx)

    def localization(self) -> Localization:
        """Away from 2 when ctx is away_2c or c is even, else integral: the
        stable layer's one read of c, and only of c % 2. It agrees with
        inverting c (and 2, for away_2c) on every answer, because the Bott
        groups in _STABLE have only 2-primary torsion and
        _away_from_c_atoms yields only group, loops_g and map_cp2 atoms, so
        normalize() and localize() ask the context only whether it inverts 2."""
        inverts_2 = self.ctx == "away_2c" or self.M.c % 2 == 0
        return _AWAY_FROM_2 if inverts_2 else Localization.integral()


def _shift_multiset(M: ManifoldSpec, ctx: Localization) -> tuple[tuple[int, int], ...]:
    """Loop shifts of M's normalized away-from-c decomposition under ctx, as
    ascending (shift, multiplicity) pairs. ctx is the localization of a
    StableQuery, which has refused a non-spin M unless ctx inverts 2; it
    need only agree at 2 with one that inverts c, and c is not read. No r
    or k: one multiset serves every r of a period, and every k agrees."""
    shifts: list[tuple[int, int]] = []
    for atom, mult in SpaceExpr(_away_from_c_atoms(M), localization=ctx).normalize().atoms:
        if atom.kind not in ("group", "loops_g"):  # G itself is the shift j = 0
            raise AssertionError(f"unexpected stable factor {atom}")
        shifts.append((atom.j, mult))  # ascending: SpaceExpr sorts its atoms
    return tuple(shifts)


def _shifted_sums(groups, shifts, ctx: Localization, rs) -> list[FGAbelianGroup]:
    """[(the direct sum of stable_pi(family, r + s), n times, over (s, n) in
    shifts).localize(ctx) for r in rs], each built as one group. groups
    are the family's Bott groups by residue of r: the shifts s = i mod their
    period each contribute groups[(r + i) % period], so the (shift,
    multiplicity) pairs are folded into a count per residue hit once, and
    each Bott group a row reads is localized once, on its first read. Every
    row is counted before any is built: a row, and then all of them
    together, may list at most errors.LISTED_BOUND summands."""
    period = len(groups)
    counts: dict[int, int] = {}
    for s, n in shifts:
        counts[s % period] = counts.get(s % period, 0) + n
    local: dict[int, tuple] = {}  # residue of r + s -> (free rank, kept torsion)
    rows, total = [], 0
    for r in rs:
        rank, listed, hit = 0, 0, []
        for i, n in counts.items():
            g = (r + i) % period
            if g not in local:
                group = groups[g]
                local[g] = group.free_rank, [f for f in group.torsion if not ctx.inverts(f.p)]
            free, kept = local[g]
            rank += n * free
            if kept:  # each torsion summand prints on its own
                listed += n * len(kept)
                hit.append((kept, n))
        listed += rank > 0  # Z^rank prints once
        require_listable(listed)
        rows.append((rank, hit))
        total += listed
    require_listable(total)  # the whole table prints
    sums = []
    for rank, hit in rows:
        torsion = []
        for kept, n in hit:
            torsion += kept * n
        sums.append(FGAbelianGroup(rank, tuple(torsion)))
    return sums


def stable_pi_gauge(q: StableQuery) -> FGAbelianGroup:
    """pi_r of the stable gauge group, in the query's localization.

    >>> M = ManifoldSpec(c=5, m=2)
    >>> str(stable_pi_gauge(StableQuery(M, "SU", 0, 9)))
    'Z^2'
    >>> str(stable_pi_gauge(StableQuery(M, "Spin", 0, 6)))
    'Z ⊕ Z/2 ⊕ Z/2'
    """
    ctx = q.localization()
    return _shifted_sums(_stable_family(q.family)[1], _shift_multiset(q.M, ctx), ctx, [q.r])[0]


def bott_rows(M: ManifoldSpec, family: str, k: int = 0, ctx: str = "away_c") -> list:
    """One period of stable pi_r for (M, family): (r, period, pi_r) per row.

    One StableQuery, at the family's least r, is validated and refused as
    stable_pi_gauge would be: the rows' queries differ only in r, and every
    r of the period is valid. The localization, the shift multiset and its
    count per residue are computed once for the period.
    """
    least, groups = _stable_family(family)
    local = StableQuery(M, family, k, least, ctx).localization()
    # away from 2 the Z/2s vanish and Spin's period halves
    period = 4 if family == "Spin" and ctx == "away_2c" else len(groups)
    rs = range(least, least + period)
    sums = _shifted_sums(groups, _shift_multiset(M, local), local, rs)
    return [(r, period, value) for r, value in zip(rs, sums)]


def bott_table(M: ManifoldSpec, family: str, k: int = 0, ctx: str = "away_c") -> str:
    """One period of stable pi_r for (M, family), rendered as rows."""
    head = (
        f"stable pi_r of {family} gauge groups over M"
        f" (c = {M.c}, m = {M.m}, {'spin' if M.spin else 'non-spin'},"
        f" {'away from 2c' if ctx == 'away_2c' else 'away from c'})"
    )
    rows = [f"  r ≡ {r % P} (mod {P}): {value}" for r, P, value in bott_rows(M, family, k, ctx)]
    return "\n".join([head] + rows)
