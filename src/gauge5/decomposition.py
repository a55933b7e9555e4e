"""Product decompositions of looped gauge groups over the 5-manifolds.

Three constructors, one per theorem shape:

  loops2_gauge       double loops, 6 not dividing c
  loops3_gauge       triple loops, odd c, stably parallelizable with a
                     single top cell
  gauge_away_from_c  the unlooped gauge group after inverting c

Each returns a SpaceExpr whose factors are the atoms of spaces.py. The
expressions decompose the *looped* gauge group only; no delooping is
claimed anywhere.
"""

from __future__ import annotations

from .lie import LieGroupSpec
from .localization import Localization
from .manifold import (
    ManifoldSpec,
    require_m_at_least_2,
    require_not_divisible_by_6,
    require_odd,
    require_pi4_trivial,
    require_single_top_cell,
    require_stably_parallelizable,
)
from .spaces import (
    SpaceExpr,
    group_itself,
    loop_fiber,
    loops_g,
    map_cp2,
    moore_gauge,
)

# Each theorem's fixed factors, built once: atoms are immutable, so every call
# shares them. Only moore_gauge(j, k) depends on the input.
_GROUP, _CP2_1, _CP2_3 = group_itself(), map_cp2(1), map_cp2(3)
_FIBER_3, _FIBER_4 = loop_fiber(3), loop_fiber(4)
_OMEGA = {j: loops_g(j) for j in range(2, 9)}


def loops2_gauge(
    M: ManifoldSpec, G: LieGroupSpec, k: int, ctx: Localization | None = None
) -> SpaceExpr:
    """Decomposition of the double loops on the k-th gauge group of M.

    >>> M = ManifoldSpec(c=5, m=2)
    >>> print(loops2_gauge(M, LieGroupSpec.parse("SU:4"), 1))
    Ω²G₁(P⁴(5)) × Ω³G{5} × Ω⁴G × Ω⁵G × Ω⁷G
    """
    ctx = ctx or Localization.integral()
    require_not_divisible_by_6(M.c)
    require_pi4_trivial(G, ctx)
    k %= M.c
    if M.spin:
        atoms = ((moore_gauge(2, k), 1), (_FIBER_3, 1), (_OMEGA[7], 1),
                 (_OMEGA[4], M.m - 1), (_OMEGA[5], M.m - 1))
    else:
        require_m_at_least_2(M)
        atoms = ((moore_gauge(2, k), 1), (_CP2_3, 1), (_FIBER_3, 1),
                 (_OMEGA[4], M.m - 1), (_OMEGA[5], M.m - 2))
    return SpaceExpr(atoms, localization=ctx, group=G, c=M.c)


def loops3_gauge(
    M: ManifoldSpec, G: LieGroupSpec, k: int, ctx: Localization | None = None
) -> SpaceExpr:
    """Decomposition of the triple loops, for odd c and stably parallelizable
    M whose top cell splits off.

    >>> M = ManifoldSpec(c=9, m=2, stably_parallelizable=True, single_top_cell=True)
    >>> print(loops3_gauge(M, LieGroupSpec.parse("SU:5"), 2))
    Ω³G₂(P⁴(9)) × Ω⁴G{9} × Ω⁵G × Ω⁶G × Ω⁸G
    """
    ctx = ctx or Localization.integral()
    require_odd(M.c)
    require_stably_parallelizable(M)
    require_single_top_cell(M)
    require_pi4_trivial(G, ctx)
    k %= M.c
    atoms = ((moore_gauge(3, k), 1), (_FIBER_4, 1), (_OMEGA[8], 1),
             (_OMEGA[5], M.m - 1), (_OMEGA[6], M.m - 1))
    return SpaceExpr(atoms, localization=ctx, group=G, c=M.c)


def gauge_away_from_c(M: ManifoldSpec, G: LieGroupSpec, k: int = 0) -> SpaceExpr:
    """Decomposition of the gauge group itself once c is inverted.

    All components become equivalent away from c, so k only labels the
    input. The expression's localization inverts every prime dividing c.

    >>> M = ManifoldSpec(c=4, m=2)
    >>> print(gauge_away_from_c(M, LieGroupSpec.parse("SU:3")))
    G × Ω²G × Ω³G × Ω⁵G
    >>> M = ManifoldSpec(c=3, m=2, spin=False)
    >>> print(gauge_away_from_c(M, LieGroupSpec.parse("Spin:12")))
    G × ΩMap*₀(CP²,G) × Ω²G
    """
    ctx = Localization.away_from([M.c])
    require_pi4_trivial(G, ctx)
    return SpaceExpr(_away_from_c_atoms(M), localization=ctx, group=G, c=M.c)


def _away_from_c_atoms(M: ManifoldSpec) -> tuple:
    """The factors of gauge_away_from_c, for callers that bring their own
    localization (bott's agrees with inverting c only at the prime 2)."""
    if M.spin:
        return ((_GROUP, 1), (_OMEGA[5], 1), (_OMEGA[2], M.m - 1), (_OMEGA[3], M.m - 1))
    require_m_at_least_2(M)
    return ((_GROUP, 1), (_CP2_1, 1), (_OMEGA[2], M.m - 1), (_OMEGA[3], M.m - 2))
