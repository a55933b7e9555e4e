"""Product decompositions of looped gauge groups and their rational ranks."""

import pytest

from gauge5 import (
    HypothesisError,
    LieGroupSpec,
    Localization,
    ManifoldSpec,
    SpaceAtom,
    SpaceExpr,
    gauge_away_from_c,
    loops2_gauge,
    loops3_gauge,
    rational_degrees,
)
from gauge5.spaces import group_itself, loop_fiber, loops_g, map_cp2, moore_gauge

SU = lambda n: LieGroupSpec("SU", n)


def _erase_labels(e: SpaceExpr) -> SpaceExpr:
    atoms = tuple(
        (SpaceAtom(a.kind, a.j, 0, a.n) if a.kind == "moore_gauge" else a, mult)
        for a, mult in e.atoms
    )
    return SpaceExpr(atoms, e.localization, e.group, e.c)


def test_double_loops_spin_case():
    M, G = ManifoldSpec(5, 2), SU(4)
    expected = SpaceExpr.of(
        [moore_gauge(2, 1), loop_fiber(3), loops_g(7), loops_g(4), loops_g(5)],
        localization=Localization.integral(),
        group=G,
        c=5,
    )
    assert loops2_gauge(M, G, 1) == expected


def test_double_loops_non_spin_case():
    M, G = ManifoldSpec(5, 3, spin=False), LieGroupSpec("E8")
    got = loops2_gauge(M, G, 0)
    expected = SpaceExpr.of(
        [moore_gauge(2, 0), map_cp2(3), loop_fiber(3), loops_g(4), loops_g(4), loops_g(5)],
        group=G,
        c=5,
    )
    assert got == expected


def test_double_loops_multiplicity_grows_with_m():
    e = loops2_gauge(ManifoldSpec(5, 4), SU(3), 0)
    assert dict(e.atoms).get(loops_g(4), 0) == 3
    assert dict(e.atoms).get(loops_g(5), 0) == 3
    lean = loops2_gauge(ManifoldSpec(5, 1), SU(3), 0)
    assert dict(lean.atoms).get(loops_g(4), 0) == 0


def test_double_loops_hypotheses():
    with pytest.raises(HypothesisError, match="6 ∤ c"):
        loops2_gauge(ManifoldSpec(6, 2), SU(3), 0)
    with pytest.raises(HypothesisError, match="m >= 2"):
        loops2_gauge(ManifoldSpec(5, 1, spin=False), SU(3), 0)
    with pytest.raises(HypothesisError, match=r"pi_4"):
        loops2_gauge(ManifoldSpec(5, 2), LieGroupSpec("Sp", 2), 0)
    # the obstruction is 2-torsion, so it vanishes in an odd-local context
    ok = loops2_gauge(ManifoldSpec(5, 2), LieGroupSpec("Sp", 2), 0, Localization.at_prime(3))
    assert ok.localization == Localization.at_prime(3)


def test_triple_loops_needs_all_three_flags():
    G = SU(5)
    M = ManifoldSpec(9, 2, stably_parallelizable=True, single_top_cell=True)
    expected = SpaceExpr.of(
        [moore_gauge(3, 2), loop_fiber(4), loops_g(8), loops_g(5), loops_g(6)],
        group=G,
        c=9,
    )
    assert loops3_gauge(M, G, 2) == expected
    with pytest.raises(HypothesisError, match="2 ∤ c"):
        loops3_gauge(ManifoldSpec(10, 2, stably_parallelizable=True, single_top_cell=True), G, 0)
    with pytest.raises(HypothesisError, match="stably_parallelizable"):
        loops3_gauge(ManifoldSpec(9, 2, single_top_cell=True), G, 0)
    with pytest.raises(HypothesisError, match="single_top_cell"):
        loops3_gauge(ManifoldSpec(9, 2, stably_parallelizable=True), G, 0)


def test_triple_loops_m1_has_empty_tail():
    M = ManifoldSpec(9, 1, stably_parallelizable=True, single_top_cell=True)
    e = loops3_gauge(M, SU(5), 0)
    assert e.atoms == ((moore_gauge(3, 0), 1), (loop_fiber(4), 1), (loops_g(8), 1))


def test_away_from_c_spin_and_non_spin():
    G = SU(3)
    spin = gauge_away_from_c(ManifoldSpec(4, 2), G)
    assert spin == SpaceExpr.of(
        [group_itself(), loops_g(5), loops_g(2), loops_g(3)],
        localization=Localization.away_from([4]),
        group=G,
        c=4,
    )
    nonspin = gauge_away_from_c(ManifoldSpec(3, 2, spin=False), LieGroupSpec("Spin", 12))
    assert nonspin == SpaceExpr.of(
        [group_itself(), map_cp2(1), loops_g(2)],
        localization=Localization.away_from([3]),
        group=LieGroupSpec("Spin", 12),
        c=3,
    )
    lean = gauge_away_from_c(ManifoldSpec(2, 1), G)
    assert lean.atoms == ((group_itself(), 1), (loops_g(5), 1))


def test_away_from_c_checks_pi4_in_its_own_localization():
    # away from even c the Sp obstruction is inverted; away from odd c it is not
    e = gauge_away_from_c(ManifoldSpec(4, 2), LieGroupSpec("Sp", 2))
    assert e.localization == Localization.away_from([4])
    with pytest.raises(HypothesisError, match="pi_4"):
        gauge_away_from_c(ManifoldSpec(5, 2), LieGroupSpec("Sp", 2))


def test_component_label_is_reduced_mod_c():
    M, G = ManifoldSpec(5, 2), SU(4)
    assert loops2_gauge(M, G, 7) == loops2_gauge(M, G, 2)
    assert loops2_gauge(M, G, -1) == loops2_gauge(M, G, 4)


def test_output_independent_of_label_up_to_erasure():
    M, G = ManifoldSpec(5, 3), SU(4)
    exprs = [loops2_gauge(M, G, k) for k in range(5)]
    erased = {_erase_labels(e) for e in exprs}
    assert len(erased) == 1


def _formula(M: ManifoldSpec, G: LieGroupSpec, q: int) -> int:
    degrees = rational_degrees(G)
    betti = (1, 0, M.m - 1, M.m - 1, 0, 1)
    return sum(b * degrees.count(r + q) for r, b in enumerate(betti))


def test_rational_rank_bookkeeping():
    groups = [SU(3), SU(4), LieGroupSpec("Spin", 8), LieGroupSpec("G2"), LieGroupSpec("E7")]
    for G in groups:
        for m in (1, 2, 3):
            spin = ManifoldSpec(5, m)
            e2 = loops2_gauge(spin, G, 1)
            M3 = ManifoldSpec(5, m, stably_parallelizable=True, single_top_cell=True)
            e3 = loops3_gauge(M3, G, 1)
            away = gauge_away_from_c(spin, G)
            for q in range(1, 13):
                assert e2.rational_rank(q) == _formula(spin, G, q + 2), (G, m, q)
                assert e3.rational_rank(q) == _formula(spin, G, q + 3), (G, m, q)
                assert away.rational_rank(q) == _formula(spin, G, q), (G, m, q)


def test_rational_rank_bookkeeping_for_torsion_pi4_groups():
    # SU(2) and Sp(n) need an odd-local context (or even c) for the
    # decomposition to exist; the rational ranks are context independent.
    odd = Localization.at_prime(3)
    for G in (SU(2), LieGroupSpec("Sp", 3)):
        for m in (1, 2, 3):
            spin = ManifoldSpec(5, m)
            e2 = loops2_gauge(spin, G, 1, odd)
            M3 = ManifoldSpec(5, m, stably_parallelizable=True, single_top_cell=True)
            e3 = loops3_gauge(M3, G, 1, odd)
            even = ManifoldSpec(4, m)
            away = gauge_away_from_c(even, G)
            for q in range(1, 13):
                assert e2.rational_rank(q) == _formula(spin, G, q + 2), (G, m, q)
                assert e3.rational_rank(q) == _formula(spin, G, q + 3), (G, m, q)
                assert away.rational_rank(q) == _formula(even, G, q), (G, m, q)


def test_spin_and_non_spin_ranks_agree():
    for G in (SU(4), LieGroupSpec("E8")):
        for m in (2, 3, 5):
            spin = loops2_gauge(ManifoldSpec(5, m), G, 0)
            nonspin = loops2_gauge(ManifoldSpec(5, m, spin=False), G, 0)
            for q in range(1, 25):
                assert spin.rational_rank(q) == nonspin.rational_rank(q), (G, m, q)
