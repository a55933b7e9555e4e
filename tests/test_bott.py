"""Stable homotopy of SU and Spin gauge groups against the closed forms."""

import itertools

import pytest

from gauge5 import (
    FGAbelianGroup,
    HypothesisError,
    ManifoldSpec,
    StableQuery,
    bott_table,
    stability_threshold,
    stable_pi_gauge,
)
from gauge5.bott import bott_rows, shift_multiset

Z = FGAbelianGroup.free
ZERO = FGAbelianGroup.trivial()


def _two_torsion(count: int) -> FGAbelianGroup:
    return FGAbelianGroup.from_cyclic_orders(*([2] * count))


def _spin_away_c(r: int, m: int) -> FGAbelianGroup:
    by_residue = {
        0: Z(m - 1) + _two_torsion(1),
        1: Z(m - 1) + _two_torsion(1),
        2: Z(1),
        3: Z(1) + _two_torsion(1),
        4: Z(m - 1) + _two_torsion(1),
        5: Z(m - 1) + _two_torsion(m - 1),
        6: Z(1) + _two_torsion(2 * m - 2),
        7: Z(1) + _two_torsion(m - 1),
    }
    return by_residue[r % 8]


def _spin_away_2c(r: int, m: int) -> FGAbelianGroup:
    return {0: Z(m - 1), 1: Z(m - 1), 2: Z(1), 3: Z(1)}[r % 4]


def test_su_result_is_free_of_rank_m():
    for m in (1, 2, 3, 5):
        for r in range(1, 20):
            spin = StableQuery(ManifoldSpec(5, m), "SU", 0, r)
            assert stable_pi_gauge(spin) == Z(m)
            if m >= 2:
                q = StableQuery(ManifoldSpec(5, m, spin=False), "SU", 0, r, "away_2c")
                assert stable_pi_gauge(q) == Z(m)


def test_spin_family_tables():
    for m in (1, 2, 3, 5):
        M = ManifoldSpec(5, m)
        for r in range(2, 34):
            away_c = stable_pi_gauge(StableQuery(M, "Spin", 0, r))
            assert away_c == _spin_away_c(r, m), (r, m)
            away_2c = stable_pi_gauge(StableQuery(M, "Spin", 0, r, "away_2c"))
            assert away_2c == _spin_away_2c(r, m), (r, m)


def test_non_spin_manifolds_match_the_torsion_free_table():
    for m in (2, 3, 5):
        M = ManifoldSpec(5, m, spin=False)
        for r in range(2, 18):
            got = stable_pi_gauge(StableQuery(M, "Spin", 0, r, "away_2c"))
            assert got == _spin_away_2c(r, m), (r, m)


# every manifold flag set (m, spin) of the parity grid below, at c of each
# kind that the localization sees: 2, odd, a multiple of 6, a prime power
_FLAG_SETS = [(m, spin) for m in (1, 2, 3, 5) for spin in (True, False) if spin or m >= 2]


@pytest.mark.parametrize("m, spin", _FLAG_SETS)
def test_periodicity(m, spin):
    for c in (2, 7, 9, 12, 60):
        M = ManifoldSpec(c, m, spin=spin)
        for r in range(2, 12):
            if spin:
                spin_q = stable_pi_gauge(StableQuery(M, "Spin", 0, r))
                assert spin_q == stable_pi_gauge(StableQuery(M, "Spin", 0, r + 8))
                su_q = stable_pi_gauge(StableQuery(M, "SU", 0, r))
                assert su_q == stable_pi_gauge(StableQuery(M, "SU", 0, r + 2))
            away2 = stable_pi_gauge(StableQuery(M, "Spin", 0, r, "away_2c"))
            assert away2 == stable_pi_gauge(StableQuery(M, "Spin", 0, r + 4, "away_2c"))
            su2 = stable_pi_gauge(StableQuery(M, "SU", 0, r, "away_2c"))
            assert su2 == stable_pi_gauge(StableQuery(M, "SU", 0, r + 2, "away_2c"))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (HypothesisError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_GRID = list(
    itertools.product(range(2, 61), (1, 2, 3, 5), (True, False), ("SU", "Spin"),
                      ("away_c", "away_2c"))
)


def test_bott_rows_agree_with_stable_pi_gauge_row_by_row():
    answered = 0
    for c, m, spin, family, ctx in _GRID:
        M = ManifoldSpec(c, m, spin=spin)
        kind, rows = _outcome(bott_rows, M, family, 0, ctx)
        period = 2 if family == "SU" else (4 if ctx == "away_2c" else 8)
        low = 1 if family == "SU" else 2
        for r in range(low, low + period):
            want = _outcome(lambda: stable_pi_gauge(StableQuery(M, family, 0, r, ctx)))
            if kind == "ok":
                assert want == ("ok", rows[r - low][2]), (c, m, spin, family, ctx, r)
                assert rows[r - low][:2] == (r, period)
            else:
                assert want == (kind, rows), (c, m, spin, family, ctx, r)
        answered += kind == "ok"
    assert answered == 59 * (4 * 2 * 2 + 3 * 2)  # spin: both ctx; non-spin: away_2c, m >= 2


def test_shift_multiset_is_one_per_period():
    # bott_rows computes the multiset once per table; it must not depend on r
    for c, m, spin, family, ctx in _GRID:
        M = ManifoldSpec(c, m, spin=spin)
        period = 2 if family == "SU" else (4 if ctx == "away_2c" else 8)
        low = 1 if family == "SU" else 2
        outcomes = set()
        for r in range(low, low + period):
            kind, q = _outcome(StableQuery, M, family, 0, r, ctx)
            if kind == "ok":
                outcomes.add(_outcome(shift_multiset, q, q.localization()))
            else:
                outcomes.add((kind, q))
        assert len(outcomes) == 1, (c, m, spin, family, ctx, outcomes)


def test_torsion_is_only_z2_and_only_in_the_spin_table():
    for m in (1, 3):
        M = ManifoldSpec(5, m)
        for r in range(2, 34):
            away_c = stable_pi_gauge(StableQuery(M, "Spin", 0, r))
            assert set(away_c.torsion_orders()) <= {2}
            away_2c = stable_pi_gauge(StableQuery(M, "Spin", 0, r, "away_2c"))
            assert away_2c.torsion_orders() == ()
            assert stable_pi_gauge(StableQuery(M, "SU", 0, r)).torsion_orders() == ()


def test_stability_thresholds():
    assert stability_threshold("SU", 8) == 7
    assert stability_threshold("SU", 1) == 4
    assert stability_threshold("Spin", 2) == 9
    assert stability_threshold("Spin", 6) == 13
    with pytest.raises(ValueError):
        stability_threshold("SU", 0)
    with pytest.raises(ValueError):
        stability_threshold("Sp", 3)


def test_query_validation():
    M = ManifoldSpec(5, 2)
    with pytest.raises(ValueError):
        StableQuery(M, "Spin", 0, 1)  # Spin needs r >= 2
    with pytest.raises(ValueError):
        StableQuery(M, "SU", 0, 0)
    with pytest.raises(ValueError):
        StableQuery(M, "Sp", 0, 3)
    with pytest.raises(HypothesisError, match="away from 2c"):
        StableQuery(ManifoldSpec(5, 2, spin=False), "Spin", 0, 3)
    with pytest.raises(ValueError):
        StableQuery(M, "Spin", 0, 3, "rational")


def test_bott_table_text():
    text = bott_table(ManifoldSpec(5, 3), "Spin", 0)
    assert "r ≡ 6 (mod 8): Z ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2" in text
    assert "away from c" in text
    away2 = bott_table(ManifoldSpec(5, 3), "Spin", 0, "away_2c")
    assert "(mod 4)" in away2
    su = bott_table(ManifoldSpec(5, 3), "SU", 0)
    assert "(mod 2)" in su
