"""Stable homotopy of SU and Spin gauge groups against the closed forms."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauge5 import (
    FGAbelianGroup,
    HypothesisError,
    Localization,
    ManifoldSpec,
    StableQuery,
    bott_table,
    stability_threshold,
    stable_pi_gauge,
)
from gauge5.bott import _STABLE, _shifted_sums, bott_rows, shift_multiset, stable_pi
from gauge5.decomposition import _away_from_c_atoms
from gauge5.spaces import SpaceExpr
from test_acceptance import _expected_spin_away_2c, _expected_spin_away_c

Z = FGAbelianGroup.free


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
            assert away_c == _expected_spin_away_c(r, m), (r, m)
            away_2c = stable_pi_gauge(StableQuery(M, "Spin", 0, r, "away_2c"))
            assert away_2c == _expected_spin_away_2c(r, m), (r, m)


def test_non_spin_manifolds_match_the_torsion_free_table():
    for m in (2, 3, 5):
        M = ManifoldSpec(5, m, spin=False)
        for r in range(2, 18):
            got = stable_pi_gauge(StableQuery(M, "Spin", 0, r, "away_2c"))
            assert got == _expected_spin_away_2c(r, m), (r, m)


# every manifold flag set (m, spin) of the parity grid below, at even and odd
# c (the localization reads only c % 2), including a multiple of 6 and a
# prime power
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
                outcomes.add(_outcome(shift_multiset, q.M, q.localization()))
            else:
                outcomes.add((kind, q))
        assert len(outcomes) == 1, (c, m, spin, family, ctx, outcomes)


def _inverting_c(M: ManifoldSpec, family: str, rs: range, ctx: str) -> list:
    """The reference: stable pi_r for each r in rs under a localization that
    inverts every prime of c (and 2, away from 2c), as computed before the
    stable layer read c only through its parity. It factors c."""
    StableQuery(M, family, 0, rs[0], ctx)  # validated and refused as stable_pi_gauge is
    local = Localization.away_from([2, M.c] if ctx == "away_2c" else [M.c])
    shifts = shift_multiset(M, local)
    zero = FGAbelianGroup.trivial()
    return [
        sum((stable_pi(family, r + s) for s, n in shifts for _ in range(n)), zero).localize(local)
        for r in rs
    ]


def test_reading_c_mod_2_agrees_with_inverting_c():
    grid = itertools.product(
        range(2, 201), (1, 2, 3, 5), (True, False), ("SU", "Spin"), ("away_c", "away_2c")
    )
    for c, m, spin, family, ctx in grid:
        M = ManifoldSpec(c, m, spin=spin)
        period = 2 if family == "SU" else (4 if ctx == "away_2c" else 8)
        rs = range(_STABLE[family][0], _STABLE[family][0] + period)
        want = _outcome(_inverting_c, M, family, rs, ctx)
        got = _outcome(lambda: [stable_pi_gauge(StableQuery(M, family, 0, r, ctx)) for r in rs])
        assert got == want, (c, m, spin, family, ctx)
        kind, rows = _outcome(bott_rows, M, family, 0, ctx)
        if kind == "ok":
            rows = [value for _, _, value in rows]
        assert (kind, rows) == want, (c, m, spin, family, ctx)


def test_the_parity_localization_rests_on_two_facts():
    # the Bott groups have only 2-primary torsion, so localize() reads only
    # whether 2 is inverted ...
    primes = {f.p for _, groups in _STABLE.values() for g in groups for f in g.torsion}
    assert primes == {2}
    # ... and the away-from-c factors hold no atom that normalize() drops or
    # rewrites by whether c is inverted: only map_cp2, by whether 2 is
    kinds = set()
    for m, spin in _FLAG_SETS:
        kinds |= {atom.kind for atom, _ in _away_from_c_atoms(ManifoldSpec(7, m, spin=spin))}
    assert kinds == {"group", "loops_g", "map_cp2"}


def _parity_pairs():
    """Two c of equal parity, up to 10^40: far past the primality bound, so
    most cannot be factored."""
    half = st.integers(min_value=1, max_value=10**40 // 2)
    return st.tuples(half, half, st.integers(0, 1)).map(
        lambda t: (2 * t[0] + t[2], 2 * t[1] + t[2])
    )


@settings(max_examples=60, deadline=None)
@given(
    _parity_pairs(),
    st.sampled_from(_FLAG_SETS),
    st.sampled_from(("SU", "Spin")),
    st.sampled_from(("away_c", "away_2c")),
    st.integers(min_value=2, max_value=40),
)
def test_stable_answers_depend_on_c_only_through_its_parity(cs, flags, family, ctx, r):
    m, spin = flags
    M, M2 = (ManifoldSpec(c, m, spin=spin) for c in cs)
    pis = [_outcome(lambda: stable_pi_gauge(StableQuery(N, family, 0, r, ctx))) for N in (M, M2)]
    assert pis[0] == pis[1]
    assert _outcome(bott_rows, M, family, 0, ctx) == _outcome(bott_rows, M2, family, 0, ctx)


def test_torsion_is_only_z2_and_only_in_the_spin_table():
    for m in (1, 3):
        M = ManifoldSpec(5, m)
        for r in range(2, 34):
            away_c = stable_pi_gauge(StableQuery(M, "Spin", 0, r))
            assert {f.value() for f in away_c.torsion} <= {2}
            away_2c = stable_pi_gauge(StableQuery(M, "Spin", 0, r, "away_2c"))
            assert away_2c.torsion == ()
            assert stable_pi_gauge(StableQuery(M, "SU", 0, r)).torsion == ()


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


@pytest.mark.parametrize("c", [2, 3, 4, 15])
def test_shift_multiset_refuses_a_non_spin_manifold_as_the_query_does(c):
    # the same hypothesis, in the same words, whichever entry point is asked
    M = ManifoldSpec(c, 2, spin=False)
    with pytest.raises(HypothesisError) as query:
        StableQuery(M, "Spin", 0, 3)
    for ctx in (Localization.integral(), Localization.at_prime(2)):
        with pytest.raises(HypothesisError) as multiset:
            shift_multiset(M, ctx)
        assert str(multiset.value) == str(query.value)
    for ctx in (Localization.away_from([2]), Localization.at_prime(3), Localization.rational()):
        assert shift_multiset(M, ctx) == shift_multiset(ManifoldSpec(c, 2), ctx)


def test_bott_table_text():
    text = bott_table(ManifoldSpec(5, 3), "Spin", 0)
    assert "r ≡ 6 (mod 8): Z ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2" in text
    assert "away from c" in text
    away2 = bott_table(ManifoldSpec(5, 3), "Spin", 0, "away_2c")
    assert "(mod 4)" in away2
    su = bott_table(ManifoldSpec(5, 3), "SU", 0)
    assert "(mod 2)" in su


def _direct_sum_oracle(M: ManifoldSpec, family: str, r: int, ctx: str) -> FGAbelianGroup:
    """pi_r as bott_rows and stable_pi_gauge once computed it: a direct sum
    over every shift of the multiset, then localized."""
    local = StableQuery(M, family, 0, r, ctx).localization()
    shifts = shift_multiset(M, local)
    summands = (stable_pi(family, r + s) for s, n in shifts for _ in range(n))
    return sum(summands, FGAbelianGroup.trivial()).localize(local)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=500),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.sampled_from(("SU", "Spin")),
    st.sampled_from(("away_c", "away_2c")),
    st.integers(min_value=0, max_value=40),
)
def test_the_residue_fold_equals_the_direct_sum_over_every_shift(c, m, spin, family, ctx, dr):
    M = ManifoldSpec(c, m, spin=spin)
    r = _STABLE[family][0] + dr
    want = _outcome(_direct_sum_oracle, M, family, r, ctx)
    assert _outcome(lambda: stable_pi_gauge(StableQuery(M, family, 0, r, ctx))) == want
    kind, rows = _outcome(bott_rows, M, family, 0, ctx)
    if kind != "ok":
        assert (kind, rows) == want
        return
    for row_r, _, value in rows:
        assert value == _direct_sum_oracle(M, family, row_r, ctx), (M, family, ctx, row_r)


@pytest.mark.parametrize("family", ["SU", "Spin"])
def test_a_bott_row_is_one_group_whatever_m(monkeypatch, family):
    built = []
    post_init = FGAbelianGroup.__post_init__
    monkeypatch.setattr(
        FGAbelianGroup, "__post_init__", lambda self: built.append(1) or post_init(self)
    )
    for m in (1, 8, 40):
        built.clear()
        rows = bott_rows(ManifoldSpec(15, m), family)
        assert len(built) == len(rows), (family, m)


@pytest.mark.parametrize("family", ["SU", "Spin"])
def test_a_spin_stable_answer_builds_one_expression(monkeypatch, family):
    # no normalize() rule fires on a spin M's factors, so normalize returns
    # the one expression shift_multiset built
    built = []
    init = SpaceExpr.__init__
    monkeypatch.setattr(
        SpaceExpr, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k)
    )
    for c, m, ctx in itertools.product((3, 4), (1, 2, 7), ("away_c", "away_2c")):
        M = ManifoldSpec(c, m)
        for answer in (
            lambda: stable_pi_gauge(StableQuery(M, family, 0, 9, ctx)),
            lambda: bott_rows(M, family, 0, ctx),
        ):
            built.clear()
            answer()
            assert len(built) == 1, (family, c, m, ctx)


class _ReadCounter(tuple):
    """Bott groups that record which residues are read."""

    def __getitem__(self, i):
        self.reads.append(i)
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("M, ctx", [
    (ManifoldSpec(3, 1), "away_c"),
    (ManifoldSpec(3, 5), "away_c"),
    (ManifoldSpec(4, 2), "away_c"),
    (ManifoldSpec(3, 5, spin=False), "away_2c"),
])
def test_the_fold_reads_each_bott_group_it_needs_once(M, ctx):
    local = StableQuery(M, "Spin", 0, 2, ctx).localization()
    shifts = shift_multiset(M, local)
    groups = _ReadCounter(_STABLE["Spin"][1])
    for rs in (range(9, 10), range(2, 10)):
        groups.reads = []
        sums = _shifted_sums(groups, shifts, local, rs)
        assert sorted(groups.reads) == sorted({(r + s) % 8 for r in rs for s, _ in shifts})
        assert sums == [_direct_sum_oracle(M, "Spin", r, ctx) for r in rs]
    assert len({(9 + s) % 8 for s, _ in shifts}) <= 4  # one r reads at most 4 of the 8
