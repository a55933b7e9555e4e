"""Homotopy-exponent upper bounds: three routes and the exceptional table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gauge5
from gauge5 import (
    CatalogError,
    ExponentBound,
    HypothesisError,
    LieGroupSpec,
    ManifoldSpec,
    best_bound,
    exceptional_table,
    exp_bound_closed_form,
    exp_bound_regular,
    exp_bound_theriault,
    exp_moore_fiber,
    in_theriault_range,
    is_p_regular,
    nu_p,
    ord_partial1_tilde,
    r_of,
)
from gauge5 import lie
from gauge5.arith import is_prime
from gauge5.lie import EXCEPTIONAL, CatalogRow, l_of, load_catalog
from gauge5.manifold import require_not_divisible_by_6
from test_acceptance import _manifold_with_valuation

SU = lambda n: LieGroupSpec("SU", n)
Sp = lambda n: LieGroupSpec("Sp", n)
Spin = lambda n: LieGroupSpec("Spin", n)

# Published bounds for the exceptional groups, one row per prime condition,
# as (family, condition, base, offset) with the bound max(base, nu_p(c)+offset).
PUBLISHED_ROWS = [
    ("G2", "p=5", 7, 1),
    ("G2", "p=7", 6, 1),
    ("G2", "p>=11", 5, 0),
    ("F4", "p=5", 15, 3),
    ("F4", "p=7", 13, 1),
    ("F4", "p=11", 13, 1),
    ("F4", "p=13", 12, 1),
    ("F4", "p>=17", 11, 0),
    ("E6", "p=5", 15, 3),
    ("E6", "p=7", 14, 2),
    ("E6", "p=11", 13, 1),
    ("E6", "p=13", 12, 1),
    ("E6", "p>=17", 11, 0),
    ("E7", "p=7", 22, 3),
    ("E7", "p=11", 20, 2),
    ("E7", "p=13", 19, 1),
    ("E7", "p=17", 19, 1),
    ("E7", "p=19", 18, 1),
    ("E7", "p>=23", 17, 0),
    ("E8", "p=7", 35, 4),
    ("E8", "p=11", 33, 3),
    ("E8", "p=13", 32, 2),
    ("E8", "p=17", 31, 1),
    ("E8", "p=19", 32, 2),
    ("E8", "p=23", 31, 1),
    ("E8", "p=29", 31, 1),
    ("E8", "p=31", 30, 1),
    ("E8", "p>=37", 29, 0),
]


def test_regular_route_examples():
    M = ManifoldSpec(2, 1)
    assert exp_bound_regular(M, SU(4), 5).exponent == 1 + max(3, 0)
    assert exp_bound_regular(M, SU(3), 5).exponent == 0 + max(2, 0) + 1
    assert exp_bound_regular(_manifold_with_valuation(11, 2), LieGroupSpec("G2"), 11).exponent == 5
    assert exp_bound_regular(M, SU(4), 5).route == "regular"


def test_regular_route_small_unitary_adjustment():
    M = ManifoldSpec(2, 1)
    # the extra unit applies exactly to SU(2) and SU(3)
    assert exp_bound_regular(M, SU(2), 5).exponent == 0 + max(1, 0) + 1
    assert exp_bound_regular(M, SU(4), 7).exponent == 0 + max(3, 0)


def test_regular_route_refuses_irregular_primes():
    with pytest.raises(HypothesisError, match="theriault"):
        exp_bound_regular(ManifoldSpec(2, 1), SU(4), 3)
    with pytest.raises(ValueError):
        exp_bound_regular(ManifoldSpec(2, 1), SU(4), 2)


def test_theriault_route_examples():
    assert exp_bound_theriault(ManifoldSpec(2, 1), LieGroupSpec("F4"), 5).exponent == 15
    assert exp_bound_theriault(ManifoldSpec(2, 1), LieGroupSpec("E8"), 31).exponent == 30
    big = _manifold_with_valuation(5, 30)
    b = exp_bound_theriault(big, LieGroupSpec("F4"), 5)
    assert b.exponent == 1 + 2 + 30  # r + nu_p(ord) + nu_p(c) once c dominates


def test_theriault_route_range_check():
    with pytest.raises(HypothesisError, match="range"):
        exp_bound_theriault(ManifoldSpec(2, 1), SU(14), 5)


def test_manifold_hypotheses_for_both_routes():
    bad = ManifoldSpec(6, 2)
    with pytest.raises(HypothesisError, match="6 ∤ c"):
        exp_bound_regular(bad, SU(4), 5)
    with pytest.raises(HypothesisError, match="6 ∤ c"):
        exp_bound_theriault(bad, SU(4), 5)
    # odd c with a stably trivial tangent bundle is the other admissible case
    odd_sp = ManifoldSpec(9, 2, stably_parallelizable=True)
    assert exp_bound_regular(odd_sp, SU(4), 5).exponent == 4
    even_ok = ManifoldSpec(4, 2)
    assert exp_bound_regular(even_ok, SU(4), 5).exponent == 4


def test_closed_form_examples():
    assert exp_bound_closed_form(SU(4), 5, 2).exponent == max(9, 4)
    assert exp_bound_closed_form(Spin(8), 5, 2).exponent == max(10, 3)
    assert exp_bound_closed_form(Sp(2), 3, 3**5).exponent == max(4, 6)
    assert exp_bound_closed_form(Spin(9), 5, 2).exponent == max(2 * 4 + 4, 3)
    assert exp_bound_closed_form(SU(4), 5, 2).route == "closed_form"


def test_closed_form_rejects_exceptional_families():
    with pytest.raises(HypothesisError, match="exceptional table"):
        exp_bound_closed_form(LieGroupSpec("G2"), 5, 5)


@pytest.mark.parametrize("G", [SU(4), Sp(2), Spin(7), Spin(8)])
def test_closed_form_refuses_p_2_like_the_other_routes(G):
    with pytest.raises(ValueError, match="^odd primes only$"):
        exp_bound_closed_form(G, 2, 1)


def test_closed_form_checks_the_family_before_the_prime():
    with pytest.raises(HypothesisError, match="no closed form for E8"):
        exp_bound_closed_form(LieGroupSpec("E8"), 2, 1)


def test_moore_fiber_bound():
    assert exp_moore_fiber(9, 3).exponent == 2
    assert exp_moore_fiber(5, 3).exponent == 0
    assert exp_moore_fiber(27 * 5, 3).exponent == 3
    assert exp_moore_fiber(9, 3).route == "moore_fiber"


def test_best_bound_takes_the_minimum_and_keeps_the_loser():
    M = ManifoldSpec(2, 1)
    b = best_bound(M, SU(4), 5)
    reg = exp_bound_regular(M, SU(4), 5)
    the = exp_bound_theriault(M, SU(4), 5)
    assert b.exponent == min(reg.exponent, the.exponent)
    assert len(b.alternatives) == 1
    assert {b.route, b.alternatives[0].route} == {"regular", "theriault"}
    only = best_bound(M, SU(6), 5)  # not 5-regular, theriault still applies
    assert only.route == "theriault"
    assert only.alternatives == ()
    with pytest.raises(HypothesisError, match="regular.*range"):
        best_bound(M, SU(4), 3)  # neither route: irregular and out of range


def test_exceptional_table_matches_the_published_rows():
    got = [(r.family, r.prime_cond, r.base, r.offset) for r in exceptional_table()]
    assert sorted(got) == sorted(PUBLISHED_ROWS)


def test_exceptional_table_rows_evaluate_like_theriault():
    for family, cond, base, offset in PUBLISHED_ROWS:
        G = LieGroupSpec(family)
        p = int(cond[3:]) if cond.startswith("p>=") else int(cond[2:])
        for nu in range(41):
            M = _manifold_with_valuation(p, nu)
            assert exp_bound_theriault(M, G, p).exponent == max(base, nu + offset), (
                family,
                cond,
                nu,
            )


def test_each_p_at_least_k_row_holds_at_every_prime_it_covers():
    # the table evaluates such a row at K; the loader's premise makes that exact
    for row in exceptional_table():
        least, greatest = row.interval
        G = LieGroupSpec(row.family)
        for p in (q for q in range(least, 110) if q <= greatest and is_prime(q)):
            for nu in (0, 3, 40):
                M = _manifold_with_valuation(p, nu)
                want = max(row.base, nu + row.offset)
                assert exp_bound_theriault(M, G, p).exponent == want, (row, p, nu)


def test_routes_agree_when_the_loop_offset_vanishes():
    for family, param_range in (("SU", range(2, 16)), ("Sp", range(1, 16)), ("Spin", range(5, 16))):
        for n in param_range:
            G = LieGroupSpec(family, n)
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                if not (is_p_regular(G, p) and in_theriault_range(G, p)):
                    continue
                if r_of(G, p) != 0:
                    continue
                if (family, n) in (("SU", 2), ("SU", 3)):
                    continue  # the regular route carries the extra unit
                for nu in (0, 2):
                    M = _manifold_with_valuation(p, nu)
                    reg = exp_bound_regular(M, G, p).exponent
                    the = exp_bound_theriault(M, G, p).exponent
                    assert reg == the, (G, p, nu)


def test_bounds_monotone_in_the_valuation():
    G = LieGroupSpec("E6")
    previous = -1
    for nu in range(0, 12):
        M = _manifold_with_valuation(5, nu)
        exponent = exp_bound_theriault(M, G, 5).exponent
        assert exponent >= previous
        previous = exponent


def test_closed_form_dominates_theriault_for_unitary_groups():
    for n in range(3, 21):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            if not in_theriault_range(SU(n), p):
                continue
            for nu in (0, 1, 3, 7, 10):
                M = _manifold_with_valuation(p, nu)
                closed = exp_bound_closed_form(SU(n), p, M.c).exponent
                the = exp_bound_theriault(M, SU(n), p).exponent
                assert closed >= the, (n, p, nu)


# -- the one reading against the composition it replaced ----------------------
#
# The regular and theriault routes and best_bound share one reading of
# (G, p, c). The oracle below is the earlier composition, written from the
# public lookups: each route checks its own hypotheses and makes its own
# catalog reads, and best_bound takes the minimum of the two routes, keeps the
# loser in `alternatives` and joins the deduplicated refusal texts with "; ".


def _old_regular(M, G, p):
    require_not_divisible_by_6(M.c)
    if not is_p_regular(G, p):
        raise HypothesisError(f"{G} is not p-regular at p = {p}; try the theriault route")
    exponent = nu_p(ord_partial1_tilde(G, p), p) + max(l_of(G), nu_p(M.c, p))
    assumptions = [f"{G} p-regular at {p}"]
    if G.family == "SU" and G.n in (2, 3):
        exponent += 1
        assumptions.append("low-rank SU adjustment (+1)")
    return ExponentBound(p, exponent, "regular", tuple(assumptions))


def _old_theriault(M, G, p):
    require_not_divisible_by_6(M.c)
    if not in_theriault_range(G, p):
        raise HypothesisError(f"({G}, p = {p}) outside the loop-filtration range")
    r = r_of(G, p)
    exponent = r + nu_p(ord_partial1_tilde(G, p), p) + max(r + l_of(G), nu_p(M.c, p))
    assumptions = (f"({G}, p = {p}) in the loop-filtration range",)
    return ExponentBound(p, exponent, "theriault", assumptions)


def _old_best(M, G, p):
    candidates, errors = [], []
    for route in (_old_regular, _old_theriault):
        try:
            candidates.append(route(M, G, p))
        except HypothesisError as exc:
            if str(exc) not in errors:
                errors.append(str(exc))
    if not candidates:
        raise HypothesisError("; ".join(errors))
    candidates.sort(key=lambda b: b.exponent)
    best = candidates[0]
    return ExponentBound(best.p, best.exponent, best.route, best.assumptions, tuple(candidates[1:]))


def _outcome(route, M, G, p):
    """The bound's fields (alternatives included), or the refusal's type and text."""
    try:
        b = route(M, G, p)
    except (HypothesisError, ValueError, CatalogError) as exc:
        return type(exc), str(exc)
    return b.p, b.exponent, b.route, b.assumptions, b.alternatives


_GRID_GROUPS = (
    [SU(n) for n in (2, 3, 4, 5, 7, 13, 14, 40)]
    + [Sp(n) for n in (1, 2, 3, 6, 11)]
    + [Spin(n) for n in (5, 6, 7, 8, 9, 12, 13, 41)]
    + [LieGroupSpec(f) for f in EXCEPTIONAL]
)
_GRID_PRIMES = (1, 2, 4, 9) + tuple(p for p in range(3, 44) if is_prime(p))
# multiples of 6, prime powers and a semiprime of two ~10^6 primes
_GRID_C = (2, 4, 5, 6, 12, 25, 49, 3**7, 11**3 * 13, 1000003 * 1000033)


@pytest.mark.parametrize("G", _GRID_GROUPS, ids=str)
def test_routes_answer_and_refuse_as_the_old_composition(G):
    for p in _GRID_PRIMES:
        for c in _GRID_C:
            M = ManifoldSpec(c, 2)
            for new, old in (
                (exp_bound_regular, _old_regular),
                (exp_bound_theriault, _old_theriault),
                (best_bound, _old_best),
            ):
                assert _outcome(new, M, G, p) == _outcome(old, M, G, p), (new.__name__, p, c)


def test_best_bound_refuses_the_regular_ord_lookup_first(tmp_path, monkeypatch):
    # E8 at 31 is regular and in range, but this catalog has no E8 row at 31:
    # the regular route's ord lookup refuses before the theriault route's r
    # lookup would, as when best_bound tried the two public routes in turn
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("SU 4 p=7 60 0\nE8 ord 45398353\nE8 - p=7 35 4\n", encoding="utf-8")
    monkeypatch.setenv("GAUGE_CATALOG", str(catalog))
    M, E8 = ManifoldSpec(5, 2), LieGroupSpec("E8")
    assert _outcome(best_bound, M, E8, 31) == (CatalogError, "order unknown for (E8, p=31)")
    assert _outcome(exp_bound_theriault, M, E8, 31) == (CatalogError, "no r value for (E8, p=31)")
    for G, p in ((E8, 31), (E8, 7), (SU(4), 5), (SU(4), 7), (SU(6), 5)):
        for route, old in (
            (exp_bound_regular, _old_regular),
            (exp_bound_theriault, _old_theriault),
            (best_bound, _old_best),
        ):
            assert _outcome(route, M, G, p) == _outcome(old, M, G, p), (route.__name__, G, p)


def test_best_bound_scans_the_exceptional_rows_once(monkeypatch):
    # E8's row at 31 is its eighth: one scan reaches it for both the ord and
    # the r cell (two scans made 16 calls)
    calls = []
    holds_at = CatalogRow._holds_at
    monkeypatch.setattr(
        CatalogRow, "_holds_at", lambda self, p, n: calls.append(p) or holds_at(self, p, n)
    )
    bound = best_bound(ManifoldSpec(c=7, m=2), LieGroupSpec("E8"), 31)
    assert (bound.exponent, bound.route) == (30, "regular")  # a tie: regular first
    assert bound.alternatives[0].route == "theriault"
    assert calls == [31] * 8


def test_exceptional_table_builds_no_group_spec(monkeypatch):
    monkeypatch.setattr(lie, "_catalog_cache", {})  # a fresh catalog: the table is built here
    built = []
    init = LieGroupSpec.__init__
    monkeypatch.setattr(
        LieGroupSpec, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k)
    )
    rows = [(r.family, r.prime_cond, r.base, r.offset) for r in exceptional_table()]
    assert built == []
    assert sorted(rows) == sorted(PUBLISHED_ROWS)


def test_importing_exponents_builds_no_group_spec():
    # l(G) of an exceptional family is read when its table rows are built, not at import
    code = (
        "from gauge5 import lie; built = []; init = lie.LieGroupSpec.__init__\n"
        "lie.LieGroupSpec.__init__ = lambda self, *a: built.append(a) or init(self, *a)\n"
        "import gauge5.exponents; print(built)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gauge5.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        check=True,
    ).stdout
    assert out == "[]\n"


_TABLE_OVERRIDE = """
G2   ord   4
G2   -   p>=11   5    0
G2   -   p=5     7    1
E8   ord   60
E8   -   p>=7    33   2
"""


def test_exceptional_table_reads_a_mid_process_catalog_override(tmp_path, monkeypatch):
    monkeypatch.delenv("GAUGE_CATALOG", raising=False)
    packaged = exceptional_table()
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(_TABLE_OVERRIDE, encoding="utf-8")
    monkeypatch.setenv("GAUGE_CATALOG", str(catalog))  # after the packaged load
    got = [(r.family, r.prime_cond, r.base, r.offset) for r in exceptional_table()]
    assert got == [("G2", "p>=11", 5, 0), ("G2", "p=5", 7, 1), ("E8", "p>=7", 33, 2)]
    monkeypatch.delenv("GAUGE_CATALOG")
    assert exceptional_table() == packaged


def _count_rows_built(monkeypatch) -> list:
    built = []
    init = CatalogRow.__init__
    monkeypatch.setattr(CatalogRow, "__init__", lambda self, *a: built.append(a[0]) or init(self, *a))
    return built


def test_exceptional_table_is_the_loaded_catalogs_own_rows():
    loaded = load_catalog()
    want = [row for family in EXCEPTIONAL for row in loaded if row.family == family]
    table = exceptional_table()
    assert len(table) == len(want) == len(PUBLISHED_ROWS)
    assert all(got is row for got, row in zip(table, want))


def test_exceptional_table_builds_nothing_per_call(monkeypatch):
    monkeypatch.delenv("GAUGE_CATALOG", raising=False)
    monkeypatch.setattr(lie, "_catalog_cache", {})
    built = _count_rows_built(monkeypatch)
    first = exceptional_table()
    assert len(built) == len(load_catalog())  # the catalog's own rows, built by its one load
    second = exceptional_table()
    assert len(built) == len(load_catalog())  # the second call builds no row
    assert second == first and second is not first
    assert all(a is b for a, b in zip(first, second))


def test_clearing_a_returned_table_leaves_the_next_one_intact():
    exceptional_table().clear()
    got = [(r.family, r.prime_cond, r.base, r.offset) for r in exceptional_table()]
    assert got == PUBLISHED_ROWS


def test_a_catalog_override_table_is_its_own_rows_built_by_its_load(tmp_path, monkeypatch):
    monkeypatch.delenv("GAUGE_CATALOG", raising=False)
    packaged = exceptional_table()
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(_TABLE_OVERRIDE, encoding="utf-8")
    monkeypatch.setenv("GAUGE_CATALOG", str(catalog))
    built = _count_rows_built(monkeypatch)
    table = exceptional_table()
    assert [r.family for r in table] == ["G2", "G2", "E8"]
    assert exceptional_table() == table
    assert all(a is b for a, b in zip(table, load_catalog()))
    assert built == ["G2", "G2", "E8"]  # the override's three rows, built once, by its load
    monkeypatch.delenv("GAUGE_CATALOG")
    again = exceptional_table()
    assert built == ["G2", "G2", "E8"]
    assert len(again) == 28 and all(a is b for a, b in zip(again, packaged))
