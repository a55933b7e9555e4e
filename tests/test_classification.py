"""Homotopy-type counting over Moore spaces and looped 5-manifolds."""

import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauge5 import (
    HypothesisError,
    LieGroupSpec,
    Localization,
    ManifoldSpec,
    classify_looped_manifold,
    classify_moore,
    dirichlet_min,
    divisor_count,
    same_type_moore,
    trivial_case,
)
from gauge5 import arith, classification, lie
from gauge5.arith import nu_p, prime_divisors
from gauge5.classification import GcdClass

SU = lambda n: LieGroupSpec("SU", n)


def test_moore_classification_report():
    report = classify_moore(SU(3), 9)
    assert report.d == 3
    assert report.count_integral == 2
    assert report.count_at_p == ((3, 2),)  # one type at every other prime, 7 among them
    assert "order_source" not in report._fields  # one value for every report: not a field
    assert report.machine().splitlines()[0].endswith(" source=upper_bound_from_S4")
    classes = [(g, tuple(cls)) for g, cls in report.classes]
    assert classes == [(1, (1, 2, 4, 5, 7, 8)), (3, (0, 3, 6))]


def test_moore_classification_single_type():
    report = classify_moore(SU(5), 7)
    assert report.d == 1
    assert report.is_single_type()
    assert report.count_at_p == ()


def test_moore_classification_divisor_count():
    report = classify_moore(LieGroupSpec("G2"), 21)
    assert report.d == 21
    assert report.count_integral == 4  # divisors 1, 3, 7, 21


def test_classes_partition_the_residues():
    rng = random.Random(41)
    groups = [SU(2), SU(3), SU(5), LieGroupSpec("G2"), LieGroupSpec("E7")]
    for _ in range(60):
        G = rng.choice(groups)
        c = rng.randint(2, 120)
        report = classify_moore(G, c)
        members = [k for _, ks in report.classes for k in ks]
        assert sorted(members) == list(range(c))
        assert len(report.classes) == report.count_integral == divisor_count(report.d)
        for g, ks in report.classes:
            assert report.d % g == 0
            assert all(math.gcd(k, report.d) == g for k in ks)
        for p, count in report.count_at_p:
            assert count == nu_p(report.d, p) + 1


def test_same_type_examples():
    assert same_type_moore(1, 5, SU(3), 7)  # d = 1, everything collapses
    assert not same_type_moore(0, 1, SU(3), 9)  # gcd classes 3 vs 1
    assert same_type_moore(2, 4, SU(3), 9)  # both coprime to d = 3


def test_same_type_is_an_equivalence_relation():
    rng = random.Random(42)
    for _ in range(40):
        G = rng.choice([SU(3), SU(5), LieGroupSpec("G2")])
        c = rng.randint(2, 60)
        ks = [rng.randrange(c) for _ in range(6)]
        for k in ks:
            assert same_type_moore(k, k, G, c)
        for k in ks:
            for l in ks:
                assert same_type_moore(k, l, G, c) == same_type_moore(l, k, G, c)
                for n in ks:
                    if same_type_moore(k, l, G, c) and same_type_moore(l, n, G, c):
                        assert same_type_moore(k, n, G, c)


def test_report_records_order_provenance():
    # every count is derived from the sphere-level order, an upper bound,
    # and the report says which validity range that order came from
    report = classify_moore(SU(4), 9)
    assert report.ord == 60
    assert report.order_validity == "su_range"
    assert classify_moore(SU(3), 10).order_validity == "all"


def test_looped_classification_over_the_manifold():
    report = classify_looped_manifold(ManifoldSpec(5, 2), SU(3), 2)
    assert report.looped == 2
    assert report.d == 1
    assert report.is_single_type()
    sp = ManifoldSpec(9, 2, stably_parallelizable=True)
    away2 = classify_looped_manifold(sp, LieGroupSpec("Sp", 2), 3, Localization.away_from([2]))
    assert away2.d == 1
    assert away2.looped == 3


def test_looped_classification_hypotheses():
    with pytest.raises(HypothesisError, match="6 ∤ c"):
        classify_looped_manifold(ManifoldSpec(6, 2), SU(3), 2)
    with pytest.raises(HypothesisError, match="2 ∤ c"):
        classify_looped_manifold(ManifoldSpec(4, 2, stably_parallelizable=True), SU(3), 3)
    with pytest.raises(HypothesisError, match="stably_parallelizable"):
        classify_looped_manifold(ManifoldSpec(9, 2), SU(3), 3)
    with pytest.raises(HypothesisError, match="pi_4"):
        classify_looped_manifold(ManifoldSpec(5, 2), LieGroupSpec("Sp", 2), 2)
    with pytest.raises(ValueError):
        classify_looped_manifold(ManifoldSpec(5, 2), SU(3), 4)


def test_one_type_criterion_rows():
    G2, F4, E7 = (LieGroupSpec(f) for f in ("G2", "F4", "E7"))
    assert trivial_case(G2, 5, 5)
    assert not trivial_case(E7, 7, 7 * 11 * 19)
    assert trivial_case(F4, 5, 13)
    # matrix rows read the valuation condition literally
    assert trivial_case(SU(4), 5, 5)  # nu_5(gcd(60, 5)) = 1
    assert trivial_case(SU(4), 5, 50)  # nu_5(gcd(60, 50)) = 1
    assert not trivial_case(SU(4), 5, 3)  # nu_5(gcd(60, 3)) = 0
    assert not trivial_case(SU(18), 3, 3)  # n beyond (p-1)^2 + 1
    assert not trivial_case(F4, 3, 2)  # F4 row starts at p = 5
    assert trivial_case(LieGroupSpec("Sp", 2), 5, 5)  # nu_5(gcd(10, 5)) = 1
    assert trivial_case(LieGroupSpec("Spin", 8), 7, 7)  # nu_7(gcd(21, 7)) = 1
    assert not trivial_case(LieGroupSpec("Spin", 8), 5, 35)  # 5 does not divide 21
    with pytest.raises(ValueError):
        trivial_case(G2, 2, 5)


def _trivial_case_oracle(G: LieGroupSpec, p: int, c: int) -> bool:
    """The one-type criterion with the orders written out: the matrix-family
    formulas and the radicals of the exceptional orders."""
    bound = (p - 1) ** 2 + 1

    def nu_gcd(order: int) -> int:
        g, v = math.gcd(order, c), 0
        while g % p == 0:
            g, v = g // p, v + 1
        return v

    if G.family == "SU":
        return G.n <= bound and nu_gcd(G.n * (G.n**2 - 1)) == 1
    if G.family == "Sp":
        return 4 <= 2 * G.n <= bound and nu_gcd(G.n * (2 * G.n + 1)) == 1
    if G.family == "Spin":
        n = G.n // 2
        if G.n % 2:
            return 4 <= 2 * n <= bound and nu_gcd(n * (2 * n + 1)) == 1
        return 6 <= 2 * n <= bound and p >= 5 and nu_gcd((n - 1) * (2 * n - 1)) == 1
    p_min, radical = {
        "G2": (3, 3 * 7),
        "F4": (5, 5 * 13),
        "E6": (5, 5 * 7 * 13),
        "E7": (7, 7 * 11 * 19),
        "E8": (7, 7 * 11 * 13 * 19 * 31),
    }[G.family]
    return p >= p_min and c % radical != 0


def test_trivial_case_matches_the_written_out_orders():
    # SU(2)'s catalog order is 3, not 2 * 3; the two agree at every odd p
    groups = (
        [SU(n) for n in range(2, 10)]
        + [LieGroupSpec("Sp", n) for n in range(1, 7)]
        + [LieGroupSpec("Spin", n) for n in range(5, 17)]
        + [LieGroupSpec(f) for f in ("G2", "F4", "E6", "E7", "E8")]
    )
    primes = [p for p in range(3, 38, 2) if all(p % q for q in range(3, p, 2))]
    for G in groups:
        for p in primes:
            for c in range(2, 300):
                assert trivial_case(G, p, c) == _trivial_case_oracle(G, p, c), (G, p, c)


def test_trivial_case_forces_one_type_at_p():
    rng = random.Random(43)
    groups = [SU(3), SU(4), SU(5), LieGroupSpec("Sp", 2), LieGroupSpec("G2"), LieGroupSpec("E6")]
    for _ in range(200):
        G = rng.choice(groups)
        p = rng.choice([3, 5, 7, 11])
        c = rng.randint(2, 400)
        if not trivial_case(G, p, c):
            continue
        report = classify_moore(G, c)
        if report.d % p != 0:
            assert dict(report.count_at_p).get(p, 1) == 1


def test_trivial_case_reads_the_spin_2n_range_from_its_row(tmp_path, monkeypatch):
    # a catalog whose one row gives Spin(2n) an ord that 5 divides, so the range decides
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("SpinEven  *  spin_even_range  5  nu_p((2n-3)!)\n", encoding="utf-8")
    monkeypatch.setenv("GAUGE_CATALOG", str(catalog))
    Spin = lambda n: LieGroupSpec("Spin", n)
    # the tag bounds l(Spin(2n)) = 2n - 3 by (5-1)^2 = 16: Spin(18) is in, Spin(20) out
    assert trivial_case(Spin(16), 5, 5)
    assert trivial_case(Spin(18), 5, 5)
    assert not trivial_case(Spin(20), 5, 5)
    assert not trivial_case(SU(4), 5, 5)  # no SU row at all: the criterion does not hold


def test_trivial_case_does_not_hold_where_no_row_holds():
    # each classical family's first parameters and a window past each range edge at p,
    # asked at c = p, where a row read outside its tag would answer whenever p | its ord
    outside = divides = 0
    for p in (q for q in range(3, 60) if arith.is_prime(q)):
        edge = (p - 1) ** 2
        groups = [
            LieGroupSpec(family, n)
            for family, least, top in (("SU", 2, edge + 1), ("Sp", 1, edge // 2 + 1),
                                       ("Spin", 5, edge + 2))
            for n in {*range(least, 20), *range(max(least, top - 2), top + 2 * p + 2)}
        ]
        for G in groups:
            row, n = lie._lookup(G, p)
            if row is None:
                assert not trivial_case(G, p, p), (G, p)
                outside += 1
                divides += lie._rows(G)[0][0].ord_value(n) % p == 0
    assert outside > 1000 and divides > 100


def _dirichlet_oracle(k: int, ord_value: int, c: int, N: int) -> set[int]:
    """{ gcd(ord, k + c i) : 0 <= i <= N }, by direct enumeration."""
    return {math.gcd(ord_value, k + c * i) for i in range(N + 1)}


def test_dirichlet_min_agrees_with_the_full_enumeration():
    rng = random.Random(44)
    for _ in range(150):
        ordv = rng.choice([3, 24, 60, 120, 21, 325, 1463])
        c = rng.randint(2, 60)
        k = rng.randrange(c)
        n = 400
        assert dirichlet_min(k, ordv, c, n) == min(_dirichlet_oracle(k, ordv, c, n))


def test_dirichlet_min_attains_the_gcd_floor():
    rng = random.Random(45)
    for _ in range(150):
        ordv = rng.choice([24, 60, 120, 21, 325])
        c = rng.randint(2, 80)
        k = rng.randrange(c)
        assert dirichlet_min(k, ordv, c, 10**4) == math.gcd(k, math.gcd(ordv, c))


# -- the lazy gcd classes --------------------------------------------------------

NINE_FAMILIES = [
    SU(9),
    LieGroupSpec("Sp", 6),
    LieGroupSpec("Spin", 13),
    LieGroupSpec("Spin", 14),
    LieGroupSpec("G2"),
    LieGroupSpec("F4"),
    LieGroupSpec("E6"),
    LieGroupSpec("E7"),
    LieGroupSpec("E8"),
]


def _bucketed(c: int, d: int) -> dict[int, tuple[int, ...]]:
    """The classes by enumerating range(c), as classify_moore once built them."""
    buckets: dict[int, list[int]] = {}
    for k in range(c):
        buckets.setdefault(math.gcd(k % d, d), []).append(k)
    return {g: tuple(ks) for g, ks in sorted(buckets.items())}


def test_lazy_classes_equal_the_enumerated_ones():
    rng = random.Random(43)
    for G in NINE_FAMILIES:
        for c in range(2, 300):
            report = classify_moore(G, c)
            oracle = _bucketed(c, report.d)
            assert [g for g, _ in report.classes] == list(oracle)
            for g, members in report.classes:
                ks = oracle[g]
                assert len(members) == members.size == len(ks)
                assert tuple(members) == ks
                assert (members[0], members[-1]) == (ks[0], ks[-1])
                for i in rng.sample(range(-len(ks), len(ks)), min(6, 2 * len(ks))):
                    assert members[i] == ks[i], (G, c, g, i)
                for step in (1, 2, 3, -1, -4):
                    start = rng.randrange(-len(ks), len(ks))
                    stop = start + step * rng.randrange(12)
                    assert members[start:stop:step] == ks[start:stop:step]
                for k in (-1, c, *rng.choices(range(c), k=3), *ks[:3]):
                    assert (k in members) == (k in ks)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def test_lazy_class_comparison_and_hash():
    triples = [(c, d, g) for c in range(2, 25) for d in _divisors(c) for g in _divisors(d)]
    classes = [GcdClass(*t) for t in triples]
    for a in classes:
        for b in classes:
            assert (a == b) == (tuple(a) == tuple(b)), (a, b)
            if a == b:
                assert hash(a) == hash(b)
    assert GcdClass(8, 2, 1) == GcdClass(8, 4, 1) and tuple(GcdClass(8, 4, 1)) == (1, 3, 5, 7)
    assert GcdClass(2, 2, 2) == GcdClass(4, 4, 4) and tuple(GcdClass(4, 4, 4)) == (0,)
    assert GcdClass(9, 3, 1) != (1, 2, 4, 5, 7) and GcdClass(9, 3, 1) != [1, 2, 4, 5, 7, 8]
    # a class never equals a tuple, even of its own members, so that equal values hash alike
    assert GcdClass(9, 3, 1) != (1, 2, 4, 5, 7, 8) and (1, 2, 4, 5, 7, 8) != GcdClass(9, 3, 1)
    assert (1, 2, 4, 5, 7, 8) not in {GcdClass(9, 3, 1)}
    assert hash(classify_moore(SU(3), 10**12)) == hash(classify_moore(SU(3), 10**12))
    with pytest.raises(IndexError):
        GcdClass(9, 3, 1)[6]


@pytest.mark.parametrize("c", [10**7, 10**12])
def test_classify_moore_at_large_c_is_fast_and_small(c):
    classify_moore(SU(3), 9)  # load the catalog outside the measurement
    tracemalloc.start()
    start = time.perf_counter()
    report = classify_moore(SU(3), c)
    text, machine = report.table(), report.machine()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 2**20 and elapsed < 0.05, (peak, elapsed)
    assert f"class gcd=1: k = 1, 3, 5, 7, 9, 11, 13, 15, … ({c // 2} total)" in text
    assert f"class gcd=8 size={c // 8} rep=0" in machine


_TWELVE_GROUPS = [
    SU(2), SU(3), SU(5), SU(7), LieGroupSpec("Sp", 3), LieGroupSpec("Spin", 7),
    LieGroupSpec("Spin", 10), *(LieGroupSpec(f) for f in ("G2", "F4", "E6", "E7", "E8")),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_TWELVE_GROUPS), st.integers(min_value=2, max_value=10**4))
def test_one_factorization_gives_what_the_factoring_helpers_gave(G, c):
    report = classify_moore(G, c)
    d = report.d
    assert report.count_integral == divisor_count(d)
    assert report.count_at_p == tuple((p, nu_p(d, p) + 1) for p in prime_divisors(d))
    assert [g for g, _ in report.classes] == _divisors(d)
    for g, members in report.classes:
        alone = GcdClass(c, d, g)
        assert members == alone and hash(members) == hash(alone)
        assert (members._mobius, members._phi) == (alone._mobius, alone._phi)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_TWELVE_GROUPS),
    st.integers(min_value=2, max_value=10**4),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.sampled_from([2, 3]),
    st.sampled_from([None, Localization.integral(), Localization.away_from([2])]),
)
def test_the_looped_report_is_the_moore_report_looped(G, c, m, parallel, i, ctx):
    M = ManifoldSpec(c, m, stably_parallelizable=parallel)
    try:
        got = classify_looped_manifold(M, G, i, ctx)
    except HypothesisError:
        return
    want = classify_moore(G, c)
    assert [getattr(got, f) for f in got._fields if f != "looped"] == [
        getattr(want, f) for f in want._fields if f != "looped"
    ]
    assert got.looped == i


def _depends_on_d(report) -> tuple:
    """What classify_moore's report keeps when c moves with d = gcd(ord, c)
    fixed: each class's size is phi(d/g)·c/d, so size·d/c is kept."""
    classes = []
    for g, members in report.classes:
        assert members.size * report.d % report.c == 0
        classes.append((g, members.size * report.d // report.c))
    return (report.ord, report.order_validity, report.d, report.count_integral,
            report.count_at_p, tuple(classes))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_TWELVE_GROUPS),
    st.integers(min_value=2, max_value=10**4),
    st.integers(min_value=1, max_value=10**3),
    st.integers(min_value=0, max_value=10**4),
    st.integers(min_value=0, max_value=10**4),
)
def test_the_classification_depends_on_c_only_through_d(G, c, t, k, l):
    report = classify_moore(G, c)
    shifted = c + t * report.ord  # gcd(ord, c + t·ord) = gcd(ord, c)
    assert _depends_on_d(classify_moore(G, shifted)) == _depends_on_d(report)
    assert same_type_moore(k, l, G, shifted) == same_type_moore(k, l, G, c)


def test_classify_moore_factors_d_once(monkeypatch):
    calls = []
    factorize = arith.factorize
    counting = lambda m: calls.append(m) or factorize(m)
    monkeypatch.setattr(arith, "factorize", counting)  # read by prime_divisors and friends
    monkeypatch.setattr(classification, "factorize", counting)
    queries = [
        lambda: classify_moore(SU(3), 72),
        lambda: classify_moore(LieGroupSpec("E8"), 2 * 7**2 * 11 * 13),
        lambda: classify_moore(SU(3), 10**12),
        lambda: classify_looped_manifold(ManifoldSpec(35, 2), SU(5), 2),
    ]
    for query in queries:
        calls.clear()
        report = query()
        assert calls == [report.d], report
