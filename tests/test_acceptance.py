"""Acceptance gate: one test per published-result criterion.

Every test re-derives its expected values independently (hardcoded closed
forms, brute-force oracles, or termwise sums) and prints a single PASS line
with its runtime, so `pytest -v tests/test_acceptance.py` doubles as the
verification report for the whole package.
"""

import math
import random
import time

from gauge5 import (
    FGAbelianGroup,
    HypothesisError,
    Localization,
    ManifoldSpec,
    StableQuery,
    stable_pi_gauge,
)
from gauge5.arith import divisor_count, is_prime, legendre_valuation
from gauge5.classification import classify_moore, dirichlet_min, same_type_moore
from gauge5.decomposition import loops2_gauge
from gauge5.exponents import (
    exceptional_table,
    exp_bound_closed_form,
    exp_bound_theriault,
)
from gauge5.lie import CatalogError, LieGroupSpec, catalog_order
from gauge5.manifold import homology, pi6_P4, pi7_P5, suspension_image_order
from gauge5.rational import (
    HilbertSeries,
    RationalGroupModel,
    rational_gauge,
    rational_rank_formula,
)
from gauge5.spaces import (
    SpaceExpr,
    em_factor,
    group_itself,
    loop_fiber,
    loops_g,
    map_cp2,
    moore_gauge,
    sphere_factor,
)

Z = FGAbelianGroup.free


def _manifold_with_valuation(p: int, nu: int) -> ManifoldSpec:
    return ManifoldSpec(p**nu if nu else 2, 1)


def _cond_primes(cond: str) -> list[int]:
    if cond.startswith("p>="):
        lo = int(cond[3:])
        hi = lo + 1
        while not is_prime(hi):
            hi += 1
        return [lo, hi]
    return [int(cond[2:])]


def test_criterion_1_exceptional_exponent_rows():
    start = time.perf_counter()
    rows = exceptional_table()
    assert len(rows) >= 24
    checked = 0
    for row in rows:
        G = LieGroupSpec(row.family)
        for p in _cond_primes(row.prime_cond):
            for nu in range(0, 41):
                M = _manifold_with_valuation(p, nu)
                got = exp_bound_theriault(M, G, p).exponent
                assert got == max(row.base, nu + row.offset), (row, p, nu)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.3f}s"
    print(
        f"PASS criterion 1: {len(rows)} exceptional exponent rows × ν ∈ [0,40]"
        f" match exactly ({checked} cases, {elapsed:.3f}s)"
    )


def test_criterion_2_closed_forms_and_dominance():
    start = time.perf_counter()
    grids = {
        "SU": lambda n: LieGroupSpec("SU", n),
        "Sp": lambda n: LieGroupSpec("Sp", n),
        "SpinOdd": lambda n: LieGroupSpec("Spin", 2 * n + 1),
        "SpinEven": lambda n: LieGroupSpec("Spin", 2 * n),
    }

    def expected(kind: str, n: int, p: int, nu: int) -> int:
        if kind == "SU":
            return max(n + 2 * p - 5, nu + p - 1)
        if kind in ("Sp", "SpinOdd"):
            return max(2 * n + 2 * p - 6, nu + p - 2)
        return max(2 * n + 2 * p - 8, nu + p - 2)

    compared = 0
    for kind, make in grids.items():
        for n in range(3, 21):
            G = make(n)
            for p in (5, 7, 11, 13):
                for nu in range(0, 11):
                    c = p**nu if nu else 2
                    closed = exp_bound_closed_form(G, p, c).exponent
                    assert closed == expected(kind, n, p, nu), (kind, n, p, nu)
                    try:
                        loop = exp_bound_theriault(_manifold_with_valuation(p, nu), G, p)
                    except (HypothesisError, CatalogError):
                        continue
                    assert closed >= loop.exponent, (kind, n, p, nu)
                    compared += 1
    assert compared > 1000  # the dominance half must not be vacuous
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.3f}s"
    print(
        "PASS criterion 2: closed-form bounds verbatim on 4 families ×"
        f" n ∈ [3,20] × p ∈ {{5,7,11,13}} × ν ∈ [0,10], dominating the"
        f" loop-filtration route in {compared} comparable cases ({elapsed:.3f}s)"
    )


def _expected_su(m: int) -> FGAbelianGroup:
    return Z(m)


def _expected_spin_away_c(r: int, m: int) -> FGAbelianGroup:
    two = FGAbelianGroup.from_cyclic_orders
    return {
        0: Z(m - 1) + two(2),
        1: Z(m - 1) + two(2),
        2: Z(1),
        3: Z(1) + two(2),
        4: Z(m - 1) + two(2),
        5: Z(m - 1) + two(*([2] * (m - 1))),
        6: Z(1) + two(*([2] * (2 * m - 2))),
        7: Z(1) + two(*([2] * (m - 1))),
    }[r % 8]


def _expected_spin_away_2c(r: int, m: int) -> FGAbelianGroup:
    return {0: Z(m - 1), 1: Z(m - 1), 2: Z(1), 3: Z(1)}[r % 4]


def test_criterion_3_stable_homotopy_tables():
    start = time.perf_counter()
    checked = 0
    for m in (1, 2, 3, 5):
        M = ManifoldSpec(5, m)
        for r in range(2, 34):
            assert stable_pi_gauge(StableQuery(M, "SU", 0, r)) == _expected_su(m)
            assert stable_pi_gauge(StableQuery(M, "Spin", 0, r)) == _expected_spin_away_c(r, m)
            assert stable_pi_gauge(
                StableQuery(M, "Spin", 0, r, "away_2c")
            ) == _expected_spin_away_2c(r, m)
            checked += 3
    # spot check the widest torsion entry explicitly
    wide = stable_pi_gauge(StableQuery(ManifoldSpec(5, 5), "Spin", 0, 14))
    assert wide == Z(1) + FGAbelianGroup.from_cyclic_orders(*([2] * 8))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.3f}s"
    print(
        f"PASS criterion 3: stable tables for r ∈ [2,33], m ∈ {{1,2,3,5}}"
        f" ({checked} entries, {elapsed:.3f}s)"
    )


_CATALOG_REPRESENTATIVES = (
    LieGroupSpec("SU", 2),
    LieGroupSpec("SU", 3),
    LieGroupSpec("SU", 4),
    LieGroupSpec("SU", 5),
    LieGroupSpec("SU", 7),
    LieGroupSpec("Sp", 2),
    LieGroupSpec("Sp", 3),
    LieGroupSpec("Spin", 7),
    LieGroupSpec("Spin", 8),
    LieGroupSpec("Spin", 9),
    LieGroupSpec("Spin", 10),
    LieGroupSpec("G2"),
    LieGroupSpec("F4"),
    LieGroupSpec("E6"),
    LieGroupSpec("E7"),
    LieGroupSpec("E8"),
)


def test_criterion_4_dirichlet_gcd_oracle():
    start = time.perf_counter()
    checked = 0
    for G in _CATALOG_REPRESENTATIVES:
        ord_value = catalog_order(G)[0]
        for c in range(2, 201):
            if c % 6 == 0:
                continue  # classification hypothesis: 6 does not divide c
            g_c = math.gcd(ord_value, c)
            for k in range(c):
                want = math.gcd(k, g_c)
                assert dirichlet_min(k, ord_value, c, 10**4) == want, (G, c, k)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"budget 30 s exceeded: {elapsed:.3f}s"
    print(
        f"PASS criterion 4: arithmetic-progression gcd minimum equals"
        f" gcd(k, ord, c) for {len(_CATALOG_REPRESENTATIVES)} groups ×"
        f" c ≤ 200 ({checked} cases, {elapsed:.3f}s)"
    )


def test_criterion_5_factorial_valuation_oracle():
    start = time.perf_counter()
    primes = [p for p in range(2, 98) if is_prime(p)]
    for p in primes:
        acc = 0
        for m in range(1, 501):
            j = m
            while j % p == 0:
                acc += 1
                j //= p
            assert legendre_valuation(m, p) == acc, (m, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"budget 5 s exceeded: {elapsed:.3f}s"
    print(
        f"PASS criterion 5: factorial valuations match brute force for"
        f" m ≤ 500, p ≤ 97 ({len(primes) * 500} cases, {elapsed:.3f}s)"
    )


def test_criterion_6_mapping_space_rank_cross_check():
    start = time.perf_counter()
    rng = random.Random(160820)
    pool = (3, 5, 7, 9, 11, 13)
    for _ in range(200):
        coeffs = [1, 0] + [rng.randrange(0, 3) for _ in range(rng.randrange(1, 12))]
        X = HilbertSeries(tuple(coeffs))
        degrees = sorted(rng.choice(pool) for _ in range(rng.randrange(1, 9)))
        G = RationalGroupModel(tuple(degrees))
        based = rng.random() < 0.5
        expr = rational_gauge(X, G, based=based)
        for q in range(1, 31):
            want = sum(
                X.coefficient(i) * degrees.count(q + i)
                for i in range(1 if based else 0, X.degree() + 1)
            )
            assert expr.rational_rank(q) == want
            assert rational_rank_formula(X, G, q, based=based) == want

    for m in (2, 3, 5):
        X = HilbertSeries((1, 0, m - 1, m - 1, 0, 1))
        for G in (LieGroupSpec("SU", 4), LieGroupSpec("Sp", 3), LieGroupSpec("E8")):
            model = RationalGroupModel.from_lie(G)
            for spin in (True, False):
                M = ManifoldSpec(5, m, spin=spin)
                expr = loops2_gauge(M, G, 0, Localization.rational())
                for q in range(1, 31):
                    assert expr.rational_rank(q) == rational_rank_formula(X, model, q + 2)
    elapsed = time.perf_counter() - start
    print(
        "PASS criterion 6: decomposition ranks equal the Betti-weighted"
        f" homotopy sums (200 random pairs × q ≤ 30, both bundle-type"
        f" branches for m ∈ {{2,3,5}}) ({elapsed:.3f}s)"
    )


def test_criterion_7_moore_space_groups():
    start = time.perf_counter()
    for c in (3, 5, 9, 15, 21, 25):
        want = FGAbelianGroup.from_cyclic_orders(c, math.gcd(3, c))
        assert pi6_P4(c) == want, c
        assert pi7_P5(c) == want, c
        assert suspension_image_order(c) == math.gcd(3, c), c
    elapsed = time.perf_counter() - start
    print(
        "PASS criterion 7: Moore-space homotopy groups and suspension image"
        f" orders match for c ∈ {{3,5,9,15,21,25}} ({elapsed:.3f}s)"
    )


def _random_atom(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return group_itself()
    if kind == 1:
        return loops_g(rng.randint(0, 9))
    if kind == 2:
        return loop_fiber(rng.randint(0, 9))
    if kind == 3:
        return moore_gauge(rng.randint(0, 6), rng.randint(0, 8))
    if kind == 4:
        return map_cp2(rng.randint(0, 6))
    if kind == 5:
        return sphere_factor(rng.randint(0, 9))
    return em_factor(rng.randint(0, 9))


def test_criterion_8_structural_invariants():
    start = time.perf_counter()

    # Poincaré duality and vanishing Euler characteristic
    for c in range(2, 101):
        for m in range(1, 11):
            groups = homology(ManifoldSpec(c, m))
            betti = [g.free_rank for g in groups]
            torsion = [tuple(f.value() for f in g.torsion) for g in groups]
            assert betti == betti[::-1]
            for n in range(5):
                assert torsion[n] == torsion[4 - n]
            assert sum((-1) ** n * b for n, b in enumerate(betti)) == 0

    # normalization is idempotent and insensitive to presentation order
    rng = random.Random(88)
    localizations = (
        Localization.integral(),
        Localization.rational(),
        Localization.at_prime(3),
        Localization.away_from([2]),
        Localization.away_from([6]),
    )
    groups_pool = (
        None,
        LieGroupSpec("SU", 4),
        LieGroupSpec("E7"),
        RationalGroupModel.parse("3,5"),
    )
    for _ in range(1000):
        atoms = [_random_atom(rng) for _ in range(rng.randint(0, 7))]
        expr = SpaceExpr.of(
            atoms,
            localization=rng.choice(localizations),
            group=rng.choice(groups_pool),
            c=rng.choice([5, 9, 12, 30]),
        )
        once = expr.normalize()
        assert once.normalize() == once
        rng.shuffle(atoms)
        shuffled = SpaceExpr.of(atoms, localization=expr.localization,
                                group=expr.group, c=expr.c)
        assert shuffled.normalize() == once
        # confluence: hand-applying the contractible-Moore-space rewrite
        # first cannot change the normal form
        away_c = expr.localization.inverts_all_of(expr.c)
        pre = [
            loops_g(a.j) if away_c and a.kind == "moore_gauge" else a
            for a in atoms
        ]
        seeded = SpaceExpr.of(pre, localization=expr.localization,
                              group=expr.group, c=expr.c)
        assert seeded.normalize() == once

    # canonical form of abelian groups is a fixed point of construction
    for _ in range(300):
        orders = [rng.randint(2, 400) for _ in range(rng.randint(0, 5))]
        g = FGAbelianGroup.from_cyclic_orders(*orders) + Z(rng.randint(0, 3))
        again = Z(g.free_rank) + FGAbelianGroup.from_cyclic_orders(*(f.value() for f in g.torsion))
        assert again == g

    # sameness of looped types is an equivalence relation
    for _ in range(150):
        G = rng.choice(_CATALOG_REPRESENTATIVES)
        c = rng.randint(2, 60)
        d = math.gcd(catalog_order(G)[0], c)
        a, b, e = (rng.randrange(c) for _ in range(3))
        assert same_type_moore(a, a, G, c)
        assert same_type_moore(a, b, G, c) == same_type_moore(b, a, G, c)
        if same_type_moore(a, b, G, c) and same_type_moore(b, e, G, c):
            assert same_type_moore(a, e, G, c)
        assert same_type_moore(a, b, G, c) == (math.gcd(a, d) == math.gcd(b, d))

    # the class count over P⁴(c) is the divisor count of d = gcd(ord, c)
    for G in _CATALOG_REPRESENTATIVES:
        ord_value = catalog_order(G)[0]
        for c in range(2, 201):
            report = classify_moore(G, c)
            assert report.count_integral == divisor_count(math.gcd(ord_value, c))

    elapsed = time.perf_counter() - start
    print(
        "PASS criterion 8: duality/χ, normalization idempotence+confluence"
        " (1000 expressions), canonical-form stability, equivalence laws,"
        f" and divisor-count class counts all hold ({elapsed:.3f}s)"
    )
