"""Lie group catalog: types, connecting-map orders, exponent offsets."""

import re

import pytest

from gauge5 import lie

from gauge5 import (
    CatalogError,
    FGAbelianGroup,
    LieGroupSpec,
    Localization,
    catalog_order,
    in_theriault_range,
    is_p_regular,
    l_of,
    legendre_valuation,
    ord_partial1_tilde,
    r_of,
    rank_of,
    rational_degrees,
    stable_pi,
    type_of,
)
from gauge5.arith import is_prime
from gauge5.classification import trivial_case
from gauge5.errors import HypothesisError
from gauge5.exponents import exp_bound_closed_form
from gauge5.lie import (
    EXCEPTIONAL,
    exceptional_rows,
    load_catalog,
    pi4,
    pi4_is_trivial,
    prime_cond_holds,
    prime_cond_interval,
)
from gauge5.manifold import require_pi4_trivial

SU = lambda n: LieGroupSpec("SU", n)
Sp = lambda n: LieGroupSpec("Sp", n)
Spin = lambda n: LieGroupSpec("Spin", n)

TYPE_TABLE = [
    (SU(2), (1,)),
    (SU(3), (1, 2)),
    (SU(5), (1, 2, 3, 4)),
    (Sp(1), (1,)),
    (Sp(2), (1, 3)),
    (Sp(3), (1, 3, 5)),
    (Spin(5), (1, 3)),
    (Spin(7), (1, 3, 5)),
    (Spin(8), (1, 3, 3, 5)),
    (Spin(10), (1, 3, 4, 5, 7)),
    (LieGroupSpec("G2"), (1, 5)),
    (LieGroupSpec("F4"), (1, 5, 7, 11)),
    (LieGroupSpec("E6"), (1, 4, 5, 7, 8, 11)),
    (LieGroupSpec("E7"), (1, 5, 7, 9, 11, 13, 17)),
    (LieGroupSpec("E8"), (1, 7, 11, 13, 17, 19, 23, 29)),
]


def test_type_table():
    for group, expected in TYPE_TABLE:
        assert type_of(group) == expected, group


def test_rank_and_l_are_read_off_the_type():
    for group, expected in TYPE_TABLE:
        assert rank_of(group) == len(expected)
        assert l_of(group) == max(expected)
        assert rational_degrees(group) == tuple(sorted(2 * n + 1 for n in expected))


def test_spec_validation():
    with pytest.raises(ValueError):
        LieGroupSpec("SU", 1)
    with pytest.raises(ValueError):
        LieGroupSpec("Spin", 4)
    with pytest.raises(ValueError):
        LieGroupSpec("G2", 2)
    with pytest.raises(ValueError):
        LieGroupSpec("SO", 3)
    with pytest.raises(ValueError):
        LieGroupSpec("E8", None) and LieGroupSpec("SU", None)


def test_parse_round_trip():
    assert LieGroupSpec.parse("SU:4") == SU(4)
    assert LieGroupSpec.parse("G2") == LieGroupSpec("G2")
    with pytest.raises(ValueError):
        LieGroupSpec.parse("SU")
    with pytest.raises(ValueError):
        LieGroupSpec.parse("G2:7")


def test_pi4():
    two = FGAbelianGroup.cyclic(2)
    zero = FGAbelianGroup.trivial()
    assert pi4(SU(2)) == two
    assert pi4(Sp(3)) == two
    assert pi4(Spin(5)) == two
    assert pi4(SU(3)) == zero
    assert pi4(Spin(7)) == zero
    assert pi4(LieGroupSpec("E6")) == zero


def test_pi4_is_trivial_respects_localization():
    assert not pi4_is_trivial(Sp(2), Localization.integral())
    assert pi4_is_trivial(Sp(2), Localization.at_prime(3))
    assert pi4_is_trivial(Sp(2), Localization.away_from([2]))
    assert pi4_is_trivial(SU(4), Localization.integral())


_PI4_GROUPS = (
    [SU(n) for n in range(2, 11)]
    + [Sp(n) for n in range(1, 7)]
    + [Spin(n) for n in range(5, 15)]
    + [LieGroupSpec(f) for f in EXCEPTIONAL]
)
_PI4_CONTEXTS = (
    Localization.integral(),
    *(Localization.at_prime(p) for p in (2, 3, 5, 7)),
    *(Localization.away_from([m]) for m in (2, 3, 6)),
    Localization.rational(),
)


@pytest.mark.parametrize("ctx", _PI4_CONTEXTS, ids=str)
def test_pi4_is_trivial_agrees_with_the_localized_group(ctx):
    # pi4_is_trivial builds no group; the group it stands for is the oracle
    for G in _PI4_GROUPS:
        assert pi4_is_trivial(G, ctx) == pi4(G).localize(ctx).is_trivial(), G


@pytest.mark.parametrize(
    "ctx, shown",
    [(Localization.integral(), "integral"), (Localization.at_prime(2), "localized at 2")],
)
def test_pi4_refusal_names_the_localized_group(ctx, shown):
    with pytest.raises(HypothesisError) as err:
        require_pi4_trivial(Sp(2), ctx)
    assert str(err.value) == f"hypothesis pi_4(G) = 0 fails: pi_4(Sp(2)) = Z/2 ({shown})"


def test_connecting_map_orders():
    assert ord_partial1_tilde(SU(3)) == 24
    assert ord_partial1_tilde(SU(5)) == 120
    assert ord_partial1_tilde(SU(2), 3) == 3
    assert ord_partial1_tilde(SU(4), 5) == 4 * 15  # n(n^2-1)
    assert ord_partial1_tilde(Sp(2), 3) == 10  # n(2n+1)
    assert ord_partial1_tilde(Spin(9), 5) == 36  # Spin(2n+1) same as Sp(n)
    assert ord_partial1_tilde(Spin(8), 5) == 21  # (n-1)(2n-1)
    assert ord_partial1_tilde(LieGroupSpec("G2"), 5) == 21


def test_order_unknown_raises():
    with pytest.raises(CatalogError):
        ord_partial1_tilde(SU(2))  # only known for p >= 3
    with pytest.raises(CatalogError):
        ord_partial1_tilde(SU(4))  # range rows need a prime
    with pytest.raises(CatalogError):
        ord_partial1_tilde(SU(40), 3)  # n beyond the validity range
    with pytest.raises(CatalogError):
        ord_partial1_tilde(LieGroupSpec("G2"), 3)  # rows start at p=5


def test_catalog_order_reports_validity():
    assert catalog_order(SU(2)) == (3, "p>=3")
    assert catalog_order(SU(3)) == (24, "all")
    assert catalog_order(Sp(2)) == (10, "symp_range")
    assert catalog_order(LieGroupSpec("G2")) == (21, "p=5")
    assert catalog_order(LieGroupSpec("F4")) == (5**2 * 13, "p=5")
    assert catalog_order(LieGroupSpec("E7")) == (7 * 11 * 19, "p=7")
    assert catalog_order(LieGroupSpec("E8")) == (7**2 * 11**2 * 13 * 19 * 31, "p=7")


def test_prime_conditions():
    assert prime_cond_holds("all", 3)
    assert prime_cond_holds("p=5", 5) and not prime_cond_holds("p=5", 7)
    assert prime_cond_holds("p>=11", 11) and not prime_cond_holds("p>=11", 7)
    assert prime_cond_holds("su_range", 5, 17) and not prime_cond_holds("su_range", 5, 18)
    with pytest.raises(CatalogError):
        prime_cond_holds("q>=3", 5)


@pytest.mark.parametrize("tag", ["q>=3", "p>=x", "p=", "any"])
def test_catalog_rejects_unknown_prime_conditions_at_load(tmp_path, tag):
    path = tmp_path / "catalog.txt"
    path.write_text(f"SU  3  all  24  0\nSU  4  {tag}  60  0\n", encoding="utf-8")
    with pytest.raises(CatalogError, match=f":2: unknown prime condition '{tag}'"):
        load_catalog(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        # a classical family needs n or *; '-' used to be read as '*'
        ("SU  -  all  99  0", r":1: SU needs an integer parameter or \*, got '-'"),
        ("Sp  x  all  99  0", r":1: Sp needs an integer parameter or \*, got 'x'"),
        # an exceptional row no lookup could ever reach
        ("G2  3  p=5  21  1", ":1: G2 takes no parameter; write -, got '3'"),
        ("E8  *  p=7  21  1", r":1: E8 takes no parameter; write -, got '\*'"),
        # a repeated (family, param, primes): the later row was silently shadowed
        ("SU  3  all  24  0\nSU  3  all  77  0", r":2: repeats line 1 \(SU 3 all\)"),
        ("G2  -  p=5  21  1\nG2  -  p=5  22  1", r":2: repeats line 1 \(G2 - p=5\)"),
        # the exceptional lookups read a prime interval; these tags have none
        ("G2  -  su_range  21  1", ":1: G2 needs a p=K or p>=K tag, got 'su_range'"),
        ("G2  -  all  21  1", ":1: G2 needs a p=K or p>=K tag, got 'all'"),
        # the formulas read n, which an exceptional group does not have
        ("G2  -  p=5  n(n^2-1)  1", r":1: G2 needs integer ord and r, got 'n\(n\^2-1\)' and '1'"),
        ("G2  -  p=5  21  nu_p((n-1)!)", r":1: G2 needs integer ord and r, got '21' and 'nu_p"),
    ],
)
def test_catalog_refuses_rows_no_lookup_can_serve(tmp_path, rows, message):
    path = tmp_path / "catalog.txt"
    path.write_text(rows + "\n", encoding="utf-8")
    with pytest.raises(CatalogError, match=re.escape(str(path)) + message):
        load_catalog(path)


def test_catalog_keeps_rows_that_differ_in_one_column(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(
        "SU  3  all  24  0\nSU  3  p=5  24  0\nSU  4  all  60  0\nSU  *  all  6  0\n"
        "G2  -  p=5  21  1\nF4  -  p=5  21  1\n",
        encoding="utf-8",
    )
    assert len(load_catalog(path)) == 6


# -- the (family, param) index against a linear scan -------------------------------


def _oracle_rows(G):
    """The catalog rows matching G by scanning every row, specific rows first."""
    if G.family == "Spin":
        key, n = ("SpinOdd" if G.n % 2 else "SpinEven"), G.n // 2
    else:
        key, n = G.family, G.n
    rows = [r for r in load_catalog() if r.family_key == key and (r.param is None or r.param == n)]
    rows.sort(key=lambda r: r.param is None)
    return tuple(rows), n


def _oracle_ord(G, p=None):
    rows, n = _oracle_rows(G)
    if p is None:
        for row in rows:
            if row.prime_cond == "all":
                return row.ord_value(n)
        raise CatalogError(f"order unknown for ({G}, integral)")
    if not is_prime(p):
        raise ValueError(f"expected a prime or None, got {p}")
    for row in rows:
        if prime_cond_holds(row.prime_cond, p, n):
            return row.ord_value(n)
    raise CatalogError(f"order unknown for ({G}, p={p})")


def _oracle_catalog_order(G):
    rows, n = _oracle_rows(G)
    if not rows:
        raise CatalogError(f"no catalog row for {G}")
    return rows[0].ord_value(n), rows[0].prime_cond


def _oracle_r(G, p):
    if not in_theriault_range(G, p):
        raise CatalogError(f"({G}, p={p}) outside the loop-filtration range")
    rows, n = _oracle_rows(G)
    if G.family in EXCEPTIONAL:
        for row in rows:
            if prime_cond_holds(row.prime_cond, p, n):
                return row.r_value(n, p)
        raise CatalogError(f"no r value for ({G}, p={p})")
    if not rows:  # the scan raised IndexError here
        raise CatalogError(f"no catalog row for {G}")
    return rows[0].r_value(n, p)


def _oracle_exceptional_rows(family):
    return [
        (row.prime_cond, prime_cond_interval(row.prime_cond)[0], row.ord_value(None),
         row.r_value(None, 2))
        for row in load_catalog()
        if row.family_key == family
    ]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the refusal is part of the answer
        return type(exc).__name__, str(exc)


_INDEX_GROUPS = (
    [SU(n) for n in range(2, 41)]
    + [Sp(n) for n in range(1, 41)]
    + [Spin(n) for n in range(5, 41)]
    + [LieGroupSpec(f) for f in EXCEPTIONAL]
)
_PRIMES_BELOW_100 = [p for p in range(2, 100) if is_prime(p)]


def _index_answers():
    """Every lookup's outcome, through the index and through the scan."""
    got, want = [], []
    for G in _INDEX_GROUPS:
        got.append(_outcome(ord_partial1_tilde, G))
        want.append(_outcome(_oracle_ord, G))
        got.append(_outcome(catalog_order, G))
        want.append(_outcome(_oracle_catalog_order, G))
        for p in _PRIMES_BELOW_100:
            got.append(_outcome(ord_partial1_tilde, G, p))
            want.append(_outcome(_oracle_ord, G, p))
            got.append(_outcome(r_of, G, p))
            want.append(_outcome(_oracle_r, G, p))
    for family in EXCEPTIONAL:
        got.append(_outcome(exceptional_rows, family))
        want.append(_outcome(_oracle_exceptional_rows, family))
    return got, want


_OVERRIDE = """
SU        4   p=5              61           1
SU        *   p>=7             n(n^2-1)     nu_p((n-1)!)
SU        4   all              62           2
SU        *   all              9            0
SU        *   p=5              n(n^2-1)     3
Sp        2   symp_range       11           3
SpinOdd   *   su_range         n(2n+1)      nu_p((2n-1)!)
SpinEven  *   p=5              (n-1)(2n-1)  nu_p((2n-3)!)
SpinEven  6   p>=3             5            0
G2        -   p>=11            22           0
G2        -   p=5              23           1
G2        -   p=13             24           2
E8        -   p>=7             45398353     2
"""


def test_catalog_index_matches_a_linear_scan(tmp_path, monkeypatch):
    monkeypatch.delenv("GAUGE_CATALOG", raising=False)
    packaged, want = _index_answers()
    assert packaged == want
    assert sum(kind == "ok" for kind, _ in packaged) > 2000

    custom = tmp_path / "catalog.txt"
    custom.write_text(_OVERRIDE, encoding="utf-8")
    monkeypatch.setenv("GAUGE_CATALOG", str(custom))  # mid-process, after the packaged load
    overridden, want = _index_answers()
    assert overridden == want
    assert overridden != packaged
    assert ord_partial1_tilde(SU(4)) == 62 and ord_partial1_tilde(SU(4), 5) == 61
    # no Sp(3) row: a refusal naming the group, not an IndexError
    assert _outcome(r_of, Sp(3), 5) == ("CatalogError", "no catalog row for Sp(3)")

    monkeypatch.delenv("GAUGE_CATALOG")
    again, want = _index_answers()
    assert again == want == packaged


def test_each_lookup_loads_the_catalog_once(monkeypatch):
    # wrappers around load_catalog see every lookup's catalog
    calls = []
    real = lie.load_catalog
    monkeypatch.setattr(lie, "load_catalog", lambda *a: calls.append(a) or real(*a))
    ord_partial1_tilde(SU(4), 5)
    catalog_order(LieGroupSpec("E8"))
    r_of(SU(7), 5)
    exceptional_rows("G2")
    assert len(calls) == 4


def test_loop_offsets_for_classical_families():
    assert r_of(SU(7), 5) == legendre_valuation(6, 5)
    assert r_of(SU(11), 5) == legendre_valuation(10, 5)
    assert r_of(Sp(5), 5) == legendre_valuation(9, 5)
    assert r_of(Spin(9), 5) == legendre_valuation(7, 5)
    assert r_of(Spin(10), 5) == legendre_valuation(7, 5)
    assert r_of(LieGroupSpec("G2"), 5) == 1


def test_theriault_range_boundaries():
    # SU(n) needs n-1 <= (p-1)(p-2)
    assert in_theriault_range(SU(13), 5)
    assert not in_theriault_range(SU(14), 5)
    assert in_theriault_range(SU(14), 7)
    with pytest.raises(Exception):
        r_of(SU(14), 5)


def test_p_regularity_boundary_is_l_plus_one():
    cases = [
        (SU(4), 3, False),
        (SU(4), 5, True),
        (Sp(2), 3, False),
        (Sp(2), 7, True),
        (Spin(7), 5, False),
        (Spin(7), 7, True),
        (LieGroupSpec("G2"), 5, False),
        (LieGroupSpec("G2"), 7, True),
        (LieGroupSpec("E8"), 29, False),
        (LieGroupSpec("E8"), 31, True),
    ]
    for group, p, expected in cases:
        assert is_p_regular(group, p) == expected, (group, p)


# The torsion primes of H*(G; Z); SU(n), Sp(n), Spin(5) and Spin(6) have
# none. is_p_regular tests only p >= l(G) + 1, which implies p is not one.
TORSION_PRIMES = {"G2": {2}, "F4": {2, 3}, "E6": {2, 3}, "E7": {2, 3}, "E8": {2, 3, 5}}


def _torsion_primes(G):
    if G.family in EXCEPTIONAL:
        return TORSION_PRIMES[G.family]
    return {2} if G.family == "Spin" and G.n >= 7 else set()


_REGULARITY_GROUPS = (
    [SU(n) for n in range(2, 41)]
    + [Sp(n) for n in range(1, 31)]
    + [Spin(n) for n in range(5, 61)]
    + [LieGroupSpec(f) for f in EXCEPTIONAL]
)


def test_every_torsion_prime_is_at_most_l():
    for G in _REGULARITY_GROUPS:
        assert all(q <= l_of(G) for q in _torsion_primes(G)), G


def test_p_regularity_needs_no_torsion_table():
    odd_primes = [p for p in range(3, 100) if is_prime(p)]
    for G in _REGULARITY_GROUPS:
        l, torsion = l_of(G), _torsion_primes(G)
        for p in odd_primes:
            assert is_p_regular(G, p) == (p >= l + 1 and p not in torsion), (G, p)


def test_spin_2n_plus_1_and_sp_n_read_the_same_formulas():
    odd_primes = [p for p in range(3, 60) if is_prime(p)]
    for n in range(2, 31):
        spin, sp = Spin(2 * n + 1), Sp(n)
        assert type_of(spin) == type_of(sp), n
        spin_rows, _ = lie._rows_for(spin)
        sp_rows, _ = lie._rows_for(sp)
        assert spin_rows and [(r.prime_cond, r.ord_spec, r.r_spec) for r in spin_rows] == [
            (r.prime_cond, r.ord_spec, r.r_spec) for r in sp_rows
        ], n
        for p in odd_primes:
            assert in_theriault_range(spin, p) == in_theriault_range(sp, p), (n, p)
            for c in range(2, 61):
                assert (
                    exp_bound_closed_form(spin, p, c).exponent
                    == exp_bound_closed_form(sp, p, c).exponent
                ), (n, p, c)
                assert trivial_case(spin, p, c) == trivial_case(sp, p, c), (n, p, c)


def test_stable_pi_su_is_bott_two_periodic():
    for r in range(1, 30):
        expected = FGAbelianGroup.free(1) if r % 2 == 1 else FGAbelianGroup.trivial()
        assert stable_pi("SU", r) == expected


def test_stable_pi_spin_follows_the_eight_fold_pattern():
    by_residue = {
        0: FGAbelianGroup.cyclic(2),
        1: FGAbelianGroup.cyclic(2),
        2: FGAbelianGroup.trivial(),
        3: FGAbelianGroup.free(1),
        4: FGAbelianGroup.trivial(),
        5: FGAbelianGroup.trivial(),
        6: FGAbelianGroup.trivial(),
        7: FGAbelianGroup.free(1),
    }
    for r in range(2, 40):
        assert stable_pi("Spin", r) == by_residue[r % 8], r


def test_stable_pi_rejects_bad_family():
    with pytest.raises(ValueError):
        stable_pi("Sp", 3)
