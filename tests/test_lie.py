"""Lie group catalog: types, connecting-map orders, exponent offsets."""

import pytest

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
from gauge5.lie import load_catalog, pi4, pi4_is_trivial, prime_cond_holds

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
