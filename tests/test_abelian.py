"""Canonical forms, arithmetic, and localization of f.g. abelian groups."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauge5 import FGAbelianGroup, Localization
from gauge5.abelian import parse_machine
from gauge5.arith import PrimePower


def _random_group(rng: random.Random) -> FGAbelianGroup:
    free = FGAbelianGroup.free(rng.randint(0, 3))
    orders = [rng.randint(2, 360) for _ in range(rng.randint(0, 4))]
    return free + FGAbelianGroup.from_cyclic_orders(*orders)


def test_cyclic_decomposition_is_canonical():
    # Z/12 + Z/2 and Z/4 + Z/6 have the same primary decomposition.
    assert FGAbelianGroup.from_cyclic_orders(12, 2) == FGAbelianGroup.from_cyclic_orders(4, 6)
    assert FGAbelianGroup.from_cyclic_orders(6) == FGAbelianGroup.from_cyclic_orders(2, 3)


def test_unit_orders_are_dropped():
    assert FGAbelianGroup.from_cyclic_orders(1, 1) == FGAbelianGroup.trivial()
    assert FGAbelianGroup.from_cyclic_orders(5, 1) == FGAbelianGroup.cyclic(5)


def test_construction_is_idempotent():
    rng = random.Random(21)
    for _ in range(300):
        g = _random_group(rng)
        again = FGAbelianGroup(g.free_rank, g.torsion)
        assert again == g


def test_direct_sum_laws():
    rng = random.Random(22)
    zero = FGAbelianGroup.trivial()
    for _ in range(200):
        a, b, c = (_random_group(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a


def test_sum_adds_free_ranks_and_joins_torsion_summands():
    rng = random.Random(23)
    for _ in range(200):
        a, b = _random_group(rng), _random_group(rng)
        assert (a + b).free_rank == a.free_rank + b.free_rank
        summands = sorted((f.p, -f.e) for g in (a, b) for f in g.torsion)
        assert [(f.p, -f.e) for f in (a + b).torsion] == summands


def test_torsion_orders_are_prime_powers_in_canonical_order():
    g = FGAbelianGroup.free(1) + FGAbelianGroup.from_cyclic_orders(12, 2)
    assert tuple(f.value() for f in g.torsion) == (4, 2, 3)


def test_localize_at_prime_keeps_only_that_primary_part():
    g = FGAbelianGroup.free(2) + FGAbelianGroup.from_cyclic_orders(12, 5)
    at2 = g.localize(Localization.at_prime(2))
    assert at2 == FGAbelianGroup.free(2) + FGAbelianGroup.cyclic(4)
    at7 = g.localize(Localization.at_prime(7))
    assert at7 == FGAbelianGroup.free(2)


def test_localize_away_from_removes_inverted_primes():
    g = FGAbelianGroup.from_cyclic_orders(12, 5)
    away = g.localize(Localization.away_from([2]))
    assert away == FGAbelianGroup.from_cyclic_orders(3, 5)
    # away from a composite inverts each of its prime factors
    assert g.localize(Localization.away_from([10])) == FGAbelianGroup.cyclic(3)


def test_localize_rational_keeps_free_part():
    g = FGAbelianGroup.free(3) + FGAbelianGroup.from_cyclic_orders(8, 9)
    assert g.localize(Localization.rational()) == FGAbelianGroup.free(3)


def test_localize_integral_is_identity_and_idempotent():
    rng = random.Random(24)
    contexts = [
        Localization.integral(),
        Localization.rational(),
        Localization.at_prime(3),
        Localization.away_from([6]),
    ]
    for _ in range(200):
        g = _random_group(rng)
        assert g.localize(Localization.integral()) == g
        for ctx in contexts:
            once = g.localize(ctx)
            assert once.localize(ctx) == once
            assert once.free_rank == g.free_rank


def test_machine_round_trip():
    rng = random.Random(25)
    for _ in range(300):
        g = _random_group(rng)
        assert parse_machine(g.machine()) == g
    assert parse_machine(FGAbelianGroup.trivial().machine()) == FGAbelianGroup.trivial()


def test_str_rendering():
    assert str(FGAbelianGroup.trivial()) == "0"
    assert str(FGAbelianGroup.free(1)) == "Z"
    assert str(FGAbelianGroup.free(2)) == "Z^2"
    g = FGAbelianGroup.free(1) + FGAbelianGroup.from_cyclic_orders(12, 2)
    assert str(g) == "Z ⊕ Z/4 ⊕ Z/2 ⊕ Z/3"


def test_localization_describe_and_inverts():
    away = Localization.away_from([10])
    assert away.inverts(2) and away.inverts(5) and not away.inverts(3)
    assert away.inverts_all_of(20)
    assert not away.inverts_all_of(6)
    assert Localization.rational().inverts(97)
    at3 = Localization.at_prime(3)
    assert at3.inverts(2) and not at3.inverts(3)
    assert Localization.integral().inverted_set == frozenset()
    assert Localization.away_from([6]).inverted_set == frozenset({2, 3})


def test_localization_validation():
    with pytest.raises(ValueError):
        Localization.at_prime(4)
    with pytest.raises(ValueError):
        Localization.away_from([])


def test_torsion_is_stored_as_a_tuple_whatever_the_caller_passed():
    for torsion in ([], [PrimePower(3, 2)], [PrimePower(3, 1), PrimePower(2, 1)]):
        g, same = FGAbelianGroup(1, torsion), FGAbelianGroup(1, tuple(torsion))
        assert type(g.torsion) is tuple and g.torsion == tuple(sorted(torsion, key=lambda f: f.p))
        assert g == same and hash(g) == hash(same)


@pytest.mark.parametrize("torsion", [(PrimePower(3, 0),), [PrimePower(2, -1)],
                                     (PrimePower(5, 1), PrimePower(2, 0))])
def test_a_summand_with_exponent_below_one_is_refused(torsion):
    with pytest.raises(ValueError, match="torsion exponents must be >= 1"):
        FGAbelianGroup(0, torsion)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((2, 3, 5, 7, 31)), st.integers(1, 6)), max_size=9))
def test_canonical_order_is_by_prime_then_larger_powers_first(pairs):
    summands = [PrimePower(p, e) for p, e in pairs]
    g = FGAbelianGroup(0, summands)
    assert g.torsion == tuple(sorted(summands, key=lambda f: (f.p, -f.e)))
