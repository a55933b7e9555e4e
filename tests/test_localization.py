"""Localization contexts: `inverts_all_of` against a factoring oracle, and
`inverts` against the kind dispatch it once wrote out."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gauge5.arith import is_prime, prime_divisors
from gauge5.localization import Localization
from gauge5.spaces import SpaceExpr, parse_machine

_PRIMES = (2, 3, 5, 7, 11, 13, 97, 997, 1000003)


def test_integral_and_rational_are_one_shared_instance_each():
    assert Localization.integral() is Localization.integral()
    assert Localization.rational() is Localization.rational()
    assert Localization.integral() == Localization("integral")
    assert Localization.rational() == Localization("rational")


@pytest.mark.parametrize("ctx, text", [
    (Localization.integral(), "integral"),
    (Localization.rational(), "rational"),
    (Localization.at_prime(5), "localized at 5"),
    (Localization.away_from([6]), "away from {2,3}"),
    (Localization.away_from([35, 2]), "away from {2,5,7}"),
])
def test_each_kind_prints_its_context(ctx, text):
    assert str(ctx) == text

contexts = st.one_of(
    st.just(Localization.integral()),
    st.just(Localization.rational()),
    st.sampled_from(_PRIMES).map(Localization.at_prime),
    st.lists(st.integers(min_value=2, max_value=10**6), min_size=1, max_size=3).map(
        Localization.away_from
    ),
)


@st.composite
def multiples(draw):
    """m in [1, 10**12], often a product of powers of few small primes, so
    repeated prime factors are common."""
    if draw(st.booleans()):
        return draw(st.integers(min_value=1, max_value=10**12))
    m = 1
    for p in draw(st.lists(st.sampled_from(_PRIMES[:6]), max_size=8)):
        if m * p <= 10**12:
            m *= p
    return m


@settings(max_examples=300, deadline=None)
@given(contexts, multiples())
@example(Localization.away_from([2]), 4)
@example(Localization.away_from([6]), 2**5 * 3**4)
@example(Localization.away_from([6]), 2**5 * 3**4 * 5)
def test_inverts_all_of_matches_the_factoring_oracle(ctx, m):
    assert ctx.inverts_all_of(m) == all(ctx.inverts(p) for p in prime_divisors(m))


@pytest.mark.parametrize(
    "ctx",
    [Localization.integral(), Localization.rational(), Localization.at_prime(5),
     Localization.away_from([10])],
)
@pytest.mark.parametrize("m", [0, -5])
def test_inverts_all_of_refuses_non_positive_m(ctx, m):
    with pytest.raises(ValueError, match=str(m)):
        ctx.inverts_all_of(m)


BEYOND_BOUND = 3317044064679887385962123  # factorize refuses it


def test_inverts_all_of_answers_beyond_the_primality_bound():
    assert Localization.at_prime(5).inverts_all_of(BEYOND_BOUND)
    assert not Localization.integral().inverts_all_of(BEYOND_BOUND)
    assert Localization.rational().inverts_all_of(BEYOND_BOUND)
    assert not Localization.away_from([6]).inverts_all_of(BEYOND_BOUND)
    with pytest.raises(ValueError, match="not decided"):
        prime_divisors(BEYOND_BOUND)


_BELOW_1000 = [p for p in range(2, 1000) if is_prime(p)]


def _kind_dispatch(ctx: Localization, p: int) -> bool:
    """inverts(p) as written out per kind before it answered through
    inverts_all_of."""
    if ctx.kind == "integral":
        return False
    if ctx.kind == "rational":
        return True
    if ctx.kind == "at_prime":
        return p != ctx.prime
    return p in ctx.inverted_set


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        contexts,
        st.sampled_from(_BELOW_1000).map(Localization.at_prime),
        st.lists(st.sampled_from(_BELOW_1000), min_size=1, max_size=4).map(Localization.away_from),
    ),
    st.sampled_from(_BELOW_1000),
    st.booleans(),
)
def test_inverts_agrees_with_the_kind_dispatch(ctx, p, read_back):
    if read_back:  # as the machine reader rebuilds it from outside text
        ctx = parse_machine(SpaceExpr((), localization=ctx).machine()).localization
    assert ctx.inverts(p) == _kind_dispatch(ctx, p)
