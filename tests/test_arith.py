"""Number-theoretic helpers checked against brute-force oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauge5 import arith, divisor_count, factorize, gcd_class, legendre_valuation, nu_p
from gauge5.arith import MILLER_RABIN_BOUND, is_prime, prime_divisors

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97)


def _valuation_by_division(m: int, p: int) -> int:
    count = 0
    while m % p == 0:
        m //= p
        count += 1
    return count


def test_nu_p_matches_repeated_division():
    rng = random.Random(11)
    for _ in range(500):
        m = rng.randint(1, 10**9)
        p = rng.choice(SMALL_PRIMES)
        assert nu_p(m, p) == _valuation_by_division(m, p)


def test_nu_p_rejects_nonpositive_and_composite():
    with pytest.raises(ValueError):
        nu_p(0, 3)
    with pytest.raises(ValueError):
        nu_p(12, 4)
    with pytest.raises(ValueError):
        nu_p(12, 1)


def test_is_prime_matches_trial_division():
    for n in range(-3, 2000):
        naive = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == naive, n


def test_factorize_reassembles_and_sorts():
    rng = random.Random(12)
    for _ in range(300):
        m = rng.randint(1, 10**7)
        powers = factorize(m)
        assert math.prod(pp.p**pp.e for pp in powers) == m
        assert all(is_prime(pp.p) and pp.e >= 1 for pp in powers)
        assert [pp.p for pp in powers] == sorted({pp.p for pp in powers})
    assert factorize(1) == ()


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_prime_divisors():
    assert prime_divisors(360) == (2, 3, 5)
    assert prime_divisors(1) == ()


def test_divisor_count_counts_every_divisor():
    rng = random.Random(13)
    for _ in range(200):
        m = rng.randint(1, 5000)
        assert divisor_count(m) == sum(1 for d in range(1, m + 1) if m % d == 0)


def test_divisor_count_multiplicative_on_coprimes():
    rng = random.Random(14)
    for _ in range(200):
        a = rng.randint(1, 400)
        b = rng.randint(1, 400)
        if math.gcd(a, b) == 1:
            assert divisor_count(a * b) == divisor_count(a) * divisor_count(b)


def test_legendre_matches_termwise_valuations():
    # nu_p(m!) is the sum of the valuations of the factors; the closed
    # formula must agree with summing them one by one.
    for p in (2, 3, 5, 7, 13):
        total = 0
        for i in range(1, 201):
            total += _valuation_by_division(i, p)
            assert legendre_valuation(i, p) == total, (i, p)


def test_legendre_edge_cases():
    assert legendre_valuation(0, 3) == 0
    assert legendre_valuation(4, 5) == 0
    with pytest.raises(ValueError):
        legendre_valuation(-1, 3)
    with pytest.raises(ValueError):
        legendre_valuation(10, 4)


def test_gcd_class_table():
    assert gcd_class(0, 3) == 3
    assert gcd_class(4, 3) == 1
    assert gcd_class(6, 4) == 2
    assert gcd_class(7, 1) == 1


def test_gcd_class_periodic_and_divides():
    rng = random.Random(16)
    for _ in range(400):
        d = rng.randint(1, 60)
        k = rng.randint(0, 300)
        g = gcd_class(k, d)
        assert d % g == 0
        assert gcd_class(k + d, d) == g
        assert g == math.gcd(k, d)


# -- Miller-Rabin and Pollard-Brent rho -----------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10**24 - 1))
def test_factorize_property_below_1e24(n):
    powers = factorize(n)
    assert math.prod(pp.p**pp.e for pp in powers) == n
    primes = [pp.p for pp in powers]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) and pp.e >= 1 for p, pp in zip(primes, powers))


def test_is_prime_matches_trial_division_below_1e5():
    sieve = [True] * 10**5
    sieve[0] = sieve[1] = False
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, 10**5, p))
    assert [n for n in range(10**5) if is_prime(n)] == [n for n, s in enumerate(sieve) if s]


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        2152302898747,  # to bases 2..11
        3474749660383,  # to bases 2..13
        341550071728321,  # to bases 2..17
        3825123056546413051,  # to bases 2..23 (and 29, 31, 37 fail it)
        318665857834031151167461,  # to bases 2..37
        561,  # Carmichael numbers
        41041,
        825265,
        321197185,
        5394826801,
        232250619601,
        9746347772161,
    ],
)
def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers(n):
    assert not is_prime(n)


def test_is_prime_refuses_at_the_miller_rabin_bound():
    assert is_prime(MILLER_RABIN_BOUND - 2) in (True, False)
    for n in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 1, 10**30):
        with pytest.raises(ValueError, match=f"n = {n}.*{MILLER_RABIN_BOUND}"):
            is_prime(n)


def test_factorize_splits_witnessed_composites_above_the_bound():
    # a Miller-Rabin witness proves compositeness at any size, so rho may split it
    n = 1000003 * 100000000000000000039
    assert n > MILLER_RABIN_BOUND
    assert [(pp.p, pp.e) for pp in factorize(n)] == [(1000003, 1), (100000000000000000039, 1)]
    # the next prime above the bound has no witness and is still refused, at once
    prime = 3317044064679887385962123
    for m in (prime, 2 * prime):
        with pytest.raises(ValueError, match=f"n = {prime}.*{MILLER_RABIN_BOUND}"):
            factorize(m)


def test_rho_refuses_when_its_budget_runs_out(monkeypatch):
    n = 1000000007 * 1000000009
    monkeypatch.setattr(arith, "RHO_BUDGET", 100)
    with pytest.raises(ValueError, match=f"cannot factor {n}:.*100 steps"):
        factorize(n)
    monkeypatch.setattr(arith, "RHO_BUDGET", 10**6)
    assert [pp.p for pp in factorize(n)] == [1000000007, 1000000009]


def test_large_semiprimes_and_prime_powers_factor():
    for p, q in [(1000003, 1000033), (999983, 999983), (10**9 + 7, 10**9 + 9), (2**13 - 1, 2**61 - 1)]:
        assert factorize(p * q) == tuple(
            arith.PrimePower(r, e) for r, e in sorted({p: 1 + (p == q), q: 1 + (p == q)}.items())
        )
    assert factorize((10**9 + 7) ** 2 * 3**5) == (arith.PrimePower(3, 5), arith.PrimePower(10**9 + 7, 2))


def test_sympy_oracle_below_the_bound():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(2, 33 * 10**23)
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(15):
        n = rng.randrange(2, 33 * 10**23)
        assert {pp.p: pp.e for pp in factorize(n)} == sympy.factorint(n), n
