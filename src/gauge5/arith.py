"""Elementary number theory used throughout the package.

Exact integer arithmetic: primality, prime factorization, p-adic
valuations, Legendre's formula for the valuation of a factorial (it sums
its own base-p digits), divisor counting, and the gcd-class map that
indexes principal-bundle types over Moore spaces.

No call does work proportional to its input. `is_prime` is deterministic
Miller-Rabin with the first 13 prime bases, proven correct below
MILLER_RABIN_BOUND (Sorenson & Webster, Math. Comp. 86 (2017)); at or above
the bound it raises `ValueError`. `factorize` trial-divides by the primes
below 1000, which settles every m < 10**6 and the small factors of the
rest, and splits a larger cofactor by Pollard-Brent rho. A cofactor at or
above the bound is split too when one of the bases witnesses that it is
composite, and refused only without a witness. Rho takes at most
RHO_BUDGET steps (about 1.7 s with CPython 3.11 on one Xeon core); an input
it cannot split within them is refused with a `ValueError` naming it.
"""

import math
from collections import Counter
from itertools import compress

from .value import Value

# n < this bound is prime iff it passes Miller-Rabin to every base below
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_LIMIT = 1000


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n by the sieve of Eratosthenes, cheap enough for import time."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


_TRIAL_PRIMES = _primes_below(_TRIAL_LIMIT)
_SMALL_PRIMES = frozenset(_TRIAL_PRIMES)
# rho steps before a refusal; a step is two modular products
RHO_BUDGET = 3_000_000
_RHO_BATCH = 128  # steps per gcd


def is_prime(n: int) -> bool:
    """Deterministic primality for n < MILLER_RABIN_BOUND.

    >>> [k for k in range(2, 30) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> is_prime(1), is_prime(0), is_prime(-7)
    (False, False, False)
    >>> is_prime(1000000007), is_prime(3215031751)  # the second is 151 * 751 * 28351
    (True, False)
    """
    if n < _TRIAL_LIMIT:
        return n in _SMALL_PRIMES
    if n >= MILLER_RABIN_BOUND:
        raise _undecided(n)
    return not _witnesses_composite(n)


def _undecided(n: int) -> ValueError:
    return ValueError(
        f"primality of n = {n} is not decided: deterministic Miller-Rabin"
        f" covers n < {MILLER_RABIN_BOUND}"
    )


def _witnesses_composite(n: int) -> bool:
    """Does one of the bases prove n >= _TRIAL_LIMIT composite? A witness is
    a proof at any size; only the verdict "prime" needs n below the bound."""
    for p in _BASES:
        if n % p == 0:
            return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


class PrimePower(Value):
    """A factor p**e with p prime and e >= 1."""

    p: int
    e: int

    def __init__(self, p: int, e: int) -> None:
        self.__dict__.update(p=p, e=e, _key=(p, -e))  # not a field: a group's sort key


def factorize(m: int) -> tuple[PrimePower, ...]:
    """Prime factorization of m >= 1, sorted by prime.

    >>> factorize(360)
    (PrimePower(p=2, e=3), PrimePower(p=3, e=2), PrimePower(p=5, e=1))
    >>> factorize(1)
    ()
    >>> factorize(1000000016000000063)
    (PrimePower(p=1000000007, e=1), PrimePower(p=1000000009, e=1))
    """
    if m < 1:
        raise ValueError(f"factorize needs a positive integer, got {m}")
    out: list[PrimePower] = []
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append(PrimePower(p, e))
    else:
        # no prime below _TRIAL_LIMIT divides m, so m < _TRIAL_LIMIT**2 is prime
        if m >= _TRIAL_LIMIT**2:
            counts = Counter(_large_prime_factors(m))
            return tuple(out) + tuple(PrimePower(p, counts[p]) for p in sorted(counts))
    if m > 1:
        out.append(PrimePower(m, 1))
    return tuple(out)


def _large_prime_factors(m: int) -> list[int]:
    """The prime factors of m, with multiplicity, when no prime below
    _TRIAL_LIMIT divides m."""
    out, stack = [], [m]
    while stack:
        n = stack.pop()
        if n < _TRIAL_LIMIT**2 or n < MILLER_RABIN_BOUND and is_prime(n):
            out.append(n)
        elif n < MILLER_RABIN_BOUND or _witnesses_composite(n):
            f = _rho_factor(n)
            stack += [f, n // f]
        else:
            raise _undecided(n)
    return out


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard-Brent rho with one
    gcd per batch of steps. Raises ValueError rather than let the next
    doubling round take the step count past RHO_BUDGET."""
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > RHO_BUDGET:  # a round takes at most 2 r steps
                raise ValueError(
                    f"cannot factor {n}: Pollard-Brent rho found no factor"
                    f" within its budget of {RHO_BUDGET} steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            steps += r + k
            r *= 2
        if g == n:  # the last batch passed a factor: walk it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise AssertionError(f"{n} is prime")  # pragma: no cover - callers test first


def prime_divisors(m: int) -> tuple[int, ...]:
    """Distinct primes dividing m >= 1, ascending.

    >>> prime_divisors(45398353)
    (7, 11, 13, 19, 31)
    """
    return tuple(f.p for f in factorize(m))


def nu_p(m: int, p: int) -> int:
    """p-adic valuation of m >= 1. The valuation of 0 is undefined here.

    >>> nu_p(45, 3)
    2
    >>> nu_p(45, 7)
    0
    """
    if not is_prime(p):
        raise ValueError(f"nu_p needs a prime, got p={p}")
    if m < 1:
        raise ValueError(f"nu_p is only defined for positive integers, got m={m}")
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def legendre_valuation(m: int, p: int) -> int:
    """nu_p(m!) via Legendre's identity (m - s_p(m)) / (p - 1), for m >= 0.

    Agrees with the floor-sum form sum_{k>=1} floor(m / p^k).

    >>> legendre_valuation(10, 3)   # 10! = 3^4 * ...
    4
    >>> legendre_valuation(0, 5)
    0
    """
    if m < 0:
        raise ValueError(f"legendre_valuation needs m >= 0, got {m}")
    if not is_prime(p):
        raise ValueError(f"legendre_valuation needs a prime, got p={p}")
    s, n = 0, m  # s_p(m), the sum of m's base-p digits
    while n:
        n, digit = divmod(n, p)
        s += digit
    return (m - s) // (p - 1)


def divisor_count(m: int) -> int:
    """Number of positive divisors of m >= 1.

    >>> divisor_count(21)
    4
    >>> divisor_count(1)
    1
    """
    out = 1
    for f in factorize(m):
        out *= f.e + 1
    return out


def gcd_class(k: int, d: int) -> int:
    """The bundle-type invariant gcd(k mod d, d), with gcd(0, d) = d.

    Partitions Z/d (and hence Z/c for any multiple c of d) into one class per
    divisor of d.

    >>> [gcd_class(k, 6) for k in range(6)]
    [6, 1, 2, 3, 2, 1]
    >>> gcd_class(-1, 6)
    1
    """
    if d < 1:
        raise ValueError(f"gcd_class needs d >= 1, got {d}")
    return math.gcd(k % d, d)
