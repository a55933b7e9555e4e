"""Localization contexts: integral, p-local, away from a prime set, rational.

A context records which primes have been inverted. Everything downstream
(abelian-group restriction, space-expression rewriting, vanishing tests for
torsion fibers) asks one question: is the prime p invertible here?
"""

from __future__ import annotations

from .arith import is_prime, prime_divisors
from .value import Value

_KINDS = ("integral", "at_prime", "away_from", "rational")


class Localization(Value):
    """Immutable localization context.

    >>> Localization.at_prime(5).inverts(2)
    True
    >>> Localization.at_prime(5).inverts(5)
    False
    >>> Localization.away_from([6]).inverted_primes
    frozenset({2, 3})
    >>> Localization.integral().inverts(7)
    False
    """

    kind: str
    inverted_set: frozenset[int]
    prime: int | None

    def __init__(
        self, kind: str, inverted_set: frozenset[int] = frozenset(), prime: int | None = None
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown localization kind {kind!r}")
        if kind == "at_prime" and (prime is None or not is_prime(prime)):
            raise ValueError(f"at_prime needs a prime, got {prime}")
        if kind == "away_from" and not inverted_set:
            raise ValueError("away_from needs a nonempty prime set")
        self.__dict__.update(kind=kind, inverted_set=inverted_set, prime=prime)

    @staticmethod
    def integral() -> "Localization":
        return Localization("integral")

    @staticmethod
    def at_prime(p: int) -> "Localization":
        return Localization("at_prime", prime=p)

    @staticmethod
    def away_from(numbers) -> "Localization":
        """Invert every prime dividing any of the given integers (each >= 2)."""
        primes: set[int] = set()
        for n in numbers:
            if n < 2:
                raise ValueError(f"away_from needs integers >= 2, got {n}")
            primes.update(prime_divisors(n))
        return Localization("away_from", inverted_set=frozenset(primes))

    @staticmethod
    def rational() -> "Localization":
        return Localization("rational")

    @property
    def inverted_primes(self) -> frozenset[int]:
        if self.kind == "away_from":
            return self.inverted_set
        return frozenset()

    def inverts(self, p: int) -> bool:
        """Is the prime p a unit in this localization?"""
        if not is_prime(p):
            raise ValueError(f"inverts expects a prime, got {p}")
        if self.kind == "integral":
            return False
        if self.kind == "rational":
            return True
        if self.kind == "at_prime":
            return p != self.prime
        return p in self.inverted_set

    def inverts_all_of(self, m: int) -> bool:
        """Are all primes dividing m (>= 1) inverted?

        Answered by division by the primes the context holds, so m is never
        factored: a semiprime or an m beyond the primality bound costs no
        more than a small one.

        >>> away2 = Localization.away_from([2])
        >>> away2.inverts_all_of(8), away2.inverts_all_of(12)
        (True, False)
        """
        if m < 1:
            raise ValueError(f"inverts_all_of needs a positive integer, got {m}")
        if self.kind == "integral":
            return m == 1
        if self.kind == "rational":
            return True
        if self.kind == "at_prime":
            return m % self.prime != 0
        for p in self.inverted_set:
            while m % p == 0:
                m //= p
        return m == 1

    def describe(self) -> str:
        if self.kind == "integral":
            return "integral"
        if self.kind == "rational":
            return "rational"
        if self.kind == "at_prime":
            return f"localized at {self.prime}"
        inv = ",".join(str(p) for p in sorted(self.inverted_set))
        return f"away from {{{inv}}}"

    def __str__(self) -> str:
        return self.describe()
