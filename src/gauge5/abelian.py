"""Finitely generated abelian groups in canonical primary form.

A group is stored as a free rank together with the multiset of prime-power
orders of its torsion cyclic summands (primary decomposition). Two
descriptions of isomorphic groups canonicalize to equal objects: Z/6 (+) Z/4
and Z/12 (+) Z/2 both become Z/4 (+) Z/2 (+) Z/3, so equality tests
isomorphism.

This is the value type every homotopy-group computation in the package
returns.
"""

from operator import attrgetter

from . import records
from .arith import PrimePower, factorize, is_prime
from .localization import Localization
from .value import Value

_CANONICAL = attrgetter("_key")  # (p, -e): by prime, larger powers first


class FGAbelianGroup(Value):
    """A finitely generated abelian group, canonical at construction.

    >>> FGAbelianGroup.from_cyclic_orders(6, 4)
    FGAbelianGroup('Z/4 + Z/2 + Z/3')
    >>> FGAbelianGroup.from_cyclic_orders(12, 2) == FGAbelianGroup.from_cyclic_orders(6, 4)
    True
    >>> FGAbelianGroup.from_cyclic_orders(2, 12) == FGAbelianGroup.from_cyclic_orders(6, 4)
    True
    >>> FGAbelianGroup.free(2) + FGAbelianGroup.cyclic(9)
    FGAbelianGroup('Z^2 + Z/9')
    >>> FGAbelianGroup.trivial().is_trivial()
    True
    """

    free_rank: int
    torsion: tuple[PrimePower, ...]

    def __init__(self, free_rank: int = 0, torsion: tuple[PrimePower, ...] = ()) -> None:
        self.__dict__.update(free_rank=free_rank, torsion=torsion)
        self.__post_init__()

    # a second step, unlike every other Value, kept because bench/spans.py wraps it to count groups
    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError(f"free rank must be >= 0, got {self.free_rank}")
        torsion = self.torsion
        canon = tuple(sorted(torsion, key=_CANONICAL) if len(torsion) > 1 else torsion)
        for f in canon:
            if f.e < 1:
                raise ValueError(f"torsion exponents must be >= 1, got {f}")
        object.__setattr__(self, "torsion", canon)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def trivial() -> "FGAbelianGroup":
        return FGAbelianGroup(0, ())

    @staticmethod
    def free(rank: int) -> "FGAbelianGroup":
        return FGAbelianGroup(rank, ())

    @staticmethod
    def cyclic(n: int) -> "FGAbelianGroup":
        """Z/n for n >= 1 (Z/1 is trivial), Z for n = 0.

        >>> FGAbelianGroup.cyclic(12)
        FGAbelianGroup('Z/4 + Z/3')
        >>> FGAbelianGroup.cyclic(0)
        FGAbelianGroup('Z')
        """
        return FGAbelianGroup.from_cyclic_orders(n)

    @staticmethod
    def from_cyclic_orders(*orders: int) -> "FGAbelianGroup":
        """Direct sum of cyclic groups; 0 means Z, 1 means the zero group."""
        rank = 0
        torsion: list[PrimePower] = []
        for n in orders:
            if n < 0:
                raise ValueError(f"cyclic order must be >= 0, got {n}")
            if n == 0:
                rank += 1
            elif n > 1:
                torsion.extend(factorize(n))
        return FGAbelianGroup(rank, tuple(torsion))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        """Direct sum."""
        if not isinstance(other, FGAbelianGroup):
            return NotImplemented
        return FGAbelianGroup(self.free_rank + other.free_rank, self.torsion + other.torsion)

    def localize(self, ctx: Localization) -> "FGAbelianGroup":
        """Drop torsion at primes the context inverts; rationally drop it all.

        The free part is unchanged: localization at any set of primes keeps
        rank, and rationalization is recorded as the same rank over Q.

        >>> g = FGAbelianGroup.from_cyclic_orders(0, 12, 5)
        >>> g.localize(Localization.at_prime(2))
        FGAbelianGroup('Z + Z/4')
        >>> g.localize(Localization.away_from([10]))
        FGAbelianGroup('Z + Z/3')
        >>> g.localize(Localization.rational())
        FGAbelianGroup('Z')
        """
        kept = tuple(f for f in self.torsion if not ctx.inverts(f.p))
        return FGAbelianGroup(self.free_rank, kept)

    # -- queries -----------------------------------------------------------

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    # -- printing ----------------------------------------------------------

    def _pieces(self) -> list[str]:
        pieces: list[str] = []
        if self.free_rank == 1:
            pieces.append("Z")
        elif self.free_rank > 1:
            pieces.append(f"Z^{self.free_rank}")
        pieces.extend(f"Z/{f.p**f.e}" for f in self.torsion)
        return pieces

    def __str__(self) -> str:
        """Direct-sum notation, '0' for the zero group.

        >>> str(FGAbelianGroup.from_cyclic_orders(0, 0, 12))
        'Z^2 ⊕ Z/4 ⊕ Z/3'
        """
        if self.is_trivial():
            return "0"
        return " ⊕ ".join(self._pieces())

    def __repr__(self) -> str:
        if self.is_trivial():
            return "FGAbelianGroup('0')"
        return f"FGAbelianGroup({' + '.join(self._pieces())!r})"

    # -- machine format ----------------------------------------------------

    def machine(self) -> str:
        """One-line record, parseable by parse_machine."""
        return records.record(
            "group", free=self.free_rank, torsion=[f"{f.p}^{f.e}" for f in self.torsion]
        )


def parse_machine(line: str) -> FGAbelianGroup:
    """Inverse of FGAbelianGroup.machine().

    >>> g = FGAbelianGroup.from_cyclic_orders(0, 12, 5)
    >>> parse_machine(g.machine()) == g
    True
    """
    tag, found = records.parse(line)
    if tag != "group":
        raise ValueError(f"not a group record: {line!r}")
    free, listed = records.fields(found, line, "free", "torsion")
    torsion = []
    for chunk in filter(None, listed.split(",")):
        p, _, e = chunk.partition("^")  # '2' and '2^1^3' leave a malformed exponent
        f = PrimePower(records.integer(p, "torsion", line), records.integer(e, "torsion", line))
        if not is_prime(f.p):  # the constructor trusts its bases; outside text may not be prime
            raise ValueError(f"field 'torsion' needs prime bases, got {f.p}: {line!r}")
        torsion.append(f)
    return FGAbelianGroup(records.integer(free, "free", line), tuple(torsion))
