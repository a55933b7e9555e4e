"""Immutable value objects: the base of the package's record types.

A subclass lists its fields as annotations, in order, and writes its own
`__init__`, which takes what its value is computed from, holds the
defaults and builds the value in one step: it computes each field, runs its
checks and stores every field once with `self.__dict__.update(...)`. Most
constructors take the fields themselves; `ClassificationReport` takes
(G, c, looped) and derives the rest. That call may also store entries
derived once from the fields (`CatalogRow.interval`, `SpaceAtom`'s hash and
sort key, `PrimePower`'s sort key, `GcdClass`'s Mobius terms); repr reads
only fields. Only `FGAbelianGroup` keeps a second step, `__post_init__`,
through which the benchmark counts group constructions. `Value` then
supplies what a frozen dataclass would: a `Name(field=value, ...)` repr,
equality with instances of the same class and a hash of the field tuple,
and refusal of assignment and deletion. These are plain `Value` methods; a
subclass adds only its field names and one getter of its field tuple, at
definition. Two classes write their own: `GcdClass` an equality and hash
that compare members, and `SpaceAtom` a hash cached at build. Only
`operator` is imported, so importing the package pays neither for
`dataclasses` (which pulls in `inspect`, `ast`, `dis` and `tokenize`) nor
for generating methods per class.

>>> class Pair(Value):
...     a: int
...     b: int
...     def __init__(self, a, b=0):
...         if a < 0:
...             raise ValueError(f"a must be >= 0, got {a}")
...         self.__dict__.update(a=a, b=b)
>>> p = Pair(1)
>>> p, p == Pair(1, 0), hash(p) == hash((1, 0))
(Pair(a=1, b=0), True, True)
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", {}))
        # the field tuple; attrgetter returns a bare value for one name
        cls._astuple = (
            attrgetter(*fields) if len(fields) > 1
            else staticmethod(lambda self: tuple(getattr(self, f) for f in fields))
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
