"""Immutable value objects: the base of the package's record types.

A subclass lists its fields as annotations, in order, and writes its own
`__init__`, which holds their defaults and stores them with
`self.__dict__.update(...)`. `Value` then supplies what a frozen dataclass
would: a `Name(field=value, ...)` repr, equality with instances of the same
class, a hash of the field tuple, refusal of assignment and deletion, and
`replace`. Only `operator` is imported, so importing the package pays
neither for `dataclasses` (which pulls in `inspect`, `ast`, `dis` and
`tokenize`) nor for generating methods per class.

>>> class Pair(Value):
...     a: int
...     b: int
...     def __init__(self, a, b=0):
...         self.__dict__.update(a=a, b=b)
>>> p = Pair(1)
>>> p, p == Pair(1, 0), hash(p) == hash((1, 0)), p.replace(b=2)
(Pair(a=1, b=0), True, True, Pair(a=1, b=2))
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", {}))
        if len(fields) > 1:
            get = attrgetter(*fields)
        else:

            def get(self) -> tuple:
                return tuple(getattr(self, f) for f in fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash(get(self))

        if "__eq__" not in cls.__dict__:
            cls.__eq__ = __eq__
        if cls.__dict__.get("__hash__") is None:
            cls.__hash__ = __hash__

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes) -> "Value":
        """A copy with the named fields changed, built through `__init__`."""
        return self.__class__(**{f: getattr(self, f) for f in self._fields} | changes)
