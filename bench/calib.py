"""The calibration kernel: fixed pure-Python work that imports nothing from
gauge5, so no library change can move it.

It does what the library does most, at about the cost of a few small
queries: trial division, frozen dataclasses canonicalized by a keyed sort in
`__post_init__`, tuple concatenation, f-string rendering, dict merges,
small-int gcds and a raised and caught ValueError. Timing it between query
blocks in the same process gives the "cal unit" that the *_cal metrics
divide by, which cancels most of the drift of a shared machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class _Cell:
    p: int
    e: int

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError(f"exponent must be >= 1, got {self.e}")


@dataclass(frozen=True)
class _Bag:
    free: int
    cells: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(sorted(self.cells, key=lambda f: (f.p, -f.e))))

    def __add__(self, other: "_Bag") -> "_Bag":
        return _Bag(self.free + other.free, self.cells + other.cells)

    def text(self) -> str:
        pieces = [] if not self.free else ["Z" if self.free == 1 else f"Z^{self.free}"]
        pieces += [f"Z/{f.p ** f.e}" for f in self.cells]
        return " ⊕ ".join(pieces) or "0"


def _factor(n: int) -> tuple[_Cell, ...]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append(_Cell(d, e))
        d += 1
    if n > 1:
        out.append(_Cell(n, 1))
    return tuple(out)


_NS = (12, 45, 98, 105, 132, 175)


def kernel() -> int:
    acc = 0
    total = _Bag(0, ())
    for i, n in enumerate(_NS):
        g = _Bag(i % 3, _factor(n + i))
        total = total + g
        acc += len(g.text())
        merged: dict[int, int] = {}
        for f in total.cells:
            merged[f.p] = max(merged.get(f.p, 0), f.e)
        acc += sum(gcd(p, n) for p in merged)
        try:
            _Cell(n, -i)
        except ValueError as exc:
            acc += len(str(exc))
    return acc + len(total.text())


def cal_sample(reps: int = 4) -> float:
    """Seconds of one kernel call: the fastest of `reps` timed calls after
    one untimed call, so neither the cold caches a query block leaves
    behind nor a preemption inflates it."""
    kernel()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
