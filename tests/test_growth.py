"""No answer's cost grows with an input its output size does not depend on.

Each family below is one query with one input left open: an argv, or a call
of a public entry point. Its output has the same size at every value of that
input, so the work to answer it should not grow with the value either. The
unit of work is the number of Python lines one in-process `cli.main` call
(or entry-point call) executes, counted under `sys.settrace` after a warm-up
call has loaded the catalog: it needs no timer and reads the same on any
machine. The count at the large value may be at most GROWTH times the count
at the small one.

The families in P read SU(P - 1) at c = P, where d = gcd(ord, c) = P: the
report has two classes, {0} and the P - 1 units. A scan of the divisors of d
up to d, or a class's `len` that counts its members, grows with P there.

Left out, each with its reason:
- semiprime c: factoring it is the one cost kept by decision (ROADMAP,
  Not pursued: faster factoring);
- `rational --group SU:n`, which builds SU(n)'s whole degree tuple (ROADMAP
  item 7);
- Spin `bott --m` and `moore --suspension --m`, whose output grows with m;
- the public entry points other than `classify_moore`: each is reached
  through a verb above, and only a class's `len` has no verb.
"""

import contextlib
import functools
import io
import sys

import pytest

from gauge5 import cli
from gauge5.classification import classify_moore
from gauge5.lie import LieGroupSpec

GROWTH = 3

PRIMES = (10**12 + 39, 10**18 + 3)
PRIME_POWERS = (7**14, 7**21)
SMOOTH = (2**40 * 3**20 * 5**6, 2**50 * 3**20 * 5**10 * 7**3)


def _class_lengths(P: int) -> list[int]:
    """The len of each class of classify_moore(SU(P - 1), P), which no verb takes."""
    return [len(members) for _, members in classify_moore(LieGroupSpec("SU", P - 1), P).classes]


# (argv with {} for the open input, or a call of it, its small value, its large values)
FAMILIES = {
    # below 10^6 the trial table's 168 primes decide c: a fixed step, not growth
    "homology prime c": ("homology --c {} --m 2", 10**6 + 3, PRIMES),
    **{
        f"{verb} {kind}": (argv, small, large)
        for verb, argv in [
            ("classify SU(3)", "classify --moore --group SU:3 --c {}"),
            ("classify E8", "classify --moore --group E8 --c {}"),
            ("bott SU table", "bott --family SU --table --m 2 --c {}"),
            ("decompose away from c", "decompose --group SU:3 --away-from-c --normalize --m 2 --c {}"),
        ]
        for kind, small, large in [
            ("prime c", 101, PRIMES),
            ("prime-power c", 7**2, PRIME_POWERS),
            ("smooth c", 2 * 3 * 5 * 7, SMOOTH),
        ]
    },
    # d = P, so d's divisors are 1 and P, and the classes have P - 1 members and 1
    **{
        f"{name} at c = P": (query, 10**6 + 3, PRIMES)
        for name, query in [
            ("classify SU(P-1)", "classify --moore --group SU:{below} --c {}"),
            ("each class's len, SU(P-1)", _class_lengths),
        ]
    },
    **{
        f"{verb} in m": (f"{argv} --m {{}}", 2, (10**6, 10**12))
        for verb, argv in [
            ("bott SU table", "bott --family SU --table --c 5"),
            ("homology", "homology --c 5"),
            ("decompose loops 2", "decompose --group SU:3 --loops 2 --normalize --c 5"),
            ("decompose away from c", "decompose --group SU:3 --away-from-c --normalize --c 5"),
            ("rational gauge", "rational --op gauge --group SU:3 --c 5"),
            ("rational rank", "rational --op rank --q 3 --group SU:3 --c 5"),
            ("classify loops 2", "classify --group SU:3 --loops 2 --c 5"),
        ]
    },
    "exponent in p": ("exponent --group SU:3 --c 5 --p {}", 5, PRIMES),
    "exponent in SU(n)'s n": ("exponent --group SU:{} --c 5 --p 1000000000039", 3, (10**6, 10**12)),
    **{
        f"rational {op} in the model degree": (
            f"rational --op {op} --series 1,0,0,0,1 --model {{}}/", 101, (100001,)
        )
        for op in ("ring-gauge", "ring-b-star", "em", "rank --q 3")
    },
}


def _answer(argv: list[str]) -> None:
    """One in-process `cli.main(argv)`, which must answer."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code == 0, err.getvalue()


def _lines(family: str, value: int) -> int:
    """Python lines executed by one query of the family at value. An argv's
    {} is the value and {below} the value less one."""
    query = FAMILIES[family][0]
    if isinstance(query, str):
        run = functools.partial(_answer, query.format(value, below=value - 1).split())
    else:
        run = functools.partial(query, value)
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("family", FAMILIES)
def test_executed_lines_do_not_grow_with_the_input(family):
    _, small, large = FAMILIES[family]
    _lines(family, small)  # warm-up: the catalog and imports load here
    base = _lines(family, small)
    for value in large:
        assert _lines(family, value) <= GROWTH * base, (family, value)
