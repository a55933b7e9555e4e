"""No answer's cost grows with an input its output size does not depend on.

Each family below is one argv with one input left open. Its output has the
same size at every value of that input, so the work to answer it should not
grow with the value either. The unit of work is the number of Python lines
one in-process `cli.main` call executes, counted under `sys.settrace` after
a warm-up call has loaded the catalog: it needs no timer and reads the same
on any machine. The count at the large value may be at most GROWTH times
the count at the small one.

Left out, each with its reason:
- semiprime c: factoring it is the one cost kept by decision (ROADMAP,
  Not pursued: faster factoring);
- `rational --group SU:n`, which builds SU(n)'s whole degree tuple (ROADMAP
  item 7);
- Spin `bott --m` and `moore --suspension --m`, whose output grows with m.
"""

import contextlib
import io
import sys

import pytest

from gauge5 import cli

GROWTH = 3

PRIMES = (10**12 + 39, 10**18 + 3)
PRIME_POWERS = (7**14, 7**21)
SMOOTH = (2**40 * 3**20 * 5**6, 2**50 * 3**20 * 5**10 * 7**3)

# (argv with {} for the open input, its small value, its large values)
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
    "exponent in p": ("exponent --group SU:3 --c 5 --p {}", 5, PRIMES),
    "exponent in SU(n)'s n": ("exponent --group SU:{} --c 5 --p 1000000000039", 3, (10**6, 10**12)),
    **{
        f"rational {op} in the model degree": (
            f"rational --op {op} --series 1,0,0,0,1 --model {{}}/", 101, (100001,)
        )
        for op in ("ring-gauge", "ring-b-star", "em", "rank --q 3")
    },
}


def _lines(argv: list[str]) -> int:
    """Python lines executed by one `cli.main(argv)`, which must answer."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += event == "line"
        return tracer

    previous = sys.gettrace()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        sys.settrace(tracer)
        try:
            code = cli.main(argv)
        finally:
            sys.settrace(previous)
    assert code == 0, err.getvalue()
    return count


@pytest.mark.parametrize("family", FAMILIES)
def test_executed_lines_do_not_grow_with_the_input(family):
    argv, small, large = FAMILIES[family]
    _lines(argv.format(small).split())  # warm-up: the catalog and imports load here
    base = _lines(argv.format(small).split())
    for value in large:
        assert _lines(argv.format(value).split()) <= GROWTH * base, (family, value)
