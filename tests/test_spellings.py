"""Isomorphic spellings of one group give one answer, or a table says why not.

SU(2) = Sp(1), Sp(2) = Spin(5) and SU(4) = Spin(6) each name one group, and
the paper's statements are about the group. Wherever both spellings have a
catalog row that holds at p, the two rows agree p-locally: nu_p(ord) and r.
Every classification verdict over a fixed grid agrees across a pair, or its
disagreement class is listed in DISAGREEMENTS with how often it occurs, its
reason and the ROADMAP item that owns it. A disagreement the table does not
list fails, and so does an entry that no longer occurs as listed.
"""

from collections import Counter

from gauge5 import LieGroupSpec, classify_moore, lie, same_type_moore, trivial_case
from gauge5.arith import is_prime, nu_p

PAIRS = {
    f"{a} = {b}": (a, b)
    for a, b in (
        (LieGroupSpec("SU", 2), LieGroupSpec("Sp", 1)),
        (LieGroupSpec("Sp", 2), LieGroupSpec("Spin", 5)),
        (LieGroupSpec("SU", 4), LieGroupSpec("Spin", 6)),
    )
}
SAME_TYPE = ((0, 1), (1, 2), (1, 5), (2, 4))
TRIVIAL_P = (3, 5, 7, 11)
MOORE_C = range(2, 61)

_FIRST_ROW = (
    "classification._order reads each spelling's first row at every prime of c: no row holds"
    " at 2, and Spin(6)'s spin_even_range row only from p = 5, so d = gcd(60, c) and"
    " gcd(10, c) differ at 2 and 3"
)

# (pair, question) -> (how many c in MOORE_C disagree, why, the ROADMAP item that owns it)
DISAGREEMENTS = {
    ("SU(4) = Spin(6)", "single-type"): (8, _FIRST_ROW, 20),
    ("SU(4) = Spin(6)", "same-type"): (23, _FIRST_ROW, 20),
    ("SU(4) = Spin(6)", "trivial p=3"): (
        20,
        "Spin(6) has no row that holds at p = 3, where SU(4)'s su_range row does, and"
        " trivial_case answers False for no row, so 'not applicable' reads as 'does not hold'",
        2,
    ),
    ("SU(2) = Sp(1)", "trivial p=3"): (
        20,
        "trivial_case leaves Sp(1) out, as bench/queries.py::_check_trivial pins, which the"
        " paper does not yet confirm",
        2,
    ),
}


def test_both_spellings_read_one_local_order_and_offset_wherever_both_rows_hold():
    both = 0
    for p in (q for q in range(3, 200) if is_prime(q)):
        for name, pair in PAIRS.items():
            (row_a, n_a), (row_b, n_b) = (lie._lookup(G, p) for G in pair)
            if row_a is None or row_b is None:
                continue
            both += 1
            assert nu_p(row_a.ord_value(n_a), p) == nu_p(row_b.ord_value(n_b), p), (name, p)
            assert row_a.r_value(n_a, p) == row_b.r_value(n_b, p), (name, p)
    assert both == 134  # 45 odd primes below 200 for each pair, less Spin(6) at p = 3


def _verdicts(G: LieGroupSpec, c: int):
    """(question, verdict) for each question of the grid at c, in one order for every G."""
    yield "single-type", classify_moore(G, c).is_single_type()
    for k, l in SAME_TYPE:
        yield "same-type", same_type_moore(k, l, G, c)
    for p in TRIVIAL_P:
        yield f"trivial p={p}", trivial_case(G, p, c)


def test_each_verdict_agrees_across_spellings_or_is_listed_with_its_reason():
    asked, found = 0, Counter()
    for name, pair in PAIRS.items():
        for c in MOORE_C:
            a, b = (list(_verdicts(G, c)) for G in pair)
            asked += len(a)
            found.update((name, question) for (question, x), (_, y) in zip(a, b) if x != y)
    assert asked == 1593
    assert dict(found) == {key: count for key, (count, _, _) in DISAGREEMENTS.items()}
