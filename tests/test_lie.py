"""Lie group catalog: types, connecting-map orders, exponent offsets."""

import bisect
import re
from pathlib import Path

import pytest

from gauge5 import lie

from gauge5 import (
    CatalogError,
    FGAbelianGroup,
    LieGroupSpec,
    Localization,
    classify_moore,
    in_theriault_range,
    is_p_regular,
    l_of,
    legendre_valuation,
    ord_partial1_tilde,
    r_of,
    rational_degrees,
    stable_pi,
    type_of,
)
from gauge5.arith import is_prime
from gauge5.classification import trivial_case
from gauge5.errors import HypothesisError
from gauge5.exponents import (
    best_bound, exceptional_table, exp_bound_closed_form, exp_bound_regular,
    exp_bound_theriault,
)
from gauge5.lie import (
    EXCEPTIONAL,
    CatalogRow,
    _entry,
    load_catalog,
)
from gauge5.manifold import ManifoldSpec, pi4, pi4_is_trivial, require_pi4_trivial

SU = lambda n: LieGroupSpec("SU", n)
Sp = lambda n: LieGroupSpec("Sp", n)
Spin = lambda n: LieGroupSpec("Spin", n)

TYPE_TABLE = [
    (SU(2), (1,)),
    (SU(3), (1, 2)),
    (SU(5), (1, 2, 3, 4)),
    (Sp(1), (1,)),
    (Sp(2), (1, 3)),
    (Sp(3), (1, 3, 5)),
    (Spin(5), (1, 3)),
    (Spin(7), (1, 3, 5)),
    (Spin(8), (1, 3, 3, 5)),
    (Spin(10), (1, 3, 4, 5, 7)),
    (LieGroupSpec("G2"), (1, 5)),
    (LieGroupSpec("F4"), (1, 5, 7, 11)),
    (LieGroupSpec("E6"), (1, 4, 5, 7, 8, 11)),
    (LieGroupSpec("E7"), (1, 5, 7, 9, 11, 13, 17)),
    (LieGroupSpec("E8"), (1, 7, 11, 13, 17, 19, 23, 29)),
]


def test_type_table():
    for group, expected in TYPE_TABLE:
        assert type_of(group) == expected, group


def test_l_and_degrees_are_read_off_the_type():
    for group, expected in TYPE_TABLE:
        assert l_of(group) == max(expected)
        assert rational_degrees(group) == tuple(sorted(2 * n + 1 for n in expected))


@pytest.mark.parametrize("family", lie.FAMILIES)
def test_l_closed_form_matches_the_type(family):
    """`l_of` never builds the type; it agrees with it for every parameter
    up to 500."""
    if family in EXCEPTIONAL:
        groups = [LieGroupSpec(family)]
    else:
        low = {"SU": 2, "Sp": 1, "Spin": 5}[family]
        groups = [LieGroupSpec(family, n) for n in range(low, 501)]
    for group in groups:
        assert l_of(group) == max(type_of(group)), group


def test_spec_validation():
    with pytest.raises(ValueError):
        LieGroupSpec("SU", 1)
    with pytest.raises(ValueError):
        LieGroupSpec("Spin", 4)
    with pytest.raises(ValueError):
        LieGroupSpec("G2", 2)
    with pytest.raises(ValueError):
        LieGroupSpec("SO", 3)
    with pytest.raises(ValueError):
        LieGroupSpec("E8", None) and LieGroupSpec("SU", None)


def test_parse_round_trip():
    assert LieGroupSpec.parse("SU:4") == SU(4)
    assert LieGroupSpec.parse("G2") == LieGroupSpec("G2")
    with pytest.raises(ValueError):
        LieGroupSpec.parse("SU")
    with pytest.raises(ValueError):
        LieGroupSpec.parse("G2:7")


@pytest.mark.parametrize("text", ["SU:2", "SU:14", "Sp:1", "Spin:5", "Spin:8", "G2", "F4", "E8"])
def test_token_is_the_inverse_of_parse(text):
    G = LieGroupSpec.parse(text)
    assert G.token() == text
    assert LieGroupSpec.parse(G.token()) == G


def test_pi4():
    two = FGAbelianGroup.cyclic(2)
    zero = FGAbelianGroup.trivial()
    assert pi4(SU(2)) == two
    assert pi4(Sp(3)) == two
    assert pi4(Spin(5)) == two
    assert pi4(SU(3)) == zero
    assert pi4(Spin(7)) == zero
    assert pi4(LieGroupSpec("E6")) == zero


def test_pi4_is_trivial_respects_localization():
    assert not pi4_is_trivial(Sp(2), Localization.integral())
    assert pi4_is_trivial(Sp(2), Localization.at_prime(3))
    assert pi4_is_trivial(Sp(2), Localization.away_from([2]))
    assert pi4_is_trivial(SU(4), Localization.integral())


_PI4_GROUPS = (
    [SU(n) for n in range(2, 11)]
    + [Sp(n) for n in range(1, 7)]
    + [Spin(n) for n in range(5, 15)]
    + [LieGroupSpec(f) for f in EXCEPTIONAL]
)
_PI4_CONTEXTS = (
    Localization.integral(),
    *(Localization.at_prime(p) for p in (2, 3, 5, 7)),
    *(Localization.away_from([m]) for m in (2, 3, 6)),
    Localization.rational(),
)


@pytest.mark.parametrize("ctx", _PI4_CONTEXTS, ids=str)
def test_pi4_is_trivial_agrees_with_the_localized_group(ctx):
    # pi4_is_trivial builds no group; the group it stands for is the oracle
    for G in _PI4_GROUPS:
        assert pi4_is_trivial(G, ctx) == pi4(G).localize(ctx).is_trivial(), G


@pytest.mark.parametrize(
    "ctx, shown",
    [(Localization.integral(), "integral"), (Localization.at_prime(2), "localized at 2")],
)
def test_pi4_refusal_names_the_localized_group(ctx, shown):
    with pytest.raises(HypothesisError) as err:
        require_pi4_trivial(Sp(2), ctx)
    assert str(err.value) == f"hypothesis pi_4(G) = 0 fails: pi_4(Sp(2)) = Z/2 ({shown})"


def test_connecting_map_orders():
    assert ord_partial1_tilde(SU(3)) == 24
    assert ord_partial1_tilde(SU(5)) == 120
    assert ord_partial1_tilde(SU(2), 3) == 3
    assert ord_partial1_tilde(SU(4), 5) == 4 * 15  # n(n^2-1)
    assert ord_partial1_tilde(Sp(2), 3) == 10  # n(2n+1)
    assert ord_partial1_tilde(Spin(9), 5) == 36  # Spin(2n+1) same as Sp(n)
    assert ord_partial1_tilde(Spin(8), 5) == 21  # (n-1)(2n-1)
    assert ord_partial1_tilde(LieGroupSpec("G2"), 5) == 21


def test_order_unknown_raises():
    with pytest.raises(CatalogError):
        ord_partial1_tilde(SU(2))  # only known for p >= 3
    with pytest.raises(CatalogError):
        ord_partial1_tilde(SU(4))  # range rows need a prime
    with pytest.raises(CatalogError):
        ord_partial1_tilde(SU(40), 3)  # n beyond the validity range
    with pytest.raises(CatalogError):
        ord_partial1_tilde(LieGroupSpec("G2"), 3)  # rows start at p=5


def _first_row(G):
    """(ord, validity tag) of G's first catalog row, as a classification reports them."""
    report = classify_moore(G, 2)
    return report.ord, report.order_validity


def test_classification_reports_the_first_rows_validity():
    assert _first_row(SU(2)) == (3, "p>=3")
    assert _first_row(SU(3)) == (24, "all")
    assert _first_row(Sp(2)) == (10, "symp_range")
    assert _first_row(LieGroupSpec("G2")) == (21, "p=5")
    assert _first_row(LieGroupSpec("F4")) == (5**2 * 13, "p=5")
    assert _first_row(LieGroupSpec("E7")) == (7 * 11 * 19, "p=7")
    assert _first_row(LieGroupSpec("E8")) == (7**2 * 11**2 * 13 * 19 * 31, "p=7")


def test_classification_reads_the_first_row_without_a_scan(monkeypatch):
    calls = []
    holds_at = CatalogRow._holds_at
    monkeypatch.setattr(
        CatalogRow, "_holds_at", lambda self, p, n: calls.append(p) or holds_at(self, p, n)
    )
    assert _first_row(LieGroupSpec("E8")) == (45398353, "p=7")
    assert _first_row(SU(4)) == (60, "su_range")
    assert calls == []


@pytest.mark.parametrize("family", EXCEPTIONAL)
def test_one_exceptional_row_holds_exactly_in_the_loop_filtration_range(family):
    G, rows = LieGroupSpec(family), [r for r in load_catalog() if r.family == family]
    for p in (q for q in range(3, 200) if is_prime(q)):
        holding = [r.prime_cond for r in rows if r._holds_at(p, None)]
        assert len(holding) == in_theriault_range(G, p), (p, holding)


def _row(family, tag):
    """A built row of `family` with prime tag `tag` and cells that pass its checks."""
    if family in EXCEPTIONAL:
        return CatalogRow(family, None, tag, "21", ("5", "0"))
    return CatalogRow(family, None, tag, "6", ("0",))


# (family key, tag, p, n, does the row hold?): each tag kind on both sides of its boundary
HOLDS_AT = [
    ("SU", "all", None, 4, True),
    ("SU", "all", 3, 4, True),
    ("SU", "p>=3", None, 4, False),  # p = None asks for every prime
    ("SU", "su_range", None, 4, False),
    ("G2", "p=5", 5, None, True),
    ("G2", "p=5", 7, None, False),
    ("G2", "p>=11", 13, None, True),
    ("G2", "p>=11", 11, None, True),
    ("G2", "p>=11", 7, None, False),
    ("SU", "p=05", 5, 4, True),  # K is read as an integer, however it is spelt
    ("SU", "p=+5", 7, 4, False),
    ("SU", "su_range", 5, 17, True),  # l = n - 1 <= (p-1)^2 = 16
    ("SU", "su_range", 5, 18, False),
    ("Sp", "symp_range", 5, 8, True),  # l = 2n - 1 <= 16
    ("Sp", "symp_range", 5, 9, False),
    ("Sp", "symp_range", 3, 2, True),  # l = 2n - 1 <= 4
    ("Sp", "symp_range", 3, 3, False),
    ("SpinEven", "spin_even_range", 5, 9, True),  # l = 2n - 3 <= 16
    ("SpinEven", "spin_even_range", 5, 10, False),
    ("SpinEven", "spin_even_range", 3, 2, False),  # p >= 5
    ("Sp", "su_range", 3, 2, True),  # a tag reads its row's family: l(Sp(2)) = 3 <= 4
    ("Sp", "su_range", 3, 3, False),  # l(Sp(3)) = 5, though SU(3) is inside
]


@pytest.mark.parametrize("family, tag, p, n, holds", HOLDS_AT)
def test_a_built_row_answers_where_its_tag_holds(family, tag, p, n, holds):
    assert _row(family, tag)._holds_at(p, n) is holds


# a * row before its family's specific rows, and the rows of SU(3) and SU(4) interleaved;
# each restates the * rows' ords, so the loader keeps them all
_INTERLEAVED = """SU  *  p>=7  n(n^2-1)  0
SU  3  p=5  24  1
SU  4  p=5  60  1
SU  3  all  24  0
SU  *  p=3  n(n^2-1)  0
SU  4  p=3  60  2
"""


@pytest.mark.parametrize(
    "rows, message",
    [
        # a classical family needs n or *; '-' used to be read as '*'
        ("SU  -  all  99  0", r":1: SU needs an integer parameter or \*, got '-'"),
        ("Sp  x  all  99  0", r":1: Sp needs an integer parameter or \*, got 'x'"),
        # an exceptional row no lookup could ever reach
        ("G2  ord  21\nG2  3  p=5  7  1", ":2: G2 takes no parameter; write -, got '3'"),
        ("E8  *  p=7  35  4", r":1: E8 takes no parameter; write -, got '\*'"),
        # a repeated (family, param, primes): the later row was silently shadowed
        ("SU  3  all  24  0\nSU  3  all  77  0", r":2: repeats line 1 \(SU 3 all\)"),
        ("G2  ord  21\nG2  -  p=5  7  1\nG2  -  p=5  7  1", r":3: repeats line 2 \(G2 - p=5\)"),
        # a repeat is two tags naming the same primes, however K is spelt
        ("SU  4  p=5  60  0\nSU  4  p=+5  99  0", r":2: repeats line 1 \(SU 4 p=\+5\)"),
        ("G2  ord  21\nG2  -  p=5  7  1\nG2  -  p=05  7  1", r":3: repeats line 2 \(G2 - p=05\)"),
        ("G2  ord  21\nG2  -  p>=11  5  0\nG2  -  p>=011  5  0",
         r":3: repeats line 2 \(G2 - p>=011\)"),
        # a repeat names the first line of its group to name those primes, past a * row
        # before it and rows of another parameter between
        (_INTERLEAVED + "SU  3  p=+5  24  0", r":7: repeats line 2 \(SU 3 p=\+5\)"),
        # an ord line is checked where it is written, though no row of its group reads it
        ("E8  ord  0\nSU  3  all  24  0", ":1: E8 needs ord >= 1, got 0"),
        ("E8  ord  x\nSU  3  all  24  0", ":1: E8 needs an integer ord, got 'x'"),
        # the exceptional lookups read a prime interval; su_range has none
        ("G2  ord  21\nG2  -  su_range  7  1", ":2: G2 needs a p=K or p>=K tag, got 'su_range'"),
        # the formulas read n, which an exceptional group does not have
        ("G2  ord  21\nG2  -  p=5  7  nu_p((n-1)!)",
         r":2: G2 needs integer ord, A and B, got '21' and \('7', 'nu_p"),
        # a catalog format 1 row: ord and r where A and B stand, and no ord line
        ("E8  -  p=7  45398353  2", r":1: E8 row before its ord line \(E8 ord N\)"),
    ],
)
def test_catalog_refuses_rows_no_lookup_can_serve(tmp_path, rows, message):
    path = tmp_path / "catalog.txt"
    path.write_text(rows + "\n", encoding="utf-8")
    with pytest.raises(CatalogError, match=re.escape(str(path)) + message):
        load_catalog(path)


def test_catalog_keeps_p_at_least_k_rows_whose_ord_is_free_of_primes_from_k(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(
        "G2  ord  21\nG2  -  p>=11  5  0\nE8  ord  45398353\nE8  -  p>=37  29  0\n"
        "SU  2  p>=3  3  0\n",
        encoding="utf-8",
    )
    assert len(load_catalog(path)) == 3  # only exceptional rows carry the table's premise


def test_catalog_keeps_rows_that_differ_in_one_column(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(
        "SU  3  all  24  0\nSU  3  p=5  24  0\nSU  4  all  60  0\nSU  *  all  n(n^2-1)  0\n"
        "G2  ord  21\nG2  -  p=5  7  1\nF4  ord  21\nF4  -  p=5  13  1\n",
        encoding="utf-8",
    )
    assert len(load_catalog(path)) == 6


@pytest.mark.parametrize(
    "rows, message",
    [
        # a specific row restates its * row's ord at each prime where both hold,
        # whichever comes first
        ("SU  2  p>=3  9  0\nSU  *  su_range  n(n^2-1)  0",
         ":2: SU * ord n(n^2-1) = 6 differs at p = 3 from line 1's SU 2 ord 9"),
        ("SU  *  su_range  n(n^2-1)  0\nSU  5  all  600  0",
         ":2: SU 5 ord 600 differs at p = 5 from line 1's SU * ord n(n^2-1) = 120"),
        ("SU  *  all  6  0\nSU  3  all  24  0",
         ":2: SU 3 ord 24 differs at p = 2 from line 1's SU * ord 6"),
        # the repeat check comes first
        ("SU  *  all  n(n^2-1)  0\nSU  3  all  24  0\nSU  3  all  48  0",
         ":3: repeats line 2 (SU 3 all)"),
    ],
)
def test_catalog_refuses_rows_that_restate_an_ord_differently(tmp_path, rows, message):
    path = tmp_path / "catalog.txt"
    path.write_text(rows + "\n", encoding="utf-8")
    with pytest.raises(CatalogError) as info:
        load_catalog(path)
    assert str(info.value) == f"{path}{message}"


@pytest.mark.parametrize(
    "rows",
    [
        # 48 and 24 differ only at 2, where su_range does not hold
        "SU  3  all  48  0\nSU  *  su_range  n(n^2-1)  0",
        # p=5 and p>=7 share no prime
        "SU  4  p=5  35  0\nSU  *  p>=7  n(n^2-1)  0",
        # ord 0, here n(n^2-1) at n = 1, has no p-local reading to compare
        "SU  1  p>=3  5  0\nSU  *  su_range  n(n^2-1)  0",
        # two specific rows, or two * rows, restate nothing of each other
        "SU  4  p=5  35  0\nSU  4  p=7  11  0\nSU  *  p>=11  7  0\nSU  *  p=3  9  0",
    ],
)
def test_catalog_keeps_rows_that_restate_an_ord_p_locally(tmp_path, rows):
    path = tmp_path / "catalog.txt"
    path.write_text(rows + "\n", encoding="utf-8")
    assert len(load_catalog(path)) == rows.count("\n") + 1


_ARMS = "needs r = B - nu_{}(ord {}) = {} >= 0 and A = B + r + l(G) = {}; got A = {}"

# (a line of the packaged catalog, what it becomes, the refused line's pattern,
# the refusal minus file:line): the mutant's last line that matches is refused,
# and {} in the refusal is its first
CATALOG_MUTANTS = [
    # E8's one ord, as 491 * 92461: nu_7 drops to 0, so its first row's A no longer fits
    ("E8 +ord +45398353", "E8 ord 45398351", "E8 +- +p=7 ",
     "E8 p=7 " + _ARMS.format(7, 45398351, 4, 37, 35)),
    # E8 p=17's published A, then its B
    ("(E8 +- +p=17 +)31", r"\g<1>30", "E8 +- +p=17 ",
     "E8 p=17 " + _ARMS.format(17, 45398353, 1, 31, 30)),
    ("(E8 +- +p=17 +31 +)1", r"\g<1>2", "E8 +- +p=17 ",
     "E8 p=17 " + _ARMS.format(17, 45398353, 2, 33, 31)),
    # G2's ord line moved below its first row, and a second E8 ord line
    ("(G2 +ord .*)\n(G2 .*)", r"\g<2>\n\g<1>", "G2 +- +p=5 ",
     "G2 row before its ord line (G2 ord N)"),
    ("(E8 +- +p=7 .*)", r"\g<1>\nE8 ord 45398353", "E8 +ord ", "repeats line {} (E8 ord)"),
    # an ord line on a classical family, and E8's p=7 row as catalog format 1 wrote it
    ("(SU .*)", r"SU ord 6\n\g<1>", "SU +ord ", "expected 5 columns, got 3"),
    ("E8 +- +p=7 .*", "E8 - p=7 45398353 2", "E8 +- +p=7 ",
     "E8 p=7 " + _ARMS.format(7, 45398353, 0, 31, 45398353)),
    # F4's ord with nu_5 dropped from 2 to 1, and E6 p>=17's B raised to 1
    ("F4 +ord +325", "F4 ord 65", "F4 +- +p=5 ", "F4 p=5 " + _ARMS.format(5, 65, 2, 16, 15)),
    ("(E6 +- +p>=17 +11 +)0", r"\g<1>1", "E6 +- +p>=17 ",
     "E6 p>=17 " + _ARMS.format(17, 2275, 1, 13, 11)),
]


@pytest.mark.parametrize("old, new, refused, message", CATALOG_MUTANTS,
                         ids=[new for _, new, _, _ in CATALOG_MUTANTS])
def test_a_mutant_of_the_packaged_catalog_fails_the_load(tmp_path, old, new, refused, message):
    text = Path(lie._DEFAULT_CATALOG).read_text(encoding="utf-8")
    mutant = re.sub(f"(?m)^{old}", new, text, count=1)
    lines = [i for i, row in enumerate(mutant.splitlines(), 1) if re.match(refused, row)]
    path = tmp_path / "catalog.txt"
    path.write_text(mutant, encoding="utf-8")
    with pytest.raises(CatalogError) as info:
        load_catalog(path)
    assert str(info.value) == f"{path}:{lines[-1]}: {message.format(lines[0])}"


# (the fields of a row built directly, the loader's refusal of that row minus its file:line)
ROW_REFUSALS = [
    (("SU", 4, "q>=3", "60", ("0",)), "unknown prime condition 'q>=3'"),
    (("SU", 4, "p>=x", "60", ("0",)), "unknown prime condition 'p>=x'"),
    (("SU", 4, "p=", "60", ("0",)), "unknown prime condition 'p='"),
    (("SU", 4, "any", "60", ("0",)), "unknown prime condition 'any'"),
    (("SU", 4, "p=4", "60", ("0",)), "p=4 needs a prime K, got K = 4"),
    (("G2", None, "p>=9", "21", ("5", "0")), "p>=9 needs a prime K, got K = 9"),
    (("G2", None, "p=1", "21", ("7", "1")), "p=1 needs a prime K, got K = 1"),
    (("G2", None, "p>=0", "21", ("5", "0")), "p>=0 needs a prime K, got K = 0"),
    (("SU", 4, "p=5", "bogus", ("0",)), "unknown ord spec 'bogus'"),
    (("SU", 3, "all", "24", ("r!",)), "unknown r spec 'r!'"),
    (("G2", None, "all", "21", ("7", "1")), "G2 needs a p=K or p>=K tag, got 'all'"),
    (("G2", None, "p=5", "21", ("7", "x")),
     "G2 needs integer ord, A and B, got '21' and ('7', 'x')"),
    # the exponent table reads a p>=K row at K alone
    (("G2", None, "p>=5", "21", ("7", "1")), "G2 p>=5 needs ord free of primes >= 5, so that"
     " p = 5 stands for every prime it covers; got ord 21"),
    (("E8", None, "p>=31", "45398353", ("30", "1")), "E8 p>=31 needs ord free of primes >= 31,"
     " so that p = 31 stands for every prime it covers; got ord 45398353"),
    # the published arms (A, B) are the loop-filtration exponent's at K
    (("G2", None, "p=7", "21", ("6", "0")), "G2 p=7 " + _ARMS.format(7, 21, -1, 4, 6)),
    (("G2", None, "p=5", "21", ("8", "1")), "G2 p=5 " + _ARMS.format(5, 21, 1, 7, 8)),
]


@pytest.mark.parametrize("fields, message", ROW_REFUSALS, ids=[m for _, m in ROW_REFUSALS])
def test_a_row_built_directly_refuses_what_the_loader_refuses(tmp_path, fields, message):
    # the row is the one check: built outside the loader it refuses at once,
    # with the loader's text, rather than fail at a later lookup
    with pytest.raises(CatalogError) as direct:
        CatalogRow(*fields)
    assert str(direct.value) == message
    family, param, primes, ord_spec, cells = fields
    if param is None:  # an exceptional row: its group's ord line, then the row
        text, line = f"{family} ord {ord_spec}\n{family} - {primes} {' '.join(cells)}", 2
    else:
        text, line = f"{family} {param} {primes} {ord_spec} {cells[0]}", 1
    path = tmp_path / "catalog.txt"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(CatalogError) as loaded:
        load_catalog(path)
    assert str(loaded.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize(
    "ord_spec, message",
    [("0", "needs ord >= 1, got 0"), ("n(n^2-1)", "needs an integer ord, got 'n(n^2-1)'")],
)
def test_an_exceptional_ord_is_refused_on_its_line_by_the_rule_a_row_keeps(
    tmp_path, ord_spec, message
):
    with pytest.raises(CatalogError) as direct:
        CatalogRow("G2", None, "p=5", ord_spec, ("7", "1"))
    assert str(direct.value) == f"G2 {message}"
    path = tmp_path / "catalog.txt"
    path.write_text(f"G2 ord {ord_spec}\nG2 - p=5 7 1\n", encoding="utf-8")
    with pytest.raises(CatalogError) as loaded:
        load_catalog(path)
    assert str(loaded.value) == f"{path}:1: G2 {message}"


@pytest.mark.parametrize("tag", ["p>=x", "p=", "p=5x", "q>=3", "any", "5"])
def test_a_malformed_tag_is_an_unknown_prime_condition(tag):
    with pytest.raises(CatalogError) as info:
        _row("SU", tag)
    assert info.type is CatalogError and str(info.value) == f"unknown prime condition {tag!r}"


@pytest.mark.parametrize(
    "rows, message",
    [
        # columns before family, family before parameter, ...
        ("Su 3 all 24", ":1: expected 5 columns, got 4"),
        ("Su x all 24 0", ":1: unknown family 'Su'"),
        ("Su 3 q>=3 24 0", ":1: unknown family 'Su'"),
        # ... parameter before the ord line, tag and the exceptional premises, ...
        ("SU x q>=3 24 0", ":1: SU needs an integer parameter or *, got 'x'"),
        ("G2 3 all 21 1", ":1: G2 takes no parameter; write -, got '3'"),
        # ... an ord line's value before every rule of its rows, ...
        ("G2 ord 0\nG2 - q>=3 7 1", ":1: G2 needs ord >= 1, got 0"),
        ("G2 ord n^3\nG2 - all 7 1", ":1: G2 needs an integer ord, got 'n^3'"),
        # ... the ord line before tag, ...
        ("G2 - p=4 n^3 x", ":1: G2 row before its ord line (G2 ord N)"),
        # ... tag before K's primality and the cells, K before the cells, ...
        ("SU 3 p>=x n^3 0", ":1: unknown prime condition 'p>=x'"),
        ("SU 4 p=4 n^3 0", ":1: p=4 needs a prime K, got K = 4"),
        ("G2 ord 21\nG2 - p=4 5 0", ":2: p=4 needs a prime K, got K = 4"),
        # ... ord before r, the cells before the exceptional premises, ...
        ("SU 3 all n^3 r!", ":1: unknown ord spec 'n^3'"),
        # ... within the premises the tag before the integer cells, a p>=K ord's
        # primes, then the arms, ...
        ("G2 ord 21\nG2 - all x 1", ":2: G2 needs a p=K or p>=K tag, got 'all'"),
        ("G2 ord 21\nG2 - p>=5 99 0", ":2: G2 p>=5 needs ord free of primes >= 5, so that"
                                       " p = 5 stands for every prime it covers; got ord 21"),
        # ... and every rule of a row before the repeat check
        ("SU 3 all 24 0\nSU 3 all n^3 0", ":2: unknown ord spec 'n^3'"),
        ("G2 ord 21\nG2 - p=5 7 1\nG2 - p=5 8 1", ":3: G2 p=5 " + _ARMS.format(5, 21, 1, 7, 8)),
    ],
)
def test_a_row_breaking_two_rules_is_refused_for_the_earlier(tmp_path, rows, message):
    # the order is columns, family, parameter, ord line, tag, K, ord, r, the
    # exceptional premises, repeat: a fold of the checks cannot reorder them unseen
    path = tmp_path / "catalog.txt"
    path.write_text(rows + "\n", encoding="utf-8")
    with pytest.raises(CatalogError) as info:
        load_catalog(path)
    assert str(info.value) == f"{path}{message}"


@pytest.mark.parametrize(
    "fields, message",
    [
        # an exceptional row built directly, whose ord no ord line checked first:
        # K before the cells, the tag before the integer cells, they before the ord
        (("G2", None, "p=4", "0", ("5", "0")), "p=4 needs a prime K, got K = 4"),
        (("G2", None, "all", "n(n^2-1)", ("7", "1")), "G2 needs a p=K or p>=K tag, got 'all'"),
        (("G2", None, "all", "0", ("7", "1")), "G2 needs a p=K or p>=K tag, got 'all'"),
        (("G2", None, "p=5", "0", ("x", "1")),
         "G2 needs integer ord, A and B, got '0' and ('x', '1')"),
        (("G2", None, "p>=5", "0", ("99", "9")), "G2 needs ord >= 1, got 0"),
    ],
)
def test_a_built_row_breaking_two_rules_is_refused_for_the_earlier(fields, message):
    with pytest.raises(CatalogError) as info:
        CatalogRow(*fields)
    assert str(info.value) == message


# -- the (family, param) index against a linear scan -------------------------------


def _oracle_holds(tag, family, p, n):
    """The catalog header's reading of a prime tag on a row of `family`, apart from the
    reader under test: a range tag bounds the width of the row's family, not the tag's."""
    if tag == "all":
        return True
    if tag.startswith("p>="):
        return p >= int(tag[3:])
    if tag.startswith("p="):
        return p == int(tag[2:])
    width = {"SU": n, "Sp": 2 * n, "SpinOdd": 2 * n, "SpinEven": 2 * (n - 1)}[family]
    return p >= (5 if tag == "spin_even_range" else 3) and width <= (p - 1) ** 2 + 1


def _oracle_rows(G):
    """The catalog rows matching G by scanning every row, specific rows first."""
    if G.family == "Spin":
        key, n = ("SpinOdd" if G.n % 2 else "SpinEven"), G.n // 2
    else:
        key, n = G.family, G.n
    rows = [r for r in load_catalog() if r.family == key and (r.param is None or r.param == n)]
    rows.sort(key=lambda r: r.param is None)
    return tuple(rows), n


def _oracle_ord(G, p=None):
    rows, n = _oracle_rows(G)
    if p is None:
        for row in rows:
            if row.prime_cond == "all":
                return row.ord_value(n)
        raise CatalogError(f"order unknown for ({G}, integral)")
    if not is_prime(p):
        raise ValueError(f"expected a prime or None, got {p}")
    for row in rows:
        if _oracle_holds(row.prime_cond, row.family, p, n):
            return row.ord_value(n)
    raise CatalogError(f"order unknown for ({G}, p={p})")


def _oracle_first_row(G):
    rows, n = _oracle_rows(G)
    if not rows:
        raise CatalogError(f"no catalog row for {G}")
    return rows[0].ord_value(n), rows[0].prime_cond


def _oracle_r(G, p):
    if not in_theriault_range(G, p):
        raise CatalogError(f"({G}, p={p}) outside the loop-filtration range")
    rows, n = _oracle_rows(G)
    for row in rows:  # the first row that holds at p, for every family
        if _oracle_holds(row.prime_cond, row.family, p, n):
            return row.r_value(n, p)
    raise CatalogError(f"no r value for ({G}, p={p})")


def _exceptional_cells():
    """What the exponent table reads of each exceptional row, through the index."""
    index = _entry()[1]
    return [
        (family, [(row.prime_cond, row.cells) for row in index.get((family, None), ())])
        for family in EXCEPTIONAL
    ]


def _oracle_exceptional_cells():
    return [
        (family, [
            (row.prime_cond, row.cells)
            for row in load_catalog()
            if row.family == family
        ])
        for family in EXCEPTIONAL
    ]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the refusal is part of the answer
        return type(exc).__name__, str(exc)


_INDEX_GROUPS = (
    [SU(n) for n in range(2, 41)]
    + [Sp(n) for n in range(1, 41)]
    + [Spin(n) for n in range(5, 41)]
    + [LieGroupSpec(f) for f in EXCEPTIONAL]
)
_PRIMES_BELOW_100 = [p for p in range(2, 100) if is_prime(p)]


def _index_answers():
    """Every lookup's outcome, through the index and through the scan."""
    got, want = [], []
    for G in _INDEX_GROUPS:
        got.append(_outcome(ord_partial1_tilde, G))
        want.append(_outcome(_oracle_ord, G))
        got.append(_outcome(_first_row, G))
        want.append(_outcome(_oracle_first_row, G))
        for p in _PRIMES_BELOW_100:
            got.append(_outcome(ord_partial1_tilde, G, p))
            want.append(_outcome(_oracle_ord, G, p))
            got.append(_outcome(r_of, G, p))
            want.append(_outcome(_oracle_r, G, p))
    got.append(_outcome(_exceptional_cells))
    want.append(_outcome(_oracle_exceptional_cells))
    return got, want


# rows that restate each ord as the loader requires: SU(4)'s agree with every
# * row on the primes where both hold, and G2's and E8's arms fit their ords
_OVERRIDE = """
SU        4   p=5              35           1
SU        *   p>=7             n(n^2-1)     nu_p((n-1)!)
SU        4   all              30           2
SU        *   all              30           0
SU        *   p=5              n(n^2-1)     3
Sp        2   symp_range       11           3
SpinOdd   *   su_range         n(2n+1)      nu_p((2n-1)!)
SpinEven  *   p=5              (n-1)(2n-1)  nu_p((2n-3)!)
SpinEven  6   p>=3             5            0
G2        ord 20
G2        -   p>=11            5            0
G2        -   p=5              8            2
G2        -   p=13             9            2
E8        ord 60
E8        -   p>=7             33           2
"""


def test_catalog_index_matches_a_linear_scan(tmp_path, monkeypatch):
    monkeypatch.delenv("GAUGE_CATALOG", raising=False)
    packaged, want = _index_answers()
    assert packaged == want
    assert sum(kind == "ok" for kind, _ in packaged) > 2000

    custom = tmp_path / "catalog.txt"
    custom.write_text(_OVERRIDE, encoding="utf-8")
    monkeypatch.setenv("GAUGE_CATALOG", str(custom))  # mid-process, after the packaged load
    overridden, want = _index_answers()
    assert overridden == want
    assert overridden != packaged
    assert ord_partial1_tilde(SU(4)) == 30 and ord_partial1_tilde(SU(4), 5) == 35
    # su_range on a SpinOdd row bounds l(Spin(2n+1)) = 2n - 1, so Spin(7) is out at p = 3
    assert _outcome(ord_partial1_tilde, Spin(7), 3) == (
        "CatalogError", "order unknown for (Spin(7), p=3)"
    )
    # no Sp(3) row: a refusal naming the group and p, not an IndexError
    assert _outcome(r_of, Sp(3), 5) == ("CatalogError", "no r value for (Sp(3), p=5)")

    monkeypatch.delenv("GAUGE_CATALOG")
    again, want = _index_answers()
    assert again == want == packaged


def test_the_index_lists_specific_rows_first_each_kind_in_file_order(tmp_path, monkeypatch):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(_INTERLEAVED, encoding="utf-8")
    monkeypatch.setenv("GAUGE_CATALOG", str(catalog))
    star_p7, su3_p5, su4_p5, su3_all, star_p3, su4_p3 = load_catalog()
    assert lie._rows(SU(3)) == ((su3_p5, su3_all, star_p7, star_p3), 3)
    assert lie._rows(SU(4)) == ((su4_p5, su4_p3, star_p7, star_p3), 4)
    assert lie._rows(SU(5)) == ((star_p7, star_p3), 5)  # no specific rows: the * rows alone
    for G in (SU(3), SU(4), SU(5)):
        assert lie._rows(G) == _oracle_rows(G)
    # a specific row answers ahead of a * row written before it that holds at the same p
    assert lie._lookup(SU(4), 3) == (su4_p3, 4) and lie._lookup(SU(4), 7) == (star_p7, 4)
    assert r_of(SU(3), 5) == 1


def test_r_is_read_from_the_row_that_holds_at_p(tmp_path, monkeypatch):
    # SU(4)'s first row holds only at 5; at 7, r is the * row's, which holds there
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("SU 4 p=5 60 2\nSU * su_range n(n^2-1) nu_p((n-1)!)\n", encoding="utf-8")
    monkeypatch.setenv("GAUGE_CATALOG", str(catalog))
    assert r_of(SU(4), 5) == 2
    assert r_of(SU(4), 7) == legendre_valuation(3, 7) == 0
    assert _outcome(r_of, SU(4), 7) == _outcome(_oracle_r, SU(4), 7)
    # the theriault route reads the same row: r + nu_7(60) + max(r + l, nu_7(c)) = 3
    assert exp_bound_theriault(ManifoldSpec(5, 2), SU(4), 7).exponent == 3


def test_each_lookup_loads_the_catalog_once(monkeypatch):
    # wrappers around load_catalog see every lookup's catalog
    calls = []
    real = lie.load_catalog
    monkeypatch.setattr(lie, "load_catalog", lambda *a: calls.append(a) or real(*a))
    ord_partial1_tilde(SU(4), 5)
    classify_moore(LieGroupSpec("E8"), 2)
    r_of(SU(7), 5)
    exceptional_table()  # one read for the whole table
    assert len(calls) == 4
    best_bound(ManifoldSpec(5, 2), SU(4), 5)  # both routes apply, from one read
    assert len(calls) == 5


def test_loop_offsets_for_classical_families():
    assert r_of(SU(7), 5) == legendre_valuation(6, 5)
    assert r_of(SU(11), 5) == legendre_valuation(10, 5)
    assert r_of(Sp(5), 5) == legendre_valuation(9, 5)
    assert r_of(Spin(9), 5) == legendre_valuation(7, 5)
    assert r_of(Spin(10), 5) == legendre_valuation(7, 5)
    assert r_of(LieGroupSpec("G2"), 5) == 1


def test_theriault_range_boundaries():
    # SU(n) needs n-1 <= (p-1)(p-2)
    assert in_theriault_range(SU(13), 5)
    assert not in_theriault_range(SU(14), 5)
    assert in_theriault_range(SU(14), 7)
    with pytest.raises(Exception):
        r_of(SU(14), 5)


# -- every range at both edges ----------------------------------------------------------

# family key -> (the group of parameter n, least n, the family's catalog tag)
_EDGE_FAMILIES = {
    "SU": (SU, 2, "su_range"),
    "Sp": (Sp, 1, "symp_range"),
    "SpinOdd": (lambda n: Spin(2 * n + 1), 2, "symp_range"),
    "SpinEven": (lambda n: Spin(2 * n), 3, "spin_even_range"),
}


def _oracle_ranges(key, n, p):
    """(p-regular, in the theriault range, in the family's catalog tag) for the group of
    `key` and n at p, written out per family apart from lie's range table: the family
    branches the table replaced, and _oracle_holds."""
    group, _, tag = _EDGE_FAMILIES[key]
    G = group(n)
    theriault = (p - 1) * (p - 2)
    width = {"SU": n - 1, "SpinEven": 2 * (n - 1)}.get(key, 2 * n)
    return (
        p > max(type_of(G)),
        width <= theriault,
        _oracle_holds(tag, key, p, n),
    )


def _edge_parameters(key, p):
    """The family's least n (Sp(1) is out of the one-type criterion), and each n on either side
    of each range's upper edge at p: the largest n inside and the least outside."""
    least = _EDGE_FAMILIES[key][1]
    found, span = {least}, range(least + 1, 4 * p * p)  # above least, each range is n <= bound
    for i in range(3):
        first_out = span[0] + bisect.bisect_left(
            span, True, key=lambda n: not _oracle_ranges(key, n, p)[i]
        )
        found.update((first_out - 1, first_out))
    return sorted(found)


@pytest.mark.parametrize("key", _EDGE_FAMILIES)
def test_each_range_answers_inside_its_edge_and_refuses_outside(key):
    divides_inside = 0
    for p in (q for q in range(3, 60) if is_prime(q)):
        M = ManifoldSpec(p, 2)
        for n in _edge_parameters(key, p):
            G, where = _EDGE_FAMILIES[key][0](n), (key, n, p)
            regular, theriault, tagged = _oracle_ranges(key, n, p)
            rows = _oracle_rows(G)[0]
            has_row = tagged or any(
                r.param is not None and _oracle_holds(r.prime_cond, key, p, n) for r in rows
            )
            assert has_row or not theriault, where  # r has a row wherever the range holds
            assert is_p_regular(G, p) is regular, where
            assert in_theriault_range(G, p) is theriault, where
            assert _outcome(ord_partial1_tilde, G, p)[0] == (
                "ok" if has_row else "CatalogError"
            ), where
            assert _outcome(r_of, G, p)[0] == ("ok" if theriault else "CatalogError"), where
            routes = {}  # route -> exponent, for each route that answers
            for route, applies, bound in (
                ("regular", regular, exp_bound_regular),
                ("theriault", theriault, exp_bound_theriault),
            ):
                kind, answer = _outcome(bound, M, G, p)
                assert kind == ("ok" if applies else "HypothesisError"), (where, route)
                if applies:
                    routes[route] = answer.exponent
            kind, best = _outcome(best_bound, M, G, p)
            if not routes:
                assert kind == "HypothesisError", where
            else:  # the least exponent, regular on a tie, and the other route kept
                picked = min(routes, key=lambda route: (routes[route], route))
                assert (best.route, best.exponent) == (picked, routes[picked]), where
                assert [a.route for a in best.alternatives] == sorted(set(routes) - {picked}), where
            # the one-type criterion holds in the row that holds at p, Sp(1) apart
            one_type = has_row and (key, n) != ("Sp", 1)
            divides = classify_moore(G, 2).ord % p == 0
            assert trivial_case(G, p, p) is (one_type and divides), where
            divides_inside += one_type and divides
    assert divides_inside  # trivial_case's edge is asked where p | ord


def test_p_regularity_boundary_is_l_plus_one():
    cases = [
        (SU(4), 3, False),
        (SU(4), 5, True),
        (Sp(2), 3, False),
        (Sp(2), 7, True),
        (Spin(7), 5, False),
        (Spin(7), 7, True),
        (LieGroupSpec("G2"), 5, False),
        (LieGroupSpec("G2"), 7, True),
        (LieGroupSpec("E8"), 29, False),
        (LieGroupSpec("E8"), 31, True),
    ]
    for group, p, expected in cases:
        assert is_p_regular(group, p) == expected, (group, p)


# The torsion primes of H*(G; Z); SU(n), Sp(n), Spin(5) and Spin(6) have
# none. is_p_regular tests only p >= l(G) + 1, which implies p is not one.
TORSION_PRIMES = {"G2": {2}, "F4": {2, 3}, "E6": {2, 3}, "E7": {2, 3}, "E8": {2, 3, 5}}


def _torsion_primes(G):
    if G.family in EXCEPTIONAL:
        return TORSION_PRIMES[G.family]
    return {2} if G.family == "Spin" and G.n >= 7 else set()


_REGULARITY_GROUPS = (
    [SU(n) for n in range(2, 41)]
    + [Sp(n) for n in range(1, 31)]
    + [Spin(n) for n in range(5, 61)]
    + [LieGroupSpec(f) for f in EXCEPTIONAL]
)


def test_every_torsion_prime_is_at_most_l():
    for G in _REGULARITY_GROUPS:
        assert all(q <= l_of(G) for q in _torsion_primes(G)), G


def test_p_regularity_needs_no_torsion_table():
    odd_primes = [p for p in range(3, 100) if is_prime(p)]
    for G in _REGULARITY_GROUPS:
        l, torsion = l_of(G), _torsion_primes(G)
        for p in odd_primes:
            assert is_p_regular(G, p) == (p >= l + 1 and p not in torsion), (G, p)


def test_spin_2n_plus_1_and_sp_n_read_the_same_formulas():
    odd_primes = [p for p in range(3, 60) if is_prime(p)]
    for n in range(2, 31):
        spin, sp = Spin(2 * n + 1), Sp(n)
        assert type_of(spin) == type_of(sp), n
        spin_rows, sp_rows = (lie._rows(G)[0] for G in (spin, sp))
        assert spin_rows and [(r.prime_cond, r.ord_spec, r.cells) for r in spin_rows] == [
            (r.prime_cond, r.ord_spec, r.cells) for r in sp_rows
        ], n
        for p in odd_primes:
            assert in_theriault_range(spin, p) == in_theriault_range(sp, p), (n, p)
            for c in range(2, 61):
                assert (
                    exp_bound_closed_form(spin, p, c).exponent
                    == exp_bound_closed_form(sp, p, c).exponent
                ), (n, p, c)
                assert trivial_case(spin, p, c) == trivial_case(sp, p, c), (n, p, c)


def test_stable_pi_su_is_bott_two_periodic():
    for r in range(1, 30):
        expected = FGAbelianGroup.free(1) if r % 2 == 1 else FGAbelianGroup.trivial()
        assert stable_pi("SU", r) == expected


def test_stable_pi_spin_follows_the_eight_fold_pattern():
    by_residue = {
        0: FGAbelianGroup.cyclic(2),
        1: FGAbelianGroup.cyclic(2),
        2: FGAbelianGroup.trivial(),
        3: FGAbelianGroup.free(1),
        4: FGAbelianGroup.trivial(),
        5: FGAbelianGroup.trivial(),
        6: FGAbelianGroup.trivial(),
        7: FGAbelianGroup.free(1),
    }
    for r in range(2, 40):
        assert stable_pi("Spin", r) == by_residue[r % 8], r


def test_stable_pi_rejects_bad_family():
    with pytest.raises(ValueError):
        stable_pi("Sp", 3)
