"""The one record grammar of `--format machine` output.

records.record writes every machine line and records.parse reads any of
them back. Every verb form's machine output must parse, and its group and
expression records must rebuild the value the library computes.
"""

import ast
import re
import shlex

import pytest

from gauge5 import abelian, records, spaces
from gauge5.bott import StableQuery, bott_rows, stable_pi_gauge
from gauge5.cli import main
from gauge5.decomposition import gauge_away_from_c, loops2_gauge, loops3_gauge
from gauge5.lie import LieGroupSpec
from gauge5.localization import Localization
from gauge5.manifold import (
    ManifoldSpec,
    homology,
    pi6_P4,
    pi7_P5,
    pi_moore_self,
    suspension_splitting,
)
from gauge5.rational import (
    HilbertSeries,
    RationalGroupModel,
    em_expansion,
    rational_B_star,
    rational_gauge,
)
from test_single_source import library_trees


# -- the grammar ---------------------------------------------------------------


def test_record_encodes_none_booleans_and_sequences():
    assert records.record("t", a=None, b=True, c=False) == "t a=- b=true c=false"
    assert records.record("t", a=(2, 3), b=["x", "y"], c=()) == "t a=2,3 b=x,y c="
    assert records.record("t") == "t"


@pytest.mark.parametrize(
    "line",
    [
        "group free=0 torsion=",
        "group free=2 torsion=2^2,3^1",
        "expr localization=away:2,5 group=lie:SU:4 c=-",
        "same_type k=1 l=4 result=true",
        "suspension_image_order=3",
    ],
)
def test_parse_inverts_record(line):
    tag, fields = records.parse(line)
    assert records.record(tag, **fields) == line


def test_suspension_image_order_is_a_bare_tag():
    assert records.parse("suspension_image_order=3") == ("suspension_image_order=3", {})


@pytest.mark.parametrize("value", ["two words", "tab\there", "new\nline", " lead"])
def test_record_refuses_whitespace_in_a_value(value):
    with pytest.raises(ValueError, match="whitespace"):
        records.record("t", a=value)


@pytest.mark.parametrize(
    "line", ["group free=1 torsion", "", "   ", "group free=1 free=2 torsion=", "t a=1 b=2 a=1"]
)
def test_parse_refuses_malformed_lines(line):
    with pytest.raises(ValueError):
        records.parse(line)


@pytest.mark.parametrize(
    "read, text, fault, line",
    [
        # the expr header lacks c=, the atom lacks k=, n= and mult=
        (spaces.parse_machine, "expr localization=integral group=-\natom kind=group j=0",
         "lacks field 'c'", 0),
        (spaces.parse_machine, "expr localization=integral group=- c=-\natom kind=group j=0",
         "lacks field 'k'", 1),
        (spaces.parse_machine,
         "expr localization=integral group=-\natom kind=group j=0 k=- n=- mult=1",
         "lacks field 'c'", 0),
        # a bare tag is not the zero group, nor one field alone a group
        (abelian.parse_machine, "group", "lacks field 'free'", 0),
        (abelian.parse_machine, "group torsion=2^1", "lacks field 'free'", 0),
        (abelian.parse_machine, "group free=1", "lacks field 'torsion'", 0),
        # every field is read: an unknown one is refused ...
        (abelian.parse_machine, "group free=0 torsion= extra=9", "has unknown field 'extra'", 0),
        (spaces.parse_machine, "expr localization=integral group=- c=- order=3",
         "has unknown field 'order'", 0),
        (spaces.parse_machine, "expr localization=integral group=- c=-\n"
         "atom kind=group j=0 k=- n=- mult=1 c=5", "has unknown field 'c'", 1),
        # ... and so is a repeated one, which no longer lets the last one win
        (abelian.parse_machine, "group free=1 torsion= free=0", "repeats field 'free'", 0),
        (spaces.parse_machine, "expr localization=integral group=- c=5 c=7",
         "repeats field 'c'", 0),
    ],
)
def test_readers_name_a_missing_unknown_or_repeated_field(read, text, fault, line):
    with pytest.raises(ValueError) as info:
        read(text)
    assert str(info.value) == f"machine record {fault}: {text.splitlines()[line]!r}"


@pytest.mark.parametrize(
    "read, line, field",
    [
        # Z/6 as one "prime power" is not Z/2 ⊕ Z/3, and no context inverts 6
        (abelian.parse_machine, "group free=0 torsion=6^1", "torsion"),
        (abelian.parse_machine, "group free=1 torsion=2^1,9^2", "torsion"),
        # an away set {4} inverts no prime, yet inverts_all_of(4) would say it does
        (spaces.parse_machine, "expr localization=away:4 group=- c=-", "localization"),
        (spaces.parse_machine, "expr localization=away:2,15 group=- c=-", "localization"),
    ],
)
def test_readers_refuse_a_base_that_is_not_prime(read, line, field):
    with pytest.raises(ValueError, match=f"^field '{field}' "):
        read(line)


_EXPR = "expr localization=integral group=- c=5"


@pytest.mark.parametrize(
    "read, text, field",
    [
        (abelian.parse_machine, "group free=0 torsion=2", "torsion"),
        (abelian.parse_machine, "group free=0 torsion=2^1^3", "torsion"),
        (abelian.parse_machine, "group free=0 torsion=2^x", "torsion"),
        (abelian.parse_machine, "group free=0 torsion=^1", "torsion"),
        (abelian.parse_machine, "group free=x torsion=2^1", "free"),
        (spaces.parse_machine, "expr localization=away: group=- c=-", "localization"),
        (spaces.parse_machine, "expr localization=away:2, group=- c=-", "localization"),
        (spaces.parse_machine, "expr localization=at:x group=- c=-", "localization"),
        (spaces.parse_machine, "expr localization=integral group=- c=five", "c"),
        (spaces.parse_machine, f"{_EXPR}\natom kind=loops_g j=x k=- n=- mult=1", "j"),
        (spaces.parse_machine, f"{_EXPR}\natom kind=loops_g j=- k=- n=- mult=1", "j"),
        (spaces.parse_machine, f"{_EXPR}\natom kind=moore_gauge j=2 k=y n=- mult=1", "k"),
        (spaces.parse_machine, f"{_EXPR}\natom kind=sphere j=0 k=- n=3.0 mult=1", "n"),
        (spaces.parse_machine, f"{_EXPR}\natom kind=loops_g j=2 k=- n=- mult=-", "mult"),
    ],
)
def test_readers_refuse_a_malformed_number_by_field_and_line(read, text, field):
    line = text.splitlines()[-1]
    with pytest.raises(ValueError, match=f"^field '{field}' needs .*: {re.escape(repr(line))}$"):
        read(text)


# -- every verb form, both formats ---------------------------------------------

SU4, SP3 = LieGroupSpec("SU", 4), LieGroupSpec("Sp", 3)
M52, M53 = ManifoldSpec(5, 2), ManifoldSpec(5, 3)
X53 = HilbertSeries.for_manifold(M53)
SU4_MODEL = RationalGroupModel.from_lie(SU4)


def _bott_groups(M, family, ctx="away_c"):
    return [value for _, _, value in bott_rows(M, family, 0, ctx)]


# (argv, a factory of the groups or the expression its machine output
# describes; `list` where it describes none)
VERB_FORMS = [
    # the README examples
    ("decompose --c 5 --m 2 --group SU:4 --k 1 --loops 2", lambda: loops2_gauge(M52, SU4, 1)),
    ("classify --moore --group SU:3 --c 9", list),
    ("exponent --group SU:4 --p 5 --c 25", list),
    ("exponent --table exceptional --p 7", list),
    ("bott --c 5 --m 3 --family Spin --table", lambda: _bott_groups(M53, "Spin")),
    (
        "rational --series 1,0,0,0,1 --model 3,5,7",
        lambda: rational_gauge(HilbertSeries.sphere(4), RationalGroupModel.parse("3,5,7")),
    ),
    ("moore --c 9", lambda: [pi_moore_self(3, 9), pi6_P4(9), pi7_P5(9)]),
    ("homology --c 12 --m 3", lambda: list(homology(ManifoldSpec(12, 3)))),
    # classify
    ("classify --moore --group SU:3 --c 9 --same-type 1 4", list),
    ("classify --moore --group SU:3 --c 9 --same-type 0 1", list),
    ("classify --moore --group G2 --c 5 --trivial --p 5", list),
    ("classify --c 5 --m 2 --group SU:3 --loops 2", list),
    ("classify --c 5 --m 2 --sp --group SU:3 --loops 3", list),
    # decompose
    (
        "decompose --c 9 --m 4 --sp --stc --group Sp:3 --loops 3 --at-p 3",
        lambda: loops3_gauge(
            ManifoldSpec(9, 4, stably_parallelizable=True, single_top_cell=True),
            SP3, 0, Localization.at_prime(3),
        ),
    ),
    (
        "decompose --c 5 --m 2 --group SU:4 --k 1 --loops 2 --rational",
        lambda: loops2_gauge(M52, SU4, 1, Localization.rational()),
    ),
    ("decompose --c 5 --m 2 --group SU:4 --away-from-c", lambda: gauge_away_from_c(M52, SU4, 0)),
    (
        "decompose --c 5 --m 2 --group SU:4 --away-from-c --normalize",
        lambda: gauge_away_from_c(M52, SU4, 0).normalize(),
    ),
    # exponent routes
    *[
        (f"exponent --group SU:4 --p 5 --c 25 --route {route}", list)
        for route in ("regular", "theriault", "closed")
    ],
    ("exponent --p 5 --c 25 --route moore-fiber", list),  # the one route that reads no group
    ("exponent --group SU:4 --p 5 --c 25 --route best", list),
    # bott
    (
        "bott --c 5 --m 3 --family Spin --r 6",
        lambda: [stable_pi_gauge(StableQuery(M53, "Spin", 0, 6))],
    ),
    ("bott --c 5 --m 2 --family SU --table", lambda: _bott_groups(M52, "SU")),
    (
        "bott --c 5 --m 2 --non-spin --family Spin --table",
        lambda: _bott_groups(M52, "Spin", "away_2c"),
    ),
    # rational, every op
    ("rational --c 5 --m 3 --group SU:4 --op gauge", lambda: rational_gauge(X53, SU4_MODEL)),
    ("rational --c 5 --m 3 --group SU:4 --op b-star", lambda: rational_B_star(X53, SU4_MODEL)),
    ("rational --c 5 --m 3 --group SU:4 --op em", lambda: em_expansion(X53, SU4_MODEL)),
    ("rational --c 5 --m 3 --group SU:4 --op rank --q 3", list),
    ("rational --c 5 --m 3 --group SU:4 --op ring-gauge", list),
    ("rational --c 5 --m 3 --group SU:4 --op ring-b-star", list),
    # moore suspensions
    ("moore --c 9 --suspension 2", list),
    ("moore --c 5 --m 2 --suspension 3", list),
    ("moore --c 9 --m 2 --sp --stc --suspension 4", list),
]


def _rebuilt(out: str):
    """The expression, or else the list of groups, that `out`'s records describe."""
    tags = [records.parse(line)[0] for line in out.splitlines()]
    if "expr" in tags:
        return spaces.parse_machine(out)
    return [
        abelian.parse_machine(line) for tag, line in zip(tags, out.splitlines()) if tag == "group"
    ]


@pytest.fixture
def run(capsys):
    def _run(command):
        code = main(shlex.split(command))
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, captured.out

    return _run


@pytest.mark.parametrize("command, expected", VERB_FORMS, ids=[c for c, _ in VERB_FORMS])
def test_every_verb_form_answers_in_both_formats(run, command, expected):
    code, text = run(command)
    assert code == 0 and text.strip()
    code, out = run(command + " --format machine")
    assert code == 0 and out.endswith("\n")
    for line in out.splitlines():
        records.parse(line)
    assert _rebuilt(out) == expected()


@pytest.mark.parametrize("command", [c for c, _ in VERB_FORMS])
def test_every_machine_line_starts_with_a_tag(run, command):
    # `tag key=value ...`: a first token holding `=` is a field without a tag
    code, out = run(command + " --format machine")
    assert code == 0
    for line in out.splitlines():
        assert "=" not in records.parse(line)[0], line


@pytest.mark.parametrize(
    "M, family",
    [(M53, "Spin"), (ManifoldSpec(5, 2, spin=False), "Spin"), (ManifoldSpec(7, 2), "SU")],
)
def test_bott_table_rows_are_the_stable_groups(run, M, family):
    base = f"bott --c {M.c} --m {M.m} --family {family}" + ("" if M.spin else " --non-spin")
    ctx = "away_c" if M.spin else "away_2c"
    code, out = run(base + " --table --format machine")
    assert code == 0
    lines = out.splitlines()
    rows = list(zip(lines[::2], lines[1::2]))
    assert len(rows) * 2 == len(lines)
    for row_line, group_line in rows:
        tag, fields = records.parse(row_line)
        assert tag == "row" and int(fields["period"]) == len(rows)
        r = int(fields["r"])
        assert run(f"{base} --r {r} --format machine") == (0, group_line + "\n")
        value = abelian.parse_machine(group_line)
        assert value == stable_pi_gauge(StableQuery(M, family, 0, r, ctx))


@pytest.mark.parametrize(
    "M, t",
    [
        (ManifoldSpec(9, 2), 2),
        (M52, 3),
        (ManifoldSpec(9, 2, stably_parallelizable=True, single_top_cell=True), 4),
    ],
)
def test_wedge_records_give_an_order_to_moore_atoms_only(run, M, t):
    flags = " --sp --stc" if t == 4 else ""
    code, out = run(f"moore --c {M.c} --m {M.m}{flags} --suspension {t} --format machine")
    assert code == 0
    rows = [records.parse(line)[1] for line in out.splitlines()]
    def num(value):
        return None if value == "-" else int(value)

    assert [(f["kind"], num(f["n"]), num(f["c"])) for f in rows] == [
        (a.kind, a.n, a.c) for a in suspension_splitting(M, t).atoms
    ]
    # spheres and the opaque rest have no order: `c=-`, never `c=0`
    assert all((f["c"] == "-") == (f["kind"] != "moore") for f in rows)


def test_opaque_wedge_record_has_no_dimension(run):
    # the opaque rest of the triple suspension spans degrees 5, 6 and 8: `n=-`, never `n=0`
    code, out = run("moore --c 5 --m 2 --suspension 3 --format machine")
    assert code == 0
    assert out.splitlines()[-1] == "wedge kind=opaque n=- c=-"


# -- the guard -------------------------------------------------------------------

RECORD_HEAD = re.compile(r"[a-z_]+ [a-z_]+=")


def _string_heads(tree: ast.AST):
    """(line, leading literal text) of each string literal and f-string."""
    pieces = {
        id(value)
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        for value in node.values
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in pieces:
                yield node.lineno, node.value
        elif isinstance(node, ast.JoinedStr) and node.values:
            first = node.values[0]
            if isinstance(first, ast.Constant):
                yield node.lineno, first.value


def _codec_free_trees():
    return [(name, tree) for name, tree in library_trees().items() if name != "records.py"]


def test_no_record_is_written_outside_the_codec():
    stray = [
        f"{name}:{line}: {head!r}"
        for name, tree in _codec_free_trees()
        for line, head in _string_heads(tree)
        if RECORD_HEAD.match(head)
    ]
    assert stray == []


def test_no_record_is_split_outside_the_codec():
    stray = []
    for name, tree in _codec_free_trees():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            stray += [
                f"{name}:{node.lineno}"
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("split", "partition")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "="
            ]
    assert stray == []
