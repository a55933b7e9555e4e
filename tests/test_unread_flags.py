"""A flag away from its default that the verb's runner never reads is refused.

`cli.main` notes each flag the runner reads. Once the runner has answered, a
flag away from its `_VERBS` default that it never read is refused, every such
flag in one `error: this <verb> question does not read ...` line. A runner's
own refusal comes first.

The probe takes each README and golden argv that answers, adds each declared
flag it lacks at a non-default value, and runs it in both formats. Where both
answers stay byte-identical, the pair must be listed in `UNCHANGED` with its
reason; every other pair is refused by the rule, answers differently, or is
refused by the runner.
"""

import contextlib
import io
import random
import shlex
import sys
from pathlib import Path

import pytest

from gauge5 import cli
from gauge5.cli import main
from test_readme_examples import EXAMPLES, GOLDEN

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import workloads
finally:
    sys.path.remove(BENCH)

# flag -> the value tokens the probe gives it, each away from every verb's default
PROBE_VALUES = {
    "--c": ["7"], "--m": ["2"], "--group": ["SU:4"], "--loops": ["2"], "--same-type": ["1", "2"],
    "--p": ["7"], "--at-p": ["5"], "--away": ["2"], "--k": ["3"], "--route": ["regular"],
    "--family": ["SU"], "--r": ["5"], "--series": ["1,0,2,2,0,1"], "--model": ["3,5"],
    "--op": ["em"], "--q": ["3"], "--suspension": ["2"], "--table": ["exceptional"],
}
BASES = list(dict.fromkeys(
    command for command, expected in EXAMPLES + GOLDEN
    if "--format" not in command and not (expected and expected[0].startswith("error: "))
))

# the four reasons an added flag may leave an answer byte-identical
M_UNUSED = ("M",)  # the flag describes M, but this theorem does not need it
ITEM_1 = ("item 1",)  # it reaches a library parameter that ROADMAP item 1 deletes


def other(command: str) -> tuple:
    """The flag changes the answer for `command`, an input of the same form."""
    return ("other", command)


def drawn(tokens: str) -> tuple:
    """bench/workloads.py draws the flag together with `tokens`."""
    return ("bench", tokens)


_LISTED = [
    ("decompose --c 5 --m 2 --group SU:4 --k 1 --loops 2", "--sp --stc", M_UNUSED),
    ("decompose --c 5 --m 2 --group SU:4 --k 1 --loops 2", "--normalize",
     other("decompose --c 5 --m 2 --group SU:4 --k 1 --loops 2 --away 5")),
    ("decompose --c 5 --m 2 --group SU:4 --k 1 --loops 2 --rational", "--sp --stc", M_UNUSED),
    ("decompose --c 9 --m 4 --sp --stc --group Sp:3 --loops 3 --at-p 3", "--non-spin", M_UNUSED),
    ("decompose --c 9 --m 4 --sp --stc --group Sp:3 --loops 3 --at-p 3", "--normalize",
     other("decompose --c 5 --m 2 --sp --stc --group SU:3 --loops 3 --at-p 3")),
    ("decompose --c 5 --m 2 --group SU:4 --away-from-c", "--sp --stc", M_UNUSED),
    ("decompose --c 5 --m 2 --group SU:4 --away-from-c", "--k", ITEM_1),
    ("decompose --c 5 --m 2 --group SU:4 --away-from-c", "--normalize",
     drawn("decompose --away-from-c")),
    ("decompose --c 5 --m 2 --group SU:4 --away-from-c --normalize", "--sp --stc", M_UNUSED),
    ("decompose --c 5 --m 2 --group SU:4 --away-from-c --normalize", "--k", ITEM_1),
    ("classify --c 5 --m 2 --group SU:3 --loops 2", "--non-spin --sp --stc", M_UNUSED),
    ("classify --c 5 --m 2 --group SU:3 --loops 2", "--at-p --away --rational",
     other("classify --c 5 --m 2 --group SU:2 --loops 2")),
    ("classify --c 5 --m 2 --sp --group SU:3 --loops 3", "--non-spin --stc", M_UNUSED),
    ("classify --c 5 --m 2 --sp --group SU:3 --loops 3", "--at-p --away --rational",
     other("classify --c 5 --m 2 --sp --group SU:2 --loops 3")),
    *[
        (f"exponent --group SU:4 --p 5 --c 25{route}", "--m --non-spin --sp --stc", M_UNUSED)
        for route in ("", " --route regular", " --route theriault", " --route best")
    ],
    ("bott --c 5 --m 3 --family Spin --table", "--sp --stc", M_UNUSED),
    ("bott --c 5 --m 3 --family Spin --table", "--k", ITEM_1),
    ("bott --c 5 --m 3 --family Spin --r 6", "--sp --stc", M_UNUSED),
    ("bott --c 5 --m 3 --family Spin --r 6", "--k", ITEM_1),
    ("bott --c 5 --m 2 --family SU --table", "--sp --stc", M_UNUSED),
    ("bott --c 5 --m 2 --family SU --table", "--k", ITEM_1),
    ("bott --c 5 --m 2 --non-spin --family Spin --table", "--sp --stc", M_UNUSED),
    ("bott --c 5 --m 2 --non-spin --family Spin --table", "--k", ITEM_1),
    ("bott --c 5 --m 2 --non-spin --family Spin --table", "--away-2c",
     other("bott --c 5 --m 2 --family Spin --table")),
    *[
        (f"rational --c 5 --m 3 --group SU:4 --op {op}", "--non-spin --sp --stc", M_UNUSED)
        for op in ("gauge", "b-star", "em", "rank --q 3", "ring-gauge", "ring-b-star")
    ],
    *[
        (f"rational --c 5 --m 3 --group SU:4 --op {op}", "--based", drawn(f"--op {op}"))
        for op in ("ring-gauge", "ring-b-star")
    ],
    ("moore --c 9 --suspension 2", "--non-spin --sp --stc", M_UNUSED),
    ("moore --c 5 --m 2 --suspension 3", "--non-spin --sp --stc", M_UNUSED),
    ("moore --c 9 --m 2 --sp --stc --suspension 4", "--non-spin", M_UNUSED),
    ("homology --c 12 --m 3", "--non-spin --sp --stc", M_UNUSED),
]
# (base argv, flag) -> why the added flag leaves both answers byte-identical
UNCHANGED = {(base, flag): why for base, flags, why in _LISTED for flag in flags.split()}


def _outcome(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: two localization flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _added(verb: str, flag: str) -> list[str]:
    return [flag] + ([] if "action" in cli._VERBS[verb][1][flag] else PROBE_VALUES[flag])


def _assert_names_given_flags_in_order(got: tuple, argv: list[str]) -> None:
    head = f"error: this {argv[0]} question does not read "
    assert got[:2] == (1, "") and got[2].startswith(head) and got[2].endswith("\n")
    named = got[2][len(head):-1].split(", ")
    assert named == [flag for flag in cli._VERBS[argv[0]][1] if flag in named]
    assert set(named) <= set(argv)


@pytest.mark.parametrize("base", BASES)
def test_an_added_flag_changes_the_answer_or_is_refused_or_is_listed(base):
    argv = shlex.split(base)
    verb = argv[0]
    for flag in cli._VERBS[verb][1]:
        if flag in argv or flag == "--format":
            continue
        unchanged = True
        for fmt in ([], ["--format", "machine"]):
            want, got = _outcome(argv + fmt), _outcome(argv + fmt + _added(verb, flag))
            assert want[0] == 0
            if got[2].startswith("error: this "):  # the rule: the added flag, or those it overrode
                _assert_names_given_flags_in_order(got, argv + fmt + _added(verb, flag))
            unchanged = unchanged and got[0] == 0 and got[1] == want[1]
        assert unchanged == ((base, flag) in UNCHANGED), (base, flag)


def test_the_table_lists_only_probed_pairs():
    assert {base for base, _ in UNCHANGED} <= set(BASES)


def _drawn_argv() -> list[list[str]]:
    rng = random.Random(5)
    return [q.argv() for _ in range(20) for q in workloads.small_block(rng) if q.argv()]


@pytest.mark.parametrize("pair", list(UNCHANGED), ids=[" + ".join(pair) for pair in UNCHANGED])
def test_each_listed_pair_gives_its_reason(pair):
    base, flag = pair
    why = UNCHANGED[pair]
    if why == M_UNUSED:
        assert flag in cli._manifold_flags().keys() - {"--c"}
    elif why == ITEM_1:
        assert flag == "--k"
    elif why[0] == "other":
        argv = shlex.split(why[1])
        assert argv[0] == base.split()[0] and flag not in argv
        assert _outcome(argv) != _outcome(argv + _added(argv[0], flag))
    else:
        assert any(argv[0] == base.split()[0] and {flag, *why[1].split()} <= set(argv)
                   for argv in _drawn_argv())


def test_every_unread_flag_is_named_in_declared_order_by_either_reader():
    # `--route=closed` goes to argparse, the rest to cli._read
    for tail in (["--route", "closed"], ["--route=closed"]):
        got = _outcome(["exponent", "--table", "exceptional", *tail, "--stc", "--c", "5"])
        assert got == (1, "", "error: this exponent question does not read --c, --stc, --route\n")


@pytest.mark.parametrize("argv, message", [
    # a bad group, though --loops goes unread by the Moore-space question
    ("classify --moore --group SU:x --c 9 --loops 2", "error: bad group parameter 'x' in 'SU:x'"),
    # the benchmark's refused B*: the model, though --based goes unread by b-star
    ("rational --series 1,0,0,0,1 --model 3,5/2 --op b-star --based", "finite dimensional"),
])
def test_a_runners_own_refusal_comes_first(argv, message):
    code, out, err = _outcome(shlex.split(argv))
    assert (code, out) == (1, "") and message in err and "does not read" not in err


@pytest.mark.parametrize("question", ["--same-type 1 4", "--trivial --p 5"])
def test_the_moore_space_questions_read_moore(question):
    base = f"classify --group SU:3 --c 9 {question}".split()
    assert _outcome(base + ["--moore"]) == _outcome(base)
    assert _outcome(base)[0] == 0


def test_only_the_rings_read_based_outside_the_ops_that_use_it():
    ring = "rational --series 1,0,0,0,1 --model 3,5 --op ring-b-star".split()
    assert _outcome(ring + ["--based"]) == _outcome(ring)
    b_star = "rational --series 1,0,0,0,1 --model 3,5 --op b-star --based".split()
    assert _outcome(b_star) == (1, "", "error: this rational question does not read --based\n")
