"""Every `$ gauge5 ...` example in README.md, and every verb form pinned in
tests/cli_golden.txt, prints exactly what it shows.

Each command runs through cli.main in process. The lines after a command,
up to the next blank line or the end of its fenced block, are its expected
stdout, compared byte for byte. An example whose last line is `...` shows
only the start of the output and is compared as a prefix. An example whose
first line starts with `error: ` is a refusal: it exits 1, prints nothing
on stdout, and those lines are its stderr.

Each fenced `pycon` block of README.md runs as a doctest of its own, read
up to its closing fence.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from gauge5.cli import main
from test_records import VERB_FORMS

ROOT = Path(__file__).resolve().parents[1]
PROMPT = "$ gauge5 "


def _examples(path: Path) -> list[tuple[str, list[str]]]:
    examples: list[tuple[str, list[str]]] = []
    in_block = False
    current: list[str] | None = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith(PROMPT):
            current = []
            examples.append((line[len(PROMPT):], current))
        elif not line.strip():
            current = None
        elif current is not None:
            current.append(line)
    return examples


def _pycon_blocks(path: Path) -> list[tuple[int, str]]:
    """(line number of the opening fence, body) of each fenced pycon block."""
    text = path.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, block.start()) + 1, block[1])
        for block in re.finditer(r"^```pycon\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    ]


EXAMPLES = _examples(ROOT / "README.md")
PYCON = _pycon_blocks(ROOT / "README.md")
GOLDEN = _examples(ROOT / "tests" / "cli_golden.txt")
# answers that would list more summands or generators than errors.LISTED_BOUND
HUGE_M = [
    "bott --family Spin --c 3 --m 100000000 --r 5",
    "bott --family Spin --c 3 --m 100000000 --table",
    # no row lists 10^6 summands, but the eight of them list 2,000,008
    "bott --family Spin --c 3 --m 500000 --table",
    "moore --c 3 --m 100000000 --suspension 2",
    "moore --c 5 --m 100000000 --suspension 3",
    "moore --c 3 --m 100000000 --sp --stc --suspension 4",
    "rational --group SU:4 --op ring-gauge --c 3 --m 100000000",
    "rational --group SU:4 --op ring-b-star --c 3 --m 100000000",
]
# argv the golden file pins after the verb forms, each refused
REFUSALS = [
    "exponent --table exceptional --group G2 --p 5",
    "exponent --table exceptional --group G2 --p 5 --format machine",
    "exponent --table exceptional --p 13 --c 25 --route regular --non-spin",
    "exponent --table exceptional --p 13 --c 25 --route regular --non-spin --format machine",
    "exponent --group SU:4 --p 5 --c 25 --route moore-fiber",
    "exponent --group SU:4 --p 5 --c 25 --route moore-fiber --format machine",
    *[
        full
        for command in (
            "classify --c 5 --m 2 --group SU:3",  # no --loops
            "decompose --c 5 --m 2 --group SU:4",  # no form
            "bott --c 5 --m 2 --family SU",  # no --r
            "rational --c 5 --m 3 --group SU:4 --op rank",  # no --q
            "classify --moore --group SU:x --c 9",  # a bad group parameter
            "moore --c 1",  # a Moore order below 2
            "homology --c 1",  # an order of pi_1(M) below 2
        )
        for full in (command, command + " --format machine")
    ],
    *[full for command in HUGE_M for full in (command, command + " --format machine")],
]


def test_readme_has_examples():
    assert len(EXAMPLES) >= 7


def test_golden_file_pins_every_verb_form_in_both_formats():
    assert [command for command, _ in GOLDEN] == [
        full for command, _ in VERB_FORMS for full in (command, command + " --format machine")
    ] + REFUSALS


def _check(command, expected, capsys):
    refused = bool(expected) and expected[0].startswith("error: ")
    assert main(shlex.split(command)) == (1 if refused else 0)
    out, err = capsys.readouterr()
    if refused:
        assert (out, err) == ("", "".join(line + "\n" for line in expected))
    elif expected and expected[-1].strip() == "...":
        head = "".join(line + "\n" for line in expected[:-1])
        assert out.startswith(head)
    else:
        assert out == "".join(line + "\n" for line in expected)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[cmd for cmd, _ in EXAMPLES])
def test_readme_example(command, expected, capsys):
    _check(command, expected, capsys)


@pytest.mark.parametrize("command, expected", GOLDEN, ids=[cmd for cmd, _ in GOLDEN])
def test_golden_verb_form(command, expected, capsys):
    _check(command, expected, capsys)


@pytest.mark.parametrize("start, body", PYCON, ids=[f"README.md:{n}" for n, _ in PYCON])
def test_readme_pycon_block(start, body):
    test = doctest.DocTestParser().get_doctest(body, {}, f"README.md:{start}", "README.md", start)
    report: list[str] = []
    runner = doctest.DocTestRunner()
    assert test.examples and runner.run(test, out=report.append).failed == 0, "".join(report)
