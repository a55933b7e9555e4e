"""Every `$ gauge5 ...` example in README.md prints exactly what it shows.

Each command runs through cli.main in process. The lines after a command,
up to the next blank line or the end of its fenced block, are its expected
stdout, compared byte for byte. An example whose last line is `...` shows
only the start of the output and is compared as a prefix.
"""

import shlex
from pathlib import Path

import pytest

from gauge5.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ gauge5 "


def _examples() -> list[tuple[str, list[str]]]:
    examples: list[tuple[str, list[str]]] = []
    in_block = False
    current: list[str] | None = None
    for line in README.read_text(encoding="utf-8").splitlines():
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


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[cmd for cmd, _ in EXAMPLES])
def test_readme_example(command, expected, capsys):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    if expected and expected[-1].strip() == "...":
        head = "".join(line + "\n" for line in expected[:-1])
        assert out.startswith(head)
    else:
        assert out == "".join(line + "\n" for line in expected)
