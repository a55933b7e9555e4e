"""Compare what `gauge5` prints here against another checkout of the repo.

    python3 tools/cli_parity.py OTHER_ROOT

One argv list runs through `gauge5.cli.main`, in process, in two child
interpreters: one imports OTHER_ROOT/src and the other this checkout's src.
The list holds every `$ gauge5` line of README.md and tests/cli_golden.txt,
`--help` for the top level and each verb, and each query of the
`cli_launch` benchmark stream (`bench/workloads.py::cli_block`, seeds 1-5,
30 blocks each) in both output formats, and an `exponent` sweep: every
`--route` over a fixed grid of groups, p and c (p = 2 and non-primes, and c
with 6 | c, included), in both formats. For each argv the exit code, stdout
and stderr must agree. Prints the count compared, and on a difference the
first differing argv with both outputs; exits 1 on any difference.

Standard library only, and outside the test suite. It imports bench/ to
draw the benchmark queries and writes nothing there.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import random
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROMPT = "$ gauge5 "
SEEDS = range(1, 6)
BLOCKS = 30
EXPONENT_GROUPS = (
    "SU:2", "SU:3", "SU:4", "SU:7", "SU:14", "Sp:1", "Sp:2", "Sp:5", "Spin:5", "Spin:7",
    "Spin:8", "Spin:12", "G2", "F4", "E6", "E7", "E8",
)
EXPONENT_P = (2, 3, 4, 5, 7, 11, 13, 17, 29, 31, 37)
EXPONENT_C = (1, 2, 5, 6, 9, 12, 25, 49, 343, 1000003 * 1000033)
EXPONENT_ROUTES = ("regular", "theriault", "closed", "moore-fiber", "best")


def _argv_list() -> list[list[str]]:
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from gauge5.cli import _VERBS
    from workloads import cli_block

    argvs = []
    for doc in (ROOT / "README.md", ROOT / "tests" / "cli_golden.txt"):
        for line in doc.read_text(encoding="utf-8").splitlines():
            if line.startswith(PROMPT):
                argvs.append(shlex.split(line[len(PROMPT):]))
    argvs.append(["--help"])
    argvs += [[verb, "--help"] for verb in _VERBS]
    for seed in SEEDS:
        rng = random.Random(seed)
        for i in range(BLOCKS):
            for query in cli_block(rng, i):
                for fmt in ("text", "machine"):
                    argvs.append(dataclasses.replace(query, fmt=fmt).argv())
    for group, p, c, route, fmt in itertools.product(
        EXPONENT_GROUPS, EXPONENT_P, EXPONENT_C, EXPONENT_ROUTES, ("text", "machine")
    ):
        argvs.append(["exponent", "--group", group, "--p", str(p), "--c", str(c), "--m", "2",
                      "--route", route, "--format", fmt])
    unique = dict.fromkeys(tuple(argv) for argv in argvs)  # first occurrence, in order
    return [list(argv) for argv in unique]


def _child(src: str) -> None:
    """Read a JSON argv list on stdin; write [exit code, stdout, stderr] per argv."""
    sys.path.insert(0, src)
    from gauge5.cli import main

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: --help and usage errors
                code = exc.code
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def _run(src: Path, payload: str) -> list:
    proc = subprocess.run(
        [sys.executable, "-B", __file__, "--child", str(src)],
        input=payload, capture_output=True, text=True, encoding="utf-8", check=True,
    )
    return json.loads(proc.stdout)


def main(other: str) -> int:
    argvs = _argv_list()
    payload = json.dumps(argvs)
    theirs = _run(Path(other).resolve() / "src", payload)
    ours = _run(ROOT / "src", payload)
    print(f"compared {len(argvs)} argv")
    for argv, a, b in zip(argvs, theirs, ours):
        if a != b:
            print(f"first difference: gauge5 {shlex.join(argv)}")
            for side, (code, out, err) in ((other, a), ("this checkout", b)):
                print(f"--- {side}: exit {code}\n{out}--- stderr\n{err}", end="")
            return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2])
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit(__doc__)
