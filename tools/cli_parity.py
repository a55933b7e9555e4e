"""Compare what `gauge5` prints here against another checkout of the repo.

    python3 tools/cli_parity.py OTHER_ROOT [--expect FILE]
    python3 tools/cli_parity.py --digest FILE | --check FILE

One argv list runs through `gauge5.cli.main`, in process, in two child
interpreters: one imports OTHER_ROOT/src and the other this checkout's src.
The list holds every `$ gauge5` line of README.md and tests/cli_golden.txt,
`--help` for the top level and each verb, and each query of the
`cli_launch` benchmark stream (`bench/workloads.py::cli_block`, seeds 1-5,
30 blocks each) in both output formats, and eight sweeps, each in both
formats:
- `exponent`: every `--route` over a fixed grid of groups, p and c (p = 2
  and non-primes, and c with 6 | c, included), each route given only the
  flags it reads (`--m` only the manifold routes, `--group` all but
  moore-fiber);
- `exponent --table exceptional`: without `--p` and at each p of that grid,
  once with `--group` (refused), and with each manifold flag and `--route`
  away from its default (refused), with and without `--p 7`;
- `bott`: both families over a grid of c (even, odd and a semiprime) and m,
  spin and non-spin, `--table` and each `--r` from 2 to 10, with and
  without `--away-2c`;
- `decompose --normalize`: every shape (`--loops 2`, `--loops 3`,
  `--away-from-c`) over a grid of groups, c, m, manifold flags and
  localizations, refusals included;
- `classify`: `--moore`, and `--loops 2`/`3` (the latter with `--sp`) under
  every localization (pi_4 refusals, which print the context, included),
  then `--same-type` and `--trivial` (with and without `--p`), over a grid
  of groups, c and m;
- `rational`: every `--op` (and `--q` for `rank`), based and not, over Lie
  groups and models with and without polynomial generators, from M and from
  a Hilbert series;
- `moore --suspension` 2, 3 and 4 over a grid of c, m and manifold flags;
- `edges`: for each classical family and each prime p < 60, the groups on
  both sides of each range of `gauge5.lie._RANGES` (l(G) <= bound(p)): the
  family's least group, the two largest n inside and the least outside,
  through `exponent` (every `--route`, as above) and `classify --moore`
  (alone, with `--trivial --p p` and with `--same-type 1 2`), with c = p.

For each argv the exit code, stdout and stderr must agree; an exception
that escapes `main` is recorded in place of the exit code. Prints every
differing argv with both outputs, then one `N of M argv differ` line; exits
1 on any difference, or when stdout is closed before the report is written.

With `--expect FILE`, a change's intended differences are declared: FILE
holds one argv per line (blank lines skipped), split with `shlex`, and each
joins the list if it is not already there. The report then names every
differing argv FILE does not list (`unexpected:`) and every argv FILE lists
that does not differ (`missing:`), and the tool exits 0 only when the
differing argv are exactly FILE's.

With `--digest FILE`, only this checkout runs, and FILE gets one line per
sweep (README and golden, `--help`, `cli_launch`, then the eight above, by
the names in SWEEPS): the sweep's name, its argv count and the SHA-256 of its
argv and outputs. An argv in two sweeps counts only in the first.
`--check FILE` recomputes the lines, names each sweep whose line differs
from FILE's, and exits 1 if any does. tools/cli_parity_digest.txt is the
committed digest, which CI checks; a change that alters output writes it
anew, and lists its intended differences with `--expect` as above.

Standard library only, and outside the test suite. It imports bench/ to
draw the benchmark queries and writes nothing there.
"""

import bisect
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
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
EXPONENT_P = (2, 3, 4, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
EXPONENT_C = (1, 2, 5, 6, 9, 12, 25, 49, 343, 1000003 * 1000033)
EXPONENT_ROUTES = ("regular", "theriault", "closed", "moore-fiber", "best")
# the exponent flags the exceptional table does not read, each away from its default
TABLE_IGNORED = (
    ["--c", "25"], ["--m", "2"], ["--non-spin"], ["--sp"], ["--stc"], ["--route", "regular"],
)
BOTT_C = (2, 3, 4, 5, 9, 12, 75, 1000003 * 1000033)
BOTT_QUESTIONS = (["--table"],) + tuple(["--r", str(r)] for r in range(2, 11))
DECOMPOSE_SHAPES = (["--loops", "2"], ["--loops", "3"], ["--away-from-c"])
DECOMPOSE_GROUPS = ("SU:2", "SU:4", "Sp:2", "Spin:8", "E8")
DECOMPOSE_C = (2, 3, 4, 5, 9, 15, 75)
DECOMPOSE_M_FLAGS = ([], ["--non-spin"], ["--sp", "--stc"])
DECOMPOSE_LOCALIZATIONS = (
    [], ["--at-p", "2"], ["--at-p", "3"], ["--at-p", "5"], ["--away", "2"], ["--away", "3"],
    ["--away", "15"], ["--rational"],
)
CLASSIFY_GROUPS = (
    "SU:2", "SU:3", "SU:4", "Sp:2", "Spin:5", "Spin:8", "G2", "F4", "E6", "E7", "E8",
)
CLASSIFY_C = (2, 3, 4, 5, 9, 12, 15, 25, 75)
CLASSIFY_QUESTIONS = (
    (["--moore"],)
    + tuple(["--m", m, *loops, *loc] for m in ("1", "2")
            for loops in (["--loops", "2"], ["--loops", "3", "--sp"])
            for loc in DECOMPOSE_LOCALIZATIONS)
    + (["--moore", "--same-type", "1", "2"], ["--moore", "--same-type", "0", "5"],
       ["--moore", "--trivial"])
    + tuple(["--moore", "--trivial", "--p", p] for p in ("3", "5", "7"))
)
RATIONAL_GROUPS = (
    ["--group", "SU:4"], ["--group", "Spin:8"], ["--group", "E8"], ["--model", "3,5,7"],
    ["--model", "3/"], ["--model", "3,5/4"], ["--model", "/2"], ["--model", "3,7/6"],
)
RATIONAL_SPACES = (
    ["--c", "2"], ["--c", "5", "--m", "3"], ["--series", "1,0,2,2,0,1"],
    ["--series", "1,0,0,0,1"],
)
RATIONAL_OPS = (
    tuple(["--op", op] for op in ("gauge", "b-star", "em", "ring-gauge", "ring-b-star"))
    + (["--op", "rank"],)
    + tuple(["--op", "rank", "--q", q] for q in ("3", "5", "8"))
)
MOORE_C = (2, 3, 4, 5, 9, 15, 25, 75)
MOORE_FLAGS = ([], ["--non-spin"], ["--sp"], ["--stc"], ["--sp", "--stc"])
# family key -> (its least parameter, the group token of parameter n)
EDGE_FAMILIES = {
    "SU": (2, "SU:{}".format),
    "Sp": (1, "Sp:{}".format),
    "SpinOdd": (2, lambda n: f"Spin:{2 * n + 1}"),
    "SpinEven": (3, lambda n: f"Spin:{2 * n}"),
}
EDGE_PRIMES = tuple(p for p in range(2, 60) if all(p % q for q in range(2, p)))
# the sweeps, in the order they run and the digest lists them
SWEEPS = (
    "readme-golden", "help", "cli_launch", "exponent", "table", "bott", "decompose", "classify",
    "rational", "moore", "edges",
)


def _edge_groups() -> list[tuple[str, int]]:
    """(group token, p) on both sides of each range's edge, per family and prime (the
    `edges` sweep), read from this checkout's range table, with the second largest n
    inside as a near-edge probe."""
    from gauge5.lie import _RANGES, _l_at

    tokens = []
    for key, (least, token) in EDGE_FAMILIES.items():
        span = range(least, 4 * 60 * 60)  # l(G) grows with n; every bound at p < 60 is below
        for p in EDGE_PRIMES:
            found = {least}
            for _, bound in _RANGES.values():
                inside = bisect.bisect_right(span, bound(p), key=lambda n: _l_at(key, n))
                last_in = least + inside - 1
                found.update(n for n in (last_in - 1, last_in, last_in + 1) if n >= least)
            tokens += [(token(n), p) for n in sorted(found)]
    return tokens


def _exponent_argv(group: str, p: int, c: int, route: str, fmt: str) -> list[str]:
    """`exponent --route` with only the flags that route reads: moore-fiber
    reads no group, and only the routes that take a manifold read --m."""
    argv = ["exponent"] if route == "moore-fiber" else ["exponent", "--group", group]
    argv += ["--p", str(p), "--c", str(c)]
    if route not in ("closed", "moore-fiber"):
        argv += ["--m", "2"]
    return argv + ["--route", route, "--format", fmt]


def _sweeps() -> dict[str, list[list[str]]]:
    """Each sweep's argv, by the sweep's name, in order; an argv that an earlier
    sweep already holds runs only there."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from gauge5.cli import _VERBS
    from workloads import cli_block

    sweeps = {name: [] for name in SWEEPS}
    for doc in (ROOT / "README.md", ROOT / "tests" / "cli_golden.txt"):
        for line in doc.read_text(encoding="utf-8").splitlines():
            if line.startswith(PROMPT):
                sweeps["readme-golden"].append(shlex.split(line[len(PROMPT):]))
    sweeps["help"] = [["--help"]] + [[verb, "--help"] for verb in _VERBS]
    for seed in SEEDS:
        rng = random.Random(seed)
        for i in range(BLOCKS):
            for query in cli_block(rng, i):
                for fmt in ("text", "machine"):
                    sweeps["cli_launch"].append(dataclasses.replace(query, fmt=fmt).argv())
    for group, p, c, route, fmt in itertools.product(
        EXPONENT_GROUPS, EXPONENT_P, EXPONENT_C, EXPONENT_ROUTES, ("text", "machine")
    ):
        sweeps["exponent"].append(_exponent_argv(group, p, c, route, fmt))
    table = sweeps["table"]
    for p, fmt in itertools.product(
        ([],) + tuple(["--p", str(p)] for p in EXPONENT_P), ("text", "machine"),
    ):
        table.append(["exponent", "--table", "exceptional", *p, "--format", fmt])
    table.append(["exponent", "--table", "exceptional", "--group", "E8"])
    for flag, p, fmt in itertools.product(
        TABLE_IGNORED, ([], ["--p", "7"]), ("text", "machine"),
    ):
        table.append(["exponent", "--table", "exceptional", *p, *flag, "--format", fmt])
    for family, c, m, spin, question, away, fmt in itertools.product(
        ("SU", "Spin"), BOTT_C, range(1, 6), ([], ["--non-spin"]), BOTT_QUESTIONS,
        ([], ["--away-2c"]), ("text", "machine"),
    ):
        sweeps["bott"].append(["bott", "--family", family, "--c", str(c), "--m", str(m), *spin,
                               *question, *away, "--format", fmt])
    for shape, group, c, m, flags, loc, fmt in itertools.product(
        DECOMPOSE_SHAPES, DECOMPOSE_GROUPS, DECOMPOSE_C, (1, 2, 3), DECOMPOSE_M_FLAGS,
        DECOMPOSE_LOCALIZATIONS, ("text", "machine"),
    ):
        sweeps["decompose"].append(["decompose", "--group", group, "--c", str(c), "--m", str(m),
                                    "--k", "7", *shape, *flags, *loc, "--normalize",
                                    "--format", fmt])
    for group, c, question, fmt in itertools.product(
        CLASSIFY_GROUPS, CLASSIFY_C, CLASSIFY_QUESTIONS, ("text", "machine"),
    ):
        sweeps["classify"].append(["classify", "--group", group, "--c", str(c), *question,
                                   "--format", fmt])
    for group, space, op, based, fmt in itertools.product(
        RATIONAL_GROUPS, RATIONAL_SPACES, RATIONAL_OPS, ([], ["--based"]), ("text", "machine"),
    ):
        sweeps["rational"].append(["rational", *group, *space, *op, *based, "--format", fmt])
    for t, c, m, flags, fmt in itertools.product(
        ("2", "3", "4"), MOORE_C, (1, 2, 3), MOORE_FLAGS, ("text", "machine"),
    ):
        sweeps["moore"].append(["moore", "--c", str(c), "--m", str(m), *flags, "--suspension", t,
                                "--format", fmt])
    for (group, p), fmt in itertools.product(_edge_groups(), ("text", "machine")):
        sweeps["edges"] += [_exponent_argv(group, p, p, route, fmt) for route in EXPONENT_ROUTES]
        for question in ([], ["--trivial", "--p", str(p)], ["--same-type", "1", "2"]):
            sweeps["edges"].append(["classify", "--group", group, "--c", str(p), "--moore",
                                    *question, "--format", fmt])
    seen = set()
    for name, argvs in sweeps.items():
        # first occurrence, in order
        unique = dict.fromkeys(tuple(argv) for argv in argvs if tuple(argv) not in seen)
        seen.update(unique)
        sweeps[name] = [list(argv) for argv in unique]
    return sweeps


def _argv_list() -> list[list[str]]:
    return [argv for argvs in _sweeps().values() for argv in argvs]


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
            except Exception as exc:  # a traceback: compared like any output, so the argv is named
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def _run(src: Path, payload: str) -> list:
    proc = subprocess.run(
        [sys.executable, "-B", __file__, "--child", str(src)],
        input=payload, capture_output=True, text=True, encoding="utf-8", check=True,
    )
    return json.loads(proc.stdout)


def _report(other: str, argvs: list, theirs: list, ours: list, expected: list | None) -> int:
    differing = []
    for argv, a, b in zip(argvs, theirs, ours):
        if a != b:
            differing.append(argv)
            print(f"difference: gauge5 {shlex.join(argv)}")
            for side, (code, out, err) in ((other, a), ("this checkout", b)):
                print(f"--- {side}: exit {code}\n{out}--- stderr\n{err}", end="")
    print(f"{len(differing)} of {len(argvs)} argv differ")
    if expected is None:
        return 1 if differing else 0
    listed, found = set(map(tuple, expected)), set(map(tuple, differing))
    unexpected = [argv for argv in differing if tuple(argv) not in listed]
    missing = [argv for argv in expected if tuple(argv) not in found]
    for label, group in (("unexpected", unexpected), ("missing", missing)):
        for argv in group:
            print(f"{label}: gauge5 {shlex.join(argv)}")
    print(f"{len(unexpected)} unexpected, {len(missing)} missing of {len(expected)} expected")
    return 1 if unexpected or missing else 0


def main(other: str, expect: str | None = None) -> int:
    argvs = _argv_list()
    expected = None
    if expect is not None:
        lines = Path(expect).read_text(encoding="utf-8").splitlines()
        expected = [shlex.split(line) for line in lines if line.strip()]
        known = set(map(tuple, argvs))
        argvs += [argv for argv in expected if tuple(argv) not in known]
    payload = json.dumps(argvs)
    theirs = _run(Path(other).resolve() / "src", payload)
    ours = _run(ROOT / "src", payload)
    try:
        code = _report(other, argvs, theirs, ours, expected)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader is gone, as in gauge5.cli.main: point stdout at devnull so
        # the exit-time flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _digest() -> dict[str, str]:
    """Sweep name -> 'argv count, SHA-256' for this checkout: the hash is of
    the JSON list of [argv, [exit code, stdout, stderr]] over the sweep."""
    sweeps = _sweeps()
    results = iter(_run(ROOT / "src", json.dumps([a for argvs in sweeps.values() for a in argvs])))
    lines = {}
    for name, argvs in sweeps.items():
        pairs = json.dumps([[argv, next(results)] for argv in argvs])
        lines[name] = f"{len(argvs)} {hashlib.sha256(pairs.encode()).hexdigest()}"
    return lines


def digest(path: str, check: bool) -> int:
    """Write this checkout's digest to path, one 'name count sha256' line per
    sweep, or (check) name each sweep whose line differs from path's, and
    exit 1 if any does."""
    ours = _digest()
    if not check:
        text = "".join(f"{name} {line}\n" for name, line in ours.items())
        Path(path).write_text(text, encoding="utf-8")
        return 0
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    committed = dict(line.split(" ", 1) for line in lines if line.strip())
    changed = [n for n in dict.fromkeys([*committed, *ours]) if committed.get(n) != ours.get(n)]
    for name in changed:
        print(f"changed: {name}: {committed.get(name, 'absent')} -> {ours.get(name, 'absent')}")
    print(f"{len(changed)} of {len(ours)} sweeps changed")
    return 1 if changed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2])
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    elif len(sys.argv) == 3 and sys.argv[1] in ("--digest", "--check"):
        sys.exit(digest(sys.argv[2], check=sys.argv[1] == "--check"))
    elif len(sys.argv) == 4 and sys.argv[2] == "--expect":
        sys.exit(main(sys.argv[1], sys.argv[3]))
    else:
        sys.exit(__doc__)
