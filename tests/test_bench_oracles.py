"""The benchmark's own checks, run in the suite.

The queries are 20 seeded `small_c_mix` blocks (seed 5) and the queries of
one `large_c` block (seed 5) whose c is at most 10^6. Each answer is judged
by `bench/run.py`'s `verdict`, and each query's command line runs through
`cli.main` in both output formats and is judged by its `cli_verdict`. The
bench/ directory is put on the path only to import its modules, as
tools/cli_parity.py does; nothing there is written.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

from gauge5.cli import main

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import run
    import workloads
finally:
    sys.path.remove(BENCH)

SEED = 5
_small = random.Random(SEED)
QUERIES = [q for _ in range(20) for q in workloads.small_block(_small)] + [
    q for q in workloads.large_block(random.Random(SEED)) if q.args["c"] <= 10**6
]


def test_every_answer_passes_the_benchmark_oracle():
    failed = []
    for q in QUERIES:
        try:
            result, exc = q.call(), None
        except Exception as e:  # judged against the query's expected refusal
            result, exc = None, e
        reason = run.verdict(q, result, exc)
        if reason is not None:
            failed.append((q.kind, q.args, reason))
    assert failed == []
    assert len(QUERIES) == 20 * 77 + 7


def test_every_command_line_passes_the_benchmark_cli_check():
    failed, ran = [], 0
    for q in QUERIES:
        argv = q.argv()
        if argv is None:  # a query with no CLI form
            continue
        for full in (argv, argv + ["--format", "machine"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(full)
            reason = run.cli_verdict(q, code, err.getvalue())
            if reason is not None:
                failed.append((full, reason))
            ran += 1
    assert failed == [] and ran > len(QUERIES)
