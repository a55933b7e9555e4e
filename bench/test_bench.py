"""Self-tests of the benchmark's own machinery (not collected by the repo's
test suite; run with `python3 -m pytest bench/test_bench.py` from the root)."""

from __future__ import annotations

import random
import signal
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from gauge5 import manifold  # noqa: E402
from spans import Tracer  # noqa: E402

signal.signal(signal.SIGALRM, run._on_alarm)


def test_samples_thin_evenly_and_keep_exact_totals():
    s = run.Samples()
    s.CAP = 8
    s.buf = s.buf[:8]
    for x in range(20):
        s.add(float(x))
    assert s.count == 20 and s.busy == sum(range(20))
    assert s.stride == 4 and s.sorted() == [0.0, 4.0, 8.0, 12.0, 16.0]


def test_oracles_accept_the_library_on_every_workload():
    rng = random.Random(7)
    blocks = workloads.small_block(rng) + workloads.large_block(rng)
    blocks += workloads.cli_block(rng, 0) + list(workloads.README)
    for q in blocks:
        result, exc, _ = run.timed(q.call)
        assert run.verdict(q, result, exc) is None, (q.kind, q.args)


def test_oracles_reject_a_wrong_answer_and_a_wrong_refusal():
    q = workloads.q("homology", c=15, m=2, spin=True, sp=False, stc=False)
    wrong = manifold.homology(manifold.ManifoldSpec(c=21, m=2))
    assert run.verdict(q, wrong, None) is not None
    refused = workloads._refused_moore(random.Random(1))
    assert run.verdict(refused, None, ValueError("something else")) is not None
    assert run.verdict(refused, "an answer", None) is not None


def test_self_time_and_errors_leaving_a_layer():
    t = Tracer()
    inner = t.wrap("arith.inner", "arith", lambda: sum(range(10_000)))

    def outer_fn():
        inner()
        inner()
        raise ValueError("refused")

    outer = t.wrap("classification.outer", "classification", outer_fn)
    for _ in range(3):
        try:
            outer()
        except ValueError:
            pass
    m = t.layer_metrics(("arith", "classification"))
    calls, total, self_s = t.stats["classification.outer"][:3]
    assert m["arith.calls"] == 6 and m["classification.calls"] == 3
    assert m["classification.errors"] == 3 and m["arith.errors"] == 0
    assert abs(self_s - (total - t.stats["arith.inner"][1])) < 1e-9


def test_install_patches_every_binding_and_uninstall_restores_them():
    from gauge5 import arith, classification

    original = classification.divisors
    t = Tracer()
    t.install()
    try:
        assert classification.divisors is not original
        classification.classify_moore(__import__("gauge5").LieGroupSpec("SU", 3), 9)
        assert t.stats["arith.divisors"][0] >= 1
    finally:
        t.uninstall()
    assert classification.divisors is original is arith.divisors


def test_what_if_halves_only_the_named_layer():
    arith = run.LAYERS.index("arith")
    layers = [0.0] * len(run.LAYERS)
    layers[arith] = 2.0
    rows = [(4.0, tuple(layers))] * 10
    out = run.what_if(rows, fixed_s=4.0, fixed={"import": 2.0})
    assert abs(out["arith"][0] + 0.125) < 1e-12  # 8 s per query, 1 s cut
    assert out["spaces"] == (0.0, 0.0, 0.0)
    assert abs(out["import"][1] + 0.125) < 1e-12
