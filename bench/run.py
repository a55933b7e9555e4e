#!/usr/bin/env python3
"""The gauge5 benchmark: one command per workload, run from the repo root.

    python3 bench/run.py --workload small_c_mix --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one process each; see METRICS.md):

  small_c_mix  seeded stream over every verb's library entry point, c <= 200
  large_c      the verbs whose cost grows with c, c up to 1e6
  cli_launch   one `python -m gauge5.cli` child at a time, paired with a bare
               `python -c pass` launch

--trace 0 measures the end-to-end metrics; --trace 1 is a separate run with
span wrappers on every layer and reports the per-layer metrics. Every answer
is checked independently. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
human-readable report, and the same report plus the kept spans go to
.bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from spans import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Far above every normal query (classify_moore at c = 1e6 takes ~0.35 s) and
# far below the minutes trial division by odd candidates needs for a ~1e18 semiprime.
DEADLINE_S = 4.0
LAUNCH_DEADLINE_S = 20.0
SETUP_LAUNCHES = 31
# setup_s is reported in seconds at a fixed machine speed: the seconds a child
# measures, times CAL_REF_S over the calibration kernel's time in that child
CAL_REF_S = 100e-6
IMPORT_PAIRS = 7
TRACED_BLOCKS = {"small_c_mix": 40, "large_c": 1, "cli_launch": 50}
CLI_SAMPLE = {"small_c_mix": 60, "large_c": 18}

END_TO_END = {
    "setup_s": "s",
    "query_p50_cal": "cal",
    "query_p90_cal": "cal",
    "throughput_cal": "queries/cal",
    "peak_rss_mb": "MB",
}
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import gauge5\n"
    "t1 = time.perf_counter()\n"
    "gauge5.lie.load_catalog()\n"
    "t2 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from calib import cal_sample\n"
    "print(t1 - t0, t2 - t1, cal_sample(reps=8))\n"
)


class Overrun(BaseException):
    """Raised by the SIGALRM handler when a query passes its deadline. A
    BaseException, so no `except Exception` in the library can swallow it."""


_armed = [False]


def _on_alarm(signum, frame):
    if _armed[0]:
        raise Overrun()


def timed(fn, deadline: float = DEADLINE_S):
    """(result, exception or None, seconds) of fn() under the deadline."""
    _armed[0] = True
    signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = time.perf_counter()
    try:
        try:
            result, exc = fn(), None
        except Exception as e:  # checked against the query's expected refusal
            result, exc = None, e
        t1 = time.perf_counter()
    except Overrun as e:
        t1 = time.perf_counter()
        result, exc = None, e
    finally:
        _armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, exc, t1 - t0


def verdict(q, result, exc) -> str | None:
    if isinstance(exc, Overrun):
        return "overran the per-query deadline"
    if exc is not None:
        return q.check_refusal(exc)
    if q.refuse is not None:
        return f"answered, but should have refused naming {q.refuse!r}"
    try:
        return q.check(result)
    except Exception as e:  # a malformed answer can break the oracle itself
        return f"oracle could not read the answer: {e!r}"


class Samples:
    """Latencies, thinned to every 2^k-th query once the fixed buffer fills,
    so the benchmark's own memory does not grow with throughput."""

    CAP = 1 << 16

    def __init__(self) -> None:
        self.buf = array("d", bytes(8 * self.CAP))
        self.n = self.count = self.skip = 0
        self.stride = 1
        self.busy = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.busy += x
        self.skip += 1
        if self.skip < self.stride:
            return
        self.skip = 0
        if self.n == self.CAP:
            self.buf[: self.CAP // 2] = self.buf[0 : self.CAP : 2]
            self.n = self.CAP // 2
            self.stride *= 2
        self.buf[self.n] = x
        self.n += 1

    def sorted(self) -> list[float]:
        return sorted(self.buf[: self.n])


def pct(values: list[float], f: float) -> float:
    """Linear-interpolated percentile of sorted values."""
    i = f * (len(values) - 1)
    lo = math.floor(i)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (i - lo)


def tail_pct(n: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    return max(0.0, 100.0 * (1 - 10 / n)) if n else 0.0


class Failures:
    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.examples: list[str] = []

    def add(self, q, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.examples) < 10:
                self.examples.append(f"{q.kind} {q.args}: {reason}")


# -- child processes ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    env.pop("GAUGE_CATALOG", None)
    return env


def launch(argv: list[str]):
    """(wall seconds, CompletedProcess) of one child run to completion, or
    (wall seconds, None) when it overran the per-launch deadline; then
    subprocess.run has killed the child and waited for it."""
    proc, exc, wall = timed(
        lambda: subprocess.run(argv, capture_output=True, env=child_env(), cwd=ROOT),
        LAUNCH_DEADLINE_S,
    )
    if exc is not None and not isinstance(exc, Overrun):
        raise RuntimeError(f"launch {argv[:4]} failed: {exc!r}")
    return wall, proc


def launch_ok(argv: list[str]):
    """A launch of the benchmark's own (bare, import or set-up) children,
    which must succeed: the run stops without a result if one does not."""
    wall, proc = launch(argv)
    if proc is None or proc.returncode != 0:
        detail = "overran the deadline" if proc is None else proc.stderr.decode()[-500:]
        raise RuntimeError(f"child {argv[1:3]} failed: {detail}")
    return wall, proc


def measure_import() -> dict:
    """Interleaved bare and `import gauge5.cli` launches."""
    bare, imp = [], []
    for i in range(IMPORT_PAIRS):
        order = ("pass", "import gauge5.cli") if i % 2 == 0 else ("import gauge5.cli", "pass")
        for code in order:
            wall, _ = launch_ok([sys.executable, "-c", code])
            (bare if code == "pass" else imp).append(wall)
    b = statistics.median(bare)
    return {"bare_ms": 1e3 * b, "import_ms": 1e3 * (statistics.median(imp) - b)}


# -- the in-process CLI path -----------------------------------------------------------


def cli_inprocess(argv: list[str]):
    """What `gauge5 <argv>` prints, computed in this process: (exit code,
    stdout, stderr, parse seconds, run seconds)."""
    from gauge5 import cli, errors

    t0 = time.perf_counter()
    args = cli.build_parser().parse_args(argv)
    t1 = time.perf_counter()
    try:
        out = args.run(args)
        rc, stdout, stderr = 0, (out + "\n" if out else ""), ""
    except (errors.HypothesisError, errors.CatalogError, ValueError) as exc:
        rc, stdout, stderr = 1, "", f"error: {exc}\n"
    return rc, stdout, stderr, t1 - t0, time.perf_counter() - t1


def cli_verdict(q, rc: int, stderr: str) -> str | None:
    if q.refuse is None:
        return None if rc == 0 else f"exit {rc}: {stderr.strip()}"
    if rc != 1 or not stderr.startswith("error: ") or q.refuse not in stderr:
        return f"exit {rc} {stderr.strip()!r}, want a refusal naming {q.refuse!r}"
    return None


class Calibrated:
    """Latencies in cal units. Queries collect into a segment (one block,
    or one query when `per_query`); `close` times the calibration kernel and
    divides each latency of the segment by the mean of the kernel samples
    taken just before and just after it."""

    def __init__(self, out: Samples, per_query: bool) -> None:
        from calib import cal_sample

        self.cal_sample, self.out, self.per_query = cal_sample, out, per_query
        self.pending: list[float] = []
        self.units = [cal_sample()]

    def add(self, dt: float) -> None:
        self.pending.append(dt)
        if self.per_query:
            self.close()

    def close(self) -> None:
        if not self.pending:
            return
        self.units.append(self.cal_sample())
        unit = (self.units[-2] + self.units[-1]) / 2
        for dt in self.pending:
            self.out.add(dt / unit)
        self.pending.clear()


class SetupProbe:
    """Set-up time: fresh interpreters running `import gauge5` and the first
    catalog load, timed inside the child. Each child then times the
    calibration kernel, and its set-up time is scaled to the speed at which
    the kernel takes CAL_REF_S, so the speed state of a shared machine
    during that launch cancels. The launches are spread evenly over the run
    and the median is reported."""

    def __init__(self, seconds: float) -> None:
        self.setup: list[float] = []
        self.raw: list[float] = []
        self.load: list[float] = []
        self.start, self.every = time.perf_counter(), seconds / (SETUP_LAUNCHES - 1)

    def run_one(self) -> None:
        _, proc = launch_ok([sys.executable, "-c", SETUP_CODE, str(BENCH)])
        t_import, t_load, unit = map(float, proc.stdout.split())
        self.raw.append(t_import + t_load)
        self.setup.append((t_import + t_load) * CAL_REF_S / unit)
        self.load.append(t_load)

    def run_if_due(self) -> None:
        due = len(self.setup) < SETUP_LAUNCHES and \
            time.perf_counter() >= self.start + len(self.setup) * self.every
        if due:
            self.run_one()

    def finish(self) -> dict:
        while len(self.setup) < SETUP_LAUNCHES:
            self.run_one()
        return {"setup_s": statistics.median(self.setup),
                "setup_raw_s": statistics.median(self.raw),
                "load_ms": 1e3 * statistics.median(self.load), "n": len(self.setup)}


# -- workloads ---------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        import workloads

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.rng = random.Random(seed)
        self.fails = Failures()
        self.qids = itertools.count(1)
        self.block_index = itertools.count()
        self.make_block = {
            "small_c_mix": workloads.small_block,
            "large_c": workloads.large_block,
            "cli_launch": lambda rng: workloads.cli_block(rng, next(self.block_index)),
        }[workload]
        self.workloads = workloads
        self.query_rows: list[tuple] = []  # phase A of a traced run, for what_if

    def warm_up(self) -> None:
        """Load the catalog and touch every module before timing."""
        for q in self.workloads.small_block(random.Random(f"{self.seed}-warm-up")):
            timed(q.call)

    # in-process library queries

    def library_block(self, samples: Samples, tracer=None, segment=None, rows=None) -> None:
        """Run one block; with `segment`, also feed it each query's latency,
        and with `rows`, append each traced query's (latency, self time per
        layer)."""
        outcomes = []
        for q in self.make_block(self.rng):
            if tracer is None:
                result, exc, dt = timed(q.call)
                # check and drop each answer at once, so peak memory is that
                # of one query (a classify_moore report at c = 1e6 is ~50 MB)
                self.fails.add(q, verdict(q, result, exc))
                del result
            else:
                tracer.qid = next(self.qids)
                result, exc, dt = timed(q.call)
                outcomes.append((q, result, exc))
                if rows is not None:
                    rows.append((dt, tracer.take_query_self()))
            samples.add(dt)
            if segment is not None:
                segment.add(dt)
        if tracer is not None:
            tracer.uninstall()  # the oracles call the library too
        for q, result, exc in outcomes:
            self.fails.add(q, verdict(q, result, exc))

    def library_stream(self, setup: "SetupProbe") -> dict:
        """Queries normalized by the calibration kernel timed right before
        and right after them: a shared virtual machine can switch between
        speed states (1.6x apart on a 2-vCPU one) every tenth of a second to
        every few seconds, so only a cal unit taken within the same state
        cancels them."""
        raw, norm = Samples(), Samples()
        cal = Calibrated(norm, per_query=self.workload == "large_c")
        end = time.perf_counter() + self.seconds
        while time.perf_counter() < end:
            self.library_block(raw, segment=cal)
            cal.close()
            setup.run_if_due()
        # read before sorting the samples, which is the benchmark's own memory
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lat, nlat = raw.sorted(), norm.sorted()
        unit = statistics.median(cal.units)
        tail = tail_pct(raw.count)
        return {
            "cal_unit_s": unit, "cal_n": len(cal.units), "n": raw.count,
            "query_p50_us": 1e6 * pct(lat, 0.5), "query_p90_us": 1e6 * pct(lat, 0.9),
            "throughput_qps": raw.count / raw.busy,
            "query_p50_cal": pct(nlat, 0.5), "query_p90_cal": pct(nlat, 0.9),
            "throughput_cal": norm.count / norm.busy,
            "tail": (tail, 1e6 * pct(lat, tail / 100)),
            "peak_rss_mb": rss_mb,
        }

    # cli launches

    def launch_stream(self, setup: SetupProbe) -> dict:
        """Each gauge5 launch is normalized by the bare launch paired with it."""

        gauge, bare, ratios = [], [], []
        end = time.perf_counter() + self.seconds
        pair = 0
        while time.perf_counter() < end:
            for q in self.make_block(self.rng):
                argv = q.argv()
                runs = {}
                for side in (("bare", "gauge5") if pair % 2 == 0 else ("gauge5", "bare")):
                    cmd = [sys.executable, "-c", "pass"] if side == "bare" else \
                        [sys.executable, "-m", "gauge5.cli", *argv]
                    runs[side] = launch(cmd) if side == "gauge5" else launch_ok(cmd)
                pair += 1
                (t_g, proc), (t_b, _) = runs["gauge5"], runs["bare"]
                gauge.append(t_g)
                bare.append(t_b)
                ratios.append(t_g / t_b)
                if proc is None:
                    self.fails.add(q, "overran the per-launch deadline")
                else:
                    self.fails.add(q, self.launch_verdict(q, argv, proc))
                setup.run_if_due()
                if time.perf_counter() >= end:
                    break
        unit = statistics.median(bare)
        gauge_s, ratios_s = sorted(gauge), sorted(ratios)
        qps = len(gauge) / sum(gauge)
        return {
            "cal_unit_s": unit, "cal_n": len(bare), "n": len(gauge),
            "query_p50_us": 1e6 * pct(gauge_s, 0.5), "query_p90_us": 1e6 * pct(gauge_s, 0.9),
            "throughput_qps": qps,
            "query_p50_cal": pct(ratios_s, 0.5), "query_p90_cal": pct(ratios_s, 0.9),
            "throughput_cal": len(ratios) / sum(ratios),
            "cli_p50_ms": 1e3 * pct(gauge_s, 0.5), "cli_p90_ms": 1e3 * pct(gauge_s, 0.9),
            "cli_rel_bare": pct(ratios_s, 0.5),
            "tail": (tail_pct(len(gauge)), 1e6 * pct(gauge_s, tail_pct(len(gauge)) / 100)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }

    def launch_verdict(self, q, argv, proc) -> str | None:
        rc, stdout, stderr, _, _ = cli_inprocess(argv)
        got = (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"))
        if got != (rc, stdout, stderr):
            return f"`gauge5 {' '.join(argv)}` printed {got!r}, in-process {(rc, stdout, stderr)!r}"
        bad = cli_verdict(q, rc, stderr)
        if bad is None:
            result, exc, _ = timed(q.call)
            bad = verdict(q, result, exc)
        return bad

    # traced run

    def cli_block(self, tracer, samples: Samples, parse: list, run: list, queries,
                  rows=None) -> None:
        invoke = tracer.wrap("cli.invoke", "cli", cli_inprocess) if tracer else cli_inprocess
        outcomes = []
        for q in queries:
            if tracer is not None:
                tracer.qid = next(self.qids)
            out, exc, dt = timed(lambda: invoke(q.argv()))
            samples.add(dt)
            if rows is not None:
                rows.append((dt, tracer.take_query_self()))
            outcomes.append((q, out, exc))
            if out is not None:
                parse.append(out[3])
                run.append(out[4])
        if tracer is not None:
            tracer.uninstall()
        for q, out, exc in outcomes:
            self.fails.add(q, verdict(q, None, exc) if out is None else cli_verdict(q, out[0], out[2]))

    def traced_stream(self) -> dict:
        from spans import Tracer

        is_cli = self.workload == "cli_launch"
        parse, run = [], []

        def block(tracer, samples, rows=None):
            if tracer is not None:
                tracer.install()
            if is_cli:
                self.cli_block(tracer, samples, parse, run, self.make_block(self.rng), rows)
            else:
                self.library_block(samples, tracer, rows=rows)

        # A: a fixed number of blocks, so every count repeats exactly per seed
        tracer = Tracer()
        for _ in range(TRACED_BLOCKS[self.workload]):
            block(tracer, Samples(), self.query_rows)
        metrics = tracer.layer_metrics()
        metrics.update(tracer.detail_metrics())
        # B: tracing overhead, traced and untraced blocks alternating
        plain, traced = Samples(), Samples()
        end = time.perf_counter() + self.seconds / 2
        while time.perf_counter() < end:
            block(None, plain)
            block(Tracer(), traced)
        metrics["trace.overhead_ratio"] = (plain.count / plain.busy) / (traced.count / traced.busy)
        # C: the CLI layer on a fixed sample of this workload's own queries
        if not is_cli:
            sample_rng = random.Random(f"{self.seed}-cli-sample")
            pool = []
            while len(pool) < CLI_SAMPLE[self.workload]:
                pool += [q for q in self.make_block(sample_rng) if q.argv() is not None]
            cli_tracer = Tracer()
            cli_tracer.install()
            self.cli_block(cli_tracer, Samples(), parse, run, pool[: CLI_SAMPLE[self.workload]])
            metrics.update(cli_tracer.layer_metrics(("cli",)))
        metrics["cli.parse_ms"] = 1e3 * statistics.median(parse)
        metrics["cli.run_ms"] = 1e3 * statistics.median(run)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{self.workload}-seed{self.seed}.csv")
        return metrics

    # hang probes

    def probes(self) -> dict:
        """Fixed c = p q with p, q ~1e9 primes, outside the timed stream."""
        out = {"attempted": 0, "overran": 0, "wrong": []}
        if self.workload != "large_c":
            return out
        for q in self.workloads.hang_probes(random.Random(f"{self.seed}-probes")):
            result, exc, _ = timed(q.call)
            out["attempted"] += 1
            if isinstance(exc, Overrun):
                out["overran"] += 1
            elif (bad := verdict(q, result, exc)) is not None:
                out["wrong"].append(f"{q.kind} c={q.args['c']}: {bad}")
        return out


def what_if(rows, fixed_s: float = 0.0, fixed: dict | None = None) -> dict[str, tuple]:
    """For each layer, the relative change of p50, p90 and throughput of the
    traced queries `rows` (latency, self seconds per layer) if that layer's
    self time were halved. `fixed_s` is added to every latency (the parts of
    a launch outside the in-process path) and `fixed` names the parts of it
    that belong to a layer or to "import"."""
    fixed = fixed or {}
    names = list(LAYERS) + [n for n in fixed if n not in LAYERS]

    def stats(lat):
        lat = sorted(lat)
        return pct(lat, 0.5), pct(lat, 0.9), len(lat) / sum(lat)

    base = [fixed_s + dt for dt, _ in rows]
    b50, b90, bqps = stats(base)
    out = {}
    for i, name in enumerate(names):
        own = [(layers[i] if i < len(LAYERS) else 0.0) + fixed.get(name, 0.0) for _, layers in rows]
        p50, p90, qps = stats([x - cut / 2 for x, cut in zip(base, own)])
        out[name] = (p50 / b50 - 1, p90 / b90 - 1, qps / bqps - 1)
    return out


# -- environment and output ----------------------------------------------------------


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gauge5").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def report_lines(args, env, m, setup, fails, probes, sens) -> list[str]:
    lines = [
        f"gauge5 benchmark  workload={args.workload} seed={args.seed}"
        f" seconds={args.seconds} trace={args.trace}",
        "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    if args.trace == 0:
        cli = args.workload == "cli_launch"
        rows = [
            ("setup_s", setup["setup_s"], "s", setup["n"]),
            ("setup_raw_s", setup["setup_raw_s"], "s", setup["n"]),
            ("query_p50_us", m["query_p50_us"], "us", m["n"]),
            ("query_p90_us", m["query_p90_us"], "us", m["n"]),
            ("throughput_qps", m["throughput_qps"], "queries/s", m["n"]),
            ("query_p50_cal", m["query_p50_cal"], "cal", m["n"]),
            ("query_p90_cal", m["query_p90_cal"], "cal", m["n"]),
            ("throughput_cal", m["throughput_cal"], "queries/cal", m["n"]),
            ("cli_p50_ms", m["cli_p50_ms"] if cli else None, "ms", m["n"]),
            ("cli_p90_ms", m["cli_p90_ms"] if cli else None, "ms", m["n"]),
            ("cli_rel_bare", m["cli_rel_bare"] if cli else None, "ratio", m["n"]),
            ("peak_rss_mb", m["peak_rss_mb"], "MB", 1),
            ("fail_ratio", fails.failed / fails.attempted, "fraction", fails.attempted),
        ]
        for name, value, unit, n in rows:
            shown = "n/a (no launches in this workload)" if value is None else f"{value:.6g}"
            lines.append(f"  {name:16} {shown:>12} {unit:12} n={n}")
        tail, tail_us = m["tail"]
        lines.append(f"  tail: p{tail:.2f} = {tail_us:.6g} us (highest percentile with"
                     f" >= 10 samples beyond it, n={m['n']})")
        lines.append(f"  cal unit: {1e6 * m['cal_unit_s']:.6g} us (median of {m['cal_n']} "
                     + ("bare interpreter launches)" if cli else "calibration-kernel samples)"))
    else:
        for name, value in m.items():
            lines.append(f"  {name:40} {value:.6g}")
        library = [layer for layer in LAYERS if layer != "cli"]
        total = sum(m[f"{layer}.self_ms"] for layer in library)
        shares = sorted(((m[f"{layer}.self_ms"] / total, layer) for layer in library), reverse=True)
        lines.append("  library self-time share: "
                     + ", ".join(f"{layer} {100 * share:.1f}%" for share, layer in shares))
        lines.append(f"  what-if, one layer's self time halved ({len(sens[0])} traced queries):")
        for name, (d50, d90, dqps) in sens[1].items():
            lines.append(f"    {name:16} query_p50 {100 * d50:+6.1f}%  query_p90 {100 * d90:+6.1f}%"
                         f"  throughput {100 * dqps:+6.1f}%")
    lines.append(
        f"correct: {'PASS' if fails.failed == 0 and not probes['wrong'] else 'FAIL'}"
        f"  attempted={fails.attempted} failed={fails.failed}"
    )
    lines += [f"  failure: {e}" for e in fails.examples + probes["wrong"]]
    if probes["attempted"]:
        lines.append(
            f"hang probes (c = p q, p and q ~1e9): {probes['overran']} of {probes['attempted']}"
            f" overran the {DEADLINE_S:g} s deadline"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("small_c_mix", "large_c", "cli_launch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "gauge5" / "__init__.py").is_file():
        print(f"error: no gauge5 sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("GAUGE_CATALOG", None)
    # an installed package ships its bytecode; write it before anything is timed
    compileall.compile_dir(str(SRC / "gauge5"), quiet=1)
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    run = Run(args.workload, args.seed, args.seconds)
    probe = SetupProbe(args.seconds)
    probe.run_one()
    if args.workload != "cli_launch":
        run.warm_up()
    sens = None
    if args.trace:
        setup = probe.finish()
        imports = measure_import()
        m = run.traced_stream()
        m["lie.load_catalog_cold_ms"] = setup["load_ms"]
        m["cli.bare_ms"], m["cli.import_ms"] = imports["bare_ms"], imports["import_ms"]
        fixed = {}
        if args.workload == "cli_launch":  # a launch is the in-process path plus these
            fixed = {"lie": setup["load_ms"] / 1e3, "import": imports["import_ms"] / 1e3}
        fixed_s = sum(fixed.values()) + (imports["bare_ms"] / 1e3 if fixed else 0.0)
        sens = (run.query_rows, what_if(run.query_rows, fixed_s, fixed))
    elif args.workload == "cli_launch":
        m = run.launch_stream(probe)
    else:
        m = run.library_stream(probe)
    setup = probe.finish()
    probes = run.probes()
    if args.trace:
        m["deadline.overruns"] = probes["overran"]

    env = {
        "python": platform.python_version(), "commit": commit()[:12], "src_sha256": src_digest(),
        "nproc": os.cpu_count(), "seed": args.seed,
    }
    if not args.trace:
        env["cal_unit_us"] = f"{1e6 * m['cal_unit_s']:.6g}"
    lines = report_lines(args, env, m, setup, run.fails, probes, sens)
    if args.trace:
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        m["setup_s"] = setup["setup_s"]
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": run.fails.failed == 0 and not probes["wrong"],
        "attempted": run.fails.attempted,
        "failed": run.fails.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": lines, "env": env, "result": result}, indent=1) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _per_layer() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_ms": "ms",
                      f"{layer}.errors": "count"})
    units.update({
        "arith.factorize.calls": "count", "arith.factorize.self_ms": "ms",
        "arith.factorize.max_us": "us", "arith.is_prime.calls": "count",
        "arith.is_prime.self_ms": "ms", "abelian.groups_built": "count",
        "localization.inverts.calls": "count", "localization.is_prime_per_inverts": "ratio",
        "lie.lookups": "count", "lie.rows_scanned": "count", "lie.rows_matched_ratio": "ratio",
        "lie.load_catalog_cold_ms": "ms", "spaces.normalize.calls": "count",
        "spaces.normalize.self_ms": "ms", "spaces.atoms_in": "count", "spaces.atoms_out": "count",
        "manifold.homology.calls": "count", "classification.classify.calls": "count",
        "classification.members_built": "count", "classification.members_useful_ratio": "ratio",
        "exponents.routes_tried": "count", "exponents.routes_refused": "count",
        "bott.stable_pi_gauge.calls": "count", "bott.normalize_per_value": "ratio",
        "cli.bare_ms": "ms", "cli.import_ms": "ms", "cli.parse_ms": "ms", "cli.run_ms": "ms",
        "trace.overhead_ratio": "ratio", "deadline.overruns": "count",
    })
    return units


PER_LAYER = _per_layer()

if __name__ == "__main__":
    sys.exit(main())
