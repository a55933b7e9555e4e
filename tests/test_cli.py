"""End-to-end checks of the gauge5 command-line interface.

Each test drives main() in process and compares against the library API, so
the CLI can never drift from the functions it fronts.
"""

import argparse
import ast
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gauge5
from gauge5 import ManifoldSpec, StableQuery, abelian, records, spaces, stable_pi_gauge
from gauge5.bott import bott_rows
from gauge5 import cli, errors
from gauge5.cli import build_parser, main
from gauge5.errors import LISTED_BOUND
from gauge5.lie import LieGroupSpec
from gauge5.manifold import homology, suspension_image_order, suspension_splitting
from gauge5.rational import (
    HilbertSeries,
    RationalGroupModel,
    rational_cohomology_ring,
    rational_rank_formula,
)
from test_exponents import PUBLISHED_ROWS
from test_readme_examples import EXAMPLES, HUGE_M, REFUSALS
from test_value import loaded_after


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")

    return _run


def test_decompose_spin_manifold(run):
    code, out, err = run(
        "decompose", "--c", "5", "--m", "2", "--group", "SU:4", "--loops", "2", "--k", "1"
    )
    assert code == 0 and err == ""
    assert out == "Ω²G₁(P⁴(5)) × Ω³G{5} × Ω⁴G × Ω⁵G × Ω⁷G"


def test_decompose_non_spin_manifold(run):
    code, out, err = run(
        "decompose", "--c", "5", "--m", "3", "--non-spin", "--group", "E8", "--loops", "2"
    )
    assert code == 0 and err == ""
    assert out == "Ω²G₀(P⁴(5)) × Ω³Map*₀(CP²,G) × Ω³G{5} × (Ω⁴G)² × Ω⁵G"


def test_decompose_machine_round_trip(run):
    code, out, _ = run(
        "decompose", "--c", "9", "--m", "4", "--sp", "--stc", "--group", "Sp:3",
        "--loops", "3", "--at-p", "3", "--format", "machine",
    )
    assert code == 0
    direct = spaces.parse_machine(out)
    from gauge5.decomposition import loops3_gauge
    from gauge5 import Localization

    M = ManifoldSpec(9, 4, stably_parallelizable=True, single_top_cell=True)
    assert direct == loops3_gauge(M, LieGroupSpec("Sp", 3), 0, Localization.at_prime(3))


def test_decompose_normalize_flag(run):
    base = ("decompose", "--c", "5", "--m", "2", "--group", "SU:4", "--away-from-c",
            "--format", "machine")
    _, raw, _ = run(*base)
    _, normalized, _ = run(*base, "--normalize")
    assert spaces.parse_machine(normalized) == spaces.parse_machine(raw).normalize()


def test_decompose_rejects_conflicting_localization(run):
    code, out, err = run(
        "decompose", "--c", "5", "--group", "SU:4", "--away-from-c", "--at-p", "3"
    )
    assert code == 1 and out == ""
    assert err == "error: --away-from-c sets its own localization"


def test_classify_reports_hypothesis_failures(run):
    code, out, err = run("classify", "--c", "6", "--m", "2", "--group", "SU:3", "--loops", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: hypothesis")
    assert "c = 6" in err


def test_classify_moore_table(run):
    code, out, _ = run("classify", "--moore", "--group", "SU:3", "--c", "9")
    assert code == 0
    assert "connecting-map order 24" in out
    assert "d = gcd(ord, c) = 3: at most 2 homotopy type(s)" in out
    assert "class gcd=3: k = 0, 3, 6" in out


def test_classify_same_type_machine(run):
    code, out, _ = run(
        "classify", "--moore", "--group", "SU:3", "--c", "9",
        "--same-type", "1", "4", "--format", "machine",
    )
    assert code == 0
    assert out == "same_type k=1 l=4 result=true"


def test_classify_trivial_needs_p(run):
    code, _, err = run("classify", "--moore", "--group", "G2", "--c", "5", "--trivial")
    assert code == 1 and "needs --p" in err
    code, out, _ = run(
        "classify", "--moore", "--group", "G2", "--c", "5", "--trivial", "--p", "5",
        "--format", "machine",
    )
    assert code == 0 and out == "trivial_case p=5 c=5 result=true"


def test_exponent_table_filter(run):
    code, out, _ = run("exponent", "--table", "exceptional", "--p", "5", "--format", "machine")
    assert code == 0
    lines = out.splitlines()
    assert sorted(lines) == [
        "exprow family=E6 primes=p=5 base=15 offset=3",
        "exprow family=F4 primes=p=5 base=15 offset=3",
        "exprow family=G2 primes=p=5 base=7 offset=1",
    ]
    code, text, _ = run("exponent", "--table", "exceptional", "--p", "11")
    assert code == 0
    assert len(text.splitlines()) == 5  # G2, F4, E6, E7, E8 all cover p = 11


def _published_lines(p: int, fmt: str) -> list[str]:
    """The published rows whose tag covers p, as `exponent --table exceptional` prints them."""
    lines = []
    for family, cond, base, offset in PUBLISHED_ROWS:
        least = int(cond.removeprefix("p>=").removeprefix("p="))
        if p == least or (cond.startswith("p>=") and p > least):
            nu = f"ν_p(c)+{offset}" if offset else "ν_p(c)"
            lines.append(
                f"exprow family={family} primes={cond} base={base} offset={offset}"
                if fmt == "machine" else f"{family:4} {cond:6} exp <= p^max({base}, {nu})"
            )
    return lines


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59])
def test_exponent_table_at_p_lists_the_published_rows_covering_p(run, fmt, p):
    got = run("exponent", "--table", "exceptional", "--p", str(p), "--format", fmt)
    assert got == (0, "\n".join(_published_lines(p, fmt)), "")


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize(
    "p, message", [("4", "expected a prime, got 4"), ("2", "odd primes only")], ids=["p4", "p2"]
)
def test_exponent_table_refuses_a_p_that_is_not_an_odd_prime(run, fmt, p, message):
    got = run("exponent", "--table", "exceptional", "--p", p, "--format", fmt)
    assert got == (1, "", f"error: {message}")


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("p", [[], ["--p", "5"]], ids=["all-p", "p5"])
def test_exponent_table_refuses_a_group(run, fmt, p):
    # the table lists every exceptional group; --group used to be ignored
    got = run("exponent", "--table", "exceptional", "--group", "G2", *p, "--format", fmt)
    assert got == (1, "", "error: this exponent question does not read --group")


_IGNORED_BY_TABLE = {
    "--c": ["--c", "25"], "--m": ["--m", "2"], "--non-spin": ["--non-spin"], "--sp": ["--sp"],
    "--stc": ["--stc"], "--route": ["--route", "regular"],
}


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("p", [[], ["--p", "7"]], ids=["all-p", "p7"])
@pytest.mark.parametrize("flag", list(_IGNORED_BY_TABLE))
def test_exponent_table_refuses_each_flag_it_would_ignore(run, fmt, p, flag):
    got = run("exponent", "--table", "exceptional", *p, *_IGNORED_BY_TABLE[flag], "--format", fmt)
    assert got == (1, "", f"error: this exponent question does not read {flag}")


def test_exponent_table_names_every_ignored_flag_in_declared_order(run):
    # --route=closed is read by argparse, not by cli._read: both paths refuse alike
    got = run("exponent", "--table", "exceptional", "--route=closed", "--stc", "--c", "5")
    assert got == (1, "", "error: this exponent question does not read --c, --stc, --route")


def test_exponent_table_passes_flags_given_at_their_defaults(run):
    # --m 1 and --route best are what an absent flag reads as
    want = run("exponent", "--table", "exceptional", "--p", "7")
    assert want[0] == 0 and want[1]
    got = run("exponent", "--table", "exceptional", "--p", "7", "--m", "1", "--route", "best")
    assert got == want
    # an absent --c reads as none, so --c 1 is a c like any other
    got = run("exponent", "--table", "exceptional", "--p", "7", "--c", "1")
    assert got == (1, "", "error: this exponent question does not read --c")


def test_exponent_table_at_3_is_empty(run):
    # an odd prime no exceptional row covers: an empty answer, not a refusal
    assert run("exponent", "--table", "exceptional", "--p", "3") == (0, "", "")


def test_closed_route_refuses_p_2(run):
    got = run("exponent", "--group", "SU:4", "--p", "2", "--route", "closed", "--c", "1")
    assert got == (1, "", "error: odd primes only")


@pytest.mark.parametrize("route", ["regular", "theriault", "closed", "moore-fiber", "best"])
def test_every_route_refuses_a_p_that_is_not_prime_alike(run, route):
    got = run("exponent", "--group", "SU:4", "--p", "4", "--route", route, "--c", "3")
    assert got == (1, "", "error: expected a prime, got 4")


def test_closed_route_refuses_an_exceptional_group_before_reading_p(run):
    got = run("exponent", "--group", "G2", "--p", "4", "--route", "closed", "--c", "3")
    assert got == (1, "", "error: no closed form for G2; use the exceptional table route")


def test_exponent_routes(run):
    code, out, _ = run(
        "exponent", "--group", "SU:4", "--p", "5", "--c", "25", "--format", "machine"
    )
    assert code == 0
    assert out == "exponent p=5 exponent=4 route=regular"
    code, out, _ = run("exponent", "--group", "SU:4", "--p", "5", "--c", "25")
    assert code == 0
    assert out.splitlines()[0] == "exp_5 <= 5^4  [route: regular]"
    code, out, _ = run(
        "exponent", "--route", "moore-fiber", "--p", "3", "--c", "27", "--format", "machine",
    )
    assert code == 0 and out == "exponent p=3 exponent=3 route=moore_fiber"


@pytest.mark.parametrize("route", ["closed", "moore-fiber"])
@pytest.mark.parametrize("c", ["0", "-3"])
def test_nu_p_routes_refuse_c_below_1(run, route, c):
    got = run("exponent", "--group", "SU:4", "--p", "3", "--route", route, "--c", c)
    assert got == (1, "", f"error: c must be >= 1, got {c}")


def test_nu_p_routes_answer_at_the_default_c(run):
    for group in (["--group", "SU:4", "--route", "closed"], ["--route", "moore-fiber"]):
        code, out, err = run("exponent", *group, "--p", "3")
        assert (code, err) == (0, "") and out.startswith("exp_3 <= 3^")


@pytest.mark.parametrize("route", ["regular", "theriault", "best"])
def test_the_routes_over_m_name_an_omitted_c(run, route):
    got = run("exponent", "--group", "SU:4", "--p", "5", "--route", route)
    assert got == (1, "", f"error: route {route} needs --c, the order of pi_1(M)")
    # a --c the user gave is checked like any order of pi_1(M)
    got = run("exponent", "--group", "SU:4", "--p", "5", "--route", route, "--c", "1")
    assert got == (1, "", "error: c must be >= 2, got 1")


def test_the_moore_fiber_route_reads_no_group(run):
    want = run("exponent", "--route", "moore-fiber", "--p", "5", "--c", "25")
    assert want == (0, "exp_5 <= 5^2  [route: moore_fiber]\n  assuming power-map fiber factor", "")
    got = run("exponent", "--route", "moore-fiber", "--p", "5", "--c", "25", "--group", "SU:4")
    assert got == (1, "", "error: this exponent question does not read --group")


@pytest.mark.parametrize("group, c", [("SU:4", "-5"), ("G2", "0"), ("SU:3", "1")])
def test_trivial_case_refuses_c_below_2(run, group, c):
    got = run("classify", "--moore", "--group", group, "--c", c, "--trivial", "--p", "5")
    assert got == (1, "", f"error: c must be >= 2, got {c}")


def test_exponent_argument_validation(run):
    code, _, err = run("exponent", "--group", "SU:4")
    assert code == 1 and "need --group and --p" in err
    code, _, err = run("exponent", "--table", "galois")
    assert code == 1 and "unknown table" in err


def test_bott_value_and_table(run):
    M = ManifoldSpec(5, 3)
    code, out, _ = run(
        "bott", "--c", "5", "--m", "3", "--family", "Spin", "--r", "6",
        "--format", "machine",
    )
    assert code == 0
    assert out == stable_pi_gauge(StableQuery(M, "Spin", 0, 6)).machine()
    code, out, _ = run("bott", "--c", "5", "--m", "3", "--family", "Spin", "--table")
    assert code == 0
    assert "r ≡ 6 (mod 8): Z ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2" in out
    code, out, _ = run("bott", "--c", "5", "--m", "2", "--non-spin", "--family", "Spin", "--r", "3")
    assert code == 0
    assert "= Z " in out  # non-spin forces the torsion-free table


def test_homology_machine_round_trip(run):
    code, out, _ = run("homology", "--c", "12", "--m", "3", "--format", "machine")
    assert code == 0
    parsed = [abelian.parse_machine(line) for line in out.splitlines()]
    assert parsed == list(homology(ManifoldSpec(12, 3)))
    code, text, _ = run("homology", "--c", "12", "--m", "3")
    assert text.splitlines()[1] == "H_1 = Z/4 ⊕ Z/3"


def test_moore_outputs(run):
    code, out, _ = run("moore", "--c", "9", "--format", "machine")
    assert code == 0
    *group_lines, tail = out.splitlines()
    assert [str(abelian.parse_machine(line)) for line in group_lines] == [
        "Z/9", "Z/9 ⊕ Z/3", "Z/9 ⊕ Z/3"
    ]
    assert records.parse(tail) == ("suspension_image", {"order": str(suspension_image_order(9))})
    code, out, _ = run("moore", "--c", "9")
    assert "pi_6(P⁴(9)) = Z/9 ⊕ Z/3" in out
    code, out, _ = run("moore", "--c", "9", "--suspension", "2", "--format", "machine")
    assert code == 0
    assert all(line.startswith("wedge kind=") for line in out.splitlines())
    code, _, err = run("moore", "--c", "10", "--suspension", "2")
    assert code == 1 and "hypothesis" in err


def test_rational_ops(run):
    code, out, _ = run("rational", "--series", "1,0,0,0,1", "--model", "3,5,7")
    assert code == 0 and out == "G × Ω⁴G"
    code, out, _ = run("rational", "--series", "1,0,0,0,1", "--model", "3,5,7", "--op", "b-star")
    assert code == 0 and out == "Ω³G"
    code, out, _ = run(
        "rational", "--c", "5", "--m", "3", "--group", "SU:4",
        "--op", "rank", "--q", "3", "--format", "machine",
    )
    assert code == 0
    X = HilbertSeries.for_manifold(ManifoldSpec(5, 3))
    model = RationalGroupModel.from_lie(LieGroupSpec("SU", 4))
    assert out == f"rank q=3 value={rational_rank_formula(X, model, 3)}"
    code, out, _ = run(
        "rational", "--series", "1,0,0,0,1", "--model", "3,5", "--op", "ring-b-star"
    )
    assert code == 0 and out == "Q[2,4,6]"
    code, _, err = run("rational", "--series", "1,0,0,0,1", "--op", "rank", "--q", "2")
    assert code == 1 and "need --model or --group" in err


AWAY = ("decompose", "--group", "SU:4", "--c", "5", "--m", "2", "--loops", "2", "--away")


@pytest.mark.parametrize(
    "argv, message",
    [
        ((*AWAY, ","), "--away needs comma-separated integers, got ','"),
        ((*AWAY, "0"), "--away 0: away_from needs integers >= 2, got 0"),
        ((*AWAY, "1"), "--away 1: away_from needs integers >= 2, got 1"),
        ((*AWAY, "6,1"), "--away 6,1: away_from needs integers >= 2, got 1"),
        (
            ("rational", "--series", "", "--group", "SU:3"),
            "expected comma-separated integers as in '1,0,2,2,0,1', b_0 first, got ''",
        ),
        (
            ("rational", "--model", "3,x"),
            "expected comma-separated integers as in '3,5/4', got '3,x'",
        ),
    ],
    ids=["away", "away-0", "away-1", "away-6,1", "series", "model"],
)
def test_a_malformed_list_is_refused_by_name(run, argv, message):
    assert run(*argv) == (1, "", f"error: {message}")


def test_catalog_override(run, tmp_path, monkeypatch):
    custom = tmp_path / "catalog.txt"
    custom.write_text("SU   3   all   99   nu_p((n-1)!)\n", encoding="utf-8")
    code, out, _ = run("classify", "--moore", "--group", "SU:3", "--c", "9", "--format", "machine")
    assert code == 0 and "ord=24" in out and "d=3 count=2" in out
    monkeypatch.setenv("GAUGE_CATALOG", str(custom))
    code, out, _ = run("classify", "--moore", "--group", "SU:3", "--c", "9", "--format", "machine")
    assert code == 0 and "ord=99" in out and "d=9 count=3" in out


def test_closed_stdout_exits_quietly():
    """A reader that has gone away (`gauge5 ... | head -0`) gives exit 1 and
    no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(gauge5.__file__).resolve().parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gauge5.cli", "homology", "--c", "12", "--m", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


SEMIPRIME = 1000000007 * 1000000009  # trial division up to its root took minutes


def _cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(gauge5.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "gauge5.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )


def _capped(argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `gauge5 argv` in a child capped at 512 MB
    of address space and 1 s of CPU time; the CPU cap kills a slow child."""
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29));"
        " resource.setrlimit(resource.RLIMIT_CPU, (1, 1));"
        " from gauge5.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gauge5.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv.split()],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_rational_normalize_at_a_huge_rank_answers_in_bounded_memory():
    # normalize reads SU(10^8)'s top rational degree from l(G); its type
    # tuple alone would not fit under the 512 MB address-space cap
    argv = "decompose --c 5 --m 2 --group SU:100000000 --loops 2 --rational --normalize"
    assert _capped(argv) == (0, "Ω²G × Ω⁴G × Ω⁵G × Ω⁷G\n", "")


@pytest.mark.parametrize(
    "argv, out",
    [
        ("--family SU --r 5", "pi_5 of the stable SU gauge group over M = Z^100000000"
         "  (stable for parameter >= 6)"),
        ("--family SU --table", "stable pi_r of SU gauge groups over M (c = 3, m = 100000000,"
         " spin, away from c)\n  r ≡ 1 (mod 2): Z^100000000\n  r ≡ 0 (mod 2): Z^100000000"),
        ("--family Spin --r 4", "pi_4 of the stable Spin gauge group over M ="
         " Z^99999999 ⊕ Z/2  (stable for parameter >= 11)"),
    ],
    ids=["SU-r5", "SU-table", "Spin-r4"],
)
def test_bott_at_a_huge_m_answers_in_bounded_memory(argv, out):
    # the Bott fold reads normalize's (shift, multiplicity) pairs; the 2m
    # shifts it once expanded them into would not fit under the cap
    assert _capped(f"bott --c 3 --m 100000000 {argv}") == (0, out + "\n", "")


@pytest.mark.parametrize("argv", HUGE_M)
def test_an_answer_past_the_listed_bound_is_refused_in_bounded_memory(argv):
    # counted before it is built: one error line, no MemoryError traceback
    code, out, err = _capped(argv)
    assert (code, out) == (1, "")
    assert re.fullmatch(
        rf"error: the answer would list \d+ summands or generators; the bound is {LISTED_BOUND}\n",
        err,
    )


# a verb's answer from the library, built the way the verb builds it
LISTED_ANSWERS = {
    "bott Spin r=5": lambda: stable_pi_gauge(StableQuery(ManifoldSpec(3, 4), "Spin", 0, 5)),
    "bott Spin r=6": lambda: stable_pi_gauge(StableQuery(ManifoldSpec(3, 4), "Spin", 0, 6)),
    "bott SU r=5": lambda: stable_pi_gauge(StableQuery(ManifoldSpec(3, 4), "SU", 0, 5)),
    # a table is counted whole: each of its rows lists fewer than all of them
    "bott Spin table": lambda: [value for _, _, value in bott_rows(ManifoldSpec(3, 4), "Spin")],
    "moore t=2": lambda: suspension_splitting(ManifoldSpec(3, 4), 2),
    "moore t=3": lambda: suspension_splitting(ManifoldSpec(5, 4), 3),
    "moore t=4": lambda: suspension_splitting(
        ManifoldSpec(3, 4, stably_parallelizable=True, single_top_cell=True), 4
    ),
    "ring-gauge": lambda: _ring("gauge"),
    "ring-b-star": lambda: _ring("b_star"),
}


def _ring(target):
    X = HilbertSeries.for_manifold(ManifoldSpec(3, 4))
    return rational_cohomology_ring(target, X, RationalGroupModel.from_lie(LieGroupSpec("SU", 4)))


def _listed(answer) -> int:
    """How many summands or generators `answer` prints, one by one."""
    if isinstance(answer, list):
        return sum(map(_listed, answer))
    if isinstance(answer, abelian.FGAbelianGroup):
        return (answer.free_rank > 0) + len(answer.torsion)  # Z^k prints once
    return len(answer.atoms if hasattr(answer, "atoms") else answer.generators)


@pytest.mark.parametrize("build", LISTED_ANSWERS.values(), ids=LISTED_ANSWERS)
def test_the_bound_counts_exactly_what_an_answer_lists(monkeypatch, build):
    answer = build()
    n = _listed(answer)
    monkeypatch.setattr(errors, "LISTED_BOUND", n)
    assert build() == answer
    monkeypatch.setattr(errors, "LISTED_BOUND", n - 1)
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == (
        f"the answer would list {n} summands or generators; the bound is {n - 1}"
    )


# -- the process entry ----------------------------------------------------------------

ENTRY_CASES = (
    [(shlex.split(command), 0) for command, _ in EXAMPLES]
    + [(["decompose", "--group", "SU:4", "--c", "6", "--m", "2", "--loops", "2"], 1)]
    + [(shlex.split(command), 1) for command in REFUSALS]
    + [(["homology", "--c", "x"], 2)]
    + [(["decompose", "--help"], 0)]
)


@pytest.mark.parametrize(
    "argv, code", ENTRY_CASES, ids=[" ".join(argv) for argv, _ in ENTRY_CASES]
)
def test_a_process_prints_what_main_prints(capsys, argv, code):
    proc = _cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == _outcome(capsys, main, argv)
    assert proc.returncode == code


@pytest.fixture
def exits(monkeypatch, capsys):
    """Each `os._exit(code)` call as (code, stdout, stderr written by then);
    the patched exit returns, so no test ends the test process."""
    calls = []
    monkeypatch.setattr(os, "_exit", lambda code: calls.append((code, *capsys.readouterr())))
    return calls


def test_main_returns_and_never_calls_os_exit(run, exits):
    assert run("homology", "--c", "12", "--m", "3")[0] == 0
    assert exits == []


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["homology", "--c", "12", "--m", "3"], 0, "H_0 = Z\n", ""),
        (["moore", "--c", "1"], 1, "", "error: c must be >= 2, got 1\n"),
    ],
    ids=["answer", "refusal"],
)
def test_launch_exits_with_mains_code_after_the_output(monkeypatch, exits, argv, code, out, err):
    monkeypatch.setattr(sys, "argv", ["gauge5", *argv])
    cli.launch()
    assert len(exits) == 1
    got_code, got_out, got_err = exits[0]
    assert (got_code, got_err) == (code, err) and got_out.startswith(out)


def test_launch_exits_1_when_the_flush_meets_a_closed_pipe(monkeypatch, exits):
    class Closed(io.StringIO):
        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "argv", ["gauge5", "homology", "--c", "12"])
    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(sys, "stdout", Closed())
    cli.launch()
    assert [code for code, _, _ in exits] == [1]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["homology", "--c", "x"], 2)],
                         ids=["help", "usage"])
def test_help_and_usage_errors_leave_launch_by_system_exit(monkeypatch, exits, argv, code):
    monkeypatch.setattr(sys, "argv", ["gauge5", *argv])
    with pytest.raises(SystemExit) as info:
        cli.launch()
    assert info.value.code == code and exits == []


def test_an_exception_from_a_runner_propagates_without_os_exit(monkeypatch, exits):
    def boom(args):
        raise RuntimeError("boom")

    help_text, flags, _ = cli._VERBS["homology"]
    monkeypatch.setitem(cli._VERBS, "homology", (help_text, flags, boom))
    monkeypatch.setattr(sys, "argv", ["gauge5", "homology", "--c", "12"])
    with pytest.raises(RuntimeError, match="boom"):
        cli.launch()
    assert exits == []


def test_the_installed_script_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    block = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    entry = block.body[0].value.args[0].func.id
    assert ast.unparse(block.body[0]) == f"sys.exit({entry}())"
    assert scripts == {"gauge5": f"gauge5.cli:{entry}"}


def test_semiprime_c_answers_in_a_subprocess():
    proc = _cli("homology", "--c", str(SEMIPRIME), "--m", "2")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "H_1 = Z/1000000007 ⊕ Z/1000000009" in proc.stdout.splitlines()
    proc = _cli(
        "decompose", "--c", str(SEMIPRIME), "--m", "2", "--group", "SU:4", "--away-from-c",
        "--format", "machine",
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("expr localization=away:1000000007,1000000009 ")


def test_c_beyond_the_primality_bound_is_refused_in_a_subprocess():
    proc = _cli("homology", "--c", "9000000000000000000000067", "--m", "2")  # a 25-digit prime
    assert proc.returncode == 1 and proc.stdout == ""
    assert "3317044064679887385961981" in proc.stderr and "Traceback" not in proc.stderr


def test_a_huge_rank_is_refused_without_building_its_type_in_a_subprocess():
    """l(SU(n)) is read as n - 1, not off a tuple of n - 1 exponents."""
    proc = _cli("exponent", "--group", "SU:1000000000000", "--p", "3", "--c", "3", "--m", "2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "not p-regular" in proc.stderr and "loop-filtration range" in proc.stderr


BEYOND_BOUND = 3317044064679887385962123  # factorize refuses it


@pytest.mark.parametrize(
    "argv, out",
    [
        (("--loops", "2", "--at-p", "5"), "Ω²G × Ω⁴G × Ω⁵G × Ω⁷G"),
        (("--loops", "3", "--sp", "--stc", "--rational"), "Ω³G × Ω⁵G × Ω⁶G"),
    ],
    ids=["at-p", "rational"],
)
def test_normalize_answers_without_the_factors_of_c(argv, out):
    """Under --at-p or --rational, normalize needs only whether the context
    inverts c, not the primes of c, so a c that cannot be factored answers."""
    proc = _cli(
        "decompose", "--group", "SU:4", "--c", str(BEYOND_BOUND), "--m", "2", *argv, "--normalize"
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out + "\n", "")


def test_stable_tables_answer_for_a_c_beyond_the_primality_bound():
    """The stable layer reads c only through its parity, so an odd c that
    cannot be factored gets the table of every other odd c."""
    for family in ("SU", "Spin"):
        for m in (1, 2, 5):
            got = gauge5.bott_table(ManifoldSpec(BEYOND_BOUND, m), family)
            want = gauge5.bott_table(ManifoldSpec(3, m), family)
            assert got == want.replace("c = 3,", f"c = {BEYOND_BOUND},")
    q = StableQuery(ManifoldSpec(BEYOND_BOUND, 2), "Spin", 0, 6)
    assert str(stable_pi_gauge(q)) == "Z ⊕ Z/2 ⊕ Z/2"


def test_stable_verbs_answer_for_a_c_beyond_the_primality_bound_in_a_subprocess():
    manifold = ("--c", str(BEYOND_BOUND), "--m", "2")
    proc = _cli("bott", "--family", "Spin", *manifold, "--table")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "  r ≡ 6 (mod 8): Z ⊕ Z/2 ⊕ Z/2" in proc.stdout.splitlines()
    proc = _cli("bott", "--family", "SU", *manifold, "--r", "7")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("pi_7 of the stable SU gauge group over M = Z^2 ")


# -- a launch against the full parser -----------------------------------------------


def _full_parser_main(argv: list[str]) -> int:
    """The full parser, then args.run: the rendering every launch must match."""
    args = build_parser().parse_args(argv)
    try:
        output = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if output:
        print(output)
    return 0


def _outcome(capsys, entry, argv: list[str]) -> tuple:
    try:
        code = entry(list(argv))
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARITY_ARGV = (
    [shlex.split(command) for command, _ in EXAMPLES]
    + [["--help"]]
    + [[verb, "--help"] for verb in cli._VERBS]
    + [[], ["bogus"], ["homolog"]]
    + [["homology", "--c", "5", "extra"], ["homology", "--c", "x"]]
    + [["homology", "--c", "5", "--format", "yaml"]]
    + [["classify", "--moore", "--c", "9"], ["decompose", "--c", "5", "--loops", "2"]]
    + [["decompose", "--c", "5", "--group", "SU:4", "--loops", "2", "--at-p", "3", "--rational"]]
    + [["exponent", "--group", "--non-spin"], ["homology", "--c", "-5"], ["homology", "--m", "2"]]
)


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=[" ".join(a) or "(none)" for a in PARITY_ARGV])
def test_a_launch_prints_what_the_full_parser_prints(capsys, argv):
    assert _outcome(capsys, main, argv) == _outcome(capsys, _full_parser_main, argv)


def test_only_a_fallback_launch_registers_verbs(monkeypatch, capsys):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert main(["homology", "--c", "12", "--m", "3"]) == 0
    assert added == []  # a well-formed argv is read without argparse
    with pytest.raises(SystemExit):
        main(["homology", "--c", "x"])
    assert added == list(cli._VERBS)
    capsys.readouterr()


# -- the argv reader ------------------------------------------------------------------


def _declared(verb: str) -> dict:
    """flag -> (argparse keyword arguments, its exclusive group or None)."""
    return {
        flag: (kw, "localization" if flag in cli._LOCALIZATION else None)
        for flag, kw in cli._VERBS[verb][1].items()
    }


_MODELLED = {"type", "choices", "default", "required", "dest", "nargs", "action", "help", "metavar"}


@pytest.mark.parametrize("verb", cli._VERBS)
def test_the_table_holds_only_what_the_reader_models(verb):
    """`_read` models these keywords and no others; a typed flag's default
    must not be a string, since argparse would pass it through the type. A
    verb takes all of the exclusive localization flags or none."""
    flags = _declared(verb)
    assert flags.keys() & cli._LOCALIZATION.keys() in (set(), cli._LOCALIZATION.keys())
    for flag, (kw, _) in flags.items():
        assert flag.startswith("--") and kw.keys() <= _MODELLED, flag
        assert kw.get("nargs", 1) in (1, 2), flag
        assert kw.get("action") in (None, "store_true", "store_false"), flag
        assert not ("type" in kw and isinstance(kw.get("default"), str)), flag


def _parse_full(argv: list[str]):
    """The full parser's namespace as a dict, or None on a usage error."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize("command", [c for c, _ in EXAMPLES])
def test_the_reader_reads_every_readme_command(command):
    argv = shlex.split(command)
    got = cli._read(argv[0], argv[1:])
    assert got is not None and vars(got) == _parse_full(argv)


@pytest.mark.parametrize("verb", cli._VERBS)
def test_the_reader_models_every_declared_flag(verb):
    """The verb's required flags alone (every default), then every flag once
    (the first of an exclusive group): both read without falling back."""
    required, every, groups = [verb], [verb], set()
    for flag, (kw, group) in _declared(verb).items():
        if group is not None:
            if id(group) in groups:
                continue
            groups.add(id(group))
        value = str(kw["choices"][-1]) if "choices" in kw else "3"
        tokens = [flag] + ([] if "action" in kw else [value] * kw.get("nargs", 1))
        every += tokens
        required += tokens if kw.get("required") else []
    for argv in (required, every):
        got = cli._read(verb, argv[1:])
        assert got is not None and vars(got) == _parse_full(argv), argv


_JUNK = ["-5", "--c=5", "--norm", "--", "-h", "", "--format", "yaml", "x"]


@st.composite
def _argv(draw) -> list[str]:
    """A verb, mostly its required flags, then flags with mostly valid
    values, mixed with junk tokens."""
    verb = draw(st.sampled_from(list(cli._VERBS)))
    declared = _declared(verb)

    def flag_and_values(flag: str) -> list[str]:
        kw = declared[flag][0]
        n = 0 if "action" in kw else kw.get("nargs", 1)
        if not draw(st.integers(0, 5)):
            n = draw(st.integers(0, 3))
        valid = [str(c) for c in kw["choices"]] if "choices" in kw else ["2", "12", "SU:4"]
        return [flag] + [
            draw(st.sampled_from(valid if draw(st.integers(0, 5)) else _JUNK)) for _ in range(n)
        ]

    argv = [verb]
    for flag, (kw, _) in declared.items():
        if kw.get("required") and draw(st.integers(0, 5)):
            argv += flag_and_values(flag)
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)):
            argv += flag_and_values(draw(st.sampled_from(sorted(declared))))
        else:
            argv.append(draw(st.sampled_from(_JUNK)))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_the_reader_agrees_with_argparse_or_defers_to_it(argv):
    got = cli._read(argv[0], argv[1:])
    assert got is None or vars(got) == _parse_full(argv)


def test_bare_import_loads_no_submodule():
    assert loaded_after("import gauge5") == ["gauge5"]


# every launch loads these; each verb adds the modules it computes with
_LAUNCH_CORE = "abelian arith cli errors localization manifold records value"
# one README argv per verb -> the other gauge5 modules its launch loads
LAUNCH_MODULES = {
    "decompose --c 5 --m 2 --group SU:4 --k 1 --loops 2": "decomposition lie spaces",
    "classify --moore --group SU:3 --c 9": "classification lie",
    "exponent --group SU:4 --p 5 --c 25": "exponents lie",
    "bott --c 5 --m 3 --family Spin --table": "bott decomposition lie spaces",
    "rational --series 1,0,0,0,1 --model 3,5,7": "lie rational spaces",
    "moore --c 9": "",
    "homology --c 12 --m 3": "",
}


def test_the_launch_table_has_one_readme_argv_per_verb():
    assert sorted(argv.split()[0] for argv in LAUNCH_MODULES) == sorted(cli._VERBS)
    assert set(LAUNCH_MODULES) <= {command for command, _ in EXAMPLES}


@pytest.mark.parametrize("argv", LAUNCH_MODULES)
def test_a_launch_loads_exactly_what_its_verb_needs(argv):
    code = f"from gauge5.cli import main; main({shlex.split(argv)!r})"
    loaded = loaded_after(code, prefix="")
    names = f"{_LAUNCH_CORE} {LAUNCH_MODULES[argv]}".split()
    assert [m for m in loaded if m.startswith("gauge5")] == sorted(
        ["gauge5", *(f"gauge5.{n}" for n in names)]
    )
    assert "argparse" not in loaded


PUBLIC_NAMES = """
    CatalogError ClassificationReport ExponentBound FGAbelianGroup GeneratorLedger
    HilbertSeries HypothesisError LieGroupSpec Localization ManifoldSpec
    RationalGroupModel SpaceAtom SpaceExpr StableQuery best_bound bott_table
    bundle_classes classify_looped_manifold classify_moore dirichlet_min
    divisor_count em_expansion exceptional_table
    exp_bound_closed_form exp_bound_regular exp_bound_theriault exp_moore_fiber factorize
    gauge_away_from_c gcd_class homology in_theriault_range is_p_regular l_of
    legendre_valuation loops2_gauge loops3_gauge nu_p ord_partial1_tilde pi6_P4 pi7_P5
    pi_moore_self pi_with_coefficients r_of rational_B_star
    rational_cohomology_ring rational_degrees rational_gauge rational_rank_formula
    same_type_moore stability_threshold stable_pi stable_pi_gauge suspension_image_order
    suspension_splitting trivial_case type_of
""".split()


def test_public_names_resolve_to_their_defining_modules():
    assert gauge5.__all__ == PUBLIC_NAMES and len(PUBLIC_NAMES) == 57
    for name in gauge5.__all__:
        obj = getattr(gauge5, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("gauge5.") and getattr(home, name) is obj, name
    assert set(gauge5.__all__) <= set(dir(gauge5))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        gauge5.nope


def test_submodules_resolve_after_a_bare_import():
    names = ["abelian", "arith", "bott", "classification", "cli", "decomposition", "exponents",
             "lie", "localization", "manifold", "rational", "spaces"]
    code = (
        "import gauge5\n"
        f"assert [getattr(gauge5, n).__name__ for n in {names!r}] == "
        f"{[f'gauge5.{n}' for n in names]!r}\n"
        "gauge5.lie.load_catalog()"
    )
    assert {f"gauge5.{n}" for n in names} <= set(loaded_after(code))
