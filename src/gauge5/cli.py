"""Command-line front end.

One verb per computation family:

  classify   homotopy-type counts (Moore space or looped over M)
  decompose  product decompositions of (looped) gauge groups
  exponent   homotopy-exponent upper bounds and the exceptional table
  bott       stable homotopy of SU / Spin gauge groups
  rational   Hilbert-series driven rational decompositions
  moore      Moore-space homotopy groups and suspension splittings
  homology   integral homology of the manifold

Every verb takes --format text|machine. Machine output is one `tag key=value`
record per line (records.py). Two records omit what the text shows: `exponent`
leaves out the bound's assumptions and alternatives, and `wedge` leaves out an
opaque summand's tag and homology ledger. Hypothesis failures exit nonzero with
the failed condition named on stderr. A flag away from its `_VERBS` default
that the verb's runner never reads is refused, not ignored (see `main`).

Each verb's flags are declared once, as data in `_VERBS`. A well-formed argv
is read from that table without importing argparse (`_read`); --help, usage
errors and argv the reader does not model go to the argparse parser that
`build_parser` builds from the same table, so every help and error text is
argparse's own.

A `gauge5` process enters through `launch`, not `main`: once the answer is
flushed it ends the process with `os._exit`, so the interpreter's
finalization (atexit handlers, module teardown, the exit-time collection)
never runs; no output changes. `main` returns like any function, because
tests, the benchmark and code that embeds gauge5 call it in process.
"""

import os
import sys
from types import SimpleNamespace

from . import records


def _manifold_flags(c_default: int | None = None) -> dict:
    """The manifold flags; --c is required unless the verb gives a default."""
    return {
        "--c": dict(type=int, required=c_default is None, default=c_default,
                    help="order of pi_1(M)"),
        "--m": dict(type=int, default=1, help="rank of H_2 plus one"),
        "--non-spin": dict(dest="spin", action="store_false"),
        "--sp": dict(action="store_true", help="stably parallelizable"),
        "--stc": dict(action="store_true", help="single top cell"),
    }


def _manifold(args):
    from .manifold import ManifoldSpec

    return ManifoldSpec(
        c=args.c,
        m=args.m,
        spin=args.spin,
        stably_parallelizable=args.sp,
        single_top_cell=args.stc,
    )


# the one mutually exclusive group: a verb that takes these takes all three
_LOCALIZATION = {
    "--at-p": dict(type=int, metavar="P", help="localize at the prime P"),
    "--away": dict(metavar="N[,N...]", help="invert the primes of these numbers"),
    "--rational": dict(action="store_true", help="rationalize"),
}


def _localization(args):
    from .localization import Localization

    if args.at_p is not None:
        return Localization.at_prime(args.at_p)
    if args.away is not None:
        try:
            numbers = [int(x) for x in args.away.split(",")]
        except ValueError:
            raise ValueError(f"--away needs comma-separated integers, got {args.away!r}") from None
        try:
            return Localization.away_from(numbers)
        except ValueError as exc:
            raise ValueError(f"--away {args.away}: {exc}") from None
    if args.rational:
        return Localization.rational()
    return None


# -- verbs ---------------------------------------------------------------------
# Each runner imports what it uses, so a launch loads one verb's modules.


def _run_classify(args) -> str:
    from .classification import (
        classify_looped_manifold,
        classify_moore,
        same_type_moore,
        trivial_case,
    )
    from .lie import LieGroupSpec

    G = LieGroupSpec.parse(args.group)
    moore = args.moore  # --same-type and --trivial ask about P⁴(c) too
    if args.same_type:
        k, l = args.same_type
        result = same_type_moore(k, l, G, args.c)
        if args.format == "machine":
            return records.record("same_type", k=k, l=l, result=result)
        if result:
            return f"k = {k} and k = {l}: equivalent at every prime (sufficient condition holds)"
        return f"k = {k} and k = {l}: condition fails (no equivalence claimed either way)"
    if args.trivial:
        if args.p is None:
            raise ValueError("--trivial needs --p")
        result = trivial_case(G, args.p, args.c)
        if args.format == "machine":
            return records.record("trivial_case", p=args.p, c=args.c, result=result)
        verdict = "holds" if result else "does not hold"
        return f"one-type criterion for ({G}, p={args.p}, c={args.c}): {verdict}"
    if moore:
        report = classify_moore(G, args.c)
    else:
        if args.loops is None:
            raise ValueError("classification over M needs --loops 2 or --loops 3")
        report = classify_looped_manifold(_manifold(args), G, args.loops, _localization(args))
    return report.machine() if args.format == "machine" else report.table()


def _run_decompose(args) -> str:
    from .decomposition import gauge_away_from_c, loops2_gauge, loops3_gauge
    from .lie import LieGroupSpec

    G = LieGroupSpec.parse(args.group)
    M = _manifold(args)
    ctx = _localization(args)
    if args.away_from_c:
        if ctx is not None:
            raise ValueError("--away-from-c sets its own localization")
        expr = gauge_away_from_c(M, G, args.k)
    elif args.loops == 2:
        expr = loops2_gauge(M, G, args.k, ctx)
    elif args.loops == 3:
        expr = loops3_gauge(M, G, args.k, ctx)
    else:
        raise ValueError("need --loops 2, --loops 3, or --away-from-c")
    if args.normalize:
        expr = expr.normalize()
    return expr.machine() if args.format == "machine" else expr.pretty()


def _run_exponent(args) -> str:
    from . import exponents
    from .lie import LieGroupSpec, _require_odd_prime

    if args.table:
        if args.table != "exceptional":
            raise ValueError(f"unknown table {args.table!r}")
        rows = exponents.exceptional_table()
        if args.p is not None:
            _require_odd_prime(args.p)
            rows = [row for row in rows if row._holds_at(args.p, None)]
        if args.format == "machine":
            return "\n".join(
                records.record(
                    "exprow", family=r.family, primes=r.prime_cond, base=r.base, offset=r.offset
                )
                for r in rows
            )
        lines = []
        for r in rows:
            nu = f"ν_p(c)+{r.offset}" if r.offset else "ν_p(c)"
            lines.append(f"{r.family:4} {r.prime_cond:6} exp <= p^max({r.base}, {nu})")
        return "\n".join(lines)
    if args.p is None or (args.route != "moore-fiber" and args.group is None):
        raise ValueError("need --group and --p (or --table exceptional)")
    c = 1 if args.c is None else args.c  # ν_p(1) = 0: the ν_p routes answer without --c
    if args.route == "moore-fiber":
        bound = exponents.exp_moore_fiber(c, args.p)
    elif args.route == "closed":
        bound = exponents.exp_bound_closed_form(LieGroupSpec.parse(args.group), args.p, c)
    else:
        G = LieGroupSpec.parse(args.group)
        if args.c is None:
            raise ValueError(f"route {args.route} needs --c, the order of pi_1(M)")
        route = {"regular": exponents.exp_bound_regular, "theriault": exponents.exp_bound_theriault,
                 "best": exponents.best_bound}[args.route]
        bound = route(_manifold(args), G, args.p)
    if args.format == "machine":
        return records.record("exponent", p=bound.p, exponent=bound.exponent, route=bound.route)
    lines = [f"exp_{bound.p} <= {bound.p}^{bound.exponent}  [route: {bound.route}]"]
    for a in bound.assumptions:
        lines.append(f"  assuming {a}")
    for alt in bound.alternatives:
        lines.append(f"  (also applicable: {alt})")
    return "\n".join(lines)


def _run_bott(args) -> str:
    from .bott import StableQuery, bott_rows, bott_table, stability_threshold, stable_pi_gauge

    M = _manifold(args)
    ctx = "away_2c" if args.away_2c or not M.spin else "away_c"
    if args.table:
        if args.format == "machine":
            return "\n".join(
                records.record("row", r=r, period=period) + "\n" + value.machine()
                for r, period, value in bott_rows(M, args.family, args.k, ctx)
            )
        return bott_table(M, args.family, args.k, ctx)
    if args.r is None:
        raise ValueError("need --r (or --table)")
    q = StableQuery(M, args.family, args.k, args.r, ctx)
    value = stable_pi_gauge(q)
    if args.format == "machine":
        return value.machine()
    n_min = stability_threshold(args.family, args.r)
    return (
        f"pi_{args.r} of the stable {args.family} gauge group over M = {value}"
        f"  (stable for parameter >= {n_min})"
    )


def _run_rational(args) -> str:
    from .lie import LieGroupSpec
    from .rational import (
        HilbertSeries,
        RationalGroupModel,
        em_expansion,
        rational_B_star,
        rational_cohomology_ring,
        rational_gauge,
        rational_rank_formula,
    )

    if args.series is not None:
        X = HilbertSeries.parse(args.series)
    else:
        X = HilbertSeries.for_manifold(_manifold(args))
    if args.model is not None:
        G = RationalGroupModel.parse(args.model)
    elif args.group is not None:
        G = RationalGroupModel.from_lie(LieGroupSpec.parse(args.group))
    else:
        raise ValueError("need --model or --group")
    if args.op == "gauge":
        expr = rational_gauge(X, G, args.based)
    elif args.op == "b-star":
        expr = rational_B_star(X, G)
    elif args.op == "em":
        expr = em_expansion(X, G, args.based)
    elif args.op == "rank":
        if args.q is None:
            raise ValueError("op rank needs --q")
        rank = rational_rank_formula(X, G, args.q, args.based)
        if args.format == "machine":
            return records.record("rank", q=args.q, value=rank)
        return f"rank pi_{args.q} ⊗ Q = {rank}"
    else:
        args.based  # a ring has no based form; bench/workloads.py::rational_args draws it
        target = "gauge" if args.op == "ring-gauge" else "b_star"
        ledger = rational_cohomology_ring(target, X, G)
        return ledger.machine() if args.format == "machine" else str(ledger)
    return expr.machine() if args.format == "machine" else expr.pretty()


def _run_moore(args) -> str:
    from .manifold import pi6_P4, pi_moore_self, suspension_image_order, suspension_splitting

    c = args.c
    if args.suspension is not None:
        wedge = suspension_splitting(_manifold(args), args.suspension)
        if args.format == "machine":
            rows = (records.record("wedge", kind=a.kind, n=a.n, c=a.c) for a in wedge.atoms)
            return "\n".join(rows)
        return str(wedge)
    pi6 = pi6_P4(c)
    groups = [pi_moore_self(3, c), pi6, pi6]  # pi7_P5 is pi6_P4
    if args.format == "machine":
        tail = records.record("suspension_image", order=suspension_image_order(c))
        return "\n".join([g.machine() for g in groups] + [tail])
    return "\n".join(
        [
            f"pi_3(P³({c})) = {groups[0]}",
            f"pi_6(P⁴({c})) = {groups[1]}",
            f"pi_7(P⁵({c})) = {groups[2]}",
            f"suspension image order in pi_6: {suspension_image_order(c)}",
        ]
    )


def _run_homology(args) -> str:
    from .manifold import homology

    groups = homology(_manifold(args))
    if args.format == "machine":
        return "\n".join(g.machine() for g in groups)
    return "\n".join(f"H_{n} = {g}" for n, g in enumerate(groups))


# -- the flag table ------------------------------------------------------------

# verb -> (help, {flag: its argparse keyword arguments}, runner); `_read`
# models only the keywords used here (see tests/test_cli.py)
_VERBS = {
    "classify": ("homotopy-type counts", {
        **_manifold_flags(),
        "--group": dict(required=True, help="e.g. SU:3 or G2"),
        "--loops": dict(type=int, choices=(2, 3)),
        "--moore": dict(action="store_true", help="over P⁴(c) instead of M"),
        "--same-type": dict(nargs=2, type=int, metavar=("K", "L")),
        "--trivial": dict(action="store_true", help="one-type criterion"),
        "--p": dict(type=int),
        **_LOCALIZATION,
    }, _run_classify),
    "decompose": ("gauge-group decompositions", {
        **_manifold_flags(),
        "--group": dict(required=True),
        "--k": dict(type=int, default=0),
        "--loops": dict(type=int, choices=(2, 3)),
        "--away-from-c": dict(action="store_true"),
        "--normalize": dict(action="store_true"),
        **_LOCALIZATION,
    }, _run_decompose),
    "exponent": ("homotopy-exponent bounds", {
        "--table": dict(help="'exceptional' for the table of bounds"),
        "--group": dict(),
        "--p": dict(type=int),
        **_manifold_flags(),
        "--c": dict(type=int, help="order of pi_1(M)"),  # optional: the ν_p routes read 1
        "--route": dict(choices=("regular", "theriault", "closed", "moore-fiber", "best"),
                        default="best"),
    }, _run_exponent),
    "bott": ("stable homotopy of gauge groups", {
        **_manifold_flags(),
        "--family": dict(choices=("SU", "Spin"), required=True),
        "--r": dict(type=int),
        "--k": dict(type=int, default=0),
        "--away-2c": dict(action="store_true"),
        "--table": dict(action="store_true"),
    }, _run_bott),
    "rational": ("rational decompositions", {
        "--series": dict(help="Hilbert series, e.g. 1,0,2,2,0,1"),
        **_manifold_flags(c_default=2),
        "--model": dict(help="generator degrees, e.g. 3,5/4"),
        "--group": dict(help="Lie group to model, e.g. SU:4"),
        "--op": dict(choices=("gauge", "b-star", "em", "rank", "ring-gauge", "ring-b-star"),
                     default="gauge"),
        "--q": dict(type=int),
        "--based": dict(action="store_true"),
    }, _run_rational),
    "moore": ("Moore-space homotopy data", {
        **_manifold_flags(),
        "--suspension": dict(type=int, choices=(2, 3, 4)),
    }, _run_moore),
    "homology": ("integral homology of M", _manifold_flags(), _run_homology),
}
# every verb then takes --format
_FORMAT = dict(choices=("text", "machine"), default="text")
_VERBS = {
    verb: (h, {**flags, "--format": _FORMAT}, run) for verb, (h, flags, run) in _VERBS.items()
}

_FLAG_DEFAULTS = {None: None, "store_true": False, "store_false": True}


def _slots(verb: str) -> dict:
    """flag -> (namespace name, default) of each flag `_VERBS` declares for `verb`."""
    return {flag: (kw.get("dest", flag[2:].replace("-", "_")),
                   kw.get("default", _FLAG_DEFAULTS[kw.get("action")]))
            for flag, kw in _VERBS[verb][1].items()}


def _read(verb: str, argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args([verb, *argv])` returns, read
    from the flags `_VERBS` declares for `verb`, or None where argparse must
    decide.

    None covers every token that is not a declared flag (abbreviations,
    --flag=value, -h, --), a value that starts with '-', is missing, fails
    its type or lies outside its choices, two localization flags and a
    missing required flag. As in argparse, a repeated flag's last value wins.
    """
    _, flags, run = _VERBS[verb]
    slots = _slots(verb)
    values = dict(slots.values())
    given = set()
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in flags:
            return None
        kw = flags[flag]
        if flag in _LOCALIZATION and given & _LOCALIZATION.keys() - {flag}:
            return None
        if kw.get("action"):
            value = kw["action"] == "store_true"
            i += 1
        else:
            n = kw.get("nargs", 1)
            tokens = argv[i + 1 : i + 1 + n]
            if len(tokens) < n or any(t.startswith("-") for t in tokens):
                return None
            try:
                got = [kw.get("type", str)(t) for t in tokens]
            except (TypeError, ValueError):
                return None
            if "choices" in kw and any(v not in kw["choices"] for v in got):
                return None
            value = got if "nargs" in kw else got[0]
            i += 1 + n
        values[slots[flag][0]] = value
        given.add(flag)
    if any(kw.get("required") and flag not in given for flag, kw in flags.items()):
        return None
    return SimpleNamespace(verb=verb, **values, run=run)


def build_parser():
    """The gauge5 argparse parser, every verb with the flags `_VERBS` declares.

    `main` reads a well-formed argv without it (see `_read`) and builds it
    only for --help, usage errors and argv the reader does not model.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="gauge5",
        description="homotopy invariants of gauge groups over 5-manifolds"
        " with cyclic fundamental group",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, flags, run) in _VERBS.items():
        sub = verbs.add_parser(name, help=help_text)
        group = sub.add_mutually_exclusive_group() if "--at-p" in flags else None
        for flag, kw in flags.items():
            (group if flag in _LOCALIZATION else sub).add_argument(flag, **kw)
        sub.set_defaults(run=run)
    return parser


class _Reads(SimpleNamespace):
    """A parsed argv that adds to `read` the name of each attribute looked up."""

    def __getattribute__(self, name):
        super().__getattribute__("read").add(name)
        return super().__getattribute__(name)


def main(argv: list[str] | None = None) -> int:
    """Run the verb argv names. After the runner answers, and before anything
    is printed, a flag away from its `_VERBS` default that the runner never
    read is refused, every such flag in one line: it would answer a question
    the user did not ask. A runner's own refusal comes first."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv[0], argv[1:]) if argv and argv[0] in _VERBS else None
    if args is None:
        args = build_parser().parse_args(argv)
    args = _Reads(**vars(args), read=set())
    try:
        output = args.run(args)
        unread = [flag for flag, (name, default) in _slots(args.verb).items()
                  if name not in args.read and getattr(args, name) != default]
        if unread:
            raise ValueError(f"this {args.verb} question does not read {', '.join(unread)}")
    except ValueError as exc:  # the base of HypothesisError and CatalogError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if output:
            print(output, flush=True)
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the exit-time flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def launch():
    """The process entry (`gauge5`, `python -m gauge5.cli`): `main`, a flush,
    then `os._exit` with its code (1 if the flush meets a closed pipe), so no
    finalization runs. argparse's SystemExit (--help, usage errors) and an
    unexpected exception leave through the normal interpreter exit."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    sys.exit(launch())
