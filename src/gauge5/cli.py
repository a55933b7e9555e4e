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
record per line (records.py); `exponent` records omit the bound's assumptions
and alternatives, and `wedge` records an opaque summand's tag and homology
ledger. Hypothesis failures exit nonzero with the failed condition named on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import records
from .bott import StableQuery, bott_rows, bott_table, stability_threshold, stable_pi_gauge
from .classification import (
    classify_looped_manifold,
    classify_moore,
    same_type_moore,
    trivial_case,
)
from .decomposition import gauge_away_from_c, loops2_gauge, loops3_gauge
from .errors import CatalogError, HypothesisError
from .exponents import (
    best_bound,
    exceptional_table,
    exp_bound_closed_form,
    exp_bound_regular,
    exp_bound_theriault,
    exp_moore_fiber,
)
from .lie import LieGroupSpec, prime_cond_holds
from .localization import Localization
from .manifold import (
    ManifoldSpec,
    homology,
    pi6_P4,
    pi_moore_self,
    suspension_image_order,
    suspension_splitting,
)
from .rational import (
    HilbertSeries,
    RationalGroupModel,
    em_expansion,
    rational_B_star,
    rational_cohomology_ring,
    rational_gauge,
    rational_rank_formula,
)


def _add_manifold_args(sub: argparse.ArgumentParser, c_default: int | None = None) -> None:
    """The manifold flags; --c is required unless the verb gives a default."""
    sub.add_argument(
        "--c", type=int, required=c_default is None, default=c_default,
        help="order of pi_1(M)",
    )
    sub.add_argument("--m", type=int, default=1, help="rank of H_2 plus one")
    sub.add_argument("--non-spin", dest="spin", action="store_false")
    sub.add_argument("--sp", action="store_true", help="stably parallelizable")
    sub.add_argument("--stc", action="store_true", help="single top cell")


def _manifold(args: argparse.Namespace) -> ManifoldSpec:
    return ManifoldSpec(
        c=args.c,
        m=args.m,
        spin=args.spin,
        stably_parallelizable=args.sp,
        single_top_cell=args.stc,
    )


def _add_localization_args(sub: argparse.ArgumentParser) -> None:
    excl = sub.add_mutually_exclusive_group()
    excl.add_argument("--at-p", type=int, metavar="P", help="localize at the prime P")
    excl.add_argument("--away", metavar="N[,N...]", help="invert the primes of these numbers")
    excl.add_argument("--rational", action="store_true", help="rationalize")


def _localization(args: argparse.Namespace) -> Localization | None:
    if args.at_p is not None:
        return Localization.at_prime(args.at_p)
    if args.away is not None:
        return Localization.away_from([int(x) for x in args.away.split(",")])
    if args.rational:
        return Localization.rational()
    return None


def _add_format_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "machine"), default="text")


# -- verbs ---------------------------------------------------------------------


def _run_classify(args: argparse.Namespace) -> str:
    G = LieGroupSpec.parse(args.group)
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
    if args.moore:
        report = classify_moore(G, args.c)
    else:
        if args.loops is None:
            raise ValueError("classification over M needs --loops 2 or --loops 3")
        report = classify_looped_manifold(_manifold(args), G, args.loops, _localization(args))
    return report.machine() if args.format == "machine" else report.table()


def _run_decompose(args: argparse.Namespace) -> str:
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


def _run_exponent(args: argparse.Namespace) -> str:
    if args.table:
        if args.table != "exceptional":
            raise ValueError(f"unknown table {args.table!r}")
        rows = exceptional_table()
        if args.p is not None:
            rows = [row for row in rows if prime_cond_holds(row.prime_cond, args.p)]
        if args.format == "machine":
            return "\n".join(
                records.record(
                    "exprow", family=r.family, primes=r.prime_cond, base=r.base, offset=r.offset
                )
                for r in rows
            )
        return "\n".join(
            f"{r.family:4} {r.prime_cond:6} exp <= p^{r.bound_text()}" for r in rows
        )
    if args.group is None or args.p is None:
        raise ValueError("need --group and --p (or --table exceptional)")
    G = LieGroupSpec.parse(args.group)
    if args.route == "closed":
        bound = exp_bound_closed_form(G, args.p, args.c)
    elif args.route == "moore-fiber":
        bound = exp_moore_fiber(args.c, args.p)
    else:
        M = _manifold(args)
        route = {
            "regular": exp_bound_regular,
            "theriault": exp_bound_theriault,
            "best": best_bound,
        }[args.route]
        bound = route(M, G, args.p)
    if args.format == "machine":
        return records.record("exponent", p=bound.p, exponent=bound.exponent, route=bound.route)
    lines = [f"exp_{bound.p} <= {bound.p}^{bound.exponent}  [route: {bound.route}]"]
    for a in bound.assumptions:
        lines.append(f"  assuming {a}")
    for alt in bound.alternatives:
        lines.append(f"  (also applicable: {alt})")
    return "\n".join(lines)


def _run_bott(args: argparse.Namespace) -> str:
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


def _run_rational(args: argparse.Namespace) -> str:
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
    elif args.op in ("ring-gauge", "ring-b-star"):
        target = "gauge" if args.op == "ring-gauge" else "b_star"
        ledger = rational_cohomology_ring(target, X, G)
        return ledger.machine() if args.format == "machine" else str(ledger)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown op {args.op!r}")
    return expr.machine() if args.format == "machine" else expr.pretty()


def _run_moore(args: argparse.Namespace) -> str:
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
        tail = f"suspension_image_order={suspension_image_order(c)}"
        return "\n".join([g.machine() for g in groups] + [tail])
    return "\n".join(
        [
            f"pi_3(P³({c})) = {groups[0]}",
            f"pi_6(P⁴({c})) = {groups[1]}",
            f"pi_7(P⁵({c})) = {groups[2]}",
            f"suspension image order in pi_6: {suspension_image_order(c)}",
        ]
    )


def _run_homology(args: argparse.Namespace) -> str:
    groups = homology(_manifold(args))
    if args.format == "machine":
        return "\n".join(g.machine() for g in groups)
    return "\n".join(f"H_{n} = {g}" for n, g in enumerate(groups))


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauge5",
        description="homotopy invariants of gauge groups over 5-manifolds"
        " with cyclic fundamental group",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    classify = verbs.add_parser("classify", help="homotopy-type counts")
    _add_manifold_args(classify)
    classify.add_argument("--group", required=True, help="e.g. SU:3 or G2")
    classify.add_argument("--loops", type=int, choices=(2, 3))
    classify.add_argument("--moore", action="store_true", help="over P⁴(c) instead of M")
    classify.add_argument("--same-type", nargs=2, type=int, metavar=("K", "L"))
    classify.add_argument("--trivial", action="store_true", help="one-type criterion")
    classify.add_argument("--p", type=int)
    _add_localization_args(classify)
    _add_format_arg(classify)
    classify.set_defaults(run=_run_classify)

    decompose = verbs.add_parser("decompose", help="gauge-group decompositions")
    _add_manifold_args(decompose)
    decompose.add_argument("--group", required=True)
    decompose.add_argument("--k", type=int, default=0)
    decompose.add_argument("--loops", type=int, choices=(2, 3))
    decompose.add_argument("--away-from-c", action="store_true")
    decompose.add_argument("--normalize", action="store_true")
    _add_localization_args(decompose)
    _add_format_arg(decompose)
    decompose.set_defaults(run=_run_decompose)

    exponent = verbs.add_parser("exponent", help="homotopy-exponent bounds")
    exponent.add_argument("--table", help="'exceptional' for the table of bounds")
    exponent.add_argument("--group")
    exponent.add_argument("--p", type=int)
    _add_manifold_args(exponent, c_default=1)
    exponent.add_argument(
        "--route",
        choices=("regular", "theriault", "closed", "moore-fiber", "best"),
        default="best",
    )
    _add_format_arg(exponent)
    exponent.set_defaults(run=_run_exponent)

    bott = verbs.add_parser("bott", help="stable homotopy of gauge groups")
    _add_manifold_args(bott)
    bott.add_argument("--family", choices=("SU", "Spin"), required=True)
    bott.add_argument("--r", type=int)
    bott.add_argument("--k", type=int, default=0)
    bott.add_argument("--away-2c", action="store_true")
    bott.add_argument("--table", action="store_true")
    _add_format_arg(bott)
    bott.set_defaults(run=_run_bott)

    rational = verbs.add_parser("rational", help="rational decompositions")
    rational.add_argument("--series", help="Hilbert series, e.g. 1,0,2,2,0,1")
    _add_manifold_args(rational, c_default=2)
    rational.add_argument("--model", help="generator degrees, e.g. 3,5/4")
    rational.add_argument("--group", help="Lie group to model, e.g. SU:4")
    rational.add_argument(
        "--op",
        choices=("gauge", "b-star", "em", "rank", "ring-gauge", "ring-b-star"),
        default="gauge",
    )
    rational.add_argument("--q", type=int)
    rational.add_argument("--based", action="store_true")
    _add_format_arg(rational)
    rational.set_defaults(run=_run_rational)

    moore = verbs.add_parser("moore", help="Moore-space homotopy data")
    _add_manifold_args(moore)
    moore.add_argument("--suspension", type=int, choices=(2, 3, 4))
    _add_format_arg(moore)
    moore.set_defaults(run=_run_moore)

    homology_verb = verbs.add_parser("homology", help="integral homology of M")
    _add_manifold_args(homology_verb)
    _add_format_arg(homology_verb)
    homology_verb.set_defaults(run=_run_homology)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = args.run(args)
    except (HypothesisError, CatalogError, ValueError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
