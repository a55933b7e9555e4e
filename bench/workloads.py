"""Seeded query blocks for the three workloads.

Every block has a fixed composition (so two seeds differ only in the
parameters, not in the mix), shuffled; blocks are drawn on demand from one
random.Random, so a seed fixes the whole stream however far a run gets.
"""

from __future__ import annotations

import random

from queries import (
    EXCEPTIONAL,
    ODD_PRIMES,
    Query,
    expected_routes,
    pi4_nonzero,
    random_prime,
)

FAMILY_KEYS = ("SU", "Sp", "SpinOdd", "SpinEven", "G2", "F4", "E6", "E7", "E8")


def draw_group(rng: random.Random, pi4_trivial: bool = False):
    while True:
        key = rng.choice(FAMILY_KEYS)
        if key == "SU":
            G = ("SU", rng.randint(2, 10))
        elif key == "Sp":
            G = ("Sp", rng.randint(1, 6))
        elif key == "SpinOdd":
            G = ("Spin", rng.choice((5, 7, 9, 11, 13)))
        elif key == "SpinEven":
            G = ("Spin", rng.choice((6, 8, 10, 12, 14)))
        else:
            G = (key, None)
        if not (pi4_trivial and pi4_nonzero(G)):
            return G


def draw_c(rng: random.Random, ok=lambda c: True) -> int:
    """c in [2, 200] satisfying `ok`."""
    while True:
        c = rng.randint(2, 200)
        if ok(c):
            return c


def not6(c: int) -> bool:
    return c % 6 != 0


def odd(c: int) -> bool:
    return c % 2 == 1


def manifold_args(rng, c, m=None, spin=None, sp=None, stc=None) -> dict:
    spin = rng.random() < 0.7 if spin is None else spin
    if m is None:
        m = rng.randint(1, 4) if spin else rng.randint(2, 4)
    return {
        "c": c, "m": m, "spin": spin,
        "sp": rng.random() < 0.5 if sp is None else sp,
        "stc": rng.random() < 0.5 if stc is None else stc,
    }


def draw_loc(rng, G):
    """A localization in which pi_4(G) vanishes."""
    options = [("at", rng.choice(ODD_PRIMES)), ("away", 2), ("rational",)]
    if not pi4_nonzero(G):
        options.append(None)
    return rng.choice(options)


def q(kind: str, refuse: str | None = None, facts: dict | None = None, **args) -> Query:
    return Query(kind, args, refuse=refuse, facts=facts or {})


# -- small_c_mix -------------------------------------------------------------------


def classify_moore(rng):
    return q("classify_moore", G=draw_group(rng), c=draw_c(rng))


def classify_looped(rng):
    G = draw_group(rng)
    i = rng.choice((2, 3))
    c = draw_c(rng, not6 if i == 2 else odd)
    return q("classify_looped", i=i, G=G, loc=draw_loc(rng, G),
             **manifold_args(rng, c, sp=True if i == 3 else None))


def same_type(rng):
    c = draw_c(rng)
    return q("same_type", G=draw_group(rng), c=c,
             k=rng.randrange(2 * c), l=rng.randrange(2 * c))


def trivial_case(rng):
    return q("trivial_case", G=draw_group(rng), p=rng.choice(ODD_PRIMES), c=draw_c(rng))


def decompose(shape: str, normalize: bool):
    def make(rng):
        G = draw_group(rng)
        if shape == "away":
            c = draw_c(rng, (lambda c: c % 2 == 0) if pi4_nonzero(G) else (lambda c: True))
            return q("decompose", shape=shape, normalize=normalize, G=G, k=rng.randrange(2 * c),
                     loc=None, **manifold_args(rng, c))
        c = draw_c(rng, not6 if shape == "loops2" else odd)
        flags = {} if shape == "loops2" else {"sp": True, "stc": True}
        return q("decompose", shape=shape, normalize=normalize, G=G, k=rng.randrange(2 * c),
                 loc=draw_loc(rng, G), **manifold_args(rng, c, **flags))
    return make


def best_bound(rng):
    c = draw_c(rng, not6)
    while True:
        G, p = draw_group(rng), rng.choice(ODD_PRIMES)
        if expected_routes(G, p, c):
            return q("best_bound", G=G, p=p, **manifold_args(rng, c))


def closed_form(rng):
    while True:
        G = draw_group(rng)
        if G[0] not in EXCEPTIONAL:
            return q("closed_form", G=G, p=rng.choice(ODD_PRIMES), c=draw_c(rng))


def stable_args(rng, c) -> dict:
    family = rng.choice(("SU", "Spin"))
    man = manifold_args(rng, c)
    ctx = rng.choice(("away_c", "away_2c")) if man["spin"] else "away_2c"
    return dict(family=family, k=rng.randrange(2 * c), r=rng.randint(2, 20), ctx=ctx, **man)


def stable_pi(rng, c=None):
    return q("stable_pi", **stable_args(rng, draw_c(rng) if c is None else c))


def bott_table(rng):
    return q("bott_table", **stable_args(rng, draw_c(rng)))


def rational_args(rng, op: str) -> dict:
    man = manifold_args(rng, draw_c(rng))
    series = None
    if rng.random() < 0.5:
        series = (1, 0) + tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 5)))
    G, model = draw_group(rng), None
    if rng.random() < 0.5:
        ext = tuple(sorted(rng.choice((3, 5, 7, 9, 11)) for _ in range(rng.randint(1, 3))))
        poly = () if op in ("b-star", "b_star") or rng.random() < 0.5 else (rng.choice((2, 4, 6)),)
        model = (ext, poly)
    return dict(series=series, G=G, model=model, based=rng.random() < 0.3 and op != "b-star", **man)


def rational_expr(rng):
    op = rng.choice(("gauge", "b-star", "em"))
    return q("rational_expr", op=op, **rational_args(rng, op))


def rational_rank(rng):
    return q("rational_rank", q=rng.randint(1, 12), **rational_args(rng, "rank"))


def rational_ring(rng):
    target = rng.choice(("gauge", "b_star"))
    return q("rational_ring", target=target, **rational_args(rng, target))


def moore(rng):
    return q("moore", c=draw_c(rng, odd))


def coefficients(rng):
    return q("coefficients", target=rng.choice(("S3@4", "S4@5", "P3@4", "P4@5")),
             c=draw_c(rng, odd))


def splitting(rng):
    t = rng.choice((2, 3, 4))
    if t == 2:
        return q("splitting", t=t, **manifold_args(rng, draw_c(rng, odd)))
    if t == 3:
        return q("splitting", t=t,
                 **manifold_args(rng, draw_c(rng, lambda c: c % 2 and c % 3), m=rng.randint(2, 4)))
    return q("splitting", t=t, **manifold_args(rng, draw_c(rng, odd), sp=True, stc=True))


def homology(rng):
    return q("homology", **manifold_args(rng, draw_c(rng)))


def bundle_classes(rng):
    G = draw_group(rng)
    return q("bundle_classes", G=G, loc=draw_loc(rng, G), **manifold_args(rng, draw_c(rng)))


def exceptional_table(rng):
    return q("exceptional_table")


# Queries built to fail one named hypothesis; each must be refused with a
# HypothesisError or ValueError whose message names it.
def _refused_loops2_6(rng):
    return q("decompose", "6 ∤ c", shape="loops2", normalize=False, G=draw_group(rng, True),
             k=1, loc=None, **manifold_args(rng, 6 * rng.randint(1, 33)))


def _refused_loops3_even(rng):
    return q("decompose", "2 ∤ c", shape="loops3", normalize=False, G=draw_group(rng, True),
             k=1, loc=None, **manifold_args(rng, draw_c(rng, lambda c: c % 2 == 0), sp=True,
                                            stc=True))


def _refused_loops3_sp(rng):
    return q("decompose", "stably_parallelizable", shape="loops3", normalize=True,
             G=draw_group(rng, True), k=0, loc=None,
             **manifold_args(rng, draw_c(rng, odd), sp=False, stc=True))


def _refused_pi4(rng):
    G = rng.choice((("SU", 2), ("Spin", 5), ("Sp", rng.randint(1, 6))))
    return q("decompose", "pi_4(G) = 0", shape="loops2", normalize=False, G=G, k=0, loc=None,
             **manifold_args(rng, draw_c(rng, not6)))


def _refused_bundles(rng):
    return q("bundle_classes", "pi_4", G=("Sp", rng.randint(1, 6)), loc=None,
             **manifold_args(rng, draw_c(rng)))


def _refused_moore(rng):
    return q("moore", "2 ∤ c", c=draw_c(rng, lambda c: c % 2 == 0))


def _refused_splitting(rng):
    return q("splitting", "6 ∤ c", t=3,
             **manifold_args(rng, 3 * (2 * rng.randint(0, 32) + 1), m=rng.randint(2, 4)))


def _refused_best(rng):
    return q("best_bound", "6 ∤ c", G=draw_group(rng), p=rng.choice(ODD_PRIMES),
             **manifold_args(rng, 6 * rng.randint(1, 33)))


def _refused_closed(rng):
    return q("closed_form", "no closed form", G=(rng.choice(EXCEPTIONAL), None),
             p=rng.choice(ODD_PRIMES), c=draw_c(rng))


def _refused_stable(rng):
    args = stable_args(rng, draw_c(rng))
    args.update(spin=False, ctx="away_c", m=max(args["m"], 2))
    return q("stable_refused", "away from 2c", **args)


def _refused_b_star(rng):
    args = rational_args(rng, "gauge")
    args["model"] = ((3, 5), (rng.choice((2, 4)),))
    return q("rational_expr", "finite dimensional", op="b-star", **args)


def _refused_looped(rng):
    return q("classify_looped", "2 ∤ c", i=3, G=draw_group(rng, True), loc=None,
             **manifold_args(rng, draw_c(rng, lambda c: c % 2 == 0), sp=True))


def _refused_b1(rng):
    args = rational_args(rng, "gauge")
    args["series"] = (1, rng.randint(1, 2), 0, 1)
    return q("rational_expr", "b_1", op="gauge", **args)


REFUSED = (
    _refused_loops2_6, _refused_loops3_even, _refused_loops3_sp, _refused_pi4,
    _refused_bundles, _refused_moore, _refused_splitting, _refused_best, _refused_closed,
    _refused_stable, _refused_b_star, _refused_looped, _refused_b1,
)

# One generator per library entry point, each form the workload lists
# separately (decompose per shape, with and without normalize) counted as
# its own entry point. There is no record of which verbs users call most,
# and the acceptance tests do not weight verbs either, so every entry point
# gets the same weight, MIX_WEIGHT queries per block.
SMALL_MIX = (
    classify_moore, classify_looped, same_type, trivial_case,
    decompose("loops2", False), decompose("loops2", True),
    decompose("loops3", False), decompose("loops3", True),
    decompose("away", False), decompose("away", True),
    best_bound, closed_form, exceptional_table,
    stable_pi, bott_table,
    rational_expr, rational_rank, rational_ring,
    moore, coefficients, splitting,
    homology, bundle_classes,
)
MIX_WEIGHT = 3
REFUSED_PER_BLOCK = 8  # with the 69 answered queries above, about a tenth


def small_block(rng: random.Random) -> list[Query]:
    block = [make(rng) for make in SMALL_MIX for _ in range(MIX_WEIGHT)]
    block += [make(rng) for make in rng.sample(REFUSED, REFUSED_PER_BLOCK)]
    rng.shuffle(block)
    return block


# -- large_c ---------------------------------------------------------------------

LARGE_LOW, LARGE_HIGH = 10**4, 10**6


def semiprime(rng, low: int = 10**5, high: int = 10**6) -> tuple[int, dict]:
    """c = p q for distinct random primes in [low, high)."""
    p = random_prime(rng, low, high)
    while (r := random_prime(rng, low, high)) == p:
        pass
    return p * r, {"factors": {p: 1, r: 1}}


def grid(rng: random.Random, low: int, high: int, n: int) -> list[int]:
    """n points spaced evenly over [low, high) behind one random offset, in
    random order: every block then covers the whole range alike, so the
    cost mix (which grows with c) barely differs between seeds."""
    width, u = (high - low) / n, rng.random()
    points = [low + int((i + u) * width) for i in range(n)]
    rng.shuffle(points)
    return points


def large_block(rng: random.Random) -> list[Query]:
    """Seven classifications with c on a grid over [1e4, 1e6], plus the
    c-dependent verbs on semiprimes c = p q, p and q in [1e5, 1e6]. The ten
    queries that factor c (trial division costs about sqrt(c)) take both
    primes next to one point of a grid over that range."""
    block = []
    classify_c = grid(rng, LARGE_LOW, LARGE_HIGH, 7)
    for c in classify_c[:6]:
        block.append(q("classify_moore", G=draw_group(rng), c=c))
    c = classify_c[6] + (classify_c[6] % 6 == 0)
    block.append(q("classify_looped", i=2, G=draw_group(rng, True), loc=None,
                   **manifold_args(rng, c)))
    roots = grid(rng, 10**5, 10**6 - 9000, 10)

    def factored():
        root = roots.pop()
        return semiprime(rng, root, root + 9000)

    for _ in range(3):
        c, facts = factored()
        block.append(q("homology", facts=facts, **manifold_args(rng, c)))
    for _ in range(2):
        c, facts = factored()
        block.append(q("bundle_classes", facts=facts, G=draw_group(rng, True), loc=None,
                       **manifold_args(rng, c)))
    for normalize in (False, True, True):
        c, facts = factored()
        block.append(q("decompose", facts=facts, shape="away", normalize=normalize,
                       G=draw_group(rng, True), k=rng.randrange(c), loc=None,
                       **manifold_args(rng, c)))
    for _ in range(2):
        c, facts = factored()
        query = stable_pi(rng, c)
        query.facts = facts
        block.append(query)
    for _ in range(2):
        c, facts = semiprime(rng)
        while True:
            G, p = draw_group(rng), rng.choice(ODD_PRIMES)
            if expected_routes(G, p, c):
                break
        block.append(q("best_bound", facts=facts, G=G, p=p, **manifold_args(rng, c)))
    c, facts = semiprime(rng)
    block.append(q("rational_expr", facts=facts, op="gauge",
                   **dict(rational_args(rng, "gauge"), series=None, **manifold_args(rng, c))))
    rng.shuffle(block)
    return block


def hang_probes(rng: random.Random) -> list[Query]:
    """c = p q with p, q ~1e9 primes: answerable in microseconds, but the
    trial division up to sqrt(c) needs minutes, so each runs under the deadline."""
    out = []
    for kind in ("homology", "decompose"):
        c, facts = semiprime(rng, 10**9, 2 * 10**9)
        if kind == "homology":
            out.append(q("homology", facts=facts, **manifold_args(rng, c)))
        else:
            out.append(q("decompose", facts=facts, shape="away", normalize=True,
                         G=draw_group(rng, True), k=1, loc=None, **manifold_args(rng, c)))
    return out


# -- cli_launch ------------------------------------------------------------------

README = (
    q("decompose", shape="loops2", normalize=False, G=("SU", 4), k=1, loc=None,
      c=5, m=2, spin=True, sp=False, stc=False),
    q("classify_moore", G=("SU", 3), c=9),
    q("best_bound", G=("SU", 4), p=5, c=25, m=1, spin=True, sp=False, stc=False),
    q("exceptional_table", p=7),
    q("bott_table", family="Spin", k=0, r=2, ctx="away_c", c=5, m=3, spin=True, sp=False,
      stc=False),
    q("rational_expr", op="gauge", series=(1, 0, 0, 0, 1), model=((3, 5, 7), ()), G=("SU", 2),
      based=False, c=2, m=1, spin=True, sp=False, stc=False),
    q("moore", c=9),
    q("homology", c=12, m=3, spin=True, sp=False, stc=False),
)
README_PER_BLOCK = 2
SEEDED_PER_BLOCK = 6


def cli_block(rng: random.Random, index: int) -> list[Query]:
    """Two README examples (in README order, cycling) and six seeded
    small_c_mix queries that have a CLI form, each in a random --format."""
    start = index * README_PER_BLOCK
    block = [README[(start + i) % len(README)] for i in range(README_PER_BLOCK)]
    pool = [x for x in small_block(rng) if x.argv() is not None]
    for query in rng.sample(pool, SEEDED_PER_BLOCK):
        query.fmt = rng.choice(("text", "machine"))
        block.append(query)
    rng.shuffle(block)
    return block
