"""Seeded query streams, CLI renderings and independent answer checks.

A Query names one library entry point (its `kind`) and the plain integers
and strings that feed it. `call` turns those into gauge5 objects and calls
the library, so construction counts as part of the query, exactly as in a
script. `argv` renders the same query for the `gauge5` command (None when
the CLI has no equivalent). `check` verifies an answer against facts the
benchmark derives on its own (closed forms, divisor arithmetic, the paper's
exceptional table) or against the library's own parsers (round trips); a
query built to violate a hypothesis instead expects a HypothesisError or
ValueError whose message names that hypothesis.

Library functions are always looked up as module attributes at call time,
so the span wrappers in spans.py see every call the benchmark makes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from gauge5 import (
    abelian,
    bott,
    classification,
    decomposition,
    exponents,
    lie,
    localization,
    manifold,
    rational,
    spaces,
)


@dataclass
class Query:
    kind: str
    args: dict
    refuse: str | None = None  # substring the expected refusal must contain
    fmt: str = "text"  # CLI output format when rendered as argv
    facts: dict = field(default_factory=dict)  # oracle-only data, e.g. factors of c

    def call(self):
        return KINDS[self.kind][0](self.args)

    def argv(self) -> list[str] | None:
        render = KINDS[self.kind][2]
        if render is None:
            return None
        out = render(self.args)
        if out is not None and self.fmt == "machine":
            out = out + ["--format", "machine"]
        return out

    def check(self, result) -> str | None:
        """None when the answer is right, else a one-line reason."""
        return KINDS[self.kind][1](self, result)

    def check_refusal(self, exc: BaseException) -> str | None:
        if self.refuse is None:
            return f"unexpected {type(exc).__name__}: {exc}"
        if not isinstance(exc, ValueError):
            return f"refusal raised {type(exc).__name__}, not ValueError: {exc}"
        if self.refuse not in str(exc):
            return f"refusal does not name {self.refuse!r}: {exc}"
        return None


# -- independent arithmetic for the oracles ------------------------------------


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = n
    for p in factor(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    return [x for d in range(1, math.isqrt(n) + 1) if n % d == 0 for x in {d, n // d}]


def nu(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def nu_factorial(m: int, p: int) -> int:
    out, q = 0, p
    while q <= m:
        out += m // q
        q *= p
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (first 13 prime bases)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, low: int, high: int) -> int:
    while True:
        n = rng.randrange(low, high) | 1
        if is_prime(n):
            return n


# -- paper data for the oracles -------------------------------------------------

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")
EXC_TYPE = {
    "G2": (1, 5),
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}
EXC_ORD = {"G2": 21, "F4": 325, "E6": 2275, "E7": 1463, "E8": 45398353}
EXC_TORSION = {"G2": (2,), "F4": (2, 3), "E6": (2, 3), "E7": (2, 3), "E8": (2, 3, 5)}
# The published exceptional exponent table: (prime condition, A, B) with
# exp_p <= p^max(A, nu_p(c) + B).
EXC_TABLE = {
    "G2": (("p=5", 7, 1), ("p=7", 6, 1), ("p>=11", 5, 0)),
    "F4": (("p=5", 15, 3), ("p=7", 13, 1), ("p=11", 13, 1), ("p=13", 12, 1), ("p>=17", 11, 0)),
    "E6": (("p=5", 15, 3), ("p=7", 14, 2), ("p=11", 13, 1), ("p=13", 12, 1), ("p>=17", 11, 0)),
    "E7": (("p=7", 22, 3), ("p=11", 20, 2), ("p=13", 19, 1), ("p=17", 19, 1), ("p=19", 18, 1),
           ("p>=23", 17, 0)),
    "E8": (("p=7", 35, 4), ("p=11", 33, 3), ("p=13", 32, 2), ("p=17", 31, 1), ("p=19", 32, 2),
           ("p=23", 31, 1), ("p=29", 31, 1), ("p=31", 30, 1), ("p>=37", 29, 0)),
}
SPIN_BOTT = (2, 2, 1, 0, 1, 1, 1, 0)  # stable pi_r(Spin), r mod 8: 0 = Z, 1 = 0


def type_of(G) -> tuple[int, ...]:
    fam, n = G
    if fam == "SU":
        return tuple(range(1, n))
    if fam == "Sp":
        return tuple(range(1, 2 * n, 2))
    if fam == "Spin":
        h = n // 2
        if n % 2:
            return tuple(range(1, 2 * h, 2))
        return tuple(sorted(tuple(range(1, 2 * h - 2, 2)) + (h - 1,)))
    return EXC_TYPE[fam]


def degrees(G) -> tuple[int, ...]:
    return tuple(2 * t + 1 for t in type_of(G))


def pi4_nonzero(G) -> bool:
    fam, n = G
    return (fam, n) in (("SU", 2), ("Spin", 5)) or fam == "Sp"


def first_row_ord(G) -> int:
    """The catalog order classification uses (specific rows before * rows)."""
    fam, n = G
    if fam == "SU":
        return {2: 3, 3: 24, 5: 120}.get(n, n * (n * n - 1))
    if fam in ("Sp",):
        return n * (2 * n + 1)
    if fam == "Spin":
        h = n // 2
        return h * (2 * h + 1) if n % 2 else (h - 1) * (2 * h - 1)
    return EXC_ORD[fam]


def local_ord(G, p: int) -> int:
    fam, n = G
    if fam == "SU":
        return n * (n * n - 1)
    return first_row_ord(G)


def l_of(G) -> int:
    return max(type_of(G))


def is_regular(G, p: int) -> bool:
    fam, n = G
    torsion = EXC_TORSION.get(fam, (2,) if fam == "Spin" and n >= 7 else ())
    return p >= l_of(G) + 1 and p not in torsion


def in_filtration_range(G, p: int) -> bool:
    fam, n = G
    b = (p - 1) * (p - 2)
    if fam == "SU":
        return n - 1 <= b
    if fam == "Sp":
        return 2 * n <= b
    if fam == "Spin":
        return 2 * (n // 2) <= b if n % 2 else 2 * (n // 2 - 1) <= b
    return p >= (5 if fam in ("G2", "F4", "E6") else 7)


def exc_row(fam: str, p: int):
    for cond, A, B in EXC_TABLE[fam]:
        if (cond.startswith("p>=") and p >= int(cond[3:])) or cond == f"p={p}":
            return A, B
    return None


def filtration_offset(G, p: int) -> int:
    fam, n = G
    if fam == "SU":
        return nu_factorial(n - 1, p)
    if fam == "Sp":
        return nu_factorial(2 * n - 1, p)
    h = n // 2
    return nu_factorial(2 * h - 1, p) if n % 2 else nu_factorial(2 * h - 3, p)


def expected_routes(G, p: int, c: int) -> list[tuple[str, int]]:
    """(route, exponent) for every applicable route, in the library's try order."""
    v = nu(c, p)
    out = []
    if is_regular(G, p):
        e = nu(local_ord(G, p), p) + max(l_of(G), v)
        if G in (("SU", 2), ("SU", 3)):
            e += 1
        out.append(("regular", e))
    if in_filtration_range(G, p):
        if G[0] in EXCEPTIONAL:
            A, B = exc_row(G[0], p)
            out.append(("theriault", max(A, v + B)))
        else:
            r = filtration_offset(G, p)
            out.append(("theriault", r + nu(local_ord(G, p), p) + max(r + l_of(G), v)))
    return out


# -- comparing library values with oracle facts --------------------------------


def torsion_of(factors: dict[int, int]) -> list[tuple[int, int]]:
    return sorted(factors.items())


def group_is(g, free: int, torsion: list[tuple[int, int]]) -> bool:
    got = (g.free_rank, [(f.p, f.e) for f in g.torsion])
    return got == (free, sorted(torsion, key=lambda pe: (pe[0], -pe[1])))


def group_text(free: int, n_z2: int) -> str:
    pieces = [] if free == 0 else ["Z" if free == 1 else f"Z^{free}"]
    pieces += ["Z/2"] * n_z2
    return " ⊕ ".join(pieces) or "0"


def roundtrip_group(g) -> str | None:
    if abelian.parse_machine(g.machine()) != g:
        return f"group {g} does not round-trip"
    return None


def roundtrip_expr(e) -> str | None:
    if spaces.parse_machine(e.machine()) != e:
        return f"expression {e} does not round-trip"
    return None


def c_factors(q: Query) -> dict[int, int]:
    return q.facts.get("factors") or factor(q.args["c"])


def betti(m: int) -> tuple[int, ...]:
    return (1, 0, m - 1, m - 1, 0, 1)


def rank_sum(b, degs, q: int, shift: int, start: int = 0) -> int:
    return sum(b[i] * degs.count(q + shift + i) for i in range(start, len(b)))


# -- building library inputs -----------------------------------------------------


def G_of(a):
    return lie.LieGroupSpec(a["G"][0], a["G"][1])


def M_of(a):
    return manifold.ManifoldSpec(
        c=a["c"], m=a["m"], spin=a["spin"],
        stably_parallelizable=a["sp"], single_top_cell=a["stc"],
    )


def ctx_of(loc):
    if loc is None:
        return None
    if loc[0] == "at":
        return localization.Localization.at_prime(loc[1])
    if loc[0] == "away":
        return localization.Localization.away_from([loc[1]])
    return localization.Localization.rational()


def group_arg(G) -> str:
    return G[0] if G[1] is None else f"{G[0]}:{G[1]}"


def manifold_argv(a) -> list[str]:
    out = ["--c", str(a["c"]), "--m", str(a["m"])]
    if not a["spin"]:
        out.append("--non-spin")
    if a["sp"]:
        out.append("--sp")
    if a["stc"]:
        out.append("--stc")
    return out


def loc_argv(loc) -> list[str]:
    if loc is None:
        return []
    if loc[0] == "at":
        return ["--at-p", str(loc[1])]
    if loc[0] == "away":
        return ["--away", str(loc[1])]
    return ["--rational"]


def series_of(a):
    if a["series"] is None:
        return rational.HilbertSeries.for_manifold(M_of(a))
    return rational.HilbertSeries(a["series"])


def model_of(a):
    if a["model"] is None:
        return rational.RationalGroupModel.from_lie(G_of(a))
    return rational.RationalGroupModel(*a["model"])


def rational_argv(a, op: str) -> list[str]:
    out = ["rational", "--op", op]
    if a["series"] is None:
        out += manifold_argv(a)
    else:
        out += ["--series", ",".join(map(str, a["series"]))]
    if a["model"] is None:
        out += ["--group", group_arg(a["G"])]
    else:
        ext, poly = a["model"]
        out += ["--model", ",".join(map(str, ext)) + "/" + ",".join(map(str, poly))]
    if a.get("based"):
        out.append("--based")
    if op == "rank":
        out += ["--q", str(a["q"])]
    return out


def oracle_betti(a) -> tuple[int, ...]:
    return betti(a["m"]) if a["series"] is None else tuple(a["series"])


def oracle_model(a) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (degrees(a["G"]), ()) if a["model"] is None else a["model"]


# -- the query kinds ------------------------------------------------------------


def _classify_moore(a):
    return classification.classify_moore(G_of(a), a["c"])


def _check_report(q: Query, r, looped=None) -> str | None:
    c = q.args["c"]
    d = math.gcd(first_row_ord(q.args["G"]), c)
    if (r.ord, r.d, r.looped) != (first_row_ord(q.args["G"]), d, looped):
        return f"report ord/d/looped {(r.ord, r.d, r.looped)} for {q.args}"
    ds = sorted(divisors(d))
    if r.count_integral != len(ds) or [g for g, _ in r.classes] != ds:
        return f"class count {r.count_integral} != divisors of d = {d}"
    if list(r.count_at_p) != [(p, e + 1) for p, e in sorted(factor(d).items())]:
        return f"per-prime counts {r.count_at_p} for d = {d}"
    total = 0
    for g, members in r.classes:
        if len(members) != (c // d) * phi(d // g):
            return f"class gcd={g} has {len(members)} members"
        if members[0] != (0 if g == d else g):
            return f"class gcd={g} representative {members[0]}"
        if any(math.gcd(k % d, d) != g for k in members[:8]):
            return f"class gcd={g} shows a foreign member"
        total += len(members)
    if total != c:
        return f"class sizes sum to {total}, not c = {c}"
    return None


def _classify_looped(a):
    return classification.classify_looped_manifold(M_of(a), G_of(a), a["i"], ctx_of(a["loc"]))


def _same_type(a):
    return classification.same_type_moore(a["k"], a["l"], G_of(a), a["c"])


def _check_same_type(q: Query, result) -> str | None:
    a = q.args
    d = math.gcd(first_row_ord(a["G"]), a["c"])
    want = math.gcd(a["k"] % d, d) == math.gcd(a["l"] % d, d)
    return None if result == want else f"same_type {result} != {want}"


def _trivial(a):
    return classification.trivial_case(G_of(a), a["p"], a["c"])


def _check_trivial(q: Query, result) -> str | None:
    (fam, n), p, c = q.args["G"], q.args["p"], q.args["c"]
    bound = (p - 1) ** 2 + 1

    def nu1(order):
        return nu(math.gcd(order, c), p) == 1

    if fam == "SU":
        want = n <= bound and nu1(n * (n * n - 1))
    elif fam == "Sp":
        want = 4 <= 2 * n <= bound and nu1(n * (2 * n + 1))
    elif fam == "Spin" and n % 2:
        h = n // 2
        want = 4 <= 2 * h <= bound and nu1(h * (2 * h + 1))
    elif fam == "Spin":
        h = n // 2
        want = 6 <= 2 * h <= bound and p >= 5 and nu1((h - 1) * (2 * h - 1))
    else:
        p_min, square_free = {
            "G2": (3, 21), "F4": (5, 65), "E6": (5, 455), "E7": (7, 1463), "E8": (7, 589589),
        }[fam]
        want = p >= p_min and c % square_free != 0
    return None if result == want else f"trivial_case {result} != {want}"


def _decompose(a):
    M, G = M_of(a), G_of(a)
    if a["shape"] == "away":
        e = decomposition.gauge_away_from_c(M, G, a["k"])
    elif a["shape"] == "loops2":
        e = decomposition.loops2_gauge(M, G, a["k"], ctx_of(a["loc"]))
    else:
        e = decomposition.loops3_gauge(M, G, a["k"], ctx_of(a["loc"]))
    return e.normalize() if a["normalize"] else e


def _check_decompose(q: Query, e) -> str | None:
    a = q.args
    shift = {"away": 0, "loops2": 2, "loops3": 3}[a["shape"]]
    degs = degrees(a["G"])
    b = betti(a["m"])
    for qq in range(1, max(degs) + 1):
        if e.rational_rank(qq) != rank_sum(b, degs, qq, shift):
            return f"rank pi_{qq} of {e} is not the Betti-weighted sum"
    if a["shape"] == "away" and e.localization.inverted_set != frozenset(c_factors(q)):
        return f"away-from-c localization {e.localization} for c = {a['c']}"
    if a["normalize"] and e.normalize() != e:
        return f"normal form {e} is not idempotent"
    return roundtrip_expr(e)


def _decompose_argv(a):
    out = ["decompose", "--group", group_arg(a["G"]), "--k", str(a["k"])] + manifold_argv(a)
    if a["shape"] == "away":
        out.append("--away-from-c")
    else:
        out += ["--loops", "2" if a["shape"] == "loops2" else "3"] + loc_argv(a["loc"])
    if a["normalize"]:
        out.append("--normalize")
    return out


def _best_bound(a):
    return exponents.best_bound(M_of(a), G_of(a), a["p"])


def _check_best(q: Query, b) -> str | None:
    routes = expected_routes(q.args["G"], q.args["p"], q.args["c"])
    ranked = sorted(routes, key=lambda re: re[1])
    got = [(b.route, b.exponent)] + [(x.route, x.exponent) for x in b.alternatives]
    if got != ranked or b.p != q.args["p"]:
        return f"best_bound {got} != {ranked}"
    return None


def _closed_form(a):
    return exponents.exp_bound_closed_form(G_of(a), a["p"], a["c"])


def _check_closed(q: Query, b) -> str | None:
    (fam, n), p = q.args["G"], q.args["p"]
    v = nu(q.args["c"], p)
    h = (n or 0) // 2
    if fam == "SU":
        want = max(n + 2 * p - 5, v + p - 1)
    elif fam == "Sp":
        want = max(2 * n + 2 * p - 6, v + p - 2)
    elif n % 2:
        want = max(2 * h + 2 * p - 6, v + p - 2)
    else:
        want = max(2 * h + 2 * p - 8, v + p - 2)
    ok = (b.p, b.exponent, b.route) == (p, want, "closed_form")
    return None if ok else f"closed form {b} != {p}^{want}"


def _exc_table(a):
    return exponents.exceptional_table()


def _check_exc_table(q: Query, rows) -> str | None:
    got = [(r.family, r.prime_cond, r.base, r.offset) for r in rows]
    want = [(f, cond, A, B) for f in EXCEPTIONAL for cond, A, B in EXC_TABLE[f]]
    return None if got == want else "exceptional table differs from the published one"


def _stable_query(a):
    return bott.StableQuery(M_of(a), a["family"], a["k"], a["r"], a["ctx"])


def _stable(a):
    return bott.stable_pi_gauge(_stable_query(a))


def stable_expect(a, r: int) -> tuple[int, int]:
    m, spin = a["m"], a["spin"]
    shifts = [0, 5] + [2] * (m - 1) + [3] * (m - 1)
    if not spin:
        shifts = [0, 3, 5] + [2] * (m - 1) + [3] * (m - 2)
    free = n_z2 = 0
    for s in shifts:
        j = r + s
        if a["family"] == "SU":
            free += j % 2
        else:
            order = SPIN_BOTT[j % 8]
            free += order == 0
            n_z2 += order == 2
    if a["ctx"] == "away_2c" or a["c"] % 2 == 0:
        n_z2 = 0
    return free, n_z2


def _check_stable(q: Query, g) -> str | None:
    free, n_z2 = stable_expect(q.args, q.args["r"])
    if not group_is(g, free, [(2, 1)] * n_z2):
        return f"stable pi_{q.args['r']} = {g}, want free {free} + {n_z2} x Z/2"
    return roundtrip_group(g)


def _bott_argv(a, table: bool):
    out = ["bott", "--family", a["family"], "--k", str(a["k"])] + manifold_argv(a)
    if a["ctx"] == "away_2c" and a["spin"]:
        out.append("--away-2c")
    return out + (["--table"] if table else ["--r", str(a["r"])])


def _bott_table(a):
    return bott.bott_table(M_of(a), a["family"], a["k"], a["ctx"])


def _check_bott_table(q: Query, text: str) -> str | None:
    a = q.args
    period = 2 if a["family"] == "SU" else (4 if a["ctx"] == "away_2c" else 8)
    low = 1 if a["family"] == "SU" else 2
    want = [
        f"  r ≡ {r % period} (mod {period}): {group_text(*stable_expect(a, r))}"
        for r in range(low, low + period)
    ]
    lines = text.split("\n")
    ok = lines[0].startswith("stable pi_r of") and lines[1:] == want
    return None if ok else f"bott table rows differ: {lines[1:]} != {want}"


def _rational_expr(a):
    X, G = series_of(a), model_of(a)
    if a["op"] == "gauge":
        return rational.rational_gauge(X, G, a["based"])
    if a["op"] == "b-star":
        return rational.rational_B_star(X, G)
    return rational.em_expansion(X, G, a["based"])


def _check_rational_expr(q: Query, e) -> str | None:
    a = q.args
    b = oracle_betti(a)
    ext, poly = oracle_model(a)
    degs = tuple(ext) + tuple(poly)
    start = 1 if a["based"] else 0
    for qq in range(1, max(degs) + 1):
        if a["op"] == "gauge":
            want = rank_sum(b, degs, qq, 0, start)
        elif a["op"] == "b-star":
            want = rank_sum(b, degs, qq, -1, 2)
        elif qq >= 2:
            want = rank_sum(b, degs, qq, 0, start)
        else:
            continue
        if e.rational_rank(qq) != want:
            return f"rational rank pi_{qq} of {e}: {e.rational_rank(qq)} != {want}"
    return roundtrip_expr(e)


def _rational_rank(a):
    return rational.rational_rank_formula(series_of(a), model_of(a), a["q"], a["based"])


def _check_rational_rank(q: Query, value) -> str | None:
    a = q.args
    ext, poly = oracle_model(a)
    want = rank_sum(oracle_betti(a), tuple(ext) + tuple(poly), a["q"], 0, 1 if a["based"] else 0)
    return None if value == want else f"rational rank {value} != {want}"


def _ring(a):
    return rational.rational_cohomology_ring(a["target"], series_of(a), model_of(a))


def _check_ring(q: Query, ledger) -> str | None:
    a = q.args
    b = oracle_betti(a)
    ext, poly = oracle_model(a)
    gens = []
    if a["target"] == "gauge":
        for i, bi in enumerate(b):
            for d in tuple(ext) + tuple(poly):
                if bi and d - i >= 2:
                    gens += [(d - i, "exterior" if (d - i) % 2 else "polynomial")] * bi
    else:
        for d in ext:
            for k in range(d // 2 + 1):
                odd_b = b[2 * k + 1] if 2 * k + 1 < len(b) else 0
                even_b = b[2 * k] if 2 * k < len(b) else 0
                if odd_b and d - 2 * k >= 1:
                    gens += [(d - 2 * k, "exterior")] * odd_b
                if even_b and d - 2 * k + 1 >= 2:
                    gens += [(d - 2 * k + 1, "polynomial")] * even_b
    ok = list(ledger.generators) == sorted(gens)
    return None if ok else f"ring generators {ledger.generators} != {sorted(gens)}"


def _moore(a):
    c = a["c"]
    return (
        manifold.pi_moore_self(3, c),
        manifold.pi6_P4(c),
        manifold.pi7_P5(c),
        manifold.suspension_image_order(c),
    )


def _check_moore(q: Query, out) -> str | None:
    c = q.args["c"]
    tor = torsion_of(c_factors(q))
    if not group_is(out[0], 0, tor):
        return f"pi_3(P^3({c})) = {out[0]}"
    extra = [(3, 1)] if c % 3 == 0 else []
    for g in out[1:3]:
        if not group_is(g, 0, tor + extra):
            return f"pi_6(P^4({c})) = {g}, want Z/c + Z/gcd(3, c)"
        bad = roundtrip_group(g)
        if bad:
            return bad
    return None if out[3] == math.gcd(3, c) else f"suspension image order {out[3]}"


def _coefficients(a):
    return manifold.pi_with_coefficients(a["target"], a["c"])


def _check_coefficients(q: Query, g) -> str | None:
    tor = torsion_of(c_factors(q)) if q.args["target"] == "P3@4" else []
    return None if group_is(g, 0, tor) else f"{q.args['target']} gives {g}"


def _splitting(a):
    return manifold.suspension_splitting(M_of(a), a["t"])


def _check_splitting(q: Query, w) -> str | None:
    m, t = q.args["m"], q.args["t"]
    want = {2: 2 + 2 * (m - 1), 3: 3 + 2 * (m - 2), 4: 3 + 2 * (m - 1)}[t]
    return None if len(w.atoms) == want else f"{t}-fold splitting has {len(w.atoms)} atoms"


def _homology(a):
    return manifold.homology(M_of(a))


def _check_homology(q: Query, hs) -> str | None:
    m = q.args["m"]
    tor = torsion_of(c_factors(q))
    want = [(1, []), (0, tor), (m - 1, []), (m - 1, tor), (0, []), (1, [])]
    for n, (g, (free, t)) in enumerate(zip(hs, want)):
        if not group_is(g, free, t):
            return f"H_{n} = {g} for c = {q.args['c']}, m = {m}"
        bad = roundtrip_group(g)
        if bad:
            return bad
    return None if len(hs) == 6 else f"{len(hs)} homology groups"


def _bundles(a):
    return manifold.bundle_classes(M_of(a), G_of(a), ctx_of(a["loc"]))


def _check_bundles(q: Query, g) -> str | None:
    if not group_is(g, 0, torsion_of(c_factors(q))):
        return f"bundle classes {g} for c = {q.args['c']}"
    return roundtrip_group(g)


# kind -> (call, check, argv renderer or None)
KINDS = {
    "classify_moore": (
        _classify_moore, _check_report,
        lambda a: ["classify", "--moore", "--group", group_arg(a["G"]), "--c", str(a["c"])],
    ),
    "classify_looped": (
        _classify_looped,
        lambda q, r: _check_report(q, r, looped=q.args["i"]),
        lambda a: ["classify", "--group", group_arg(a["G"]), "--loops", str(a["i"])]
        + manifold_argv(a) + loc_argv(a["loc"]),
    ),
    "same_type": (
        _same_type, _check_same_type,
        lambda a: ["classify", "--group", group_arg(a["G"]), "--c", str(a["c"]),
                   "--same-type", str(a["k"]), str(a["l"])],
    ),
    "trivial_case": (
        _trivial, _check_trivial,
        lambda a: ["classify", "--trivial", "--group", group_arg(a["G"]), "--c", str(a["c"]),
                   "--p", str(a["p"])],
    ),
    "decompose": (_decompose, _check_decompose, _decompose_argv),
    "best_bound": (
        _best_bound, _check_best,
        lambda a: ["exponent", "--group", group_arg(a["G"]), "--p", str(a["p"])]
        + manifold_argv(a),
    ),
    "closed_form": (
        _closed_form, _check_closed,
        lambda a: ["exponent", "--route", "closed", "--group", group_arg(a["G"]),
                   "--p", str(a["p"]), "--c", str(a["c"])],
    ),
    "exceptional_table": (
        _exc_table, _check_exc_table,
        lambda a: ["exponent", "--table", "exceptional"] + (["--p", str(a["p"])] if a else []),
    ),
    "stable_pi": (_stable, _check_stable, lambda a: _bott_argv(a, table=False)),
    "bott_table": (_bott_table, _check_bott_table, lambda a: _bott_argv(a, table=True)),
    "rational_expr": (
        _rational_expr, _check_rational_expr, lambda a: rational_argv(a, a["op"]),
    ),
    "rational_rank": (_rational_rank, _check_rational_rank, lambda a: rational_argv(a, "rank")),
    "rational_ring": (
        _ring, _check_ring,
        lambda a: rational_argv(a, "ring-gauge" if a["target"] == "gauge" else "ring-b-star"),
    ),
    "moore": (_moore, _check_moore, lambda a: ["moore", "--c", str(a["c"])]),
    "coefficients": (_coefficients, _check_coefficients, None),
    "splitting": (
        _splitting, _check_splitting,
        lambda a: ["moore", "--suspension", str(a["t"])] + manifold_argv(a),
    ),
    "homology": (_homology, _check_homology, lambda a: ["homology"] + manifold_argv(a)),
    "bundle_classes": (_bundles, _check_bundles, None),
    # Stable queries that StableQuery itself refuses, so they have no answer
    # to check; the CLI picks the localization on its own and cannot express them.
    "stable_refused": (_stable_query, None, None),
}
