"""Each public entry point factors c at most once.

Factoring a semiprime c costs hundreds of microseconds, so a second
factorization of the same c is the dominant cost of a query. Of the
decompositions, only the away-from-c one needs the primes of c, once, to
build its localization. The stable (Bott) answers read c only through its
parity, and normalize() only asks whether a context inverts c, which is
answered by division: neither may factor c at all.
"""

import pytest

from gauge5 import abelian, arith, cli
from gauge5.bott import StableQuery, bott_rows, bott_table, stable_pi_gauge
from gauge5.decomposition import gauge_away_from_c, loops2_gauge, loops3_gauge
from gauge5.lie import LieGroupSpec
from gauge5.localization import Localization
from gauge5.manifold import ManifoldSpec, bundle_classes, homology

C = 1000003 * 1000033  # odd and prime to 3, so every theorem shape applies


@pytest.fixture
def factorizations_of_c(monkeypatch):
    """The number of factorize calls on C, through every binding that
    prime_divisors (arith's global) and abelian (its own import) reach."""
    calls = []
    real = arith.factorize

    def counting(m):
        if m == C:
            calls.append(m)
        return real(m)

    monkeypatch.setattr(arith, "factorize", counting)
    monkeypatch.setattr(abelian, "factorize", counting)
    return calls


SPIN = ManifoldSpec(c=C, m=3)
NON_SPIN = ManifoldSpec(c=C, m=3, spin=False)
MANIFOLDS = [pytest.param(SPIN, id="spin"), pytest.param(NON_SPIN, id="non-spin")]
GROUPS = [LieGroupSpec("SU", 4), LieGroupSpec("Spin", 12)]


def _ctxs(M):
    return ("away_c", "away_2c") if M.spin else ("away_2c",)


@pytest.mark.parametrize("M", MANIFOLDS)
def test_manifold_invariants_factor_c_once(M, factorizations_of_c):
    homology(M)
    assert len(factorizations_of_c) == 1
    factorizations_of_c.clear()
    bundle_classes(M, LieGroupSpec("SU", 3))
    assert len(factorizations_of_c) == 1


def test_moore_factors_c_twice(factorizations_of_c, capsys):
    # pi_3(P^3(c)) and pi_6(P^4(c)) each build Z/c; pi_7(P^5(c)) is the pi_6 group
    assert cli.main(["moore", "--c", str(C)]) == 0
    assert len(factorizations_of_c) <= 2
    assert f"pi_7(P⁵({C})) = Z/1000003 ⊕ Z/1000033" in capsys.readouterr().out


@pytest.mark.parametrize("G", GROUPS, ids=str)
@pytest.mark.parametrize("M", MANIFOLDS)
def test_away_from_c_decomposition_factors_c_once(M, G, factorizations_of_c):
    expr = gauge_away_from_c(M, G)
    assert len(factorizations_of_c) == 1
    expr.normalize()
    assert len(factorizations_of_c) == 1


@pytest.mark.parametrize("family", ["SU", "Spin"])
@pytest.mark.parametrize("M", MANIFOLDS)
def test_bott_queries_never_factor_c(M, family, factorizations_of_c, capsys):
    for ctx in _ctxs(M):
        for r in (3, 6):
            stable_pi_gauge(StableQuery(M, family, 0, r, ctx))
        for build in (bott_rows, bott_table):
            build(M, family, 0, ctx)
    argv = ["bott", "--family", family, "--c", str(C), "--m", str(M.m)]
    argv += [] if M.spin else ["--non-spin"]
    for tail in (["--table"], ["--r", "6"]):
        for fmt in ("text", "machine"):
            assert cli.main(argv + tail + ["--format", fmt]) == 0
    assert capsys.readouterr().err == ""
    assert factorizations_of_c == []


LOOP_CONTEXTS = [
    Localization.at_prime(5),
    Localization.at_prime(1000003),
    Localization.rational(),
    Localization.integral(),
]


@pytest.mark.parametrize("ctx", LOOP_CONTEXTS, ids=str)
@pytest.mark.parametrize("M", MANIFOLDS)
def test_looped_normalize_never_factors_c(M, ctx, factorizations_of_c):
    G = LieGroupSpec("SU", 4)
    loops2_gauge(M, G, 1, ctx).normalize()
    parallel = ManifoldSpec(M.c, M.m, M.spin, stably_parallelizable=True, single_top_cell=True)
    loops3_gauge(parallel, G, 1, ctx).normalize()
    assert factorizations_of_c == []
