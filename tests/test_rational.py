"""Rational models of gauge groups and connection moduli.

The closed forms here are all exact integer bookkeeping, so the oracle for
every rank and generator count is an independent termwise sum over the Betti
numbers of the base and the generator degrees of the group.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauge5 import HypothesisError, ManifoldSpec, spaces
from gauge5.lie import LieGroupSpec
from gauge5.localization import Localization
from gauge5.rational import (
    GeneratorLedger,
    HilbertSeries,
    RationalGroupModel,
    _gauge_degrees,
    em_expansion,
    rational_B_star,
    rational_cohomology_ring,
    rational_gauge,
    rational_rank_formula,
)
from test_bott import _outcome


def _random_series(rng: random.Random) -> HilbertSeries:
    coeffs = [1, 0] + [rng.randrange(0, 3) for _ in range(rng.randrange(1, 6))]
    return HilbertSeries(tuple(coeffs))


def _random_exterior_model(rng: random.Random) -> RationalGroupModel:
    degrees = sorted(rng.choice((3, 5, 7, 9, 11)) for _ in range(rng.randrange(1, 4)))
    return RationalGroupModel(tuple(degrees))


def _mapping_space_rank(X: HilbertSeries, G: RationalGroupModel, q: int, based: bool = False) -> int:
    start = 1 if based else 0
    return sum(
        X.coefficient(i) * sum(1 for a in G.all_degrees() if a == q + i)
        for i in range(start, X.degree() + 1)
    )


def test_series_basics():
    S4 = HilbertSeries.sphere(4)
    assert [S4.coefficient(i) for i in range(6)] == [1, 0, 0, 0, 1, 0]
    assert S4.degree() == 4
    assert HilbertSeries((1,)).degree() == 0
    assert HilbertSeries((1, 0, 1, 0)) == HilbertSeries((1, 0, 1))
    assert str(HilbertSeries((1, 0, 2, 2, 0, 1))) == "1 + 2t^2 + 2t^3 + t^5"
    assert HilbertSeries.parse("1,0,2,2,0,1") == HilbertSeries((1, 0, 2, 2, 0, 1))


def test_series_for_manifold_is_poincare_dual():
    for c in (2, 5, 12):
        for m in (1, 2, 4):
            X = HilbertSeries.for_manifold(ManifoldSpec(c, m))
            got = tuple(X.coefficient(i) for i in range(6))
            assert got == (1, 0, m - 1, m - 1, 0, 1)


def test_model_parsing_and_degrees():
    G = RationalGroupModel.parse("3,5/4")
    assert str(G) == "Λ(3,5) ⊗ Q[4]"
    assert G.all_degrees() == (3, 4, 5)
    assert G.rank_pi(3) == 1 and G.rank_pi(4) == 1 and G.rank_pi(6) == 0
    assert len(G.exterior_degrees) + len(G.polynomial_degrees) == 3
    assert G.polynomial_degrees
    lean = RationalGroupModel.parse("3/")
    assert str(lean) == "Λ(3)"
    assert not lean.polynomial_degrees
    assert RationalGroupModel.from_lie(LieGroupSpec.parse("SU:4")) == RationalGroupModel((3, 5, 7))
    assert RationalGroupModel.from_lie(LieGroupSpec.parse("Spin:8")) == RationalGroupModel((3, 7, 7, 11))


def test_model_validation():
    with pytest.raises(ValueError):
        RationalGroupModel.parse("4")
    with pytest.raises(ValueError):
        RationalGroupModel.parse("3/5")
    with pytest.raises(ValueError):
        RationalGroupModel((1,))


def test_gauge_model_shapes():
    G = RationalGroupModel.parse("3,5,7")
    S4 = HilbertSeries.sphere(4)
    assert rational_gauge(S4, G).pretty() == "G × Ω⁴G"
    assert rational_gauge(S4, G, based=True).pretty() == "Ω⁴G"
    assert rational_gauge(HilbertSeries((1,)), G).pretty() == "G"
    assert rational_B_star(S4, G).pretty() == "Ω³G"
    wedge = HilbertSeries((1, 0, 1, 1))
    assert rational_gauge(wedge, G, based=True).pretty() == "Ω²G × Ω³G"
    two_cells = HilbertSeries((1, 0, 2))
    assert rational_gauge(two_cells, G, based=True).pretty() == "(Ω²G)²"


def test_em_expansion_examples():
    S2 = HilbertSeries.sphere(2)
    assert em_expansion(S2, RationalGroupModel.parse("3,5,7")).pretty() == "(S³)² × (S⁵)² × S⁷"
    assert em_expansion(S2, RationalGroupModel.parse("3,5,7"), based=True).pretty() == "S³ × S⁵"
    assert em_expansion(S2, RationalGroupModel.parse("3")).pretty() == "S³"
    assert em_expansion(S2, RationalGroupModel.parse("3"), based=True).pretty() == "*"
    mixed = em_expansion(HilbertSeries.sphere(3), RationalGroupModel.parse("3/4"))
    assert mixed.pretty() == "S³ × K(Q,4)"


def test_rank_formula_matches_expression_ranks():
    rng = random.Random(20260816)
    for _ in range(200):
        X = _random_series(rng)
        G = _random_exterior_model(rng)
        based = rng.random() < 0.5
        expr = rational_gauge(X, G, based=based)
        em = em_expansion(X, G, based=based)
        for q in range(1, 16):
            want = _mapping_space_rank(X, G, q, based)
            assert rational_rank_formula(X, G, q, based=based) == want
            assert expr.rational_rank(q) == want
            if q >= 2:
                # the EM expansion forgets circle factors, so only q >= 2
                assert em.rational_rank(q) == want


def test_gauge_ring_counts_are_homotopy_ranks():
    rng = random.Random(4096)
    for _ in range(100):
        X = _random_series(rng)
        G = _random_exterior_model(rng)
        ring = rational_cohomology_ring("gauge", X, G)
        for degree, kind in ring.generators:
            assert kind == ("exterior" if degree % 2 else "polynomial")
        for d in range(2, 18):
            assert sum(1 for degree, _ in ring.generators if degree == d) == _mapping_space_rank(X, G, d)


def test_b_star_ring_counts_shift_by_one():
    rng = random.Random(777)
    for _ in range(100):
        X = _random_series(rng)
        G = _random_exterior_model(rng)
        ring = rational_cohomology_ring("b_star", X, G)
        for degree, kind in ring.generators:
            assert kind == ("exterior" if degree % 2 else "polynomial")
        for d in range(1, 18):
            assert sum(1 for degree, _ in ring.generators if degree == d) == _mapping_space_rank(X, G, d - 1)


def test_ring_examples():
    S4 = HilbertSeries.sphere(4)
    assert str(rational_cohomology_ring("b_star", S4, RationalGroupModel.parse("3/"))) == "Q[4]"
    assert str(rational_cohomology_ring("gauge", S4, RationalGroupModel.parse("3/"))) == "Λ(3)"
    assert str(rational_cohomology_ring("b_star", S4, RationalGroupModel.parse("3,5"))) == "Q[2,4,6]"
    led = rational_cohomology_ring("gauge", HilbertSeries((1,)), RationalGroupModel.parse("3,5/4"))
    assert str(led) == "Λ(3,5) ⊗ Q[4]"
    assert led.generators == ((3, "exterior"), (4, "polynomial"), (5, "exterior"))
    assert "generator degree=3 kind=exterior" in led.machine()


def test_ledger_reads_an_iterator_once():
    gens = [(3, "exterior"), (2, "polynomial")]
    led = GeneratorLedger(iter(gens))
    assert led == GeneratorLedger(tuple(gens))
    assert str(led) == "Λ(3) ⊗ Q[2]"


def test_manifold_gauge_group_rational_rank():
    # over the 5-manifold the looped decompositions must predict the same
    # ranks as the Hilbert-series model
    from gauge5.decomposition import loops2_gauge

    M = ManifoldSpec(5, 3)
    X = HilbertSeries.for_manifold(M)
    for G in (LieGroupSpec("SU", 4), LieGroupSpec("Spin", 8), LieGroupSpec("E7")):
        model = RationalGroupModel.from_lie(G)
        expr = loops2_gauge(M, G, 0)
        for q in range(1, 13):
            assert expr.rational_rank(q) == rational_rank_formula(X, model, q + 2)


def test_hypothesis_errors():
    G = RationalGroupModel.parse("3,5")
    with pytest.raises(ValueError, match="b_0 must be 1"):
        HilbertSeries((0, 0, 1))
    loops = HilbertSeries((1, 2))
    with pytest.raises(HypothesisError, match="b_1 != 0"):
        rational_gauge(loops, G)
    with pytest.raises(HypothesisError, match="b_1 != 0"):
        rational_cohomology_ring("b_star", loops, G)
    with pytest.raises(HypothesisError, match="finite dimensional"):
        rational_B_star(HilbertSeries.sphere(4), RationalGroupModel.parse("3/4"))
    with pytest.raises(ValueError, match="target must be gauge or b_star"):
        rational_cohomology_ring("loops", HilbertSeries.sphere(4), G)
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        HilbertSeries.sphere(1)
    with pytest.raises(ValueError, match="need q >= 1"):
        rational_rank_formula(HilbertSeries.sphere(4), G, 0)


def test_model_token_survives_machine_round_trip():
    X = HilbertSeries.sphere(4)
    expr = rational_gauge(X, RationalGroupModel.parse("3,5/4"))
    again = spaces.parse_machine(expr.machine())
    assert again == expr
    assert "group=model:3,5/4" in expr.machine()


def _ledger_off_em_expansion(X: HilbertSeries, G: RationalGroupModel) -> GeneratorLedger:
    """The gauge ring as it was once read: one generator per atom of em_expansion."""
    gens = []
    for atom, mult in em_expansion(X, G).atoms:
        kind = "exterior" if atom.kind == "sphere" else "polynomial"
        gens.extend([(atom.n, kind)] * mult)
    return GeneratorLedger(tuple(gens))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=9),
    st.lists(st.integers(1, 9), max_size=5),
    st.lists(st.integers(1, 5), max_size=3),
)
def test_the_gauge_ring_equals_the_ledger_read_off_em_expansion(betti, ext, poly):
    X = HilbertSeries((1, *betti))  # b_1 > 0 is refused alike
    G = RationalGroupModel(tuple(2 * e + 1 for e in ext), tuple(2 * e for e in poly))
    want = _outcome(_ledger_off_em_expansion, X, G)
    assert _outcome(rational_cohomology_ring, "gauge", X, G) == want


def _em_per_pair(X: HilbertSeries, G: RationalGroupModel, based: bool) -> spaces.SpaceExpr:
    """em_expansion as it was once built: one atom per (degree, multiplicity) pair."""
    pairs = tuple(
        ((spaces.sphere_factor if n % 2 else spaces.em_factor)(n), b)
        for n, b in _gauge_degrees(X, G, based)
    )
    return spaces.SpaceExpr(pairs, localization=Localization.rational(), group=G)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=9),
    st.lists(st.integers(1, 9), max_size=6),
    st.lists(st.integers(1, 5), max_size=3),
    st.booleans(),
)
def test_em_expansion_equals_the_per_pair_construction(betti, ext, poly, based):
    X = HilbertSeries((1, *betti))  # b_1 > 0 is refused alike
    G = RationalGroupModel(tuple(2 * e + 1 for e in ext), tuple(2 * e for e in poly))
    want = _outcome(_em_per_pair, X, G, based)
    got = _outcome(em_expansion, X, G, based)
    assert (got[0], repr(got[1])) == (want[0], repr(want[1]))
