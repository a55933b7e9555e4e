"""Homology, bundle classification, Moore-space data, suspension splittings."""

import math

import pytest

from gauge5 import (
    FGAbelianGroup,
    HypothesisError,
    LieGroupSpec,
    Localization,
    ManifoldSpec,
    homology,
    pi6_P4,
    pi7_P5,
    pi_moore_self,
    suspension_image_order,
    suspension_splitting,
)
from gauge5.manifold import bundle_classes, pi_with_coefficients

Z = FGAbelianGroup.free
Zc = FGAbelianGroup.cyclic
ZERO = FGAbelianGroup.trivial()


def test_homology_table():
    assert homology(ManifoldSpec(4, 3)) == [
        Z(1),
        Zc(4),
        Z(2),
        Z(2) + Zc(4),
        ZERO,
        Z(1),
    ]
    assert homology(ManifoldSpec(7, 1)) == [Z(1), Zc(7), ZERO, Zc(7), ZERO, Z(1)]


def _reduced_homology(M: ManifoldSpec) -> dict[int, FGAbelianGroup]:
    return {n: g for n, g in enumerate(homology(M)) if n > 0 and g != ZERO}


def test_poincare_duality_and_euler_characteristic():
    for c in range(2, 40):
        for m in range(1, 7):
            h = homology(ManifoldSpec(c, m))
            betti = [g.free_rank for g in h]
            # duality of Betti numbers and of torsion linking pairs
            for n in range(6):
                assert betti[n] == betti[5 - n]
            for n in range(5):
                assert [f.p ** f.e for f in h[n].torsion] == [f.p ** f.e for f in h[4 - n].torsion]
            assert sum((-1) ** n * b for n, b in enumerate(betti)) == 0


def test_manifold_validation_and_parse():
    with pytest.raises(ValueError):
        ManifoldSpec(1, 1)
    with pytest.raises(ValueError):
        ManifoldSpec(5, 0)


def test_bundle_classes_is_cyclic_of_order_c():
    assert bundle_classes(ManifoldSpec(9, 2), LieGroupSpec("SU", 3)) == Zc(9)
    assert bundle_classes(ManifoldSpec(25, 4), LieGroupSpec("E8")) == Zc(25)


def test_bundle_classes_needs_trivial_pi4():
    M = ManifoldSpec(9, 2)
    with pytest.raises(HypothesisError):
        bundle_classes(M, LieGroupSpec("Sp", 2))
    local = bundle_classes(M, LieGroupSpec("Sp", 2), Localization.away_from([2]))
    assert local == Zc(9)


def test_moore_self_maps():
    for c in (3, 5, 21):
        assert pi_moore_self(3, c) == Zc(c)
        assert pi_moore_self(4, c) == ZERO
        assert pi_moore_self(7, c) == ZERO
    with pytest.raises(ValueError):
        pi_moore_self(2, 5)
    with pytest.raises(HypothesisError, match="2 ∤ c"):
        pi_moore_self(3, 4)


def test_moore_homotopy_groups_split_off_the_three_torsion():
    for c in (3, 5, 9, 15, 21, 25):
        expected = FGAbelianGroup.from_cyclic_orders(c, math.gcd(3, c))
        assert pi6_P4(c) == expected
        assert pi7_P5(c) == expected
        assert suspension_image_order(c) == math.gcd(3, c)


def test_homotopy_with_coefficients():
    assert pi_with_coefficients("P3@4", 15) == Zc(15)
    assert pi_with_coefficients("S3@4", 15) == ZERO
    assert pi_with_coefficients("S4@5", 9) == ZERO
    assert pi_with_coefficients("P4@5", 9) == ZERO
    with pytest.raises(HypothesisError):
        pi_with_coefficients("P3@4", 4)
    with pytest.raises(HypothesisError):
        pi_with_coefficients("S9@9", 5)


def test_double_suspension_splits_below_the_top_cell():
    for c in (3, 5, 9):
        for m in (1, 2, 4):
            M = ManifoldSpec(c, m)
            wedge = suspension_splitting(M, 2).reduced_homology()
            shifted = {n + 2: g for n, g in _reduced_homology(M).items()}
            for degree in range(1, 7):
                assert wedge.get(degree, ZERO) == shifted.get(degree, ZERO), (c, m, degree)
            # the top cell does not split off at this stage
            assert 7 not in wedge and 7 in shifted


def test_triple_suspension_splits_completely():
    for c in (5, 25):
        for m in (2, 3, 5):
            M = ManifoldSpec(c, m)
            wedge = suspension_splitting(M, 3).reduced_homology()
            assert wedge == {n + 3: g for n, g in _reduced_homology(M).items()}


def test_quadruple_suspension_splits_completely():
    for c in (3, 5, 9, 15):
        for m in (1, 2, 3):
            M = ManifoldSpec(c, m, stably_parallelizable=True, single_top_cell=True)
            wedge = suspension_splitting(M, 4).reduced_homology()
            assert wedge == {n + 4: g for n, g in _reduced_homology(M).items()}


def test_suspension_rendering():
    assert str(suspension_splitting(ManifoldSpec(5, 2), 2)) == "S^4 ∨ S^5 ∨ P^4(5) ∨ P^6(5)"
    M4 = ManifoldSpec(5, 2, stably_parallelizable=True, single_top_cell=True)
    assert str(suspension_splitting(M4, 4)) == "S^6 ∨ S^7 ∨ S^9 ∨ P^6(5) ∨ P^8(5)"
    assert "[suspended core]" in str(suspension_splitting(ManifoldSpec(5, 3), 3))


def test_suspension_hypotheses_are_named():
    with pytest.raises(HypothesisError, match="2 ∤ c"):
        suspension_splitting(ManifoldSpec(4, 2), 2)
    with pytest.raises(HypothesisError, match="6 ∤ c"):
        suspension_splitting(ManifoldSpec(12, 2, stably_parallelizable=True), 3)
    with pytest.raises(HypothesisError, match="m >= 2"):
        suspension_splitting(ManifoldSpec(5, 1), 3)
    with pytest.raises(HypothesisError, match="single_top_cell"):
        suspension_splitting(ManifoldSpec(5, 2, stably_parallelizable=True), 4)
    with pytest.raises(HypothesisError, match="stably_parallelizable"):
        suspension_splitting(ManifoldSpec(5, 2, single_top_cell=True), 4)
    with pytest.raises(ValueError):
        suspension_splitting(ManifoldSpec(5, 2), 5)
