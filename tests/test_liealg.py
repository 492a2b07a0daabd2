"""Quadratic-monomial representations: bracket relations, the Levi-Civita
Casimir against the direct gamma product, the chirality split, and
intertwiner-based equivalence tests."""

import numpy as np
import pytest

from cliffspin.clifford import build_irrep
from cliffspin.liealg import (
    SoRepresentation,
    bracket_residual,
    casimir_element,
    expected_structure,
    find_intertwiner,
    flipped_representation,
    intertwiner_residual,
    product_eigenspace_exchange_residual,
    so_generators,
    structure_survival,
    weyl_pieces,
    weyl_projectors,
)
from cliffspin.linalg import commutator, eye, frozen, max_abs

S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def test_empty_generator_set():
    rep = so_generators(build_irrep((0, 0)))
    assert rep.generators == {}
    assert bracket_residual(rep) == 0.0


def test_single_generator_value():
    rep = so_generators(build_irrep((0, 2)))
    # T^{01} = (i s1)(i s2)/2 = -(i/2) s3
    assert max_abs(rep.t(0, 1) - (-0.5j) * S3) < 1e-15
    assert max_abs(rep.t(1, 0) + rep.t(0, 1)) == 0.0
    assert max_abs(rep.t(0, 0)) == 0.0


@pytest.mark.parametrize("pq", [(0, 3), (3, 0), (1, 2), (2, 2), (0, 5), (4, 1)])
def test_bracket_relation(pq):
    rep = so_generators(build_irrep(pq))
    assert bracket_residual(rep) < 1e-12


@pytest.mark.parametrize("pq", [(0, 3), (1, 2), (2, 2)])
def test_sign_flip_isomorphism(pq):
    rep = so_generators(build_irrep(pq))
    assert bracket_residual(flipped_representation(rep)) < 1e-12


def test_single_sign_flip_breaks_brackets():
    rep = so_generators(build_irrep((0, 3)))
    gens = dict(rep.generators)
    gens[(0, 1)] = frozen(-gens[(0, 1)])
    broken = SoRepresentation(eta=rep.eta, dim=rep.dim, generators=gens)
    assert bracket_residual(broken) >= 0.5


class TestCasimir:
    def test_two_index_hand_expansion(self):
        m = build_irrep((0, 2))
        rep = so_generators(m)
        # (2/2!) * (T^{01} - T^{10}) = 2 T^{01} = gamma0 gamma1
        by_hand = rep.t(0, 1) - rep.t(1, 0)
        assert max_abs(by_hand - m.gammas[0] @ m.gammas[1]) < 1e-14
        assert max_abs(casimir_element(rep) - m.P) < 1e-14

    @pytest.mark.parametrize("pq", [(4, 0), (0, 4), (2, 2)])
    def test_four_index(self, pq):
        m = build_irrep(pq)
        assert max_abs(casimir_element(so_generators(m)) - m.P) < 1e-10

    def test_six_index(self):
        m = build_irrep((0, 6))
        assert max_abs(casimir_element(so_generators(m)) - m.P) < 1e-10

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            casimir_element(so_generators(build_irrep((0, 3))))


class TestWeylSplit:
    def test_rank_one_projectors(self):
        plus, minus = weyl_projectors(build_irrep((1, 1)))
        assert abs(np.trace(plus) - 1) < 1e-12
        assert abs(np.trace(minus) - 1) < 1e-12
        assert max_abs(plus + minus - eye(2)) == 0.0
        assert max_abs(plus @ plus - plus) < 1e-14

    def test_generators_preserve_split(self):
        m = build_irrep((4, 0))
        plus, minus = weyl_projectors(m)
        assert abs(np.trace(plus) - 2) < 1e-12
        rep = so_generators(m)
        for g in rep.generators.values():
            assert max_abs(commutator(g, plus)) < 1e-13
            assert max_abs(commutator(g, minus)) < 1e-13

    def test_zero_dimensional_rejected(self):
        with pytest.raises(ValueError):
            weyl_projectors(build_irrep((0, 0)))
        with pytest.raises(ValueError):
            weyl_projectors(build_irrep((0, 3)))

    def test_pieces_satisfy_brackets(self):
        for pq in [(2, 0), (4, 0), (1, 1)]:
            for piece in weyl_pieces(build_irrep(pq)):
                assert bracket_residual(piece) < 1e-12


class TestIntertwiner:
    def test_self_equivalence(self):
        rep = so_generators(build_irrep((0, 3)))
        w = find_intertwiner(rep, rep)
        assert w is not None
        assert intertwiner_residual(w, rep, rep) < 1e-10

    @pytest.mark.parametrize("pq", [(0, 3), (1, 2)])
    def test_branches_are_equivalent(self, pq):
        rep_a = so_generators(build_irrep(pq, 1))
        rep_b = so_generators(build_irrep(pq, -1))
        w = find_intertwiner(rep_a, rep_b)
        assert w is not None
        svals = np.linalg.svd(w, compute_uv=False)
        assert svals[-1] > 1e-6 * svals[0]
        assert intertwiner_residual(w, rep_a, rep_b) < 1e-10

    @pytest.mark.parametrize("pq", [(0, 2), (4, 0)])
    def test_weyl_pieces_are_inequivalent(self, pq):
        plus, minus = weyl_pieces(build_irrep(pq))
        assert find_intertwiner(plus, minus) is None

    def test_dimension_mismatch_rejected(self):
        rep_a = so_generators(build_irrep((0, 2)))
        rep_b = so_generators(build_irrep((0, 4)))
        with pytest.raises(ValueError):
            find_intertwiner(rep_a, rep_b)


def test_expected_structure_rows():
    assert (expected_structure(0).has_j, expected_structure(0).has_p) == (True, True)
    assert (expected_structure(2).has_j, expected_structure(2).has_p) == (False, True)
    assert (expected_structure(5).has_j, expected_structure(5).has_p) == (True, False)
    assert (expected_structure(6).has_j, expected_structure(6).has_p) == (False, True)
    assert expected_structure(9).s == 1


@pytest.mark.parametrize("pq", [(p, n - p) for n in range(1, 6) for p in range(n + 1)])
def test_structure_survival_matches_table(pq):
    m = build_irrep(pq)
    survey = structure_survival(m)
    assert survey["matches_table"], (pq, survey)


@pytest.mark.parametrize("pq", [(0, 2), (2, 0), (0, 6), (3, 1)])
def test_j_exchanges_conjugate_halves(pq):
    # s in {2, 6}: J maps the +i eigenspace of the product element onto -i
    m = build_irrep(pq)
    assert m.s in (2, 6)
    assert product_eigenspace_exchange_residual(m) < 1e-10
