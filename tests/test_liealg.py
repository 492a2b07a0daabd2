"""Quadratic-monomial representations: bracket relations, the Levi-Civita
Casimir against the direct gamma product, the chirality split, and
intertwiner-based equivalence tests."""

import itertools
import math

import numpy as np
import pytest

from cliffspin.clifford import build_irrep, gamma_chain, product_of
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
from cliffspin.linalg import commutator, eye, frozen, max_abs, null_space

S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def casimir_by_permutations(rep):
    """Reference Casimir: the signed sum over all n! index orders."""
    n = rep.n
    total = np.zeros((rep.dim, rep.dim), dtype=complex)
    for perm in itertools.permutations(range(n)):
        order, sign = list(perm), 1
        for i in range(n):
            while order[i] != i:
                j = order[i]
                order[i], order[j] = order[j], order[i]
                sign = -sign
        term = eye(rep.dim)
        for k in range(0, n, 2):
            term = term @ rep.t(perm[k], perm[k + 1])
        total = total + sign * term
    return (2 ** (n // 2) / math.factorial(n)) * total


def gamma_representation(pq):
    """Quadratic monomials straight from the gamma chain (no J solve)."""
    gammas = gamma_chain(pq)
    gens = {(a, b): frozen(0.5 * (gammas[a] @ gammas[b]))
            for a in range(len(gammas)) for b in range(a + 1, len(gammas))}
    eta = np.array([1] * pq[0] + [-1] * pq[1])
    return SoRepresentation(eta=eta, dim=gammas[0].shape[0], generators=gens), gammas


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

    @pytest.mark.parametrize("pq", [(0, 0), (0, 2), (1, 1), (2, 0), (0, 4), (2, 2),
                                    (1, 3), (0, 6), (3, 3), (1, 5), (0, 8), (3, 5)])
    def test_bit_equal_to_permutation_sum(self, pq):
        rep = so_generators(build_irrep(pq))
        assert np.array_equal(casimir_element(rep), casimir_by_permutations(rep))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_sign_bookkeeping_without_clifford_relations(self, n):
        # random generators neither commute nor close: only the signed sum
        # over index orders is shared with the reference
        rng = np.random.default_rng(n)
        gens = {(a, b): rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for a in range(n) for b in range(a + 1, n)}
        rep = SoRepresentation(eta=np.ones(n, dtype=int), dim=3, generators=gens)
        reference = casimir_by_permutations(rep)
        assert max_abs(reference) > 1.0
        assert max_abs(casimir_element(rep) - reference) < 1e-12

    @pytest.mark.parametrize("pq", [(0, 10), (4, 6)])
    def test_ten_index(self, pq):
        rep, gammas = gamma_representation(pq)
        assert max_abs(casimir_element(rep) - product_of(gammas)) < 1e-10


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


def dense_intertwiner_exists(rep_a, rep_b):
    """Reference verdict: the dense Kronecker system for W·T_a = T_b·W has
    an invertible solution (a random element of its null space)."""
    ident = eye(rep_a.dim)
    blocks = [np.kron(ident, rep_a.t(a, b).T) - np.kron(rep_b.t(a, b), ident)
              for a, b in rep_a.pairs()]
    basis = null_space(np.vstack(blocks) if blocks else np.zeros((0, rep_a.dim ** 2)))
    if basis.shape[1] == 0:
        return False
    w = (basis @ np.random.default_rng(0).standard_normal(basis.shape[1])).reshape(
        rep_a.dim, rep_a.dim)
    svals = np.linalg.svd(w, compute_uv=False)
    return bool(svals[-1] >= 1e-6 * svals[0])


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

    @pytest.mark.parametrize("pq", [(0, 4), (2, 2), (0, 6)])
    def test_conjugate_by_random_unitary_is_equivalent(self, pq):
        rep_a = so_generators(build_irrep(pq))
        rng = np.random.default_rng(5)
        z = rng.standard_normal((rep_a.dim,) * 2) + 1j * rng.standard_normal((rep_a.dim,) * 2)
        v, _ = np.linalg.qr(z)
        gens = {key: frozen(v @ g @ v.conj().T) for key, g in rep_a.generators.items()}
        rep_b = SoRepresentation(eta=rep_a.eta, dim=rep_a.dim, generators=gens)
        w = find_intertwiner(rep_a, rep_b)
        assert w is not None
        assert intertwiner_residual(w, rep_a, rep_b) < 1e-10

    @pytest.mark.parametrize("pq", [(0, 2), (4, 0), (2, 2), (0, 6), (3, 3)])
    def test_weyl_pieces_are_inequivalent(self, pq):
        plus, minus = weyl_pieces(build_irrep(pq))
        assert find_intertwiner(plus, minus) is None

    def test_n_12_half_spinors_are_inequivalent(self):
        plus, minus = weyl_pieces(build_irrep((0, 12)))
        assert plus.dim == minus.dim == 32
        assert find_intertwiner(plus, minus) is None

    @pytest.mark.parametrize("pq", [(p, n - p) for n in range(1, 9) for p in range(n + 1)])
    def test_verdict_matches_the_dense_solve(self, pq):
        m = build_irrep(pq)
        if m.n % 2 == 0:
            rep_a, rep_b = weyl_pieces(m)
        else:
            rep_a, rep_b = so_generators(m), so_generators(build_irrep(pq, -1))
        w = find_intertwiner(rep_a, rep_b)
        assert (w is not None) == dense_intertwiner_exists(rep_a, rep_b) == (m.n % 2 == 1)
        if w is not None:
            assert intertwiner_residual(w, rep_a, rep_b) < 1e-10

    def test_generators_that_do_not_square_to_scalars_are_refused(self):
        rng = np.random.default_rng(3)
        gens = {(a, b): frozen(rng.standard_normal((4, 4)))
                for a in range(3) for b in range(a + 1, 3)}
        rep = SoRepresentation(eta=np.ones(3, dtype=int), dim=4, generators=gens)
        with pytest.raises(ValueError, match="not an involution"):
            find_intertwiner(rep, rep)

    def test_a_generator_outside_the_searched_maps_is_refused(self):
        # the 2T^0a agree, so their fixed space holds W = 1, which fails T^12
        rep_a = so_generators(build_irrep((0, 3)))
        gens = dict(rep_a.generators)
        gens[(1, 2)] = frozen(-gens[(1, 2)])
        rep_b = SoRepresentation(eta=rep_a.eta, dim=rep_a.dim, generators=gens)
        with pytest.raises(ValueError, match="fails a generator"):
            find_intertwiner(rep_a, rep_b)

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
