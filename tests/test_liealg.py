"""Quadratic-monomial representations: bracket relations, the Levi-Civita
Casimir against the direct gamma product, the chirality split, and
intertwiner-based equivalence tests."""

import dataclasses
import gc
import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffspin import linalg
from cliffspin.clifford import build_irrep, gamma_chain, product_of
from cliffspin.commuting import build_commuting, combined_generators
from cliffspin.liealg import (
    SoRepresentation,
    bracket_residual,
    bracket_residual_table,
    casimir_element,
    expected_structure,
    find_intertwiner,
    flipped_representation,
    intertwiner_residual,
    quadratic_monomials,
    so_generators,
    structure_survival,
    weyl_pieces,
    weyl_projectors,
)
from cliffspin.linalg import commutator, eye, frozen, max_abs, null_space
from dense_reference import loop_bracket_table

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
    for pq in [(0, 0), (1, 0), (0, 1)]:
        rep = so_generators(build_irrep(pq))
        assert rep.generators == {}
        table = bracket_residual_table(rep)
        assert table.shape == (0, 0)
        assert np.array_equal(table, loop_bracket_table(rep))
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


def load_sweep():
    """The benchmark's ``signature_sweep`` list, ``bench/workloads.SWEEP``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SWEEP


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(z)[0]


def spied_table(rep):
    """The bracket table, and whether the dense path computed it."""
    with mock.patch.object(linalg, "_dense_pair_residuals",
                           wraps=linalg._dense_pair_residuals) as spy:
        table = bracket_residual_table(rep)
    return table, spy.called


def kernel_table(rep):
    table, dense = spied_table(rep)
    assert not dense
    return table


def test_quadratic_monomials_are_the_ascending_half_products():
    m = build_irrep((1, 3))
    quads = quadratic_monomials(m.gammas)
    assert list(quads) == [(a, b) for a in range(4) for b in range(a + 1, 4)]
    for (a, b), t in quads.items():
        assert np.array_equal(t, 0.5 * (m.gammas[a] @ m.gammas[b]))
        assert not t.flags.writeable
    assert so_generators(m).generators.keys() == quads.keys()
    assert quadratic_monomials(m.gammas[:1]) == {}


class TestPhasedPermutationKernel:
    SWEEP = load_sweep()

    @pytest.mark.parametrize("p, q, branch", SWEEP)
    def test_sweep_bit_equal_to_dense(self, p, q, branch):
        rep = so_generators(build_irrep((p, q), branch))
        for r in (rep, flipped_representation(rep)):
            assert np.array_equal(kernel_table(r), loop_bracket_table(r))

    @pytest.mark.parametrize("p, q, branch", SWEEP)
    def test_negated_metric_bit_equal_to_dense(self, p, q, branch):
        rep = so_generators(build_irrep((p, q), branch))
        for r in (rep, flipped_representation(rep)):
            wrong = SoRepresentation(eta=-np.asarray(r.eta), dim=r.dim,
                                     generators=r.generators)
            table = kernel_table(wrong)
            assert np.array_equal(table, loop_bracket_table(wrong))
            if r.n >= 3:
                assert table.max() == 1.0

    @pytest.mark.parametrize("pair", [((4, 0), (0, 6)), ((0, 3), (0, 3))])
    def test_combined_generators_bit_equal_to_dense(self, pair):
        combined = build_commuting(*pair).generators
        table = kernel_table(combined)
        assert np.array_equal(table, loop_bracket_table(combined))
        assert table.max() == 0.0

    def test_anticommuting_split_bit_equal_to_dense(self):
        m = build_irrep((0, 4))
        combined = combined_generators(list(m.gammas[:3]), list(m.gammas[3:]),
                                       [-1, -1, -1], [-1])
        table = kernel_table(combined)
        assert np.array_equal(table, loop_bracket_table(combined))
        assert table.max() >= 0.5

    @pytest.mark.parametrize("pq", [(0, 3), (2, 1), (0, 4), (3, 2), (1, 5), (4, 4)])
    def test_exchanged_generators_bit_equal_to_dense(self, pq):
        # T⁰¹ and T⁰² swapped: still phased permutations, but the structure
        # term now lands on other columns than the commutator
        rep = so_generators(build_irrep(pq))
        gens = dict(rep.generators)
        gens[(0, 1)], gens[(0, 2)] = gens[(0, 2)], gens[(0, 1)]
        swapped = SoRepresentation(eta=rep.eta, dim=rep.dim, generators=gens)
        table = kernel_table(swapped)
        assert np.array_equal(table, loop_bracket_table(swapped))
        assert table.max() >= 0.5

    @pytest.mark.parametrize("seed, dim", [(seed, dim) for seed in range(4) for dim in (3, 6)])
    def test_random_phased_permutations_bit_equal_to_dense(self, seed, dim):
        # permutations that are not Pauli strings put TᵢTⱼ, TⱼTᵢ and the
        # structure term on different columns of a row; power-of-two
        # magnitudes keep every product and sum exact
        rng = np.random.default_rng(seed)
        n = 4
        gens = {}
        for a in range(n):
            for b in range(a + 1, n):
                g = np.zeros((dim, dim), dtype=complex)
                g[np.arange(dim), rng.permutation(dim)] = (
                    2.0 ** rng.integers(-3, 4, dim) * rng.choice([1, -1, 1j, -1j], dim))
                gens[(a, b)] = frozen(g)
        rep = SoRepresentation(eta=rng.choice([1, -1], n), dim=dim, generators=gens)
        table = kernel_table(rep)
        assert np.array_equal(table, loop_bracket_table(rep))
        assert table.max() > 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n), st.sampled_from((1, -1)))))
    def test_bit_equal_to_dense_over_signatures(self, pnb):
        p, n, branch = pnb
        rep = so_generators(build_irrep((p, n - p), 1 if n % 2 == 0 else branch))
        assert np.array_equal(kernel_table(rep), loop_bracket_table(rep))

    @pytest.mark.parametrize("pq", [(0, 3), (2, 2), (1, 4)])
    def test_noisy_gammas_take_the_dense_loop(self, pq):
        m = build_irrep(pq)
        rng = np.random.default_rng(m.n)
        noisy = [g + 1e-3 * rng.standard_normal(g.shape) for g in m.gammas]
        rep = SoRepresentation(eta=np.asarray(m.eta), dim=m.dim, generators={
            (a, b): frozen(0.5 * (noisy[a] @ noisy[b]))
            for a in range(m.n) for b in range(a + 1, m.n)})
        table, dense = spied_table(rep)
        assert dense
        assert np.array_equal(table, loop_bracket_table(rep))
        assert 0.0 < table.max() < 0.1

    @pytest.mark.parametrize("pq", [(0, 3), (2, 2), (1, 4)])
    def test_conjugated_generators_take_the_dense_loop(self, pq):
        rep = so_generators(build_irrep(pq))
        u = random_unitary(rep.dim, sum(pq))
        conjugated = SoRepresentation(eta=rep.eta, dim=rep.dim, generators={
            key: frozen(u @ g @ u.conj().T) for key, g in rep.generators.items()})
        table, dense = spied_table(conjugated)
        assert dense
        assert np.array_equal(table, loop_bracket_table(conjugated))
        assert table.max() < 1e-12

    def test_entry_off_the_permutation_support_takes_the_dense_loop(self):
        rep = so_generators(build_irrep((0, 4)))
        gens = dict(rep.generators)
        g = np.array(gens[(0, 1)])
        row = 0
        off = next(c for c in range(rep.dim) if g[row, c] == 0)
        g[row, off] = 1e-300
        gens[(0, 1)] = frozen(g)
        tiny = SoRepresentation(eta=rep.eta, dim=rep.dim, generators=gens)
        table, dense = spied_table(tiny)
        assert dense
        assert np.array_equal(table, loop_bracket_table(tiny))
        assert table.max() < 1e-299

    @pytest.mark.parametrize("pq", [(0, 14), (7, 7)])
    def test_large_tables_are_exact_and_small(self, pq):
        # 91×91 tables at d = 128, far past the per-pair loop's practical reach
        rep = so_generators(build_irrep(pq))
        tracemalloc.start()
        try:
            table, dense = spied_table(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not dense
        assert table.shape == (91, 91)
        assert np.all(table == 0.0)
        assert peak < 8 * 2 ** 20


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

    def test_a_call_leaves_no_cyclic_garbage(self):
        # the memo's recursive closure referred to itself, a cycle that kept
        # the 2^(n-1) memo matrices alive until the cyclic collector ran
        rep = so_generators(build_irrep((0, 8)))
        gc.collect()
        gc.disable()
        try:
            casimir_element(rep)
            assert gc.collect() == 0
        finally:
            gc.enable()

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
        v = random_unitary(rep_a.dim, 5)
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

    @pytest.mark.parametrize("pq", [(0, 4), (3, 1), (0, 6)])
    def test_a_nan_generator_outside_the_searched_maps_is_refused(self, pq):
        # a NaN in T^12 used to be dropped by the residual's max fold, so a
        # W came back with a residual of about 1e-16
        rep = so_generators(build_irrep(pq))
        gens = dict(rep.generators)
        bad_t = np.array(gens[(1, 2)])
        bad_t[0, 0] = np.nan
        gens[(1, 2)] = frozen(bad_t)
        bad = SoRepresentation(eta=rep.eta, dim=rep.dim, generators=gens)
        with pytest.raises(ValueError, match="fails a generator: residual nan"):
            find_intertwiner(rep, bad)
        assert math.isnan(intertwiner_residual(eye(rep.dim), rep, bad))

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


def product_eigenspace_exchange_residual(m) -> float:
    """For s ∈ {2, 6}: J swaps the ±i eigenspaces of the product element,
    checked as the operator identity J·π⁺ = π⁻·J with π^± the
    eigenprojections of P onto ±i."""
    if m.s not in (2, 6):
        raise ValueError("eigenvalue exchange is specific to s = 2 or 6")
    plus = 0.5 * (eye(m.dim) - 1j * m.P)
    minus = 0.5 * (eye(m.dim) + 1j * m.P)
    k = m.J.matrix
    return max_abs(k @ np.conj(plus) - minus @ k)


@pytest.mark.parametrize("pq", [(0, 2), (2, 0), (0, 6), (3, 1)])
def test_j_exchanges_conjugate_halves(pq):
    # s in {2, 6}: J maps the +i eigenspace of the product element onto -i
    m = build_irrep(pq)
    assert m.s in (2, 6)
    assert product_eigenspace_exchange_residual(m) < 1e-10


def test_nan_generators_fail_structure_survival():
    # a max fold used to drop the NaN commutators and keep P and J
    m = build_irrep((0, 4))
    broken = dataclasses.replace(
        m, gammas=(*m.gammas[:-1], np.full_like(m.gammas[-1], np.nan)))
    survey = structure_survival(broken)
    assert math.isnan(survey["p_residual"]) and math.isnan(survey["j_residual"])
    assert not survey["has_p"] and not survey["has_j"]
    assert not survey["matches_table"]
