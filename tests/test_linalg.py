"""Linear algebra substrate: Kronecker products, exponentials, polar
factors and the antilinear commutant solver, checked against independent
oracles (entry-wise expansion, truncated series, basis enumeration,
``scipy.linalg.expm``)."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from cliffspin import linalg
from cliffspin.linalg import (
    FIXED_SPACE_PROBES,
    MAX_KRONECKER_DIM,
    STACK_BLOCK_ENTRIES,
    AntilinearOp,
    antilinear_constraints,
    check_kronecker_dim,
    dagger,
    expm,
    eye,
    fixed_spaces,
    fold_max,
    kron,
    linear_combination,
    max_abs,
    null_space,
    phase_normalize,
    polar_unitary,
    solve_antilinear_commutant,
    stack_at,
    stack_blocks,
    stacked_kron,
    tensor_antilinear,
    unitarity_residual,
)
from dense_reference import loop_precondition_failure

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_oracle(a, b):
    """Direct entry expansion of the first-factor-major Kronecker product."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


def expm_series(a, terms=40):
    """Scaling-and-squaring Taylor series, independent of the implementation."""
    a = np.asarray(a, dtype=complex)
    squarings = max(0, int(np.ceil(np.log2(max(max_abs(a), 1e-30)))) + 1)
    scaled = a / (2 ** squarings)
    out = eye(a.shape[0])
    term = eye(a.shape[0])
    for k in range(1, terms):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_complex(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(eye(2), eye(2)), eye(4))

    def test_pauli_blocks(self):
        expected = np.array([
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ], dtype=complex)
        assert max_abs(kron(S1, S3) - expected) == 0.0

    def test_matches_entry_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a, b = random_complex(rng, 2), random_complex(rng, 3)
            assert max_abs(kron(a, b) - kron_oracle(a, b)) < 1e-12

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(12)
        a, b, c, d = (random_complex(rng, 2) for _ in range(4))
        assert max_abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)) < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(13)
        a, b, c = (random_complex(rng, 2) for _ in range(3))
        assert max_abs(kron(kron(a, b), c) - kron(a, kron(b, c))) < 1e-12

    def test_bit_identical_to_numpy_on_non_square_input(self):
        rng = np.random.default_rng(14)
        for shape_a, shape_b in (((2, 3), (4, 1)), ((1, 5), (3, 2)), ((3, 3), (2, 4))):
            a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
            b = 1e8 * rng.standard_normal(shape_b) + 1e-8j * rng.standard_normal(shape_b)
            assert kron(a, b).tobytes() == np.kron(a, b).tobytes()

    def test_bit_identical_to_numpy_on_signed_zeros_and_non_finite_entries(self):
        a = np.array([[-0.0, complex(0.0, -0.0)], [np.inf, complex(1.0, np.nan)]])
        b = np.array([[complex(-0.0, 2.0), -1.0], [complex(np.inf, -np.inf), 0.0]])
        with np.errstate(invalid="ignore"):
            assert kron(a, b).tobytes() == np.kron(a, b).tobytes()
            assert kron(b, a).tobytes() == np.kron(b, a).tobytes()

    def test_bit_identical_to_numpy_on_1x1_input(self):
        a, b = np.array([[-0.0 + 2j]]), S2
        for x, y in ((a, b), (b, a), (a, a)):
            assert kron(x, y).tobytes() == np.kron(x, y).tobytes()

    @pytest.mark.parametrize("a, b", [
        (np.ones(2), S1), (S1, np.ones(2)), (np.ones((2, 2, 2)), S1), (1.0, S1)])
    def test_non_matrix_input_raises(self, a, b):
        with pytest.raises(ValueError, match="two matrices"):
            kron(a, b)


class TestLinearCombination:
    @staticmethod
    def python_sum(coeffs, mats):
        return sum(c * m for c, m in zip(coeffs, mats))

    def test_bit_identical_to_the_python_sum_where_order_matters(self):
        rng = np.random.default_rng(21)
        scales = 10.0 ** rng.integers(-12, 12, size=32)
        coeffs = rng.standard_normal(32) * scales
        mats = np.stack([random_complex(rng, 4) * s for s in scales[::-1]])
        expected = self.python_sum(coeffs, mats)
        # the terms cancel to different roundings in another order
        assert expected.tobytes() != self.python_sum(coeffs[::-1], mats[::-1]).tobytes()
        assert linear_combination(coeffs, mats).tobytes() == expected.tobytes()
        assert linear_combination(coeffs, list(mats)).tobytes() == expected.tobytes()

    def test_bit_identical_for_real_and_complex_coefficients(self):
        rng = np.random.default_rng(22)
        mats = np.stack([random_complex(rng, 3) for _ in range(8)])
        for coeffs in (rng.standard_normal(8),
                       rng.standard_normal(8) + 1j * rng.standard_normal(8)):
            assert (linear_combination(coeffs, mats).tobytes()
                    == self.python_sum(coeffs, mats).tobytes())

    def test_bit_identical_on_signed_zeros(self):
        mats = np.array([[[-0.0, complex(-0.0, -0.0)], [1.0, -0.0]],
                         [[-0.0, -0.0], [-1.0, complex(-0.0, 1.0)]]])
        for coeffs in ([1.0, 1.0], [-0.0, 2.0], [-1.0, -1.0]):
            assert (linear_combination(np.array(coeffs), mats).tobytes()
                    == self.python_sum(coeffs, mats).tobytes())

    def test_empty_combination_is_zero(self):
        out = linear_combination(np.zeros(0), np.zeros((0, 2, 2)))
        assert out.shape == (2, 2) and not out.any()

    def test_one_coefficient_per_matrix(self):
        with pytest.raises(ValueError, match="coefficients"):
            linear_combination(np.ones(3), np.stack([S1, S2]))


class TestExpm:
    def test_zero(self):
        assert max_abs(expm(np.zeros((3, 3))) - eye(3)) == 0.0

    def test_quarter_turn_closed_form(self):
        # gamma squaring to +1: exp(i*pi*gamma/4) = (1 + i*gamma)/sqrt(2)
        gamma = S3
        expected = (eye(2) + 1j * gamma) / np.sqrt(2)
        assert max_abs(expm(1j * np.pi * gamma / 4) - expected) < 1e-13

    def test_against_series_oracle(self):
        rng = np.random.default_rng(21)
        for dim in (2, 4):
            a = 0.5 * random_complex(rng, dim)
            assert max_abs(expm(a) - expm_series(a)) < 1e-12

    def test_inverse_pairs(self):
        rng = np.random.default_rng(22)
        a = random_complex(rng, 4)
        assert max_abs(expm(a) @ expm(-a) - eye(4)) < 1e-12

    def test_adjoint_compatibility(self):
        rng = np.random.default_rng(23)
        a = random_complex(rng, 3)
        assert max_abs(expm(a.conj().T) - expm(a).conj().T) < 1e-12

    def test_rejects_non_finite(self):
        bad = np.array([[np.inf, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            expm(bad)


def with_one_norm(a, norm):
    """``a`` rescaled to the given 1-norm (largest absolute column sum)."""
    return a * (norm / np.abs(a).sum(axis=0).max())


#: 1-norms from far below θ₁₃ ≈ 5.37 (no squaring) to 50 (four squarings)
ONE_NORMS = (1e-3, 0.1, 1.0, 5.0, 5.371920351148152, 6.0, 20.0, 50.0)


class TestExpmAgainstScipy:
    """The numpy Padé(13) exponential against ``scipy.linalg.expm``, which
    the package no longer uses; both are accurate to a few ulps, so they
    agree to 1e-13 relative to the size of the exponential."""

    @staticmethod
    def assert_close(out, ref):
        assert max_abs(out - ref) <= 1e-13 * max(1.0, max_abs(ref))

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16, 32])
    @pytest.mark.parametrize("norm", ONE_NORMS)
    def test_general_complex_input(self, dim, norm):
        rng = np.random.default_rng(dim * 1000 + int(norm * 10))
        a = with_one_norm(random_complex(rng, dim), norm)
        self.assert_close(expm(a), scipy.linalg.expm(a))

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16, 32])
    def test_one_stack_over_all_norms(self, dim):
        rng = np.random.default_rng(40 + dim)
        stack = np.stack([with_one_norm(random_complex(rng, dim), norm)
                          for norm in ONE_NORMS])
        out = expm(stack)
        assert out.shape == stack.shape
        for k, a in enumerate(stack):
            self.assert_close(out[k], scipy.linalg.expm(a))
            assert out[k].tobytes() == expm(a).tobytes()

    @pytest.mark.parametrize("norm", [0.5, 5.0, 50.0])
    def test_non_normal_jordan_block(self, norm):
        # λ·1 + N with N nilpotent: exp = e^λ·Σₖ Nᵏ/k!, a finite sum
        dim = 6
        lam = -0.3 + 0.8j
        nil = np.diag(np.full(dim - 1, norm, dtype=complex), k=1)
        a = lam * eye(dim) + nil
        closed = np.zeros((dim, dim), dtype=complex)
        power = eye(dim)
        for k in range(dim):
            closed += power / math.factorial(k)
            power = power @ nil
        closed *= np.exp(lam)
        self.assert_close(expm(a), closed)
        self.assert_close(expm(a), scipy.linalg.expm(a))

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("norm", [1e-3, 1.0, 5.0, 20.0, 50.0])
    def test_anti_hermitian_input_gives_a_unitary(self, dim, norm):
        rng = np.random.default_rng(500 + dim)
        a = random_complex(rng, dim)
        u = expm(with_one_norm(a - dagger(a), norm))
        assert unitarity_residual(u) <= 1e-14

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (32, 32), (4, 2, 5, 5)])
    def test_zero_gives_exactly_the_identity(self, shape):
        out = expm(np.zeros(shape))
        assert out.dtype == complex and out.shape == shape
        assert np.array_equal(out, np.broadcast_to(eye(shape[-1]), shape))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 3, 3), (3, 0, 0), (0, 0)])
    def test_empty_stack_keeps_its_shape(self, shape):
        out = expm(np.zeros(shape, dtype=complex))
        assert out.shape == shape and out.dtype == complex

    def test_deep_stack(self):
        rng = np.random.default_rng(47)
        norms = 10.0 ** rng.uniform(-3, np.log10(50), size=(2, 3, 4))
        deep = np.stack([with_one_norm(random_complex(rng, 4), x)
                         for x in norms.ravel()]).reshape(2, 3, 4, 4, 4)
        out = expm(deep)
        assert out.shape == deep.shape
        for index in np.ndindex(2, 3, 4):
            assert out[index].tobytes() == expm(deep[index]).tobytes()
            self.assert_close(out[index], scipy.linalg.expm(deep[index]))


class TestStacks:
    """Stacked forms (…, d, d): each slice is bit-identical to the one-matrix
    operation, which keeps its own arithmetic."""

    def test_stacked_kron_broadcasts_and_equals_kron(self):
        rng = np.random.default_rng(31)
        a = np.stack([random_complex(rng, 3) for _ in range(4)])
        b = np.stack([random_complex(rng, 2) for _ in range(4)])
        fixed = random_complex(rng, 2)
        assert stacked_kron(a[0], b[0]).tobytes() == kron(a[0], b[0]).tobytes()
        both, left, right = stacked_kron(a, b), stacked_kron(a, fixed), stacked_kron(fixed, a)
        assert both.shape == left.shape == (4, 6, 6) and right.shape == (4, 6, 6)
        for k in range(4):
            assert both[k].tobytes() == kron(a[k], b[k]).tobytes()
            assert left[k].tobytes() == kron(a[k], fixed).tobytes()
            assert right[k].tobytes() == kron(fixed, a[k]).tobytes()

    def test_stacked_coefficients_give_each_combination(self):
        rng = np.random.default_rng(32)
        mats = np.stack([random_complex(rng, 3) for _ in range(6)])
        coeffs = rng.standard_normal((5, 2, 6)) * 10.0 ** rng.integers(-8, 8, size=(5, 2, 6))
        out = linear_combination(coeffs[..., 1:5], mats[1:5])
        assert out.shape == (5, 2, 3, 3)
        for i in range(5):
            for j in range(2):
                expected = sum(c * m for c, m in zip(coeffs[i, j, 1:5], mats[1:5]))
                assert out[i, j].tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="coefficients"):
            linear_combination(coeffs, mats[:5])

    def test_stacked_expm_equals_each_slice(self):
        rng = np.random.default_rng(33)
        for dim in (1, 2, 4, 8, 32):
            stack = np.stack([0.4 * k * random_complex(rng, dim) for k in range(5)])
            out = expm(stack)
            for k in range(5):
                assert out[k].tobytes() == expm(stack[k]).tobytes()
        deep = np.stack([random_complex(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
        assert expm(deep)[1, 2].tobytes() == expm(deep[1, 2]).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_stacked_expm_rejects_a_non_finite_entry_anywhere(self, bad):
        stack = np.zeros((9, 4, 4), dtype=complex)
        stack[7, 3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            expm(stack)

    def test_expm_refuses_non_square_input(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros((2, 3, 4)))

    def test_dagger_transposes_each_matrix(self):
        rng = np.random.default_rng(34)
        stack = np.stack([random_complex(rng, 3) for _ in range(4)])
        for k in range(4):
            assert dagger(stack)[k].tobytes() == stack[k].conj().T.tobytes()

    def test_antilinear_maps_act_on_each_matrix(self):
        rng = np.random.default_rng(35)
        j = tensor_antilinear(AntilinearOp(S2), AntilinearOp(eye(2)))
        stack = np.stack([random_complex(rng, 4) for _ in range(3)])
        conjugated = j.conjugate_matrix(stack)
        residuals = j.commutation_residual(stack, -1)
        for k in range(3):
            assert conjugated[k].tobytes() == j.conjugate_matrix(stack[k]).tobytes()
            assert residuals[k] == j.commutation_residual(stack[k], -1)

    def test_max_abs_of_each_matrix(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[0, 1, 0] = 3 - 4j
        stack[2, 0, 1] = np.nan
        each = max_abs(stack)
        assert each[:2].tolist() == [5.0, 0.0] and np.isnan(each[2])
        assert max_abs(stack[0]) == 5.0 and isinstance(max_abs(stack[0]), float)
        assert max_abs(stack.reshape(3, 1, 2, 2))[1, 0] == 0.0
        assert max_abs(np.array([-2.0, 1.0])) == 2.0
        assert max_abs(np.zeros((0, 3))) == 0.0

    def test_unitarity_residual_of_each_matrix(self):
        rng = np.random.default_rng(36)
        stack = np.stack([expm(random_complex(rng, 3) - dagger(random_complex(rng, 3)))
                          for _ in range(4)] + [2 * eye(3)])
        each = unitarity_residual(stack)
        assert each.shape == (5,) and each[4] == 3.0
        for k in range(5):
            assert each[k] == unitarity_residual(stack[k])

    def test_stack_at_gathers_by_index(self):
        mats = [k * eye(2) for k in range(5)]
        assert stack_at(mats, [3, 0, 3]).tobytes() == np.stack(
            [mats[3], mats[0], mats[3]]).tobytes()

    def test_fold_max_folds_like_the_loop(self):
        values = np.array([0.5, 2.0, 1.0])
        worst = 0.0
        for v in values:
            worst = max(worst, float(v))
        assert fold_max(0.0, values) == worst == 2.0
        assert fold_max(3.0, values) == 3.0
        assert fold_max(1.5, 2.5) == 2.5
        assert fold_max(0.5, np.zeros(0)) == 0.5

    def test_fold_max_propagates_nan(self):
        # the loop would drop the NaN and let a non-finite residual pass
        assert math.isnan(fold_max(0.0, np.array([0.5, np.nan, 2.0, 1.0])))
        assert math.isnan(fold_max(3.0, np.array([np.nan])))
        assert math.isnan(fold_max(np.nan, np.array([1.0])))
        assert math.isnan(fold_max(np.nan, np.zeros(0)))

    @pytest.mark.parametrize("count, dim", [(0, 32), (1, 32), (8, 32), (9, 32), (300, 32),
                                            (45, 16), (5, 128), (7, 1)])
    @pytest.mark.parametrize("entries", [STACK_BLOCK_ENTRIES, 1 << 15])
    def test_stack_blocks_cover_the_count_in_bounded_blocks(self, count, dim, entries):
        # the one block size, and a larger one patched in
        assert stack_blocks(20, 32)[0] == slice(0, 8)
        with mock.patch.object(linalg, "STACK_BLOCK_ENTRIES", entries):
            blocks = stack_blocks(count, dim)
            assert stack_blocks(40, 32)[0] == slice(0, entries // 32 ** 2)
        assert [i for block in blocks for i in range(count)[block]] == list(range(count))
        for block in blocks:
            size = block.stop - block.start
            assert size >= 1 and (size == 1 or size * dim * dim <= entries)


class TestPolar:
    def test_positive_multiple_of_identity(self):
        assert max_abs(polar_unitary(2 * eye(3)) - eye(3)) < 1e-14

    def test_fixes_unitaries(self):
        u = expm(1j * (S1 + 0.3 * S2))
        assert max_abs(polar_unitary(u) - u) < 1e-13

    def test_diagonal_by_hand(self):
        # diag(2, 3i) = diag(1, i) @ diag(2, 3)
        got = polar_unitary(np.diag([2.0, 3.0j]))
        assert max_abs(got - np.diag([1.0, 1.0j])) < 1e-14

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            polar_unitary(np.diag([1.0, 0.0]))


def antilinear_action(j, v):
    """The action v ↦ K·conj(v) of an antilinear map."""
    return j.matrix @ np.conj(v)


class TestAntilinearOp:
    def test_action_conjugates(self):
        # J·M·J⁻¹ acting on J(v) is J(M·v)
        j = AntilinearOp(S2)
        v, m = np.array([1.0, 1.0j]), np.array([[1, 2j], [0.5, -1]])
        assert max_abs(j.conjugate_matrix(m) @ antilinear_action(j, v)
                       - antilinear_action(j, m @ v)) < 1e-14

    def test_composition_rule(self):
        j1, j2 = AntilinearOp(S2), AntilinearOp(S1)
        v = np.array([0.3 + 1j, -2.0])
        assert max_abs(antilinear_action(j1, antilinear_action(j2, v))
                       - j1.compose(j2) @ v) < 1e-14

    def test_tensor(self):
        j1, j2 = AntilinearOp(S2), AntilinearOp(S1)
        big = tensor_antilinear(j1, j2)
        assert max_abs(big.matrix - kron(S2, S1)) == 0.0

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            AntilinearOp(2 * eye(2))

    def test_square_sign_is_none_when_neither_sign_fits(self):
        # it used to raise, so a NaN real structure made the CLI exit with 2
        assert AntilinearOp(S2).square_sign() == -1
        assert AntilinearOp(eye(2)).square_sign() == 1
        assert AntilinearOp(np.array([[0, 1], [1j, 0]])).square_sign() is None
        k = np.array(S2, dtype=complex)
        k[0, 1] = np.nan
        assert AntilinearOp(k).square_sign() is None


def antilinear_basis_oracle(gammas, sign):
    """Which of 1, s1, s2, s3 satisfy K conj(g) = sign g K for all g."""
    hits = []
    for k in (eye(2), S1, S2, S3):
        if all(max_abs(k @ np.conj(g) - sign * g @ k) < 1e-12 for g in gammas):
            hits.append(k)
    return hits


class TestAntilinearCommutant:
    def test_one_dimensional_imaginary_generator(self):
        # the single gamma [i] with sign -1: plain conjugation works
        j = solve_antilinear_commutant([np.array([[1j]])], [-1])
        assert max_abs(j.matrix - np.array([[1.0]])) < 1e-14

    def test_hermitian_triple_sign_minus(self):
        gammas = [S1, S2, S3]
        hits = antilinear_basis_oracle(gammas, -1)
        assert len(hits) == 1 and max_abs(hits[0] - S2) == 0.0
        j = solve_antilinear_commutant(gammas, [-1, -1, -1])
        # solver representative is proportional to s2 with unit phase
        overlap = abs(np.trace(j.matrix.conj().T @ S2)) / 2
        assert abs(overlap - 1.0) < 1e-12
        assert j.square_sign() == -1

    def test_antihermitian_triple_sign_plus(self):
        gammas = [1j * S1, 1j * S2, 1j * S3]
        hits = antilinear_basis_oracle(gammas, 1)
        assert len(hits) == 1 and max_abs(hits[0] - S2) == 0.0
        j = solve_antilinear_commutant(gammas, [1, 1, 1])
        overlap = abs(np.trace(j.matrix.conj().T @ S2)) / 2
        assert abs(overlap - 1.0) < 1e-12
        assert j.square_sign() == -1

    def test_wrong_sign_pattern_is_empty(self):
        gammas = [1j * S1, 1j * S2, 1j * S3]
        assert antilinear_basis_oracle(gammas, -1) == []
        with pytest.raises(ValueError, match="sign pattern"):
            solve_antilinear_commutant(gammas, [-1, -1, -1])

    def test_reducible_input_is_detected(self):
        blown = [np.kron(eye(2), g) for g in (1j * S1, 1j * S2, 1j * S3)]
        with pytest.raises(ValueError, match="reducible"):
            solve_antilinear_commutant(blown, [1, 1, 1])

    def test_defining_relations_and_unitarity(self):
        gammas = [S1, 1j * S2]
        j = solve_antilinear_commutant(gammas, [1, 1])
        for g in gammas:
            assert j.commutation_residual(g, 1) < 1e-10
        assert max_abs(j.matrix @ j.matrix.conj().T - eye(2)) < 1e-12

    def test_deterministic_output(self):
        gammas = [1j * S1, 1j * S2, 1j * S3]
        a = solve_antilinear_commutant(gammas, [1, 1, 1])
        b = solve_antilinear_commutant(gammas, [1, 1, 1])
        assert np.array_equal(a.matrix, b.matrix)


def test_null_space_of_empty_constraints():
    basis = null_space(np.zeros((0, 3), dtype=complex))
    assert basis.shape == (3, 3)


def test_phase_normalize_leading_entry():
    v = phase_normalize(np.array([0.0, -2j, 1.0]))
    assert abs(v[1].imag) < 1e-15 and v[1].real > 0


def rank_deficient(shape, rank, seed):
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((shape[0], rank)) + 1j * rng.standard_normal((shape[0], rank))
    right = rng.standard_normal((rank, shape[1])) + 1j * rng.standard_normal((rank, shape[1]))
    return left @ right


class TestNullSpaceSvd:
    @pytest.mark.parametrize("shape, rank", [((40, 6), 4), ((12, 12), 9), ((30, 9), 1)])
    def test_tall_input_takes_the_thin_svd(self, shape, rank):
        a = rank_deficient(shape, rank, sum(shape))
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            basis = null_space(a)
        assert svd.call_args.kwargs["full_matrices"] is False
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        full = vh[int(np.sum(s > 1e-9 * s[0])):].conj().T
        assert basis.shape == full.shape == (shape[1], shape[1] - rank)
        assert max_abs(basis @ basis.conj().T - full @ full.conj().T) < 1e-12

    @pytest.mark.parametrize("shape, rank", [((3, 8), 3), ((2, 5), 1)])
    def test_wide_input_returns_the_full_null_space(self, shape, rank):
        a = rank_deficient(shape, rank, sum(shape))
        basis = null_space(a)
        assert basis.shape == (shape[1], shape[1] - rank)
        assert max_abs(a @ basis) < 1e-12
        assert max_abs(basis.conj().T @ basis - eye(shape[1] - rank)) < 1e-12


class TestNullity:
    """The null-space dimension follows the rank rule of ``null_space``."""

    def test_empty_and_zero_constraints(self):
        for a in (np.zeros((0, 3), dtype=complex), np.zeros((5, 3), dtype=complex)):
            assert null_space(a).shape[1] == 3

    @pytest.mark.parametrize("shape, rank", [((6, 4), 2), ((3, 5), 3), ((8, 8), 7),
                                             ((10, 6), 6), ((4, 4), 1)])
    def test_matches_null_space_on_rank_deficient_input(self, shape, rank):
        a = rank_deficient(shape, rank, sum(shape) + rank)
        basis = null_space(a)
        assert basis.shape[1] == shape[1] - rank
        assert max_abs(a @ basis) < 1e-10 * max_abs(a)

    def test_solver_constraints_have_one_solution(self):
        gammas = [1j * S1, 1j * S2, 1j * S3]
        assert null_space(antilinear_constraints(gammas, [1, 1, 1])).shape[1] == 1
        assert null_space(antilinear_constraints(gammas, [-1, -1, -1])).shape[1] == 0


def fixed_space(lefts, rights, dim, sign=1):
    """The one basis of :func:`fixed_spaces` for one sign."""
    (basis,) = fixed_spaces(lefts, rights, dim, (sign,))
    return basis


class TestFixedSpace:
    def test_basis_is_orthonormal_and_fixed(self):
        # K·conj(g) = g·K for the (0,3) gammas: one solution, K ∝ S2
        gammas = [1j * S1, 1j * S2, 1j * S3]
        basis = fixed_space(gammas, np.conj(gammas), 2)
        assert basis.shape == (4, 1)
        k = basis[:, 0].reshape(2, 2)
        assert abs(np.vdot(basis[:, 0], basis[:, 0]) - 1) < 1e-12
        assert all(max_abs(k @ np.conj(g) - g @ k) < 1e-12 for g in gammas)
        assert max_abs(k - k[0, 1] / (-1j) * S2) < 1e-12

    def test_empty_fixed_space_has_no_column(self):
        assert fixed_space([-eye(3)], [eye(3)], 3).shape == (9, 0)

    def test_rounding_noise_is_ranked_against_the_probes(self):
        # conjugated gammas make the images of an empty space rounding noise,
        # not exact zeros; that noise must not count as a direction
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        gammas = [u @ (1j * g) @ u.conj().T for g in (S1, S2, S3)]
        assert [basis.shape for basis in fixed_spaces(gammas, np.conj(gammas), 2, (1, -1))] \
            == [(4, 1), (4, 0)]

    def test_large_fixed_space_reads_the_probe_count(self):
        assert fixed_space([], [], 4).shape == (16, FIXED_SPACE_PROBES)
        assert fixed_space([], [], 1).shape == (1, 1)

    def test_projector_agrees_with_the_dense_null_space(self):
        # two commuting involutions X ↦ L⁻¹·X·R = L·X·R on 2×2 matrices
        lefts, rights = [S3, S1], [S3, S1]
        stacked = np.vstack([np.kron(left, right.T) - np.eye(4)
                             for left, right in zip(lefts, rights)])
        dense = null_space(stacked)
        basis = fixed_space(lefts, rights, 2)
        assert basis.shape == dense.shape == (4, 1)
        assert max_abs(basis @ basis.conj().T - dense @ dense.conj().T) < 1e-12

    @pytest.mark.parametrize("maps, message", [
        (([0.5 * eye(2)], [eye(2)]), "map 0 is not an involution"),
        (([S1], [2 * S1]), "map 0 is not an involution"),
        (([S1 + S3], [S1]), "map 0 is not an involution"),
        (([S1, S3], [S1, S1]), "maps 0 and 1 do not commute"),
        (([S1, S1 + 0.5 * S3], [S1, S1]), "is not an involution"),
    ])
    def test_preconditions_are_checked_first(self, maps, message):
        with pytest.raises(ValueError, match=message):
            fixed_space(*maps, 2)

    def test_one_left_matrix_per_right_matrix(self):
        with pytest.raises(ValueError, match="2 left and 1 right matrices"):
            fixed_spaces([S1, S3], [S1], 2, (1,))


class TestCommutingInvolutions:
    """The precondition of ``fixed_spaces``, the maps X ↦ Lᵢ⁻¹·X·Rᵢ as
    commuting involutions, against the loop of ``dense_reference``."""

    # the (0,3) gammas: K ↦ γ⁻¹·K·conj(γ) are commuting involutions
    GOOD = [1j * S1, 1j * S2, 1j * S3]

    def test_takes_nested_lists_and_empty_stacks(self):
        assert [b.shape for b in fixed_spaces([[[1]], -eye(1)], [[[1]], eye(1)], 1, (1, -1))] \
            == [(1, 0), (1, 0)]
        assert [b.shape for b in fixed_spaces([], [], 3, (1, -1))] == [(9, 3), (9, 3)]
        assert fixed_spaces(self.GOOD, np.conj(self.GOOD), 2, ()) == []

    def test_lowest_non_commuting_pair_is_named(self):
        # map 3 fails against map 1 and map 4 against map 0: the report
        # names (1, 3), the lowest pair in the order i, then j < i
        lefts, rights = [S1, S3, S1, S1, S3], [S1, S3, S1, eye(2), eye(2)]
        assert loop_precondition_failure(lefts, rights, 2) \
            == "fixed_space: maps 1 and 3 do not commute"
        with pytest.raises(ValueError, match="^fixed_space: maps 1 and 3 do not commute$"):
            fixed_space(lefts, rights, 2)

    def test_involution_failure_after_earlier_pairs(self):
        # pair (0, 1) fails before map 2 is checked, and map 2 fails before
        # its own pairs
        with pytest.raises(ValueError, match="maps 0 and 1 do not commute"):
            fixed_space([S1, S3, 0.5 * S1], [S1, S1, S1], 2)
        with pytest.raises(ValueError, match="map 2 is not an involution"):
            fixed_space([S1, S1, S1 + S3, S3], [S1, S1, S1, S1], 2)

    def test_nan_is_not_an_involution(self):
        with pytest.raises(ValueError, match="map 0 is not an involution"):
            fixed_space([S1], [np.full((2, 2), np.nan)], 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_loop_across_blocks(self, seed):
        # d = 64 puts STACK_BLOCK_ENTRIES // d² pairs in a block, so
        # a dozen maps span many blocks; faults land at random maps from 5 on,
        # whose pairs lie past the first block.  A halved diagonal is no
        # involution map.  Every map is a phased permutation, so a detector
        # that answers None sends the same maps through the dense path.
        rng = np.random.default_rng(seed)
        dim = 64
        assert STACK_BLOCK_ENTRIES // (dim * dim) < 10
        diag = [np.diag(rng.choice([-1.0, 1.0], size=dim)).astype(complex) for _ in range(12)]
        lefts, rights = list(diag), list(diag)
        swap = np.eye(dim, dtype=complex)[np.arange(dim) ^ 1]
        for k in rng.choice(np.arange(5, 12), size=rng.integers(1, 4), replace=False):
            if rng.random() < 0.7:
                lefts[k] = rights[k] = swap
            else:
                lefts[k] = 0.5 * diag[k]
        expected = loop_precondition_failure(lefts, rights, dim)
        for path in (contextlib.nullcontext(),
                     mock.patch.object(linalg, "phased_permutations", return_value=None)):
            with path:
                if expected is None:
                    assert len(fixed_spaces(lefts, rights, dim, (1, -1))) == 2
                else:
                    with pytest.raises(ValueError, match=f"^{expected}$"):
                        fixed_space(lefts, rights, dim)

    def test_checked_maps_skip_the_precondition(self):
        # the precondition runs once, and every further sign skips it
        spy = mock.Mock(wraps=linalg._check_commuting_involutions)
        with mock.patch.object(linalg, "_check_commuting_involutions", spy):
            spaces = fixed_spaces(self.GOOD, np.conj(self.GOOD), 2, (1, -1, 1))
        assert spy.call_count == 1
        assert [basis.shape[1] for basis in spaces] == [1, 0, 1]


class TestKroneckerLimit:
    def test_limit_admits_n_10(self):
        assert MAX_KRONECKER_DIM == 32
        check_kronecker_dim(32)

    def test_solver_refuses_above_the_limit(self):
        gammas = [np.eye(64, dtype=complex)]
        with pytest.raises(ValueError, match="dimension 64.*limit 32"):
            solve_antilinear_commutant(gammas, [1])
        with pytest.raises(ValueError, match="dimension 64"):
            antilinear_constraints([], [], dim=64)
