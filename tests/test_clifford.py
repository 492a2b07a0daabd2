"""Clifford module construction and structure maps.

Expected matrices below are hand-derived from the Pauli algebra
(s1 s2 = i s3 and cyclic); sign-table rows are checked by independent
measurement (attempting both antilinear sign patterns)."""

import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffspin import clifford, linalg
from cliffspin.clifford import (
    Signature,
    build_irrep,
    chirality_phase,
    closed_form_real_structure,
    hatted_real_structure,
    measure_sign_triple,
    module_residuals,
    product_of,
    sign_triple,
    verify_module_signs,
)
from cliffspin.linalg import (
    AntilinearOp,
    antilinear_constraints,
    eye,
    fixed_spaces,
    kron,
    max_abs,
    null_space,
    solve_antilinear_commutant,
)
from cliffspin.serialize import module_from_dict, module_to_json

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)

ALL_SIGNATURES_5 = [(p, n - p) for n in range(6) for p in range(n + 1)]


def test_trivial_module():
    m = build_irrep((0, 0))
    assert m.dim == 1 and m.gammas == ()
    assert np.array_equal(m.P, eye(1))
    assert np.array_equal(m.chirality, eye(1))
    assert max_abs(m.J.matrix - eye(1)) < 1e-14
    assert m.Jhat is not None  # s = 0


@pytest.mark.parametrize("branch", [1, -1])
def test_single_negative_generator(branch):
    m = build_irrep((0, 1), branch)
    assert m.dim == 1
    assert max_abs(m.gammas[0] - np.array([[1j * branch]])) == 0.0
    # the chirality scalar flips with the branch
    assert max_abs(m.chirality - np.array([[-branch]])) == 0.0


def test_pauli_pair_construction():
    m = build_irrep((2, 0))
    assert max_abs(m.gammas[0] - S1) == 0.0
    assert max_abs(m.gammas[1] - S2) == 0.0
    anti = m.gammas[0] @ m.gammas[1] + m.gammas[1] @ m.gammas[0]
    assert max_abs(anti) == 0.0


def test_product_element_small_cases():
    assert np.array_equal(product_of(build_irrep((0, 0)).gammas, 1), eye(1))
    # (0,2): P = (i s1)(i s2) = -i s3, squaring to -1 (s = 2)
    m = build_irrep((0, 2))
    assert max_abs(m.P - (-1j) * S3) < 1e-15
    assert max_abs(m.P @ m.P + eye(2)) == 0.0
    # (1,0): P = branch, squaring to +1 (s = 7)
    for branch in (1, -1):
        m = build_irrep((1, 0), branch)
        assert max_abs(m.P - branch * eye(1)) == 0.0


def test_chirality_small_cases():
    # (0,2): i^3 * (-i s3) = -s3;  (2,0): i^21 * (i s3) = -s3
    assert max_abs(build_irrep((0, 2)).chirality + S3) < 1e-15
    assert max_abs(build_irrep((2, 0)).chirality + S3) < 1e-15


def test_real_structure_small_cases():
    # (0,1): s = 1, plain conjugation
    m = build_irrep((0, 1))
    assert max_abs(m.J.matrix - eye(1)) < 1e-14
    # (0,3): s = 3, K proportional to s2, J^2 = -1
    m = build_irrep((0, 3))
    assert max_abs(m.J.matrix - np.array([[0, 1], [-1, 0]], dtype=complex)) < 1e-12
    assert m.J.square_sign() == -1


def test_hatted_structure_cases():
    m = build_irrep((0, 0))
    assert max_abs(m.Jhat.matrix - m.J.matrix) == 0.0
    m = build_irrep((0, 2))
    # anticommutes with both gammas, squares to eps'' * eps = +1
    for g in m.gammas:
        assert m.Jhat.commutation_residual(g, -1) < 1e-12
    assert m.Jhat.square_sign() == 1
    m = build_irrep((0, 6))
    assert m.Jhat.square_sign() == -1  # eps''*eps = (-1)(+1)
    with pytest.raises(ValueError):
        hatted_real_structure(build_irrep((0, 1)))


@pytest.mark.parametrize("pq", ALL_SIGNATURES_5)
def test_module_invariants(pq):
    m = build_irrep(pq)
    res = module_residuals(m)
    assert max(res.values()) < 1e-12, res


@pytest.mark.parametrize("pq", [(0, 1), (1, 0), (0, 3), (2, 1), (1, 2), (3, 2)])
def test_odd_branches_differ_only_in_last_gamma(pq):
    plus = build_irrep(pq, 1)
    minus = build_irrep(pq, -1)
    for a in range(plus.n - 1):
        assert np.array_equal(plus.gammas[a], minus.gammas[a])
    assert max_abs(plus.gammas[-1] + minus.gammas[-1]) == 0.0
    # chirality is a scalar that flips with the branch
    for m in (plus, minus):
        scalar = m.chirality[0, 0]
        assert abs(abs(scalar) - 1.0) < 1e-12
        assert max_abs(m.chirality - scalar * eye(m.dim)) < 1e-12
    assert max_abs(plus.chirality + minus.chirality) < 1e-12


@pytest.mark.parametrize("pq", ALL_SIGNATURES_5)
def test_j_past_product_element(pq):
    # J P = eps'^n P J, which collapses to eps' for every row of the table
    m = build_irrep(pq)
    eps_prime = sign_triple(m.s).eps_prime
    lam = eps_prime ** m.n
    assert m.J.commutation_residual(m.P, lam) < 1e-12
    if m.n % 2 == 1:
        assert lam == eps_prime
    else:
        assert lam == 1


def test_recomputed_maps_match_stored():
    m = build_irrep((3, 2))
    assert max_abs(product_of(m.gammas, m.dim) - m.P) == 0.0
    assert max_abs(chirality_phase(m.s) * product_of(m.gammas, m.dim) - m.chirality) == 0.0
    j = closed_form_real_structure(m.gammas, sign_triple(m.s).eps_prime, m.dim)
    assert np.array_equal(j.matrix, m.J.matrix)


def test_measured_signs_match_table_small():
    rows = {
        (0, 0): (1, 1, 1),
        (0, 1): (1, -1, None),
        (1, 0): (1, 1, None),
        (2, 0): (1, 1, -1),
        (1, 1): (1, 1, 1),
        (0, 2): (-1, 1, -1),
    }
    for pq, expected in rows.items():
        measured, _ = measure_sign_triple(build_irrep(pq))
        assert tuple(measured) == expected, pq


@pytest.mark.parametrize("pq", [(0, 2), (1, 3), (0, 3), (2, 5), (3, 5)])
def test_measurement_ignores_a_faulty_stored_j(pq):
    # the triple is measured from the gammas, so a broken stored J leaves
    # the row unchanged while the module residuals flag it
    m = build_irrep(pq)
    rng = np.random.default_rng(sum(pq))
    noise = rng.standard_normal((m.dim, m.dim)) + 1j * rng.standard_normal((m.dim, m.dim))
    perturbed, _ = np.linalg.qr(m.J.matrix + 1e-3 * noise)
    faulty = [AntilinearOp(perturbed)]
    if m.Jhat is not None:
        faulty.append(m.Jhat)  # the wrong variant: Ĵ anticommutes with every gamma
    for j in faulty:
        broken = dataclasses.replace(m, J=j)
        measured, solved = measure_sign_triple(broken)
        assert measured == sign_triple(m.s)
        assert np.array_equal(solved.matrix, m.J.matrix)
        assert module_residuals(broken)["j_gamma"] > 1e-4


def test_reducible_gammas_have_no_measured_structure():
    # doubled (0,3) gammas: the commuting pattern has a 4-dimensional
    # solution space, the other none, so neither pattern is solvable
    m = build_irrep((0, 3))
    doubled = dataclasses.replace(
        m, gammas=tuple(kron(eye(2), g) for g in m.gammas),
        P=kron(eye(2), m.P), chirality=kron(eye(2), m.chirality))
    with pytest.raises(ValueError, match="no antilinear structure found for either sign pattern"):
        measure_sign_triple(doubled)


@pytest.mark.parametrize("pq, row", [((0, 12), (-1, 1, 1)), ((5, 7), (-1, 1, -1))],
                         ids=["0-12", "5-7"])
def test_n_12_modules_are_built_and_measured(pq, row):
    # neither the closed-form J nor the fixed-space measurement forms a
    # Kronecker system: no dense solve runs, and every SVD is of the
    # d²×FIXED_SPACE_PROBES probe images, never of a d²-unknown system
    svd_widths = []
    real_svd = np.linalg.svd

    def svd_spy(a, *args, **kwargs):
        svd_widths.append(np.shape(a)[-1])
        return real_svd(a, *args, **kwargs)

    dense = {name: mock.Mock(wraps=getattr(linalg, name))
             for name in ("null_space", "antilinear_constraints", "solve_antilinear_commutant")}
    with mock.patch.multiple(linalg, **dense), mock.patch.object(np.linalg, "svd", svd_spy):
        m = build_irrep(pq)
        measured, _ = measure_sign_triple(m)
    assert all(spy.call_count == 0 for spy in dense.values())
    assert svd_widths and max(svd_widths) <= linalg.FIXED_SPACE_PROBES
    assert m.dim == 64
    assert all(value == 0.0 for value in module_residuals(m).values())
    assert tuple(measured) == row == sign_triple(m.s)


@pytest.mark.parametrize("pq", [(0, 3), (2, 2), (3, 4)])
def test_one_precondition_per_sign_measurement(pq):
    # the sign s changes neither the involution nor the commutation check,
    # so both sign patterns share one
    m = build_irrep(pq)
    spy = mock.Mock(wraps=linalg._check_commuting_involutions)
    with mock.patch.object(linalg, "_check_commuting_involutions", spy):
        measured, _ = measure_sign_triple(m)
    assert spy.call_count == 1
    assert tuple(measured) == sign_triple(m.s)


def test_sign_measurement_memory_at_n_15():
    # the blocked pairwise precondition keeps no all-pairs temporary: the
    # fifteen d = 128 gammas give 105 pairs of 128×128 products
    m = build_irrep((7, 8))
    tracemalloc.start()
    try:
        measure_sign_triple(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


def test_oversized_modules_are_refused_before_anything_is_built():
    assert clifford.MAX_MODULE_DIM == 128
    with mock.patch.object(clifford, "gamma_chain", side_effect=AssertionError("built")):
        with pytest.raises(ValueError, match=r"dimension 2\^15 .*limit 128"):
            build_irrep((0, 30))
        with pytest.raises(ValueError, match=r"dimension 2\^8 .*limit 128"):
            build_irrep((16, 0))
        with pytest.raises(ValueError, match=r"dimension 2\^500000000 "):
            build_irrep((0, 10 ** 9))
    with mock.patch.object(clifford, "build_irrep", side_effect=AssertionError("built")):
        with pytest.raises(ValueError, match=r"dimension 2\^15 .*limit 128"):
            verify_module_signs(30)
    assert build_irrep((0, 15)).dim == 128


def test_perturbed_gammas_are_a_failed_sign_row():
    # gammas that are no longer involutions fail the fixed-space precondition
    def perturbed_irrep(sig, branch=1):
        m = build_irrep(sig, branch)
        rng = np.random.default_rng(m.n)
        noise = [1e-3 * rng.standard_normal((m.dim, m.dim)) for _ in m.gammas]
        return dataclasses.replace(m, gammas=tuple(g + e for g, e in zip(m.gammas, noise)))

    with mock.patch.object(clifford, "build_irrep", perturbed_irrep):
        report = verify_module_signs(3)
    assert not report.passed
    failed = [d for d in report.details if not d["passed"]]
    assert {(d["p"], d["q"]) for d in failed} == {
        (p, n - p) for n in range(1, 4) for p in range(n + 1)}
    assert all(d["measured"] is None for d in failed)
    # a 1×1 gamma is still an involution map, so (1,0) fails one step later,
    # at the closed-form J, which is no longer unitary
    for d in failed:
        reason = "not unitary" if (d["p"], d["q"]) == (1, 0) else "fixed_space"
        assert reason in d["error"], d
    assert all(d["passed"] for d in report.details if d["p"] + d["q"] == 0)
    assert all("error" not in d for d in report.details if d["passed"])


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q


class TestClosedFormRealStructure:
    CROSS_CHECK = [(p, n - p, branch) for n in range(8) for p in range(n + 1)
                   for branch in ((1,) if n % 2 == 0 else (1, -1))] + [(0, 8, 1), (3, 5, 1)]

    @pytest.mark.parametrize("p, q, branch", CROSS_CHECK)
    def test_agrees_with_the_commutant_solver(self, p, q, branch):
        m = build_irrep((p, q), branch)
        eps_prime = sign_triple(m.s).eps_prime
        solved = solve_antilinear_commutant(m.gammas, [eps_prime] * m.n, dim=m.dim)
        assert max_abs(solved.matrix - m.J.matrix) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n), st.sampled_from((1, -1)))))
    def test_exact_entries_residuals_signs_and_round_trip(self, pnb):
        p, n, branch = pnb
        if n % 2 == 0:
            branch = 1
        m = build_irrep((p, n - p), branch)
        entries = m.J.matrix.ravel()
        allowed = np.array([0, 1, -1, 1j, -1j])
        assert np.all(np.any(entries[:, None] == allowed[None, :], axis=1))
        assert all(value == 0.0 for value in module_residuals(m).values())
        assert measure_sign_triple(m)[0] == sign_triple(m.s)
        text = module_to_json(m)
        assert module_to_json(module_from_dict(json.loads(text))) == text

    @pytest.mark.parametrize("pq", [(0, 3), (2, 2), (1, 4)])
    def test_conjugated_gammas_are_refused(self, pq):
        m = build_irrep(pq)
        u = random_unitary(m.dim, sum(pq))
        conjugated = [u @ g @ u.conj().T for g in m.gammas]
        eps_prime = sign_triple(m.s).eps_prime
        with pytest.raises(ValueError, match="no closed-form real structure"):
            closed_form_real_structure(conjugated, eps_prime, m.dim)

    def test_conjugated_module_is_a_failed_sign_row(self):
        def conjugated_irrep(sig, branch=1):
            m = build_irrep(sig, branch)
            if m.dim == 1:
                return m
            u = random_unitary(m.dim, m.n)
            return dataclasses.replace(
                m, gammas=tuple(u @ g @ u.conj().T for g in m.gammas),
                P=u @ m.P @ u.conj().T, chirality=u @ m.chirality @ u.conj().T)

        with mock.patch.object(clifford, "build_irrep", conjugated_irrep):
            report = verify_module_signs(2)
        assert not report.passed
        failed = [d for d in report.details if not d["passed"]]
        assert {(d["p"], d["q"]) for d in failed} == {(2, 0), (1, 1), (0, 2)}
        assert all(d["measured"] is None for d in failed)

    def test_empty_gamma_list_gives_the_identity_for_either_sign(self):
        # no gamma constrains K, so both empty products qualify
        for eps_prime in (1, -1):
            j = closed_form_real_structure([], eps_prime, 2)
            assert np.array_equal(j.matrix, eye(2))


class TestFixedSpaceReference:
    """The fixed space the sign measurement ranks against the dense
    Kronecker null space it replaced, for both sign patterns."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("p, q, branch", TestClosedFormRealStructure.CROSS_CHECK)
    def test_dimension_matches_the_dense_null_space(self, p, q, branch, sign):
        m = build_irrep((p, q), branch)
        (basis,) = fixed_spaces(m.gammas, np.conj(m.gammas), m.dim, (sign,))
        dense = null_space(antilinear_constraints(m.gammas, [sign] * m.n, m.dim))
        assert basis.shape[1] == dense.shape[1]


def test_verify_module_signs_report():
    report = verify_module_signs(2, tol=1e-12)
    assert report.passed
    assert report.max_residual < 1e-12
    seen = {(d["p"], d["q"], d["branch"]) for d in report.details}
    assert (0, 0, 1) in seen and (1, 0, -1) in seen and (0, 2, 1) in seen
    trivial = next(d for d in report.details if (d["p"], d["q"]) == (0, 0))
    assert trivial["measured"] == [1, 1, 1]
    with pytest.raises(ValueError):
        verify_module_signs(0)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 2)
    sig = Signature(1, 2)
    assert sig.n == 3 and sig.s == 1
    assert list(sig.metric) == [1, -1, -1]


def nan_last_gamma(m):
    """The module with its last gamma replaced by NaN entries, so a fold
    that drops a NaN after a finite value shows it."""
    return dataclasses.replace(
        m, gammas=(*m.gammas[:-1], np.full_like(m.gammas[-1], np.nan)))


class TestNanResiduals:
    """A NaN residual fails the check; a max fold used to drop it."""

    def test_clifford_residual(self):
        gammas = build_irrep((0, 3)).gammas
        assert np.isnan(clifford.clifford_residual(
            (*gammas[:-1], np.full_like(gammas[-1], np.nan)), [-1, -1, -1]))

    def test_hermiticity_residual(self):
        assert np.isnan(clifford.hermiticity_residual(nan_last_gamma(build_irrep((1, 2)))))

    def test_module_residuals(self):
        res = module_residuals(nan_last_gamma(build_irrep((0, 4))))
        for key in ("clifford", "unitarity", "hermiticity_split", "j_gamma", "jhat_gamma"):
            assert np.isnan(res[key]), key

    def test_verify_module_signs(self):
        def with_nan_row(m):
            return {**module_residuals(m), "injected": np.nan if m.n == 1 else 0.0}

        with mock.patch.object(clifford, "module_residuals", with_nan_row):
            report = verify_module_signs(2)
        assert not report.passed
        assert np.isnan(report.max_residual)
        rows = {(d["p"], d["q"], d["branch"]): d for d in report.details}
        assert not rows[(1, 0, 1)]["passed"] and np.isnan(rows[(1, 0, 1)]["max_residual"])
        assert rows[(0, 2, 1)]["passed"]
