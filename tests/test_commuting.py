"""Commuting actions: the five bracket families with their distinguishing
signs, the even and odd-odd spinor identifications, the tensor structure
maps, and non-closure for three families."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from cliffspin import commuting, linalg
from cliffspin.cli import DEFAULT_PAIRS
from cliffspin.clifford import build_irrep, hatted_real_structure
from cliffspin.commuting import (
    bracket_family_residuals,
    build_commuting,
    combined_generators,
    combined_metric,
    commutation_residual,
    equivalence_even,
    equivalence_odd_odd,
    real_structure_commutation,
    real_structure_recipe,
    swap_factors,
    tensor_hatted_real_structure,
    tensor_product_element,
    tensor_real_structure,
    three_action_closure_defect,
    verify_bracket_table,
)
from cliffspin.liealg import SoRepresentation, bracket_residual, bracket_residual_table
from cliffspin.linalg import commutator, expm, eye, kron, max_abs


def test_scalar_pair():
    ca = build_commuting((0, 1), (0, 1))
    assert ca.dim == 1
    assert max_abs(ca.gamma1[0] - np.array([[1j]])) == 0.0
    assert commutation_residual(ca) == 0.0


def test_commutation_and_own_relations():
    from cliffspin.clifford import clifford_residual

    for pair, dim in [(((0, 3), (0, 1)), 2), (((4, 0), (0, 6)), 32)]:
        ca = build_commuting(*pair)
        assert ca.dim == dim
        assert commutation_residual(ca) == 0.0
        # each lifted family still satisfies its own anticommutation relations
        assert clifford_residual(ca.gamma1, ca.mod1.eta) < 1e-14
        assert clifford_residual(ca.gamma2, ca.mod2.eta) < 1e-14


def test_combined_metric_examples():
    ca = build_commuting((0, 3), (0, 1))
    assert list(ca.generators.eta) == [1, 1, 1, -1]
    ca = build_commuting((4, 0), (0, 6))
    assert list(ca.generators.eta) == [-1] * 10


def test_single_mixed_generator():
    ca = build_commuting((0, 1), (1, 0))
    # U⁰⁰ sits at the combined index (0, n₁ + 0)
    assert max_abs(ca.generators.t(0, 1) - np.array([[0.5j]])) == 0.0
    assert bracket_residual(ca.generators) == 0.0


@pytest.mark.parametrize("pair", [
    ((0, 3), (0, 1)),
    ((4, 0), (0, 6)),
    ((1, 1), (2, 0)),
    ((0, 7), (3, 0)),
])
def test_bracket_table(pair):
    report = verify_bracket_table(build_commuting(*pair), tol=1e-12)
    assert report.passed, report.details


def test_wrong_metric_fails():
    ca = build_commuting((0, 3), (0, 1))
    wrong_eta = np.concatenate([ca.mod1.eta, ca.mod2.eta])
    wrong = SoRepresentation(eta=wrong_eta, dim=ca.generators.dim,
                             generators=ca.generators.generators)
    assert bracket_residual(wrong) >= 0.5


def test_anticommuting_split_fails_mixed_family():
    # one module of four anticommuting gammas split 3 + 1: the mixed
    # commutators then carry the wrong signs
    m = build_irrep((0, 4))
    g1, g2 = list(m.gammas[:3]), list(m.gammas[3:])
    fams = bracket_family_residuals(g1, g2, [-1, -1, -1], [-1])
    assert fams["t1-t1"] < 1e-12
    assert fams["t2-t2"] < 1e-12
    assert fams["u-u"] >= 0.5
    # the genuinely commuting construction passes the same check
    ca = build_commuting((0, 3), (0, 1))
    good = bracket_family_residuals(ca.gamma1, ca.gamma2, ca.mod1.eta, ca.mod2.eta)
    assert max(good.values()) < 1e-12


@pytest.mark.parametrize("pair", [((0, 3), (0, 3)), ((4, 0), (0, 6))])
def test_negated_factor_metric_fails_its_blocks(pair):
    # negating one factor's metric breaks exactly the families whose
    # structure relation carries that metric
    ca = build_commuting(*pair)
    eta1, eta2 = np.asarray(ca.mod1.eta), np.asarray(ca.mod2.eta)
    fams = bracket_family_residuals(ca.gamma1, ca.gamma2, -eta1, eta2)
    assert min(fams["t1-t1"], fams["t1-u"], fams["u-u"]) >= 0.5
    assert fams["t2-t2"] == 0.0 and fams["u-t2"] == 0.0
    fams = bracket_family_residuals(ca.gamma1, ca.gamma2, eta1, -eta2)
    assert min(fams["t2-t2"], fams["u-t2"], fams["u-u"]) >= 0.5
    assert fams["t1-t1"] == 0.0 and fams["t1-u"] == 0.0


def test_bracket_residual_table_shape_and_maximum():
    combined = build_commuting((2, 0), (0, 3)).generators
    table = bracket_residual_table(combined)
    n = len(combined.pairs())
    assert table.shape == (n, n)
    assert table.max() == bracket_residual(combined)


def test_nan_gammas_fail_the_bracket_table():
    # a NaN residual used to be dropped by every max fold: PASS with 0.0
    ca = build_commuting((0, 3), (0, 1))
    broken = dataclasses.replace(ca, gamma2=tuple(np.full_like(g, np.nan) for g in ca.gamma2))
    report = verify_bracket_table(broken)
    assert not report.passed
    assert math.isnan(report.max_residual)


def test_factor_swap():
    ca = build_commuting((0, 3), (0, 1))
    swapped = swap_factors(ca)
    assert list(swapped.generators.eta) == [1, -1, -1, -1]
    assert verify_bracket_table(swapped, tol=1e-12).passed


class TestEvenIdentification:
    def test_small_pair(self):
        report = equivalence_even(build_commuting((2, 0), (0, 1)), tol=1e-12)
        assert report.passed, report.details

    def test_full_pair(self):
        report = equivalence_even(build_commuting((4, 0), (0, 6)), tol=1e-12)
        assert report.passed, report.details

    def test_degenerate_second_factor(self):
        report = equivalence_even(build_commuting((2, 0), (0, 0)), tol=1e-12)
        assert report.passed

    def test_odd_first_factor_rejected(self):
        with pytest.raises(ValueError):
            equivalence_even(build_commuting((0, 3), (0, 1)))

    def test_closed_form_rotation_matches_expm(self):
        # V = (1 + i*chirality)/sqrt(2) on the first factor equals the
        # quarter-turn exponential
        ca = build_commuting((2, 0), (0, 1))
        chir = ca.mod1.chirality
        closed = kron((eye(2) + 1j * chir) / np.sqrt(2), eye(ca.mod2.dim))
        via_expm = kron(expm(1j * np.pi * chir / 4), eye(ca.mod2.dim))
        assert max_abs(closed - via_expm) < 1e-13


class TestOddOddIdentification:
    def test_example_pair(self):
        report = equivalence_odd_odd(build_commuting((0, 3), (0, 1)), tol=1e-12)
        assert report.passed, report.details

    def test_large_pair(self):
        report = equivalence_odd_odd(build_commuting((0, 7), (3, 0)), tol=1e-12)
        assert report.passed, report.details

    def test_one_dimensional_pair(self):
        report = equivalence_odd_odd(build_commuting((1, 0), (0, 1)), tol=1e-12)
        assert report.passed

    def test_even_factor_rejected(self):
        with pytest.raises(ValueError):
            equivalence_odd_odd(build_commuting((2, 0), (0, 1)))


class TestTensorProductElement:
    def test_trivial(self):
        ca = build_commuting((0, 0), (0, 0))
        assert np.array_equal(tensor_product_element(ca), eye(1))

    def test_odd_odd_scalar(self):
        ca = build_commuting((0, 3), (0, 1))
        prod = tensor_product_element(ca)
        assert max_abs(prod - (-1j) * eye(2)) < 1e-14
        assert ca.s == 6

    def test_even_even(self):
        ca = build_commuting((4, 0), (0, 6))
        prod = tensor_product_element(ca)
        assert max_abs(prod - kron(ca.mod1.P, ca.mod2.P)) == 0.0
        # s = 2: squares to -1
        assert max_abs(prod @ prod + eye(32)) < 1e-12

    def test_commutes_with_generators(self):
        for pair in [((0, 3), (0, 1)), ((2, 0), (2, 0))]:
            ca = build_commuting(*pair)
            prod = tensor_product_element(ca)
            for g in ca.generators.generators.values():
                assert max_abs(prod @ g - g @ prod) < 1e-12

    def test_odd_combined_signature_rejected(self):
        with pytest.raises(ValueError):
            tensor_product_element(build_commuting((2, 0), (0, 1)))


# one signature pair per branch of the structure-map case analysis
RECIPE_CASES = [
    ((4, 0), (0, 6), "J1xJ2"),     # even-even
    ((2, 0), (2, 0), "J1xJ2"),     # even-even, small
    ((0, 3), (0, 3), "J1xJ2"),     # odd-odd, s = 0
    ((3, 0), (0, 1), "J1xJ2"),     # odd-odd, s = 4
    ((2, 0), (0, 3), "J1xJ2"),     # even-odd, second s in {3, 7}
    ((2, 0), (0, 1), "Jhat1xJ2"),  # even-odd, second s in {1, 5}
    ((0, 1), (2, 0), "J1xJhat2"),  # odd-even, first s in {1, 5}
    ((0, 3), (2, 0), "J1xJ2"),     # odd-even, first s in {3, 7}
]


class TestTensorRealStructure:
    @pytest.mark.parametrize("sig1,sig2,recipe", RECIPE_CASES)
    def test_recipe_and_commutation(self, sig1, sig2, recipe):
        ca = build_commuting(sig1, sig2)
        assert real_structure_recipe(ca) == recipe
        j = tensor_real_structure(ca)
        assert j is not None
        assert real_structure_commutation(ca, j) < 1e-10

    @pytest.mark.parametrize("sig1,sig2", [((0, 3), (0, 1)), ((0, 1), (0, 3))])
    def test_absent_odd_odd_cases(self, sig1, sig2):
        ca = build_commuting(sig1, sig2)
        assert (ca.s % 8) in (2, 6)
        assert real_structure_recipe(ca) is None
        assert tensor_real_structure(ca) is None

    @pytest.mark.parametrize("sig1,sig2", [((2, 0), (2, 0)), ((4, 0), (0, 6))])
    def test_even_even_hatted_identity(self, sig1, sig2):
        # J followed by the product element equals the signed hatted pair
        ca = build_commuting(sig1, sig2)
        j = tensor_real_structure(ca)
        jhat = j.after_linear(tensor_product_element(ca))
        sign = (-1.0) ** (ca.n1 // 2)
        direct = sign * kron(hatted_real_structure(ca.mod1).matrix,
                             hatted_real_structure(ca.mod2).matrix)
        assert max_abs(jhat.matrix - direct) < 1e-10
        assert max_abs(tensor_hatted_real_structure(ca).matrix - direct) < 1e-12


def test_oversized_pair_refused_before_any_module(monkeypatch):
    # (0,10)x(0,8) acts on 32*16 = 512 dimensions; (0,10)x(0,6), 256, is admitted
    def no_build(*args, **kwargs):
        raise AssertionError("a module was built before the size check")
    monkeypatch.setattr(commuting, "build_irrep", no_build)
    with pytest.raises(ValueError, match="dimension 512 .* limit 256"):
        build_commuting((0, 10), (0, 8))
    with pytest.raises(AssertionError, match="a module was built"):
        build_commuting((0, 10), (0, 6))


class TestThreeActions:
    def test_trivial_scalars(self):
        assert three_action_closure_defect((0, 1), (0, 1), (0, 1)) < 1e-12

    def test_three_even_pairs(self):
        assert three_action_closure_defect((2, 0), (2, 0), (2, 0)) > 0.1

    def test_mixed_triple(self):
        assert three_action_closure_defect((0, 3), (0, 3), (0, 1)) > 0.1

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            three_action_closure_defect((0, 0), (0, 1), (0, 1))

    def test_oversized_product_refused_before_any_module(self, monkeypatch):
        # (0,6)^3 acts on 8*8*8 = 512 dimensions; the limit is 256
        def no_build(*args, **kwargs):
            raise AssertionError("a module was built before the size check")
        monkeypatch.setattr(commuting, "build_irrep", no_build)
        with pytest.raises(ValueError, match="dimension 512 .* limit 256"):
            three_action_closure_defect((0, 6), (0, 6), (0, 6))

    def test_two_families_do_close(self):
        # sanity control: with only two commuting families every commutator
        # of quadratics stays inside the span, so the same projection
        # machinery reports (essentially) zero defect
        ca = build_commuting((2, 0), (0, 3))
        quads = list(ca.generators.generators.values())
        span = [eye(ca.dim)] + quads

        def realvec(mat):
            flat = np.asarray(mat, dtype=complex).ravel()
            return np.concatenate([flat.real, flat.imag])

        basis = np.column_stack([realvec(m) for m in span])
        pinv = np.linalg.pinv(basis)
        worst = 0.0
        for i in range(len(quads)):
            for j in range(i + 1, len(quads)):
                comm = quads[i] @ quads[j] - quads[j] @ quads[i]
                coeff = pinv @ realvec(comm)
                recon = sum(c * m for c, m in zip(coeff, span))
                worst = max(worst, max_abs(comm - recon))
        assert worst < 1e-10


def test_combined_metric_helper():
    assert list(combined_metric([1, -1], [-1])) == [-1, 1, -1]


# The per-generator loops that the stacked checks replaced, kept as their
# references: the stacked residuals must equal them bit for bit.

def reference_commutation_residual(ca):
    worst = 0.0
    for g1 in ca.gamma1:
        for g2 in ca.gamma2:
            worst = max(worst, max_abs(commutator(g1, g2)))
    return worst


def reference_conjugated_generators(ca):
    id2 = eye(ca.mod2.dim)
    chir1 = kron(ca.mod1.chirality, id2)
    ref = [1j * g for g in ca.gamma1] + [chir1 @ g for g in ca.gamma2]
    v = kron((eye(ca.mod1.dim) + 1j * ca.mod1.chirality) / math.sqrt(2), id2)
    vh = v.conj().T
    worst = 0.0
    for (a, b), g in ca.generators.generators.items():
        worst = max(worst, max_abs(v @ (0.5 * (ref[a] @ ref[b])) @ vh - g))
    return worst


def reference_restricted_generators(ca):
    flip = np.array([[0, 1], [-1, 0]], dtype=complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    doubled = [kron(flip, g) for g in ca.gamma1] + [kron(swap, g) for g in ca.gamma2]
    d = ca.dim
    worst = 0.0
    for (a, b), g in ca.generators.generators.items():
        quad = 0.5 * (doubled[a] @ doubled[b])
        off_block = max(max_abs(quad[:d, d:]), max_abs(quad[d:, :d]))
        worst = max(worst, off_block, max_abs(quad[:d, :d] - g))
    return worst


def reference_real_structure_commutation(ca, j):
    return max((j.commutation_residual(g, 1)
                for g in ca.generators.generators.values()),
               default=0.0)


def perturbed(ca, seed, size=1e-9):
    """The action with every lifted gamma moved by noise of the given size,
    so that the residuals are not all exactly zero."""
    rng = np.random.default_rng(seed)

    def noisy(gammas):
        return tuple(g + size * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
                     for g in gammas)

    return dataclasses.replace(ca, gamma1=noisy(ca.gamma1), gamma2=noisy(ca.gamma2))


@pytest.mark.parametrize("pair", [((0, 3), (0, 1)), ((4, 0), (0, 6)), ((0, 3), (2, 0))])
def test_replaced_gammas_rebuild_the_generators(pair):
    # the combined generators are derived from the gammas, never stale
    ca = build_commuting(*pair)
    noisy = perturbed(ca, 5)
    fresh = combined_generators(noisy.gamma1, noisy.gamma2, ca.mod1.eta, ca.mod2.eta)
    assert list(noisy.generators.generators) == list(fresh.generators) == ca.generators.pairs()
    for key, g in fresh.generators.items():
        assert noisy.generators.generators[key].tobytes() == g.tobytes()
        assert not np.array_equal(g, ca.generators.generators[key])
    assert np.array_equal(noisy.generators.eta, fresh.eta) and noisy.generators.dim == fresh.dim


def test_combined_generators_negate_only_the_first_block():
    ca = build_commuting((2, 1), (0, 2))
    gammas = ca.gamma1 + ca.gamma2
    for (a, b), g in ca.generators.generators.items():
        sign = -1 if b < ca.n1 else 1
        assert np.array_equal(g, sign * 0.5 * (gammas[a] @ gammas[b]))
        assert not g.flags.writeable


SMALL_SIGNATURES = [(p, n - p) for n in range(5) for p in range(n + 1)]


@pytest.mark.parametrize("pair", list(DEFAULT_PAIRS) + [
    (sig1, sig2) for sig1 in SMALL_SIGNATURES for sig2 in SMALL_SIGNATURES])
def test_stacked_generator_checks_equal_the_loops(pair):
    exact = build_commuting(*pair)
    if exact.n1 % 2 and exact.n2 % 2 == 0:
        exact = swap_factors(exact)  # the even path, as the commuting suite takes it
    noisy = perturbed(exact, sum(pair[0]) * 16 + sum(pair[1]))
    for ca in (exact, noisy):
        assert commutation_residual(ca) == reference_commutation_residual(ca)
        with mock.patch.object(linalg, "phased_permutations", return_value=None):
            assert commutation_residual(ca) == reference_commutation_residual(ca)
        if ca.n1 % 2 == 0:
            assert equivalence_even(ca).details[1] == {
                "item": "conjugated-generators", "residual": reference_conjugated_generators(ca)}
        else:
            assert equivalence_odd_odd(ca).details[1] == {
                "item": "restricted-generators", "residual": reference_restricted_generators(ca)}
        j = tensor_real_structure(ca)
        if j is not None:
            assert (real_structure_commutation(ca, j)
                    == reference_real_structure_commutation(ca, j))
    if exact.dim > 1 and exact.n1 and exact.n2:
        # the noise makes the compared residuals nonzero
        assert commutation_residual(noisy) > 0.0


class TestNanResiduals:
    """A NaN residual fails the identification checks; a max fold used to
    drop it and report PASS."""

    def test_odd_odd_equivalence(self):
        ca = build_commuting((0, 3), (0, 1))
        broken = dataclasses.replace(
            ca, gamma2=tuple(np.full_like(g, np.nan) for g in ca.gamma2))
        report = equivalence_odd_odd(broken)
        assert not report.passed
        assert math.isnan(report.max_residual)
        items = {d["item"]: d for d in report.details}
        assert math.isnan(items["doubled-clifford-relations"]["residual"])
        assert math.isnan(items["restricted-generators"]["residual"])

    def test_even_equivalence_product_element(self):
        ca = build_commuting((2, 0), (0, 2))
        broken = dataclasses.replace(
            ca, mod1=dataclasses.replace(ca.mod1, P=np.full_like(ca.mod1.P, np.nan)))
        report = equivalence_even(broken)
        assert not report.passed
        assert math.isnan(report.max_residual)

    def test_real_structure_commutation(self):
        ca = build_commuting((0, 2), (0, 2))
        j = tensor_real_structure(ca)
        assert real_structure_commutation(ca, j) < 1e-12
        broken = dataclasses.replace(
            ca, gamma2=(*ca.gamma2[:-1], np.full_like(ca.gamma2[-1], np.nan)))
        assert math.isnan(real_structure_commutation(broken, j))
