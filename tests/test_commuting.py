"""Commuting actions: the five bracket families with their distinguishing
signs, the even and odd-odd spinor identifications, the tensor structure
maps, and non-closure for three families."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cliffspin import commuting, linalg
from cliffspin.cli import DEFAULT_PAIRS, DEFAULT_TRIPLES
from cliffspin.clifford import build_irrep
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
    tensor_hatted_real_structure,
    tensor_product_element,
    tensor_real_structure,
    three_action_closure_defect,
    verify_bracket_table,
    verify_equivalence,
    verify_tensor_real_structure,
)
from cliffspin.liealg import (
    SoRepresentation,
    bracket_residual,
    bracket_residual_table,
    quadratic_monomials,
)
from cliffspin.linalg import (
    commutator,
    expm,
    eye,
    fold_max,
    kron,
    kron_all,
    linear_combination,
    max_abs,
)


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
    wrong = SoRepresentation(eta=wrong_eta, mats=ca.generators.mats)
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
    # the factors of test_combined_metric_examples' first pair exchanged:
    # the metric flip lands on the other signature
    swapped = build_commuting((0, 1), (0, 3))
    assert list(swapped.generators.eta) == [1, -1, -1, -1]
    assert verify_bracket_table(swapped, tol=1e-12).passed


def test_each_factor_is_lifted_by_one_stacked_kron():
    lift = mock.Mock(wraps=linalg.stacked_kron)
    with mock.patch.object(commuting, "kron", side_effect=AssertionError("kron")), \
            mock.patch.object(commuting, "stacked_kron", lift):
        ca = build_commuting((2, 1), (0, 4))
    assert lift.call_count == 2
    for gammas, n in ((ca.gamma1, 3), (ca.gamma2, 4)):
        assert gammas.shape == (n, ca.dim, ca.dim) and gammas.dtype == complex
        assert not gammas.flags.writeable


def test_lifted_gammas_given_as_sequences_are_held_as_stacks():
    ca = build_commuting((2, 1), (0, 2))
    replaced = dataclasses.replace(ca, gamma1=tuple(ca.gamma1), gamma2=list(ca.gamma2.real))
    for gammas, n in ((replaced.gamma1, 3), (replaced.gamma2, 2)):
        assert gammas.shape == (n, ca.dim, ca.dim) and gammas.dtype == complex
        assert not gammas.flags.writeable
    assert np.array_equal(replaced.gamma1, ca.gamma1)
    assert np.shares_memory(dataclasses.replace(ca, mod1=ca.mod1).gamma1, ca.gamma1)
    assert build_commuting((0, 0), (0, 3)).gamma1.shape == (0, 2, 2)


SMALL_SIGNATURES = [(p, n - p) for n in range(5) for p in range(n + 1)]


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

    def test_odd_odd_pair_rejected(self):
        with pytest.raises(ValueError, match="requires an even factor"):
            equivalence_even(build_commuting((0, 3), (0, 1)))

    @pytest.mark.parametrize("pair", [
        (sig1, sig2) for sig1 in SMALL_SIGNATURES if sum(sig1) % 2
        for sig2 in SMALL_SIGNATURES if sum(sig2) % 2 == 0])
    @pytest.mark.parametrize("branch1", [1, -1])
    def test_even_second_factor_under_the_pairs_own_label(self, pair, branch1):
        # the pair as given, never the swapped one: the label keeps its order
        (p1, q1), (p2, q2) = pair
        report = verify_equivalence(build_commuting(*pair, branch1, 1), tol=1e-12)
        assert report.passed, report.details
        assert report.name == f"even-equivalence({p1},{q1})x({p2},{q2})"

    def test_faults_of_the_even_second_factor_fail(self):
        ca = build_commuting((0, 3), (2, 0))
        times_i = np.array(ca.gamma2)
        times_i[1] *= 1j
        flat = dataclasses.replace(ca.mod2, chirality=eye(ca.mod2.dim))
        for broken in (dataclasses.replace(ca, gamma2=times_i),
                       dataclasses.replace(ca, mod2=flat)):
            report = equivalence_even(broken)
            assert not report.passed and report.max_residual >= 0.5
        # −γ̄₂ grades the second factor as well, and it flips both the
        # reference gammas and V, so the identification still holds
        negated = dataclasses.replace(ca.mod2, chirality=-ca.mod2.chirality)
        assert equivalence_even(dataclasses.replace(ca, mod2=negated), tol=1e-12).passed

    def test_closed_form_rotation_matches_expm(self):
        # V = (1 + i*chirality)/sqrt(2) on the first factor equals the
        # quarter-turn exponential
        ca = build_commuting((2, 0), (0, 1))
        chir = ca.mod1.chirality
        closed = kron((eye(2) + 1j * chir) / np.sqrt(2), eye(ca.mod2.dim))
        via_expm = kron(expm(1j * np.pi * chir / 4), eye(ca.mod2.dim))
        assert max_abs(closed - via_expm) < 1e-13


@pytest.mark.parametrize("pair", [((0, 7), (0, 7)), ((0, 7), (0, 6)), ((0, 6), (0, 6))])
def test_identification_holds_less_than_the_generator_stack(pair):
    # the reference monomials are formed block by block: the peak of the
    # whole check stays below the one stack the action already holds
    ca = build_commuting(*pair)
    tracemalloc.start()
    try:
        assert verify_equivalence(ca).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ca.generators.mats.nbytes


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
            for g in ca.generators.mats:
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
        direct = sign * kron(ca.mod1.Jhat.matrix, ca.mod2.Jhat.matrix)
        assert max_abs(jhat.matrix - direct) < 1e-10
        assert max_abs(tensor_hatted_real_structure(ca).matrix - direct) < 1e-12

    @pytest.mark.parametrize("sig1,sig2,recipe", [((2, 0), (0, 1), "Jhat1xJ2"),
                                                  ((0, 1), (2, 0), "J1xJhat2")])
    def test_a_hatted_recipe_reads_the_stored_jhat(self, sig1, sig2, recipe):
        # the even factor's module holds Ĵ; with J stored in its place the
        # hatted recipe must fail, not quietly re-derive J∘P
        ca = build_commuting(sig1, sig2)
        name = "mod1" if ca.n1 % 2 == 0 else "mod2"
        even = getattr(ca, name)
        wrong = dataclasses.replace(ca, **{name: dataclasses.replace(even, Jhat=even.J)})
        assert verify_tensor_real_structure(ca).passed
        report = verify_tensor_real_structure(wrong)
        assert report.details[0]["formula"] == recipe
        assert not report.passed and report.max_residual == 1.0


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
        quads = list(ca.generators.mats)
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
    id1, id2 = eye(ca.mod1.dim), eye(ca.mod2.dim)
    if ca.n1 % 2 == 0:
        chir1 = kron(ca.mod1.chirality, id2)
        ref = [1j * g for g in ca.gamma1] + [chir1 @ g for g in ca.gamma2]
        v = kron((id1 + 1j * ca.mod1.chirality) / math.sqrt(2), id2)
    else:
        chir2 = kron(id1, ca.mod2.chirality)
        ref = [1j * g @ chir2 for g in ca.gamma1] + list(ca.gamma2)
        v = kron(id1, (id2 - 1j * ca.mod2.chirality) / math.sqrt(2))
    vh = v.conj().T
    worst = 0.0
    for (a, b), g in zip(ca.generators.pairs(), ca.generators.mats):
        worst = max(worst, max_abs(v @ (0.5 * (ref[a] @ ref[b])) @ vh - g))
    return worst


def reference_restricted_generators(ca):
    flip = np.array([[0, 1], [-1, 0]], dtype=complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    doubled = [kron(flip, g) for g in ca.gamma1] + [kron(swap, g) for g in ca.gamma2]
    d = ca.dim
    worst = 0.0
    for (a, b), g in zip(ca.generators.pairs(), ca.generators.mats):
        quad = 0.5 * (doubled[a] @ doubled[b])
        off_block = max(max_abs(quad[:d, d:]), max_abs(quad[d:, :d]))
        worst = max(worst, off_block, max_abs(quad[:d, :d] - g))
    return worst


def reference_real_structure_commutation(ca, j):
    return max((j.commutation_residual(g, 1) for g in ca.generators.mats), default=0.0)


def reference_three_action_defect(sigs):
    """The per-pair loop that the blocked projection replaced: one
    pseudo-inverse product and one reconstruction per commutator."""
    mods = [commuting.build_irrep(sig) for sig in sigs]
    ids = [eye(m.dim) for m in mods]
    lifted = np.concatenate([kron_all([*ids[:f], m.gammas, *ids[f + 1:]])
                             for f, m in enumerate(mods)])
    quads = quadratic_monomials(lifted)
    family = np.repeat(np.arange(3), [m.n for m in mods])
    a, b = np.triu_indices(len(family), 1)
    order = np.lexsort((family[b], family[a], family[a] != family[b]))
    span = np.concatenate([eye(quads.shape[-1])[None], quads[order]])
    quadratics = span[1:]

    def realvec(mat):
        flat = np.asarray(mat, dtype=complex).ravel()
        return np.concatenate([flat.real, flat.imag])

    basis = np.column_stack([realvec(m) for m in span])
    pinv = (np.linalg.pinv(basis) if np.isfinite(basis).all()
            else np.full(basis.T.shape, np.nan))
    defect = 0.0
    for i in range(len(quadratics)):
        for j in range(i + 1, len(quadratics)):
            comm = commutator(quadratics[i], quadratics[j])
            coeff = pinv @ realvec(comm)
            recon = linear_combination(coeff, span)
            defect = fold_max(defect, max_abs(comm - recon))
    return defect


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
    assert noisy.generators.pairs() == fresh.pairs() == ca.generators.pairs()
    assert noisy.generators.mats.tobytes() == fresh.mats.tobytes()
    for g, stale in zip(fresh.mats, ca.generators.mats):
        assert not np.array_equal(g, stale)
    assert np.array_equal(noisy.generators.eta, fresh.eta) and noisy.generators.dim == fresh.dim


def test_combined_generators_negate_only_the_first_block():
    ca = build_commuting((2, 1), (0, 2))
    gammas = np.concatenate((ca.gamma1, ca.gamma2))
    assert not ca.generators.mats.flags.writeable
    for (a, b), g in zip(ca.generators.pairs(), ca.generators.mats):
        sign = -1 if b < ca.n1 else 1
        assert np.array_equal(g, sign * 0.5 * (gammas[a] @ gammas[b]))


@pytest.mark.parametrize("pair", list(DEFAULT_PAIRS) + [
    (sig1, sig2) for sig1 in SMALL_SIGNATURES for sig2 in SMALL_SIGNATURES])
def test_stacked_generator_checks_equal_the_loops(pair):
    exact = build_commuting(*pair)
    noisy = perturbed(exact, sum(pair[0]) * 16 + sum(pair[1]))
    for ca in (exact, noisy):
        assert commutation_residual(ca) == reference_commutation_residual(ca)
        with mock.patch.object(linalg, "phased_permutations", return_value=None):
            assert commutation_residual(ca) == reference_commutation_residual(ca)
        if ca.n1 % 2 and ca.n2 % 2:
            assert equivalence_odd_odd(ca).details[1] == {
                "item": "restricted-generators", "residual": reference_restricted_generators(ca)}
        else:
            assert equivalence_even(ca).details[1] == {
                "item": "conjugated-generators", "residual": reference_conjugated_generators(ca)}
        j = tensor_real_structure(ca)
        if j is not None:
            assert (real_structure_commutation(ca, j)
                    == reference_real_structure_commutation(ca, j))
    if exact.dim > 1 and exact.n1 and exact.n2:
        # the noise makes the compared residuals nonzero
        assert commutation_residual(noisy) > 0.0


@pytest.mark.parametrize("n, dim", [(0, 1), (1, 2), (5, 4), (6, 32), (4, 128)])
def test_reference_monomial_blocks_equal_the_whole_stack(n, dim):
    # the blocks tile the (a, b) order of quadratic_monomials bit for bit
    rng = np.random.default_rng(n * dim)
    ref = list(rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim)))
    whole = quadratic_monomials(ref)
    blocks = list(commuting._reference_monomials(ref, dim))
    assert [block for block, _ in blocks] == linalg.stack_blocks(len(whole), dim)
    if blocks:
        assert np.concatenate([quads for _, quads in blocks]).tobytes() == whole.tobytes()


@pytest.mark.parametrize("sigs", [*DEFAULT_TRIPLES, ((0, 3), (0, 3), (0, 3)),
                                  ((2, 0), (0, 3), (0, 2)), ((0, 4), (0, 4), (0, 4))])
def test_blocked_three_action_defect_equals_the_loop(sigs):
    # the last triple acts on D = 64, where a block holds one pair
    assert three_action_closure_defect(*sigs) == reference_three_action_defect(sigs)


def test_a_nan_gamma_gives_both_three_action_loops_a_nan_defect():
    real = commuting.build_irrep

    def nan_first(sig, branch=1):
        m = real(sig, branch)
        g = np.array(m.gammas)
        g[0, 0, 0] = np.nan
        return dataclasses.replace(m, gammas=g)

    sigs = ((0, 3), (0, 3), (0, 1))
    with mock.patch.object(commuting, "build_irrep", nan_first):
        assert math.isnan(three_action_closure_defect(*sigs))
        assert math.isnan(reference_three_action_defect(sigs))


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
