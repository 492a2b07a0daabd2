"""Pati-Salam spectral triple on C4 x C8: left/right actions, order
conditions, measured sign rows for both real-structure variants, gauge
action with unimodularity, Dirac covariance, and the extension of the
gauge symmetry to the full 45-generator algebra.  The exact generator
checks are compared with the sampled group loops of ``dense_reference``."""

import contextlib
import copy
import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cliffspin import cli, liealg, linalg, spectral
from cliffspin.liealg import bracket_residual, so_generators
from cliffspin.linalg import (
    DEFAULT_TOL,
    STACK_BLOCK_ENTRIES,
    AntilinearOp,
    commutator,
    dagger,
    expm,
    eye,
    fold_max,
    kron,
    max_abs,
)
from cliffspin.report import Report
from cliffspin.spectral import (
    AlgebraElement,
    build_pati_salam,
    check_order_conditions,
    chirality_exchange_residual,
    dirac_invariant_residuals,
    higgs_transform,
    ko_dimension,
    spin10_action,
    verify_gauge_action,
    verify_ko_signs,
)
from dense_reference import (
    GaugeElement,
    even_bases,
    loop_adjoint_image,
    loop_element_residuals,
    loop_gauge_action,
    loop_gauge_element,
    loop_higgs_report,
    loop_higgs_transform,
    loop_mixed_min,
    loop_order_conditions,
    loop_spin10_action,
    monomial_basis,
    random_algebra_element,
)

TRIPLES = {variant: build_pati_salam(variant) for variant in ("plain", "hatted_second")}


@pytest.fixture(params=["plain", "hatted_second"])
def triple(request):
    return TRIPLES[request.param]


def test_ko_rows(triple):
    dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])
    measured, s = ko_dimension(triple, dirac)
    if triple.variant == "plain":
        assert s == 2 and tuple(measured) == (-1, 1, -1)
    else:
        assert s == 6 and tuple(measured) == (1, 1, -1)


def test_the_hatted_variant_reads_the_stored_jhat():
    # the second factor's module holds Ĵ; with J stored in its place the
    # hatted triple is the plain one, whose KO signs are the s = 2 row
    from cliffspin.commuting import build_commuting

    ca = build_commuting((4, 0), (0, 6))
    wrong = dataclasses.replace(ca, mod2=dataclasses.replace(ca.mod2, Jhat=ca.mod2.J))
    triple = build_pati_salam("hatted_second", action=wrong)
    report = verify_ko_signs(triple, triple.dirac_operator([1.0, 0.0, 0.0, 0.0]))
    assert not report.passed
    assert report.details[0]["table_row"] == 2


def test_ko_indeterminate_without_dirac(triple):
    measured, s = ko_dimension(triple, triple.dirac_operator([0.0, 0.0, 0.0, 0.0]))
    assert measured.eps_prime is None
    assert s == (2 if triple.variant == "plain" else 6)


def test_identity_acts_as_identity(triple):
    ident = AlgebraElement(eye(triple.dim1), eye(triple.dim2))
    assert max_abs(triple.left_action(ident) - eye(32)) < 1e-14
    assert max_abs(triple.right_action(ident) - eye(32)) < 1e-12


def test_chirality_exchange(triple):
    assert chirality_exchange_residual(triple) < 1e-12


def test_even_basis_dimensions():
    # even subalgebra real dimensions: 8 for the first factor, 32 for the second
    basis1, basis2 = even_bases(TRIPLES["plain"])
    assert len(basis1) == 8
    assert len(basis2) == 32


def test_sampled_elements_live_in_the_algebra(triple):
    rng = np.random.default_rng(5)
    mod1, mod2 = triple.action.mod1, triple.action.mod2
    bases = even_bases(triple)
    for _ in range(5):
        a = random_algebra_element(bases, rng)
        assert max_abs(commutator(a.a1, mod1.chirality)) < 1e-12
        assert max_abs(commutator(a.a2, mod2.chirality)) < 1e-12
        assert mod1.J.commutation_residual(a.a1, 1) < 1e-10
        assert mod2.J.commutation_residual(a.a2, 1) < 1e-10
        star = a.star()
        assert mod1.J.commutation_residual(star.a1, 1) < 1e-10


def test_left_action_is_a_homomorphism(triple):
    rng, bases = np.random.default_rng(6), even_bases(triple)
    a = random_algebra_element(bases, rng)
    b = random_algebra_element(bases, rng)
    ab = AlgebraElement(a.a1 @ b.a1, a.a2 @ b.a2)
    assert max_abs(triple.left_action(ab)
                   - triple.left_action(a) @ triple.left_action(b)) < 1e-10


def right_action_closed_form(triple, a):
    """Expected block form of the right action, for direct comparison."""
    return (kron(dagger(a.a1), triple.pi2_minus)
            + kron(eye(triple.dim1), dagger(a.a2) @ triple.pi2_plus))


def test_right_action_formula(triple):
    rng, bases = np.random.default_rng(7), even_bases(triple)
    for _ in range(10):
        a = random_algebra_element(bases, rng)
        assert max_abs(triple.right_action(a) - right_action_closed_form(triple, a)) < 1e-10


def test_right_action_block_example(triple):
    # a = (g0 g1, 1): by hand, r(a) = (g0 g1)^dagger x pi- + 1 x pi+
    mod1 = triple.action.mod1
    a1 = mod1.gammas[0] @ mod1.gammas[1]
    a = AlgebraElement(a1, eye(8))
    pi2p = 0.5 * (eye(8) + triple.action.mod2.chirality)
    pi2m = eye(8) - pi2p
    expected = kron(dagger(a1), pi2m) + kron(eye(4), pi2p)
    assert max_abs(triple.right_action(a) - expected) < 1e-12


class TestOrderConditions:
    def test_identity_pair_is_exact(self, triple):
        ident = AlgebraElement(eye(triple.dim1), eye(triple.dim2))
        la = triple.left_action(ident)
        rb = triple.right_action(ident)
        assert max_abs(commutator(la, rb)) == 0.0

    def test_sampled(self, triple):
        # the exact check, and 100 samples of the reference loop, pass
        dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])
        report = check_order_conditions(triple, dirac)
        assert report.passed, report.details
        assert report.details[0]["generator_pairs"] == 100
        assert reference_order_conditions(triple, dirac, 100, np.random.default_rng(0)).passed

    def test_unprojected_action_breaks_zeroth_order(self, triple):
        rng, bases = np.random.default_rng(8), even_bases(triple)
        a = random_algebra_element(bases, rng)
        b = random_algebra_element(bases, rng)
        full = lambda x: kron(x.a1, eye(8)) + kron(eye(4), x.a2)
        la = full(a)
        rb = triple.J.conjugate_matrix(full(b.star()))
        assert max_abs(commutator(la, rb)) > 0.1


def test_dirac_invariants(triple):
    rng = np.random.default_rng(9)
    for _ in range(5):
        dirac = triple.dirac_operator(rng.standard_normal(4))
        res = dirac_invariant_residuals(triple, dirac)
        assert max(res.values()) < 1e-12, res


def test_hermitian_odd_elements_are_gamma_spans():
    # real-coefficient odd elements: the Hermitian part is exactly the
    # degree-one piece, because degree-three monomials are anti-Hermitian
    mod1 = TRIPLES["plain"].action.mod1
    odd = monomial_basis(mod1, 1)
    assert len(odd) == 8
    rng = np.random.default_rng(10)
    coeff = rng.standard_normal(8)
    element = sum(c * b for c, b in zip(coeff, odd))
    herm = 0.5 * (element + dagger(element))
    recovered = np.array([(np.trace(herm @ odd[a]) / 4).real for a in range(4)])
    assert np.allclose(recovered, coeff[:4], atol=1e-12)
    assert max_abs(herm - sum(c * g for c, g in zip(coeff[:4], mod1.gammas))) < 1e-12
    for mono in odd[4:]:
        assert max_abs(dagger(mono) + mono) < 1e-13


class TestGauge:
    def test_zero_angles_give_identity(self, triple):
        adj, resid, det_err = loop_adjoint_image(triple, GaugeElement(eye(4), eye(8)))
        assert max_abs(adj - eye(32)) < 1e-12
        assert resid < 1e-12 and det_err < 1e-12
        zero = AlgebraElement(np.zeros((4, 4)), np.zeros((8, 8)))
        assert max_abs(triple.derived_action(zero)) == 0.0

    def test_single_angle_closed_form(self, triple):
        # T = g0 g1 / 2 squares to -1/4, so exp(pi T) = 2 T = g0 g1
        mod1 = triple.action.mod1
        t = 0.5 * (mod1.gammas[0] @ mod1.gammas[1])
        u1 = expm(np.pi * t)
        assert max_abs(u1 - 2 * t) < 1e-13
        res = loop_element_residuals(triple, GaugeElement(u1, eye(8)))
        assert max(res.values()) < 1e-12

    def test_sampled_invariants_and_factorization(self, triple):
        # the exact check on the 21 generators, and 50 sampled group elements
        report = verify_gauge_action(triple)
        assert report.passed, report.details
        assert report.details[0]["generators"] == 21
        assert loop_gauge_action(triple, 50, np.random.default_rng(0)).passed

    def test_center_elements(self, triple):
        # -1 on the first factor is reached by a 2*pi angle; the pair
        # (-1, -1) acts trivially (the shared center of the two factors)
        mod1, mod2 = triple.action.mod1, triple.action.mod2
        t1 = 0.5 * (mod1.gammas[0] @ mod1.gammas[1])
        u1 = expm(2 * np.pi * t1)
        assert max_abs(u1 + eye(4)) < 1e-12
        adj = loop_adjoint_image(triple, GaugeElement(u1, eye(8)))[0]
        assert max_abs(adj + eye(32)) < 1e-10
        t2 = 0.5 * (mod2.gammas[0] @ mod2.gammas[1])
        u2 = expm(2 * np.pi * t2)
        assert max_abs(u2 + eye(8)) < 1e-12
        adj = loop_adjoint_image(triple, GaugeElement(u1, u2))[0]
        assert max_abs(adj - eye(32)) < 1e-10

    @pytest.mark.parametrize("samples, scale", [(0, 1.0), (-3, 1.0), (50, 0.0), (50, -1.0),
                                                (0, -1.0)])
    def test_verify_needs_samples_and_a_positive_scale(self, triple, samples, scale):
        # zero samples, or a non-positive scale, used to report PASS; the
        # exact check draws nothing, and a sample count or scale is refused
        # instead of being read as something else
        with pytest.raises(TypeError):
            verify_gauge_action(triple, samples, rng=0, scale=scale)

    def test_vectorized_draws_equal_scalar_draws(self, triple):
        # one uniform draw per monomial and a Python sum, factor by factor:
        # the reference sampler's batched draws and stacked combination give
        # the same bits
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for scale in (1.0, 0.25):
            u = loop_gauge_element(triple, rng, scale)
            ref = [expm(sum(ref_rng.uniform(-scale, scale) * t
                            for t in so_generators(mod).mats))
                   for mod in (triple.action.mod1, triple.action.mod2)]
            assert u.u1.tobytes() == ref[0].tobytes()
            assert u.u2.tobytes() == ref[1].tobytes()
        assert rng.random() == ref_rng.random()

    def test_quadratic_monomials_are_built_once_per_triple(self):
        spy = mock.Mock(wraps=liealg.so_generators)
        with mock.patch.object(liealg, "so_generators", spy), \
                mock.patch.object(spectral, "so_generators", spy):
            triple = build_pati_salam("hatted_second", action=TRIPLES["plain"].action)
            assert verify_gauge_action(triple).passed
            assert higgs_transform(triple).passed
        assert spy.call_count <= 2

    def test_gauge_generators_are_the_quadratic_monomials(self, triple):
        gens = triple.gauge_generators()
        assert gens.a1.shape == (21, 4, 4) and gens.a2.shape == (21, 8, 8)
        assert gens.a1[:6].tobytes() == triple.quadratics1.tobytes()
        assert gens.a2[6:].tobytes() == triple.quadratics2.tobytes()
        assert not gens.a1[6:].any() and not gens.a2[:6].any()


class TestHiggs:
    def test_identity_gauge_fixes_coefficients(self, triple):
        dirac = triple.dirac_operator([0.3, -1.2, 0.0, 2.0])
        report = loop_higgs_transform(triple, dirac, GaugeElement(eye(4), eye(8)))
        assert report.passed
        assert np.allclose(report.details[0]["d_transformed"], dirac.d, atol=1e-12)
        assert higgs_transform(triple).details == [
            {"generators": 21, "covariance": 0.0, "norm_change": 0.0}]

    def test_random_gauge_rotates_isometrically(self, triple):
        rng = np.random.default_rng(11)
        dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])
        for _ in range(5):
            u = loop_gauge_element(triple, rng)
            report = loop_higgs_transform(triple, dirac, u)
            assert report.passed, report.details
            d_new = report.details[0]["d_transformed"]
            assert abs(np.linalg.norm(d_new) - 1.0) < 1e-10

    def test_second_factor_acts_trivially(self, triple):
        rng = np.random.default_rng(12)
        d = np.array([0.5, 0.25, -1.0, 0.0])
        dirac = triple.dirac_operator(d)
        u2_only = GaugeElement(eye(4), loop_gauge_element(triple, rng).u2)
        report = loop_higgs_transform(triple, dirac, u2_only)
        assert report.passed
        assert np.allclose(report.details[0]["d_transformed"], d, atol=1e-10)
        # exactly: the derived action of each second-factor generator
        # commutes with every lifted gamma of the first factor
        derived = triple.derived_action(triple.gauge_generators()[6:])
        for gamma in triple.action.gamma1:
            assert np.max(max_abs(commutator(derived, gamma))) == 0.0


def test_spin10_extension():
    report = spin10_action(TRIPLES["hatted_second"])
    assert report.passed, report.details
    detail = report.details[0]
    assert detail["mixed_generator_min_commutator"] == 0.5


def test_spin10_extension_runs_on_the_given_triple(triple):
    report = spin10_action(triple)
    assert report.passed, report.details
    assert report.max_residual < 1e-13


def test_broken_adjoint_bound_fails_the_reports(triple):
    # pi2+ = pi2- = 1 doubles the derived action, so the adjoint action no
    # longer factorizes: on the generators and on a sampled element alike,
    # and the checks report FAIL instead of raising
    broken = dataclasses.replace(triple, pi2_plus=eye(8), pi2_minus=eye(8))
    gauge, higgs = verify_gauge_action(broken), higgs_transform(broken)
    assert not gauge.passed and gauge.details[0]["factorization"] == 0.5
    assert not higgs.passed and higgs.details[0]["covariance"] > 0.1
    u = loop_gauge_element(triple, np.random.default_rng(13))
    reference = loop_higgs_transform(broken, broken.dirac_operator([1.0, 0.0, 0.0, 0.0]), u)
    assert reference.details[0]["adjoint_failure"].startswith("adjoint action does not factorize")
    assert verify_gauge_action(triple).passed and higgs_transform(triple).passed


def test_spin10_reports_a_broken_adjoint_bound():
    # J replaced by plain conjugation breaks the adjoint images of both blocks
    triple = TRIPLES["hatted_second"]
    broken = dataclasses.replace(triple, J=AntilinearOp(eye(32)))
    report = spin10_action(broken)
    assert not report.passed
    assert report.details[0]["factor1_block_match"] > 0.1
    assert report.details[0]["factor2_block_match"] > 0.1
    reference = loop_spin10_action(broken)
    assert not reference.passed and reference.details[0]["adjoint_failure"] is not None


def test_spin10_requires_the_right_signatures():
    from cliffspin.commuting import build_commuting
    with pytest.raises(ValueError):
        build_pati_salam(action=build_commuting((2, 0), (0, 1)))


def test_equivariance_of_the_two_real_structures():
    # the plain structure commutes with all 45 combined generators; the
    # hatted variant anticommutes with the 24 mixed ones instead
    plain, hatted = TRIPLES["plain"], TRIPLES["hatted_second"]
    n1 = plain.action.n1
    for (a, b), g in zip(plain.action.generators.pairs(), plain.action.generators.mats):
        assert plain.J.commutation_residual(g, 1) < 1e-10
        mixed = a < n1 <= b
        assert hatted.J.commutation_residual(g, -1 if mixed else 1) < 1e-10


def test_even_monomial_basis_counts():
    from cliffspin.clifford import build_irrep
    assert len(monomial_basis(build_irrep((4, 0)), 0)) == 8
    assert len(monomial_basis(build_irrep((0, 6)), 0)) == 32


def test_wrong_variant_rejected():
    with pytest.raises(ValueError):
        build_pati_salam("other")


# The sampled loop of the order conditions, kept as the reference whose
# verdict the exact check on the generators must share, as the sampled
# group loops of ``dense_reference`` are for the gauge, Higgs and Spin(10)
# checks.

def reference_order_conditions(triple, dirac, samples, rng, tol=DEFAULT_TOL):
    d = dirac.matrix
    bases = even_bases(triple)
    worst0 = worst1 = 0.0
    for _ in range(samples):
        a = random_algebra_element(bases, rng)
        b = random_algebra_element(bases, rng)
        la = triple.left_action(a)
        rb = triple.right_action(b)
        worst0 = max(worst0, max_abs(commutator(la, rb)))
        worst1 = max(worst1, max_abs(commutator(commutator(d, la), rb)))
    worst = max(worst0, worst1)
    return Report(name=f"order-conditions({triple.variant})", passed=worst < tol,
                  max_residual=worst, tolerance=tol,
                  details=[{"samples": samples, "zeroth_order": worst0, "first_order": worst1}])


def perturbed_projections(triple, seed, size=1e-9):
    """The triple with noise of the given size on π₂^±, so that the order
    conditions no longer hold exactly."""
    rng = np.random.default_rng(seed)
    noise = lambda m: m + size * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
    return dataclasses.replace(triple, pi2_plus=noise(triple.pi2_plus),
                               pi2_minus=noise(triple.pi2_minus))


def twisted_real_structure(triple, seed, eps=1e-6):
    """The triple with J replaced by J·expm(iεH) for a random Hermitian H
    with J·H·J⁻¹ = H: then (J·expm(iεH))² = J², so the KO signs stay
    measurable, while the right action moves by about ε."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((triple.dim,) * 2) + 1j * rng.standard_normal((triple.dim,) * 2)
    h = h + dagger(h)
    h = h + triple.J.conjugate_matrix(h)
    return dataclasses.replace(triple, J=triple.J.after_linear(expm(1j * eps * h)))


def real_basis(mats):
    """Orthonormal basis of the real span of a stack of matrices."""
    mats = np.asarray(mats)
    d = mats.shape[-1]
    vecs = np.concatenate([mats.real, mats.imag], axis=-1).reshape(len(mats), -1)
    _, s, vh = np.linalg.svd(vecs, full_matrices=False)
    rows = vh[s > 1e-9 * s[0]].reshape(-1, d, 2 * d)
    return rows[..., :d] + 1j * rows[..., d:]


def product_span(generators):
    """Basis of the real span of all products of the generators."""
    span = real_basis(generators)
    while True:
        products = (span[:, None] @ generators[None]).reshape(-1, *span.shape[1:])
        grown = real_basis(np.concatenate([span, products]))
        if len(grown) == len(span):
            return span
        span = grown


def test_the_ten_generators_generate_the_even_subalgebras(triple):
    gens = triple.algebra_generators()
    assert len(gens.a1) == len(gens.a2) == 10
    for factor, basis, dim in zip((gens.a1, gens.a2), even_bases(triple), (8, 32)):
        span = product_span(factor)
        assert len(span) == len(basis) == dim
        assert len(real_basis(np.concatenate([span, basis]))) == dim


def test_twisted_real_structure_fails_through_the_cli(capsys):
    build = spectral.build_pati_salam
    with mock.patch.object(spectral, "build_pati_salam",
                           lambda *args, **kwargs: twisted_real_structure(build(*args, **kwargs), 3)):
        code = cli.run(["pati-salam", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    rows = {c["check"]: c for c in json.loads(captured.out)["checks"]}
    for variant in spectral.VARIANTS:
        assert rows[f"order-conditions({variant})"]["passed"] is False


def test_nan_projection_fails_the_order_conditions():
    # a NaN residual used to be dropped by every max fold: PASS with 0.0
    triple = TRIPLES["plain"]
    broken = dataclasses.replace(triple, pi2_plus=np.full_like(triple.pi2_plus, np.nan))
    report = check_order_conditions(broken, triple.dirac_operator([1.0, 0.0, 0.0, 0.0]))
    assert not report.passed
    assert np.isnan(report.max_residual)
    assert np.isnan(report.details[0]["zeroth_order"])


def same_report(report, reference) -> bool:
    """Equal reports, floats compared by their printed digits."""
    return json.dumps(report.to_dict()) == json.dumps(reference.to_dict())


SAMPLE_COUNTS = (1, 7, 8, 9, 17, 300)

#: the path pair_residuals picks, and the dense path forced by a detector
#: that answers None
PAIR_PATHS = (contextlib.nullcontext,
              lambda: mock.patch.object(linalg, "phased_permutations", return_value=None))


class TestStackedLoopsEqualTheReferences:
    def test_block_is_eight_samples_of_the_triple(self):
        assert STACK_BLOCK_ENTRIES // TRIPLES["plain"].dim ** 2 == 8

    @pytest.mark.parametrize("seed", [0, 5, 42])
    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    def test_order_conditions(self, triple, samples, seed):
        # the exact check and the sampled reference share their verdict at
        # every sample count: both residuals are exactly 0.0 on the triple,
        # and perturbed projections or a twisted J fail both
        dirac = triple.dirac_operator([0.3, -1.0, 0.5, 2.0])
        for checked in (triple, perturbed_projections(triple, seed),
                        twisted_real_structure(triple, seed)):
            report = check_order_conditions(checked, dirac)
            reference = reference_order_conditions(checked, dirac, samples,
                                                   np.random.default_rng(seed))
            assert report.passed == reference.passed == (checked is triple)
            for key in ("zeroth_order", "first_order"):
                if checked is triple:
                    assert report.details[0][key] == reference.details[0][key] == 0.0
                else:
                    assert report.details[0][key] > DEFAULT_TOL

    @pytest.mark.parametrize("seed", [0, 5])
    def test_order_conditions_equal_the_pair_loop(self, triple, seed):
        # the one pair_residuals call of the exact check equals the per-pair
        # loop bit for bit, on exact and perturbed input and on both paths
        dirac = triple.dirac_operator([0.3, -1.0, 0.5, 2.0])
        for checked in (triple, perturbed_projections(triple, seed),
                        twisted_real_structure(triple, seed)):
            gens = checked.algebra_generators()
            la, rb = checked.left_action(gens), checked.right_action(gens)
            reference = loop_order_conditions(la, commutator(dirac.matrix, la), rb)
            for path in PAIR_PATHS:
                with path():
                    detail = check_order_conditions(checked, dirac).details[0]
                assert (detail["zeroth_order"], detail["first_order"]) == reference
            assert (reference == (0.0, 0.0)) == (checked is triple)

    @pytest.mark.parametrize("seed", [9, 21])
    def test_spin10_mixed_minimum_equals_the_loop(self, triple, seed):
        # the one pair_residuals call over the 10 × 24 pairs (l(g), M) equals
        # the per-pair loop bit for bit, on exact and perturbed projections
        # and on both paths
        for checked in (triple, perturbed_projections(triple, seed)):
            ca = checked.action
            mixed = [g for (a, b), g in zip(ca.generators.pairs(), ca.generators.mats)
                     if a < ca.n1 <= b]
            reference = loop_mixed_min(mixed, checked.left_action(checked.algebra_generators()))
            assert reference > 0.01
            assert (reference == 0.5) == (checked is triple)
            for path in PAIR_PATHS:
                with path():
                    detail = spin10_action(checked).details[0]
                assert detail["mixed_generator_min_commutator"] == reference

    @pytest.mark.parametrize("seed", [0, 5, 42])
    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    def test_gauge_action(self, triple, samples, seed):
        # the exact check and the sampled group loop share their verdict at
        # every sample count: perturbed projections or a twisted J fail both
        for checked in (triple, perturbed_projections(triple, seed),
                        twisted_real_structure(triple, seed)):
            report = verify_gauge_action(checked)
            reference = loop_gauge_action(checked, samples, np.random.default_rng(seed))
            assert report.passed == reference.passed == (checked is triple)
            if checked is triple:
                assert report.max_residual == 0.0
            else:
                assert report.details[0]["factorization"] > DEFAULT_TOL

    def test_gauge_action_at_another_scale_and_tolerance(self, triple):
        # the sampled residuals are rounding-sized, so a tolerance of 1e-18
        # fails the group loop; the generator residuals are exactly 0.0
        reference = loop_gauge_action(triple, 11, np.random.default_rng(3), scale=0.25,
                                      tol=1e-18)
        assert not reference.passed
        assert loop_gauge_action(triple, 11, np.random.default_rng(3), scale=0.25).passed
        report = verify_gauge_action(triple, tol=1e-18)
        assert report.passed and report.max_residual == 0.0

    def test_stacked_actions_equal_each_slice(self, triple):
        rng, bases = np.random.default_rng(14), even_bases(triple)
        elements = [random_algebra_element(bases, rng) for _ in range(5)]
        stacked = AlgebraElement(np.stack([e.a1 for e in elements]),
                                 np.stack([e.a2 for e in elements]))
        for action in (triple.left_action, triple.right_action, triple.derived_action):
            stack = action(stacked)
            assert stack.shape == (5, 32, 32)
            for k, element in enumerate(elements):
                assert stack[k].tobytes() == action(element).tobytes()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_stacked_gauge_residuals_equal_each_element(self, triple, seed):
        # the blocked residuals of the exact check equal a loop over the 21
        # generators, one at a time, on exact and perturbed projections
        for checked in (triple, perturbed_projections(triple, seed)):
            gens = checked.gauge_generators()
            factor, trace = [], []
            for k in range(21):
                x = gens[k]
                factor.append(max_abs(checked.derived_action(x)
                                      - kron(x.a1, eye(8)) - kron(eye(4), x.a2)))
                trace.append(np.abs(np.trace(checked.left_action(x))))
            detail = verify_gauge_action(checked).details[0]
            assert detail["factorization"] == fold_max(0.0, factor)
            assert detail["unimodularity"] == fold_max(0.0, trace)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-18])
    def test_spin10_generator_blocks(self, triple, tol):
        # the block matches on the generators read exactly 0.0, so they pass
        # at any tolerance; the exponentials of the group loop match to
        # rounding, so they fail a tolerance below it
        report = spin10_action(triple, tol=tol)
        reference = loop_spin10_action(triple, tol)
        detail, ref = report.details[0], reference.details[0]
        assert detail["brackets"] == bracket_residual(triple.action.generators)
        assert detail["factor1_block_match"] == detail["factor2_block_match"] == 0.0
        assert 0.0 < fold_max(ref["factor1_block_match"], ref["factor2_block_match"]) < 1e-13
        assert detail["mixed_generator_min_commutator"] == ref["mixed_generator_min_commutator"]
        assert report.passed
        assert reference.passed == (tol == DEFAULT_TOL)

    def test_memory_of_exact_reports(self, triple):
        for check in (verify_gauge_action, higgs_transform, spin10_action):
            check(triple)
            tracemalloc.start()
            try:
                assert check(triple).passed
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5e6, (check.__name__, peak)


def nan_projection(triple):
    pi2_plus = np.array(triple.pi2_plus)
    pi2_plus[0, 0] = np.nan
    return dataclasses.replace(triple, pi2_plus=pi2_plus)


def lifted_gamma_times_i(triple):
    gamma1 = list(triple.action.gamma1)
    gamma1[1] = 1j * gamma1[1]
    return dataclasses.replace(
        triple, action=dataclasses.replace(triple.action, gamma1=tuple(gamma1)))


def identity_mixed_generator(triple):
    """The triple whose first mixed combined generator is the identity,
    which commutes with l(A)."""
    ca = triple.action
    pairs = ca.generators.pairs()
    mats = np.array(ca.generators.mats)
    mats[pairs.index(next(key for key in pairs if key[0] < ca.n1 <= key[1]))] = eye(ca.dim)
    action = copy.copy(ca)
    object.__setattr__(action, "generators", dataclasses.replace(ca.generators, mats=mats))
    return dataclasses.replace(triple, action=action)


def test_a_mixed_generator_commuting_with_the_algebra_fails_spin10(triple, capsys):
    # the exact minimum reads 0.0 and fails the report on its own: at a
    # tolerance above the broken brackets only the minimum can fail it
    report = spin10_action(identity_mixed_generator(triple), tol=1e3)
    assert report.max_residual < 1e3 and report.details[0]["brackets"] > 0.1
    assert not report.passed
    assert report.details[0]["mixed_generator_min_commutator"] == 0.0
    build = spectral.build_pati_salam
    with mock.patch.object(spectral, "build_pati_salam",
                           lambda *args, **kwargs: identity_mixed_generator(build(*args, **kwargs))):
        code = cli.run(["pati-salam", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    rows = {c["check"]: c for c in json.loads(captured.out)["checks"]}
    assert [name for name, row in rows.items() if not row["passed"]] == ["spin10-extension"]
    assert rows["spin10-extension"]["details"][0]["mixed_generator_min_commutator"] == 0.0


#: a fault of the triple and the verdicts (gauge, Higgs, Spin(10)) it gives
GROUP_FAULTS = {
    "none": (lambda t: t, "PPP"),
    "projections-one": (lambda t: dataclasses.replace(t, pi2_plus=eye(8), pi2_minus=eye(8)),
                        "FFF"),
    "plain-conjugation": (lambda t: dataclasses.replace(t, J=AntilinearOp(eye(32))), "FFF"),
    "nan-projection": (nan_projection, "FFF"),
    "lifted-gamma-times-i": (lifted_gamma_times_i, "PFF"),
    "identity-mixed-generator": (identity_mixed_generator, "PPF"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fault", list(GROUP_FAULTS))
def test_exact_reports_share_the_verdicts_of_the_group_loops(triple, fault):
    # the gauge, Higgs and Spin(10) checks on the 21 generators give the
    # verdicts of 50 sampled gauge elements and of the exponentiated blocks
    make, verdicts = GROUP_FAULTS[fault]
    checked = make(triple)
    exact = (verify_gauge_action(checked), higgs_transform(checked), spin10_action(checked))
    sampled = (loop_gauge_action(checked, 50, np.random.default_rng(1)),
               loop_higgs_report(checked, 50, np.random.default_rng(2)),
               loop_spin10_action(checked))
    as_text = lambda reports: "".join("P" if r.passed else "F" for r in reports)
    assert as_text(exact) == as_text(sampled) == verdicts
    if fault == "nan-projection":
        assert all(np.isnan(r.max_residual) for r in exact)


class TestNanResiduals:
    """A NaN residual is the report's max residual and fails it; the final
    max of each report used to drop it after a finite value."""

    def test_gauge_action_element_invariants(self):
        triple = TRIPLES["plain"]
        mod1 = triple.action.mod1
        broken_mod1 = dataclasses.replace(mod1, chirality=np.full_like(mod1.chirality, np.nan))
        broken = dataclasses.replace(
            triple, action=dataclasses.replace(triple.action, mod1=broken_mod1))
        report = verify_gauge_action(broken)
        assert not report.passed
        assert np.isnan(report.max_residual)
        assert report.details[0]["factorization"] == 0.0

    def test_higgs_coefficient_norm(self):
        # NaN gammas of the first factor spoil the coefficient rotation M and
        # so its norm change; NaN lifted gammas spoil only the covariance,
        # because M is read from the factor's own gammas
        triple = TRIPLES["hatted_second"]
        mod1 = dataclasses.replace(triple.action.mod1, gammas=tuple(
            np.full_like(g, np.nan) for g in triple.action.mod1.gammas))
        report = higgs_transform(dataclasses.replace(
            triple, action=dataclasses.replace(triple.action, mod1=mod1)))
        assert not report.passed
        assert np.isnan(report.max_residual)
        assert np.isnan(report.details[0]["norm_change"])
        action = dataclasses.replace(
            triple.action, gamma1=tuple(np.full_like(g, np.nan) for g in triple.action.gamma1))
        report = higgs_transform(dataclasses.replace(triple, action=action))
        assert not report.passed
        assert np.isnan(report.max_residual)
        assert np.isnan(report.details[0]["covariance"])
        assert report.details[0]["norm_change"] == 0.0

    @pytest.mark.filterwarnings("error")  # a NaN fails quietly
    def test_spin10_block_match(self):
        triple = TRIPLES["hatted_second"]
        broken = dataclasses.replace(triple, pi2_plus=np.full_like(triple.pi2_plus, np.nan))
        report = spin10_action(broken)
        assert not report.passed
        assert np.isnan(report.max_residual)
        assert report.details[0]["brackets"] < 1e-12
        assert np.isnan(report.details[0]["factor1_block_match"])
        # one pair_residuals minimum: a NaN commutator is not dropped
        assert np.isnan(report.details[0]["mixed_generator_min_commutator"])
