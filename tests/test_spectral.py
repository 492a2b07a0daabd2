"""Pati-Salam spectral triple on C4 x C8: left/right actions, order
conditions, measured sign rows for both real-structure variants, gauge
action with unimodularity, Dirac covariance, and the extension of the
gauge symmetry to the full 45-generator algebra."""

import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cliffspin import cli, liealg, spectral
from cliffspin.liealg import bracket_residual, so_generators
from cliffspin.linalg import (
    DEFAULT_TOL,
    STACK_BLOCK_ENTRIES,
    commutator,
    dagger,
    expm,
    eye,
    kron,
    linear_combination,
    max_abs,
    unitarity_residual,
)
from cliffspin.report import Report
from cliffspin.spectral import (
    DET_TOL,
    AlgebraElement,
    GaugeElement,
    adjoint_gauge_action,
    build_pati_salam,
    check_order_conditions,
    chirality_exchange_residual,
    dirac_invariant_residuals,
    gauge_element_residuals,
    gauge_elements,
    higgs_transform,
    ko_dimension,
    monomial_basis,
    sample_gauge_element,
    spin10_action,
    verify_gauge_action,
)

TRIPLES = {variant: build_pati_salam(variant) for variant in ("plain", "hatted_second")}


@pytest.fixture(params=["plain", "hatted_second"])
def triple(request):
    return TRIPLES[request.param]


def test_variant_sign_rows():
    assert tuple(TRIPLES["plain"].sign_triple) == (-1, 1, -1)
    assert tuple(TRIPLES["hatted_second"].sign_triple) == (1, 1, -1)


def test_ko_rows(triple):
    dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])
    measured, s = ko_dimension(triple, dirac)
    if triple.variant == "plain":
        assert s == 2 and tuple(measured) == (-1, 1, -1)
    else:
        assert s == 6 and tuple(measured) == (1, 1, -1)


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
    assert len(TRIPLES["plain"].even_basis1) == 8
    assert len(TRIPLES["plain"].even_basis2) == 32


def test_sampled_elements_live_in_the_algebra(triple):
    rng = np.random.default_rng(5)
    mod1, mod2 = triple.action.mod1, triple.action.mod2
    for _ in range(5):
        a = triple.random_algebra_element(rng)
        assert max_abs(commutator(a.a1, mod1.chirality)) < 1e-12
        assert max_abs(commutator(a.a2, mod2.chirality)) < 1e-12
        assert mod1.J.commutation_residual(a.a1, 1) < 1e-10
        assert mod2.J.commutation_residual(a.a2, 1) < 1e-10
        star = a.star()
        assert mod1.J.commutation_residual(star.a1, 1) < 1e-10


def test_left_action_is_a_homomorphism(triple):
    rng = np.random.default_rng(6)
    a = triple.random_algebra_element(rng)
    b = triple.random_algebra_element(rng)
    ab = AlgebraElement(a.a1 @ b.a1, a.a2 @ b.a2)
    assert max_abs(triple.left_action(ab)
                   - triple.left_action(a) @ triple.left_action(b)) < 1e-10


def right_action_closed_form(triple, a):
    """Expected block form of the right action, for direct comparison."""
    return (kron(dagger(a.a1), triple.pi2_minus)
            + kron(eye(triple.dim1), dagger(a.a2) @ triple.pi2_plus))


def test_right_action_formula(triple):
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = triple.random_algebra_element(rng)
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
        rng = np.random.default_rng(8)
        a = triple.random_algebra_element(rng)
        b = triple.random_algebra_element(rng)
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
        u = GaugeElement(eye(4), eye(8))
        assert max_abs(adjoint_gauge_action(triple, u) - eye(32)) < 1e-12

    def test_single_angle_closed_form(self, triple):
        # T = g0 g1 / 2 squares to -1/4, so exp(pi T) = 2 T = g0 g1
        mod1 = triple.action.mod1
        t = 0.5 * (mod1.gammas[0] @ mod1.gammas[1])
        u1 = expm(np.pi * t)
        assert max_abs(u1 - 2 * t) < 1e-13
        res = gauge_element_residuals(triple, GaugeElement(u1, eye(8)))
        assert max(res.values()) < 1e-12

    def test_sampled_invariants_and_factorization(self, triple):
        report = verify_gauge_action(triple, samples=50, rng=0)
        assert report.passed, report.details

    def test_center_elements(self, triple):
        # -1 on the first factor is reached by a 2*pi angle; the pair
        # (-1, -1) acts trivially (the shared center of the two factors)
        mod1, mod2 = triple.action.mod1, triple.action.mod2
        t1 = 0.5 * (mod1.gammas[0] @ mod1.gammas[1])
        u1 = expm(2 * np.pi * t1)
        assert max_abs(u1 + eye(4)) < 1e-12
        adj = adjoint_gauge_action(triple, GaugeElement(u1, eye(8)))
        assert max_abs(adj + eye(32)) < 1e-10
        t2 = 0.5 * (mod2.gammas[0] @ mod2.gammas[1])
        u2 = expm(2 * np.pi * t2)
        assert max_abs(u2 + eye(8)) < 1e-12
        adj = adjoint_gauge_action(triple, GaugeElement(u1, u2))
        assert max_abs(adj - eye(32)) < 1e-10

    def test_scale_must_be_positive(self, triple):
        with pytest.raises(ValueError):
            sample_gauge_element(triple, 0, scale=0.0)

    @pytest.mark.parametrize("samples, scale", [(0, 1.0), (-3, 1.0), (50, 0.0), (50, -1.0),
                                                (0, -1.0)])
    def test_verify_needs_samples_and_a_positive_scale(self, triple, samples, scale):
        # zero samples, or a non-positive scale, used to report PASS
        with pytest.raises(ValueError):
            verify_gauge_action(triple, samples, rng=0, scale=scale)

    def test_vectorized_draws_equal_scalar_draws(self, triple):
        # one uniform draw per monomial and a Python sum, factor by factor:
        # the sampler's batched draws and stacked combination give the same bits
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for scale in (1.0, 0.25):
            u = sample_gauge_element(triple, rng, scale)
            ref = [expm(sum(ref_rng.uniform(-scale, scale) * t
                            for t in so_generators(mod).generators.values()))
                   for mod in (triple.action.mod1, triple.action.mod2)]
            assert u.u1.tobytes() == ref[0].tobytes()
            assert u.u2.tobytes() == ref[1].tobytes()
        assert rng.random() == ref_rng.random()

    def test_quadratic_monomials_are_built_once_per_triple(self):
        spy = mock.Mock(wraps=liealg.so_generators)
        with mock.patch.object(liealg, "so_generators", spy), \
                mock.patch.object(spectral, "so_generators", spy):
            triple = build_pati_salam("hatted_second", action=TRIPLES["plain"].action)
            assert verify_gauge_action(triple, 50, rng=0).passed
        assert spy.call_count <= 2


class TestHiggs:
    def test_identity_gauge_fixes_coefficients(self, triple):
        dirac = triple.dirac_operator([0.3, -1.2, 0.0, 2.0])
        report = higgs_transform(triple, dirac, GaugeElement(eye(4), eye(8)))
        assert report.passed
        assert np.allclose(report.details[0]["d_transformed"], dirac.d, atol=1e-12)

    def test_random_gauge_rotates_isometrically(self, triple):
        rng = np.random.default_rng(11)
        dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])
        for _ in range(5):
            u = sample_gauge_element(triple, rng)
            report = higgs_transform(triple, dirac, u)
            assert report.passed, report.details
            d_new = report.details[0]["d_transformed"]
            assert abs(np.linalg.norm(d_new) - 1.0) < 1e-10

    def test_second_factor_acts_trivially(self, triple):
        rng = np.random.default_rng(12)
        d = np.array([0.5, 0.25, -1.0, 0.0])
        dirac = triple.dirac_operator(d)
        u2_only = GaugeElement(eye(4), sample_gauge_element(triple, rng).u2)
        report = higgs_transform(triple, dirac, u2_only)
        assert report.passed
        assert np.allclose(report.details[0]["d_transformed"], d, atol=1e-10)


def test_spin10_extension():
    report = spin10_action(TRIPLES["hatted_second"], rng=0)
    assert report.passed, report.details
    detail = report.details[0]
    assert detail["mixed_generator_min_commutator"] > 0.01


def test_spin10_extension_runs_on_the_given_triple(triple):
    report = spin10_action(triple, rng=0)
    assert report.passed, report.details
    assert report.max_residual < 1e-13


def test_broken_adjoint_bound_fails_the_reports(triple):
    # a tolerance below rounding breaks the factorization bound: the
    # checks report FAIL with the reason instead of raising
    u = sample_gauge_element(triple, np.random.default_rng(13))
    report = higgs_transform(triple, triple.dirac_operator([1.0, 0.0, 0.0, 0.0]), u, tol=1e-18)
    assert not report.passed
    assert report.details[0]["adjoint_failure"].startswith("adjoint action does not factorize")
    with pytest.raises(ValueError, match="does not factorize"):
        adjoint_gauge_action(triple, u, tol=1e-18)
    passing = higgs_transform(triple, triple.dirac_operator([1.0, 0.0, 0.0, 0.0]), u)
    assert passing.passed and "adjoint_failure" not in passing.details[0]


def test_spin10_reports_a_broken_adjoint_bound():
    report = spin10_action(TRIPLES["hatted_second"], rng=0, tol=1e-18)
    assert not report.passed
    assert "adjoint_failure" in report.details[0]


def test_spin10_requires_the_right_signatures():
    from cliffspin.commuting import build_commuting
    with pytest.raises(ValueError):
        build_pati_salam(action=build_commuting((2, 0), (0, 1)))


def test_equivariance_of_the_two_real_structures():
    # the plain structure commutes with all 45 combined generators; the
    # hatted variant anticommutes with the 24 mixed ones instead
    plain, hatted = TRIPLES["plain"], TRIPLES["hatted_second"]
    n1 = plain.action.n1
    for (a, b), g in plain.action.generators.generators.items():
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


# The per-sample and per-generator loops that the stacked checks replaced,
# kept as their references: every stacked report must equal them bit for
# bit.  The order conditions are now checked exactly on the generators; their
# sampled loop stays as the reference whose verdict the exact check must share.

def reference_order_conditions(triple, dirac, samples, rng, tol=DEFAULT_TOL):
    d = dirac.matrix
    worst0 = worst1 = 0.0
    for _ in range(samples):
        a = triple.random_algebra_element(rng)
        b = triple.random_algebra_element(rng)
        la = triple.left_action(a)
        rb = triple.right_action(b)
        worst0 = max(worst0, max_abs(commutator(la, rb)))
        worst1 = max(worst1, max_abs(commutator(commutator(d, la), rb)))
    worst = max(worst0, worst1)
    return Report(name=f"order-conditions({triple.variant})", passed=worst < tol,
                  max_residual=worst, tolerance=tol,
                  details=[{"samples": samples, "zeroth_order": worst0, "first_order": worst1}])


def reference_gauge_element(triple, rng, scale):
    u1, u2 = (expm(linear_combination(rng.uniform(-scale, scale, size=len(quads)), quads))
              for quads in (triple.quadratics1, triple.quadratics2))
    return GaugeElement(u1, u2)


def reference_adjoint_image(triple, u):
    a = u.as_algebra_element()
    lu = triple.left_action(a)
    adj = lu @ triple.right_action(a.star())
    return adj, max_abs(adj - kron(u.u1, u.u2)), abs(np.linalg.det(lu) - 1.0)


def reference_gauge_action(triple, samples, rng, scale=1.0, tol=DEFAULT_TOL):
    worst = det_worst = inv_worst = 0.0
    for _ in range(samples):
        u = reference_gauge_element(triple, rng, scale)
        for mat, mod in ((u.u1, triple.action.mod1), (u.u2, triple.action.mod2)):
            inv_worst = max(inv_worst, unitarity_residual(mat),
                            max_abs(commutator(mat, mod.chirality)),
                            mod.J.commutation_residual(mat, 1))
        _, resid, det_err = reference_adjoint_image(triple, u)
        worst = max(worst, resid)
        det_worst = max(det_worst, det_err)
    passed = worst < tol and det_worst < DET_TOL and inv_worst < tol
    return Report(name=f"gauge-action({triple.variant})", passed=passed,
                  max_residual=max(worst, inv_worst), tolerance=tol,
                  details=[{"samples": samples, "factorization": worst,
                            "unimodularity": det_worst, "element_invariants": inv_worst}])


def reference_spin10_parts(triple, rng, tol):
    """(match1, match2, mixed_min, first adjoint failure) of the generator loops."""
    ca = triple.action
    quads1, quads2 = so_generators(ca.mod1).generators, so_generators(ca.mod2).generators
    failure = None
    match1 = match2 = 0.0
    for (a, b) in quads1:
        big = expm(0.7 * ca.generators.t(a, b))
        u = GaugeElement(expm(-0.7 * quads1[(a, b)]), eye(ca.mod2.dim))
        adj, resid, det_err = reference_adjoint_image(triple, u)
        failure = failure or spectral._adjoint_failure(resid, det_err, tol, DET_TOL)
        match1 = max(match1, max_abs(big - adj))
    for (a, b) in quads2:
        big = expm(0.7 * ca.generators.t(ca.n1 + a, ca.n1 + b))
        u = GaugeElement(eye(ca.mod1.dim), expm(0.7 * quads2[(a, b)]))
        adj, resid, det_err = reference_adjoint_image(triple, u)
        failure = failure or spectral._adjoint_failure(resid, det_err, tol, DET_TOL)
        match2 = max(match2, max_abs(big - adj))
    la = triple.left_action(triple.random_algebra_element(rng))
    mixed_min = min(max_abs(commutator(ca.generators.t(a, ca.n1 + b), la))
                    for a in range(ca.n1) for b in range(ca.n2))
    return match1, match2, mixed_min, failure


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
    for factor, basis, dim in ((gens.a1, triple.even_basis1, 8),
                               (gens.a2, triple.even_basis2, 32)):
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

    @pytest.mark.parametrize("seed", [0, 5, 42])
    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    def test_gauge_action(self, triple, samples, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        report = verify_gauge_action(triple, samples, rng)
        assert same_report(report, reference_gauge_action(triple, samples, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_gauge_action_at_another_scale_and_tolerance(self, triple):
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        report = verify_gauge_action(triple, 11, rng, scale=0.25, tol=1e-18)
        reference = reference_gauge_action(triple, 11, ref_rng, scale=0.25, tol=1e-18)
        assert not report.passed and same_report(report, reference)

    def test_sampled_gauge_element_is_the_reference_element(self, triple):
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        u = sample_gauge_element(triple, rng, 0.5)
        ref = reference_gauge_element(triple, ref_rng, 0.5)
        assert u.u1.tobytes() == ref.u1.tobytes() and u.u2.tobytes() == ref.u2.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_gauge_elements_equal_each_row_element(self, triple):
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        k = len(triple.quadratics1) + len(triple.quadratics2)
        u = gauge_elements(triple, rng.uniform(-1.0, 1.0, size=(5, k)))
        assert u.u1.shape == (5, 4, 4) and u.u2.shape == (5, 8, 8)
        for i in range(5):
            ref = reference_gauge_element(triple, ref_rng, 1.0)
            assert u.u1[i].tobytes() == ref.u1.tobytes()
            assert u.u2[i].tobytes() == ref.u2.tobytes()

    def test_stacked_actions_equal_each_slice(self, triple):
        rng = np.random.default_rng(14)
        elements = [triple.random_algebra_element(rng) for _ in range(5)]
        stacked = AlgebraElement(np.stack([e.a1 for e in elements]),
                                 np.stack([e.a2 for e in elements]))
        for action in (triple.left_action, triple.right_action):
            stack = action(stacked)
            assert stack.shape == (5, 32, 32)
            for k, element in enumerate(elements):
                assert stack[k].tobytes() == action(element).tobytes()

    def test_stacked_gauge_residuals_equal_each_element(self, triple):
        rng = np.random.default_rng(15)
        us = [sample_gauge_element(triple, rng) for _ in range(4)]
        stacked = GaugeElement(np.stack([u.u1 for u in us]), np.stack([u.u2 for u in us]))
        residuals = gauge_element_residuals(triple, stacked)
        adj, resid, det_err = spectral._adjoint_image(triple, stacked)
        for k, u in enumerate(us):
            assert {key: val[k] for key, val in residuals.items()} == \
                gauge_element_residuals(triple, u)
            ref_adj, ref_resid, ref_det = reference_adjoint_image(triple, u)
            assert adj[k].tobytes() == ref_adj.tobytes()
            assert (resid[k], det_err[k]) == (ref_resid, ref_det)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-18])
    def test_spin10_generator_blocks(self, triple, tol):
        report = spin10_action(triple, rng=9, tol=tol)
        match1, match2, mixed_min, failure = reference_spin10_parts(
            triple, np.random.default_rng(9), tol)
        detail = report.details[0]
        assert detail["brackets"] == bracket_residual(triple.action.generators)
        assert (detail["factor1_block_match"], detail["factor2_block_match"],
                detail["mixed_generator_min_commutator"]) == (match1, match2, mixed_min)
        assert detail.get("adjoint_failure") == failure
        assert (failure is None) == (tol == DEFAULT_TOL)

    def test_spin10_reports_the_first_adjoint_failure_in_monomial_order(self, triple):
        seen = []

        def failing(resid, det_err, tol, det_tol):
            seen.append((resid, det_err))
            return f"failure {len(seen)}"

        with mock.patch.object(spectral, "_adjoint_failure", failing):
            report = spin10_action(triple, rng=0)
        assert report.details[0]["adjoint_failure"] == "failure 1" and len(seen) == 1
        first = GaugeElement(expm(-0.7 * so_generators(triple.action.mod1).generators[(0, 1)]),
                             eye(8))
        assert seen[0] == reference_adjoint_image(triple, first)[1:]

    def test_memory_stays_bounded_at_300_samples(self, triple):
        verify_gauge_action(triple, 300, 0)
        tracemalloc.start()
        try:
            assert verify_gauge_action(triple, 300, 0).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


class TestNanResiduals:
    """A NaN residual is the report's max residual and fails it; the final
    max of each report used to drop it after a finite value."""

    def test_gauge_action_element_invariants(self):
        triple = TRIPLES["plain"]
        mod1 = triple.action.mod1
        broken_mod1 = dataclasses.replace(mod1, chirality=np.full_like(mod1.chirality, np.nan))
        broken = dataclasses.replace(
            triple, action=dataclasses.replace(triple.action, mod1=broken_mod1))
        report = verify_gauge_action(broken, samples=2, rng=0)
        assert not report.passed
        assert np.isnan(report.max_residual)
        assert report.details[0]["factorization"] < 1e-12

    def test_higgs_coefficient_norm(self):
        # NaN lifted gammas leave g·D·g† finite and spoil only the recovered
        # coefficients, so the covariance residual stays finite
        triple = TRIPLES["hatted_second"]
        dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])
        action = dataclasses.replace(
            triple.action, gamma1=tuple(np.full_like(g, np.nan) for g in triple.action.gamma1))
        u = sample_gauge_element(triple, np.random.default_rng(5))
        report = higgs_transform(dataclasses.replace(triple, action=action), dirac, u)
        assert not report.passed
        assert np.isnan(report.max_residual)
        assert report.details[0]["covariance"] < 1e-12

    def test_spin10_block_match(self):
        triple = TRIPLES["hatted_second"]
        broken = dataclasses.replace(triple, pi2_plus=np.full_like(triple.pi2_plus, np.nan))
        report = spin10_action(broken, rng=0)
        assert not report.passed
        assert np.isnan(report.max_residual)
        assert report.details[0]["brackets"] < 1e-12
