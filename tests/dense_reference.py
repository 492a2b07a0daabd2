"""Dense loops, the independent references of the package's checks.

``linalg.pair_residuals`` evaluates the Clifford relations, the so(p,q)
brackets, the commutation precondition of ``fixed_spaces``, the order
conditions and the Spin(10) mixed-generator commutators for many pairs at
once, by gathers or by stacked products.  The per-pair loops here take one
pair at a time with plain d×d products, as the package did before, and the
tests compare the package against them bit for bit.

``spectral`` checks the gauge action, the Higgs covariance and the Spin(10)
block matches exactly on the 21 gauge generators.  The sampled loops here
check the same identities on the group, on exponentiated gauge elements,
as the package did before; the tests require both to give one verdict.
The even monomial bases and the random algebra elements and gauge
elements drawn from them live here too: the package draws nothing.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from cliffspin.liealg import bracket_residual
from cliffspin.linalg import (
    DEFAULT_TOL,
    commutator,
    dagger,
    expm,
    eye,
    fold_max,
    frozen,
    kron,
    linear_combination,
    max_abs,
    unitarity_residual,
)
from cliffspin.report import Report
from cliffspin.spectral import AlgebraElement

#: bound of the sampled unimodularity check |det(l(u)) − 1|
DET_TOL = 1e-8


@dataclass(frozen=True)
class GaugeElement:
    """Unitaries (u₁, u₂) from exponentiated quadratic monomials."""

    u1: np.ndarray
    u2: np.ndarray

    def as_algebra_element(self) -> AlgebraElement:
        return AlgebraElement(self.u1, self.u2)


def monomial_basis(m, parity: int) -> list:
    """Ordered products of gammas over index subsets of size ≡ parity (mod 2).

    For parity 0, real linear combinations of these span the even real
    subalgebra of the module's Clifford algebra.
    """
    basis = []
    for size in range(parity, m.n + 1, 2):
        for subset in itertools.combinations(range(m.n), size):
            mat = eye(m.dim)
            for a in subset:
                mat = mat @ m.gammas[a]
            basis.append(frozen(mat))
    return basis


def even_bases(triple):
    """The stacked even monomial bases of the triple's two factors."""
    return tuple(np.stack(monomial_basis(mod, 0))
                 for mod in (triple.action.mod1, triple.action.mod2))


def random_algebra_element(bases, rng) -> AlgebraElement:
    """Random real linear combination of the even monomial bases
    ``(basis1, basis2)`` of :func:`even_bases`."""
    basis1, basis2 = bases
    return AlgebraElement(linear_combination(rng.standard_normal(len(basis1)), basis1),
                          linear_combination(rng.standard_normal(len(basis2)), basis2))


def loop_pair_residuals(mats, i, j, sign, terms):
    """max-abs of Aᵢ·Aⱼ + sign·Aⱼ·Aᵢ − c·A[k], one pair at a time."""
    out = []
    for p, (a, b) in enumerate(zip(i, j)):
        ab, ba = mats[a] @ mats[b], mats[b] @ mats[a]
        resid = ab + ba if sign > 0 else ab - ba
        if terms is not None and terms[1][p] != 0:
            resid = resid - terms[1][p] * mats[terms[0][p]]
        out.append(max_abs(resid))
    return np.array(out, dtype=float)


def loop_clifford_residual(gammas, eta) -> float:
    """max-abs of γᵃγᵇ + γᵇγᵃ − 2ηᵃᵇ·1 over all n² index pairs."""
    resid = []
    for a, ga in enumerate(gammas):
        for b, gb in enumerate(gammas):
            dim = ga.shape[0]
            target = 2 * eta[a] * eye(dim) if a == b else np.zeros((dim, dim))
            resid.append(max_abs(ga @ gb + gb @ ga - target))
    return fold_max(0.0, resid)


def loop_bracket_table(rep) -> np.ndarray:
    """The bracket residual table by d×d commutators, one pair at a time."""
    eta = rep.eta
    pairs = rep.pairs()
    table = np.zeros((len(pairs), len(pairs)))
    for i, (a, b) in enumerate(pairs):
        tab = rep.t(a, b)
        for j, (c, d) in enumerate(pairs):
            rhs = np.zeros((rep.dim, rep.dim), dtype=complex)
            if b == c:
                rhs = rhs + eta[b] * rep.t(a, d)
            if a == c:
                rhs = rhs - eta[a] * rep.t(b, d)
            if b == d:
                rhs = rhs + eta[b] * rep.t(c, a)
            if a == d:
                rhs = rhs - eta[a] * rep.t(c, b)
            table[i, j] = max_abs(commutator(tab, rep.t(c, d)) - rhs)
    return table


def loop_order_conditions(la, dla, rb):
    """The zeroth- and first-order residuals, the worst max-abs of
    [l(a), r(b)] and of [[D, l(a)], r(b)] over every generator pair, one
    pair at a time; a NaN anywhere gives NaN."""
    zeroth = [max_abs(commutator(a, b)) for a in la for b in rb]
    first = [max_abs(commutator(da, b)) for da in dla for b in rb]
    return fold_max(0.0, zeroth), fold_max(0.0, first)


def loop_mixed_min(mixed, las):
    """The least, over the mixed generators T, of the worst max-abs of
    [l(g), T] over the generator images l(g), one pair at a time; a NaN
    anywhere gives NaN."""
    values = [fold_max(0.0, [max_abs(commutator(la, t)) for la in las]) for t in mixed]
    return math.nan if any(map(math.isnan, values)) else min(values)


def loop_inverse(left):
    """The inverse of a left matrix, or a NaN matrix where ``np.linalg.inv``
    raises (a NaN entry may read as a singular matrix)."""
    try:
        return np.linalg.inv(left)
    except np.linalg.LinAlgError:
        return np.full(np.shape(left), np.nan, dtype=complex)


def loop_precondition_failure(lefts, rights, dim):
    """The message of the first failure of the precondition of
    ``linalg.fixed_spaces`` on the maps X ↦ Lᵢ⁻¹·X·Rᵢ, map i before its
    pairs (j, i), or None."""
    ident = eye(dim)
    maps = [(loop_inverse(left), np.asarray(right, dtype=complex))
            for left, right in zip(lefts, rights)]
    for i, (left, right) in enumerate(maps):
        c = np.trace(left @ left) / dim
        with np.errstate(invalid="ignore", divide="ignore"):
            resid = fold_max(max_abs(left @ left - c * ident),
                             max_abs(right @ right - ident / c))
        if c == 0 or not resid <= DEFAULT_TOL:
            return f"fixed_space: map {i} is not an involution"
        for j, (left_j, right_j) in enumerate(maps[:i]):
            if not any(max_abs(left @ left_j - sigma * left_j @ left) <= DEFAULT_TOL
                       and max_abs(right_j @ right - sigma * right @ right_j) <= DEFAULT_TOL
                       for sigma in (1, -1)):
                return f"fixed_space: maps {j} and {i} do not commute"
    return None


def loop_gauge_element(triple, rng, scale=1.0):
    """u = (exp Σθ·T₁, exp Σφ·T₂): the θ, then the φ, uniform in
    [−scale, scale], one draw per factor."""
    u1, u2 = (expm(linear_combination(rng.uniform(-scale, scale, size=len(quads)), quads))
              for quads in (triple.quadratics1, triple.quadratics2))
    return GaugeElement(u1, u2)


def loop_element_residuals(triple, u) -> dict:
    """Unitarity, evenness and reality residuals of a gauge element."""
    res = {}
    for tag, mat, mod in (("u1", u.u1, triple.action.mod1),
                          ("u2", u.u2, triple.action.mod2)):
        res[f"{tag}_unitary"] = unitarity_residual(mat)
        res[f"{tag}_even"] = max_abs(commutator(mat, mod.chirality))
        res[f"{tag}_real"] = mod.J.commutation_residual(mat, 1)
    return res


def loop_adjoint_image(triple, u):
    """l(u)·r(u*), its residual against u₁⊗u₂ and |det(l(u)) − 1|."""
    a = u.as_algebra_element()
    lu = triple.left_action(a)
    adj = lu @ triple.right_action(a.star())
    with np.errstate(invalid="ignore", divide="ignore"):  # NaN fails quietly
        det = np.linalg.det(lu)
    return adj, max_abs(adj - kron(u.u1, u.u2)), abs(det - 1.0)


def loop_adjoint_failure(resid, det_err, tol=DEFAULT_TOL):
    """Why an adjoint image breaks factorization or unimodularity, or None."""
    if not resid < tol:
        return f"adjoint action does not factorize: residual {resid:g}"
    if not det_err < DET_TOL:
        return f"left action is not unimodular: |det-1| = {det_err:g}"
    return None


def loop_gauge_action(triple, samples, rng, scale=1.0, tol=DEFAULT_TOL) -> Report:
    """Factorization, unimodularity and element invariants of the adjoint
    gauge action on ``samples`` sampled gauge elements."""
    worst = det_worst = inv_worst = 0.0
    for _ in range(samples):
        u = loop_gauge_element(triple, rng, scale)
        inv_worst = fold_max(inv_worst, list(loop_element_residuals(triple, u).values()))
        _, resid, det_err = loop_adjoint_image(triple, u)
        worst = fold_max(worst, resid)
        det_worst = fold_max(det_worst, det_err)
    passed = worst < tol and det_worst < DET_TOL and inv_worst < tol
    return Report(name=f"gauge-action({triple.variant})", passed=passed,
                  max_residual=fold_max(worst, inv_worst), tolerance=tol,
                  details=[{"samples": samples, "factorization": worst,
                            "unimodularity": det_worst, "element_invariants": inv_worst}])


def loop_higgs_transform(triple, dirac, u, tol=DEFAULT_TOL) -> Report:
    """g·D·g† against (u₁·(Σdₐγ₁ᵃ)·u₁†)⊗1 for g = l(u)·r(u*), and the
    length of the coefficient vector recovered by trace pairing."""
    g, factor_resid, det_err = loop_adjoint_image(triple, u)
    failure = loop_adjoint_failure(factor_resid, det_err, tol)
    transported = g @ dirac.matrix @ dagger(g)
    d_small = linear_combination(dirac.d, triple.action.mod1.gammas)
    expected = kron(u.u1 @ d_small @ dagger(u.u1), eye(triple.dim2))
    resid = max_abs(transported - expected)
    d_new = np.array([(np.trace(transported @ gamma) / triple.dim).real
                      for gamma in triple.action.gamma1])
    norm_err = abs(np.linalg.norm(d_new) - np.linalg.norm(dirac.d))
    worst = fold_max(resid, norm_err)
    details = {"d": [float(x) for x in dirac.d],
               "d_transformed": [float(x) for x in d_new],
               "covariance": resid, "norm_change": norm_err}
    if failure:
        details["adjoint_failure"] = failure
    return Report(name=f"higgs-covariance({triple.variant})",
                  passed=worst < tol and failure is None, max_residual=worst,
                  tolerance=tol, details=[details])


def loop_higgs_report(triple, samples, rng, tol=DEFAULT_TOL) -> Report:
    """:func:`loop_higgs_transform` on ``samples`` draws, each a Dirac
    vector and then one gauge element."""
    worst = 0.0
    passed = True
    for _ in range(samples):
        d = rng.standard_normal(4)
        last = loop_higgs_transform(triple, triple.dirac_operator(d),
                                    loop_gauge_element(triple, rng), tol)
        worst = fold_max(worst, last.max_residual)
        passed = passed and last.passed
    return Report(name=f"higgs-covariance({triple.variant})",
                  passed=passed and worst < tol, max_residual=worst,
                  tolerance=tol, details=last.details)


def loop_spin10_blocks(triple, theta=0.7, tol=DEFAULT_TOL):
    """(match1, match2, first adjoint failure): the worst |exp(θ·Tᴬᴮ) −
    l(u)·r(u*)| over each factor's combined generators, u the exponential
    of the matching monomial, −θ·T₁ (the combined indexing negates the
    first-factor monomials) or θ·T₂."""
    ca = triple.action
    id1, id2 = eye(ca.mod1.dim), eye(ca.mod2.dim)
    failure = None
    matches = []
    for first, n, angle, quads, element in (
            (0, ca.n1, -theta, triple.quadratics1, lambda v: GaugeElement(v, id2)),
            (ca.n1, ca.n2, theta, triple.quadratics2, lambda v: GaugeElement(id1, v))):
        worst = 0.0
        for (a, b), quad in zip(itertools.combinations(range(first, first + n), 2), quads):
            big = expm(theta * ca.generators.t(a, b))
            adj, resid, det_err = loop_adjoint_image(triple, element(expm(angle * quad)))
            failure = failure or loop_adjoint_failure(resid, det_err, tol)
            worst = fold_max(worst, max_abs(big - adj))
        matches.append(worst)
    return (*matches, failure)


def loop_spin10_action(triple, tol=DEFAULT_TOL) -> Report:
    """The Spin(10) extension with the block matches on exponentials and
    the mixed minimum over the ten algebra generators, one pair at a time."""
    ca = triple.action
    match1, match2, failure = loop_spin10_blocks(triple, tol=tol)
    mixed = [g for (a, b), g in zip(ca.generators.pairs(), ca.generators.mats)
             if a < ca.n1 <= b]
    mixed_min = loop_mixed_min(mixed, triple.left_action(triple.algebra_generators()))
    worst = fold_max(bracket_residual(ca.generators), (match1, match2))
    return Report(name="spin10-extension",
                  passed=worst < tol and mixed_min > 0.01 and failure is None,
                  max_residual=worst, tolerance=tol,
                  details=[{"factor1_block_match": match1, "factor2_block_match": match2,
                            "mixed_generator_min_commutator": mixed_min,
                            "adjoint_failure": failure}])
