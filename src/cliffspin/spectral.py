"""Finite real spectral triple with Pati-Salam algebra on C⁴⊗C⁸.

The Hilbert space carries commuting actions of the signature-(4,0) and
(0,6) Clifford algebras, whose combined quadratic monomials generate a
45-dimensional orthogonal Lie algebra acting by a full spinor
representation.  The triple's algebra is the pair of even real
subalgebras, acting on the left by

    l(a₁, a₂) = a₁⊗π₂⁺ + 1⊗a₂π₂⁻,

with π₂^± the chirality projections of the second factor.  The right
action is the real-structure conjugate r(a) = J·l(a*)·J⁻¹, the Dirac
operators are D = Σ dₐ·γ₁ᵃ⊗1 with real coefficients, and the gauge group
is sampled by exponentiating the quadratic monomials of the two factors.

Two real-structure variants are implemented, differing in the second
factor: ``plain`` (J₁⊗J₂, measured signs (−1, +1, −1), the s = 2 row of
the sign table) and ``hatted_second`` (J₁⊗Ĵ₂, measured signs (+1, +1, −1),
the s = 6 row).  The hatted variant is the default.  Every other identity
checked here holds under either choice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clifford import CliffordModule, SignTriple, hatted_real_structure, sign_triple
from .commuting import CommutingAction, build_commuting, product_so_generators
from .liealg import bracket_residual, so_generators, weyl_projectors
from .linalg import (
    DEFAULT_TOL,
    AntilinearOp,
    commutator,
    dagger,
    eye,
    expm,
    frozen,
    kron,
    linear_combination,
    max_abs,
    tensor_antilinear,
    unitarity_residual,
)
from .report import Report

VARIANTS = ("plain", "hatted_second")

#: tolerance for the unimodularity check |det(l(u)) − 1|
DET_TOL = 1e-8


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _stacked(mats) -> np.ndarray:
    """Read-only stack of equal-shape matrices, for :func:`linear_combination`."""
    return frozen(np.stack(list(mats)))


def monomial_basis(m: CliffordModule, parity: int) -> list:
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


@dataclass(frozen=True)
class AlgebraElement:
    """A pair (a₁, a₂) of even real-subalgebra members of the two factors."""

    a1: np.ndarray
    a2: np.ndarray

    def star(self) -> "AlgebraElement":
        return AlgebraElement(dagger(self.a1), dagger(self.a2))


@dataclass(frozen=True)
class GaugeElement:
    """Unitaries (u₁, u₂) from exponentiated quadratic monomials."""

    u1: np.ndarray
    u2: np.ndarray

    def as_algebra_element(self) -> AlgebraElement:
        return AlgebraElement(self.u1, self.u2)

    def star(self) -> "GaugeElement":
        return GaugeElement(dagger(self.u1), dagger(self.u2))


@dataclass(frozen=True)
class DiracData:
    """Dirac operator D = Σ dₐ·γ₁ᵃ⊗1 for a real 4-vector d."""

    d: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class PatiSalamTriple:
    """The assembled spectral triple data for one real-structure variant.

    ``pi2_plus`` and ``pi2_minus`` are the chirality projections π₂^± of the
    second factor, on C⁸; the left and right actions lift them to C⁴⊗C⁸.
    ``even_basis1`` and ``even_basis2`` stack the even monomial bases of the
    two factors, and ``quadratics1`` and ``quadratics2`` their quadratic
    monomials in ``so_generators`` order, each built once per triple.
    """

    variant: str
    action: CommutingAction
    J: AntilinearOp
    chirality: np.ndarray
    pi2_plus: np.ndarray
    pi2_minus: np.ndarray
    sign_triple: SignTriple
    even_basis1: np.ndarray
    even_basis2: np.ndarray
    quadratics1: np.ndarray
    quadratics2: np.ndarray

    @property
    def dim(self) -> int:
        return self.action.dim

    @property
    def dim1(self) -> int:
        return self.action.mod1.dim

    @property
    def dim2(self) -> int:
        return self.action.mod2.dim

    def left_action(self, a: AlgebraElement) -> np.ndarray:
        return (kron(a.a1, self.pi2_plus)
                + kron(eye(self.dim1), np.asarray(a.a2, dtype=complex) @ self.pi2_minus))

    def right_action(self, a: AlgebraElement) -> np.ndarray:
        return self.J.conjugate_matrix(self.left_action(a.star()))

    def right_action_closed_form(self, a: AlgebraElement) -> np.ndarray:
        """Expected block form of the right action, for direct comparison."""
        return (kron(dagger(a.a1), self.pi2_minus)
                + kron(eye(self.dim1), dagger(a.a2) @ self.pi2_plus))

    def identity_element(self) -> AlgebraElement:
        return AlgebraElement(eye(self.dim1), eye(self.dim2))

    def random_algebra_element(self, rng) -> AlgebraElement:
        """Random real linear combination of the even monomial bases."""
        rng = _as_rng(rng)
        c1 = rng.standard_normal(len(self.even_basis1))
        c2 = rng.standard_normal(len(self.even_basis2))
        return AlgebraElement(linear_combination(c1, self.even_basis1),
                              linear_combination(c2, self.even_basis2))

    def dirac_operator(self, d) -> DiracData:
        d = np.asarray(d, dtype=float)
        if d.shape != (4,):
            raise ValueError("the Dirac coefficient vector has four real entries")
        mat = linear_combination(d, self.action.gamma1)
        return DiracData(d=frozen(d).real, matrix=frozen(mat))


def build_pati_salam(variant: str = "hatted_second",
                     action: Optional[CommutingAction] = None) -> PatiSalamTriple:
    """Assemble the triple on C⁴⊗C⁸ for the chosen real-structure variant."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    ca = action if action is not None else build_commuting((4, 0), (0, 6))
    if (ca.mod1.signature.p, ca.mod1.signature.q) != (4, 0) or \
            (ca.mod2.signature.p, ca.mod2.signature.q) != (0, 6):
        raise ValueError("the triple is built over the (4,0) x (0,6) action")
    if variant == "plain":
        j = tensor_antilinear(ca.mod1.J, ca.mod2.J)
    else:
        j = tensor_antilinear(ca.mod1.J, hatted_real_structure(ca.mod2))
    chir = kron(ca.mod1.chirality, ca.mod2.chirality)
    pi2p, pi2m = weyl_projectors(ca.mod2)
    measured, _ = measure_ko_signs(j, chir, ca.gamma1[0])
    return PatiSalamTriple(
        variant=variant,
        action=ca,
        J=j,
        chirality=frozen(chir),
        pi2_plus=frozen(pi2p),
        pi2_minus=frozen(pi2m),
        sign_triple=measured,
        even_basis1=_stacked(monomial_basis(ca.mod1, 0)),
        even_basis2=_stacked(monomial_basis(ca.mod2, 0)),
        quadratics1=_stacked(so_generators(ca.mod1).generators.values()),
        quadratics2=_stacked(so_generators(ca.mod2).generators.values()),
    )


def chirality_exchange_residual(triple: PatiSalamTriple) -> float:
    """Residual of J·π⁺ = π⁻·J, with π^± = 1⊗π₂^± the second-factor
    chirality projections lifted to C⁴⊗C⁸."""
    k = triple.J.matrix
    id1 = eye(triple.dim1)
    return max_abs(k @ np.conj(kron(id1, triple.pi2_plus))
                   - kron(id1, triple.pi2_minus) @ k)


def check_order_conditions(triple: PatiSalamTriple, dirac: DiracData,
                           samples: int = 100, rng=0,
                           tol: float = DEFAULT_TOL) -> Report:
    """Sampled zeroth- and first-order commutator conditions.

    zeroth:  [l(a), r(b)] = 0
    first:   [[D, l(a)], r(b)] = 0
    """
    if samples < 1:
        raise ValueError("at least one sample is required")
    rng = _as_rng(rng)
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
    return Report(
        name=f"order-conditions({triple.variant})",
        passed=worst < tol,
        max_residual=worst,
        tolerance=tol,
        details=[{"samples": samples, "zeroth_order": worst0, "first_order": worst1}],
    )


def measure_ko_signs(j: AntilinearOp, chirality, d_matrix, tol: float = DEFAULT_TOL):
    """Measure (ε, ε′, ε″) from J², J vs D and J vs chirality; match the table.

    ε′ is reported as None when D vanishes (indeterminate).  The match is
    taken over the even rows of the sign table, which are distinguished by
    (ε, ε″) alone; a determinate ε′ must agree as well.  Returns the
    measured triple and the matching s, or None when nothing matches.
    """
    eps = j.square_sign(tol)
    if max_abs(d_matrix) < tol:
        eps_prime = None
    else:
        eps_prime = j.commutation_sign(d_matrix, tol)
    eps_dd = j.commutation_sign(chirality, tol)
    measured = SignTriple(eps, eps_prime, eps_dd)
    for s in (0, 2, 4, 6):
        row = sign_triple(s)
        if row.eps != eps or row.eps_double_prime != eps_dd:
            continue
        if eps_prime is not None and row.eps_prime != eps_prime:
            continue
        return measured, s
    return measured, None


def ko_dimension(triple: PatiSalamTriple, dirac: DiracData,
                 tol: float = DEFAULT_TOL):
    """Sign triple and matched table row of the triple with the given D."""
    return measure_ko_signs(triple.J, triple.chirality, dirac.matrix, tol)


def sample_gauge_element(triple: PatiSalamTriple, rng, scale: float = 1.0) -> GaugeElement:
    """u = (exp Σθ·T₁, exp Σφ·T₂) with coefficients uniform in [−scale, scale].

    The quadratic monomials are the triple's stacked ``quadratics1`` and
    ``quadratics2``; all θ are drawn in one call, then all φ, which gives
    the same numbers as one scalar draw per monomial.  The monomials are
    anti-Hermitian for both factors, so the exponentials are unitary, even
    and real-subalgebra members.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = _as_rng(rng)
    u1, u2 = (expm(linear_combination(rng.uniform(-scale, scale, size=len(quads)), quads))
              for quads in (triple.quadratics1, triple.quadratics2))
    return GaugeElement(u1=u1, u2=u2)


def gauge_element_residuals(triple: PatiSalamTriple, u: GaugeElement) -> dict:
    """Invariant residuals of a gauge element: unitarity, evenness, reality."""
    res = {}
    for tag, mat, mod in (("u1", u.u1, triple.action.mod1),
                          ("u2", u.u2, triple.action.mod2)):
        res[f"{tag}_unitary"] = unitarity_residual(mat)
        res[f"{tag}_even"] = max_abs(commutator(mat, mod.chirality))
        res[f"{tag}_real"] = mod.J.commutation_residual(mat, 1)
    return res


def _adjoint_image(triple: PatiSalamTriple, u: GaugeElement):
    """l(u)·r(u*) with its residual against u₁⊗u₂ and |det(l(u)) − 1|."""
    a = u.as_algebra_element()
    lu = triple.left_action(a)
    adj = lu @ triple.right_action(a.star())
    return adj, max_abs(adj - kron(u.u1, u.u2)), abs(np.linalg.det(lu) - 1.0)


def _adjoint_failure(resid: float, det_err: float, tol: float,
                     det_tol: float) -> Optional[str]:
    """Why an adjoint image breaks the factorization or unimodularity
    bound, or None when it keeps both."""
    if resid > tol:
        return f"adjoint action does not factorize: residual {resid:g}"
    if det_err > det_tol:
        return f"left action is not unimodular: |det-1| = {det_err:g}"
    return None


def adjoint_gauge_action(triple: PatiSalamTriple, u: GaugeElement,
                         tol: float = DEFAULT_TOL, det_tol: float = DET_TOL) -> np.ndarray:
    """The adjoint image l(u)·r(u*), checked against u₁⊗u₂ and unimodularity.

    Raises ValueError when the factorization residual exceeds ``tol`` or
    |det(l(u)) − 1| exceeds ``det_tol``; these are identities of the
    construction, not sampling noise.  The report-producing checks
    (:func:`higgs_transform`, :func:`spin10_action`) turn the same failure
    into a failed report instead.
    """
    adj, resid, det_err = _adjoint_image(triple, u)
    failure = _adjoint_failure(resid, det_err, tol, det_tol)
    if failure:
        raise ValueError(failure)
    return adj


def verify_gauge_action(triple: PatiSalamTriple, samples: int = 50, rng=0,
                        scale: float = 1.0, tol: float = DEFAULT_TOL,
                        det_tol: float = DET_TOL) -> Report:
    """Sampled factorization and unimodularity of the adjoint gauge action."""
    rng = _as_rng(rng)
    worst = det_worst = inv_worst = 0.0
    for _ in range(samples):
        u = sample_gauge_element(triple, rng, scale)
        inv_worst = max(inv_worst, *gauge_element_residuals(triple, u).values())
        _, resid, det_err = _adjoint_image(triple, u)
        worst = max(worst, resid)
        det_worst = max(det_worst, det_err)
    passed = worst < tol and det_worst < det_tol and inv_worst < tol
    return Report(
        name=f"gauge-action({triple.variant})",
        passed=passed,
        max_residual=max(worst, inv_worst),
        tolerance=tol,
        details=[{"samples": samples, "factorization": worst,
                  "unimodularity": det_worst, "element_invariants": inv_worst}],
    )


def higgs_transform(triple: PatiSalamTriple, dirac: DiracData, u: GaugeElement,
                    tol: float = DEFAULT_TOL) -> Report:
    """Covariance of the Dirac family under the adjoint gauge action.

    g·D·g† must equal (u₁·(Σdₐγ₁ᵃ)·u₁†)⊗1, i.e. only the first factor
    rotates the coefficient vector; its Euclidean length is preserved.
    The transformed coefficients are recovered by trace pairing.  The report
    fails, with the reason under ``adjoint_failure``, when g breaks the
    factorization bound ``tol`` or the unimodularity bound ``DET_TOL``.
    """
    g, factor_resid, det_err = _adjoint_image(triple, u)
    failure = _adjoint_failure(factor_resid, det_err, tol, DET_TOL)
    transported = g @ dirac.matrix @ dagger(g)
    d_small = linear_combination(dirac.d, triple.action.mod1.gammas)
    expected = kron(u.u1 @ d_small @ dagger(u.u1), eye(triple.dim2))
    resid = max_abs(transported - expected)
    d_new = np.array([
        (np.trace(transported @ triple.action.gamma1[a]) / triple.dim).real
        for a in range(4)])
    norm_err = abs(np.linalg.norm(d_new) - np.linalg.norm(dirac.d))
    worst = max(resid, norm_err)
    details = {"d": [float(x) for x in dirac.d],
               "d_transformed": [float(x) for x in d_new],
               "covariance": resid, "norm_change": norm_err}
    if failure:
        details["adjoint_failure"] = failure
    return Report(
        name=f"higgs-covariance({triple.variant})",
        passed=worst < tol and failure is None,
        max_residual=worst,
        tolerance=tol,
        details=[details],
    )


def dirac_invariant_residuals(triple: PatiSalamTriple, dirac: DiracData) -> dict:
    """Hermiticity, chirality anticommutation and J-commutation of D."""
    d = dirac.matrix
    return {
        "hermitian": max_abs(dagger(d) - d),
        "chirality_anticommute": max_abs(d @ triple.chirality + triple.chirality @ d),
        "j_commute": triple.J.commutation_residual(d, 1),
    }


def spin10_action(triple: PatiSalamTriple, rng=0, tol: float = DEFAULT_TOL) -> Report:
    """The 45 combined generators of the triple's (4,0)×(0,6) action extend
    its gauge action to the full orthogonal algebra.

    The check runs on the given triple, of either variant; the signatures
    were checked when :func:`build_pati_salam` assembled it.

    Checks: the combined brackets close; exponentials of the first-factor
    block reproduce adjoint gauge images with trivial second factor (the
    combined indexing negates the first-factor monomials, so the matching
    angle flips sign); likewise for the second-factor block; the mixed
    generators are not symmetries of the algebra action (their commutator
    with a generic left action stays well away from zero).  The report
    fails, with the reason under ``adjoint_failure``, when an adjoint image
    breaks the factorization bound ``tol`` or the unimodularity bound
    ``DET_TOL``.
    """
    rng = _as_rng(rng)
    ca = triple.action
    pg = product_so_generators(ca)
    combined = pg.combined
    bracket_res = bracket_residual(combined)
    quads1 = so_generators(ca.mod1).generators
    quads2 = so_generators(ca.mod2).generators
    n1 = ca.n1
    id1, id2 = eye(ca.mod1.dim), eye(ca.mod2.dim)

    theta = 0.7
    failure = None

    def block_match(big, u):
        nonlocal failure
        adj, resid, det_err = _adjoint_image(triple, u)
        failure = failure or _adjoint_failure(resid, det_err, tol, DET_TOL)
        return max_abs(big - adj)

    match1 = 0.0
    for (a, b) in quads1:
        big = expm(theta * combined.t(a, b))
        u = GaugeElement(u1=expm(-theta * quads1[(a, b)]), u2=id2)
        match1 = max(match1, block_match(big, u))
    match2 = 0.0
    for (a, b) in quads2:
        big = expm(theta * combined.t(n1 + a, n1 + b))
        u = GaugeElement(u1=id1, u2=expm(theta * quads2[(a, b)]))
        match2 = max(match2, block_match(big, u))

    a_generic = triple.random_algebra_element(rng)
    la = triple.left_action(a_generic)
    mixed_min = min(max_abs(commutator(m, la)) for m in pg.u.values())

    worst = max(bracket_res, match1, match2)
    passed = worst < tol and mixed_min > 0.01 and failure is None
    details = {"brackets": bracket_res, "factor1_block_match": match1,
               "factor2_block_match": match2,
               "mixed_generator_min_commutator": mixed_min}
    if failure:
        details["adjoint_failure"] = failure
    return Report(
        name="spin10-extension",
        passed=passed,
        max_residual=worst,
        tolerance=tol,
        details=[details],
    )
