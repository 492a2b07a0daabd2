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

The exact order check and the Spin(10) mixed generators are
:func:`linalg.pair_residuals` calls; the sampled checks and the Spin(10)
block matches run in stacks of ``linalg.STACK_BLOCK_ENTRIES`` entries per
matrix, each stacked product bit-identical to that of its one-matrix slice.

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
from .commuting import CommutingAction, build_commuting
from .liealg import bracket_residual, so_generators, weyl_projectors
from .linalg import (
    DEFAULT_TOL,
    AntilinearOp,
    commutator,
    dagger,
    eye,
    expm,
    fold_max,
    frozen,
    kron,
    linear_combination,
    max_abs,
    pair_residuals,
    stack_blocks,
    stacked_kron,
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


def _scalar_abs(z):
    """|z| of a complex scalar, or of each entry of a 1-D array, by the
    scalar abs; ``np.abs`` of an array can differ from it in the last bit."""
    if np.ndim(z) == 0:
        return abs(z)
    return np.array([abs(x) for x in z])


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
    """A pair (a₁, a₂) of even real-subalgebra members of the two factors;
    either may be a stack (B, d, d) of B members."""

    a1: np.ndarray
    a2: np.ndarray

    def star(self) -> "AlgebraElement":
        return AlgebraElement(dagger(self.a1), dagger(self.a2))


@dataclass(frozen=True)
class GaugeElement:
    """Unitaries (u₁, u₂) from exponentiated quadratic monomials; either may
    be a stack (B, d, d) of B unitaries."""

    u1: np.ndarray
    u2: np.ndarray

    def as_algebra_element(self) -> AlgebraElement:
        return AlgebraElement(self.u1, self.u2)


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
        """l(a) = a₁⊗π₂⁺ + 1⊗a₂π₂⁻; a stacked element gives a stack (B, D, D)."""
        return (stacked_kron(a.a1, self.pi2_plus)
                + stacked_kron(eye(self.dim1),
                               np.asarray(a.a2, dtype=complex) @ self.pi2_minus))

    def right_action(self, a: AlgebraElement) -> np.ndarray:
        """r(a) = J·l(a*)·J⁻¹; a stacked element gives a stack (B, D, D)."""
        return self.J.conjugate_matrix(self.left_action(a.star()))

    def algebra_generators(self) -> AlgebraElement:
        """The ten generators of A₁ ⊕ A₂, stacked: (1, 0), (0, 1), (T₁⁰ᵃ, 0)
        and (0, T₂⁰ᵃ), the T⁰ᵃ being the first n − 1 ``quadratics``."""
        e1, e2 = eye(self.dim1), eye(self.dim2)
        pairs = ([(e1, 0 * e2), (0 * e1, e2)]
                 + [(t, 0 * e2) for t in self.quadratics1[:self.action.n1 - 1]]
                 + [(0 * e1, t) for t in self.quadratics2[:self.action.n2 - 1]])
        return AlgebraElement(*map(np.stack, zip(*pairs)))

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
        even_basis1=frozen(monomial_basis(ca.mod1, 0)),
        even_basis2=frozen(monomial_basis(ca.mod2, 0)),
        quadratics1=frozen(list(so_generators(ca.mod1).generators.values())),
        quadratics2=frozen(list(so_generators(ca.mod2).generators.values())),
    )


def chirality_exchange_residual(triple: PatiSalamTriple) -> float:
    """Residual of J·π⁺ = π⁻·J, with π^± = 1⊗π₂^± the second-factor
    chirality projections lifted to C⁴⊗C⁸."""
    k = triple.J.matrix
    id1 = eye(triple.dim1)
    return max_abs(k @ np.conj(kron(id1, triple.pi2_plus))
                   - kron(id1, triple.pi2_minus) @ k)


def check_order_conditions(triple: PatiSalamTriple, dirac: DiracData,
                           tol: float = DEFAULT_TOL) -> Report:
    """Zeroth- and first-order commutator conditions, checked exactly.

    zeroth:  [l(a), r(b)] = 0
    first:   [[D, l(a)], r(b)] = 0

    Both are checked on the 10 × 10 pairs of
    :meth:`PatiSalamTriple.algebra_generators`, which is exact: l is an
    algebra homomorphism on the even subalgebras and r(b) = J·l(b*)·J⁻¹ an
    anti-homomorphism, so the a (or b) that satisfy a condition form a
    subalgebra; for the first-order condition in a this uses the Leibniz
    rule [D, l(aa′)] = [D, l(a)]·l(a′) + l(a)·[D, l(a′)] and the zeroth-order
    condition.  (2T⁰ᵃ)(2T⁰ᵇ) = −η⁰⁰γᵃγᵇ, so the ten elements generate
    A₁ ⊕ A₂, and both conditions hold for all a and b exactly when they hold
    on the generators.  Both are one :func:`linalg.pair_residuals` call,
    pairs (l(a), r(b)) then ([D, l(a)], r(b)); a NaN residual fails it.
    """
    gens = triple.algebra_generators()
    la, rb = triple.left_action(gens), triple.right_action(gens)
    dla = commutator(dirac.matrix, la)
    count = len(la)
    i, j = np.divmod(np.arange(2 * count * count), count)
    resid = pair_residuals([*la, *dla, *rb], i, 2 * count + j, -1, None)
    worst0 = fold_max(0.0, resid[:count * count])
    worst1 = fold_max(0.0, resid[count * count:])
    worst = fold_max(worst0, worst1)
    return Report(
        name=f"order-conditions({triple.variant})",
        passed=worst < tol,
        max_residual=worst,
        tolerance=tol,
        details=[{"generator_pairs": count * count, "zeroth_order": worst0,
                  "first_order": worst1}],
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


def gauge_elements(triple: PatiSalamTriple, angles) -> GaugeElement:
    """The stack of gauge elements u = (exp Σθ·T₁, exp Σφ·T₂) with one
    element per row of ``angles`` (B, k₁ + k₂): all θ, then all φ, one per
    quadratic monomial.  Each factor is one stacked exponential, and each
    element is bit-identical to the element of its own row."""
    angles = np.asarray(angles, dtype=float)
    k1 = len(triple.quadratics1)
    return GaugeElement(u1=expm(linear_combination(angles[:, :k1], triple.quadratics1)),
                        u2=expm(linear_combination(angles[:, k1:], triple.quadratics2)))


def _gauge_elements(triple: PatiSalamTriple, rng: np.random.Generator,
                    scale: float, count: int) -> GaugeElement:
    """A stack of ``count`` gauge elements from one draw: per element all θ,
    then all φ, the numbers of one scalar draw per monomial."""
    k = len(triple.quadratics1) + len(triple.quadratics2)
    return gauge_elements(triple, rng.uniform(-scale, scale, size=(count, k)))


def sample_gauge_element(triple: PatiSalamTriple, rng, scale: float = 1.0) -> GaugeElement:
    """u = (exp Σθ·T₁, exp Σφ·T₂) with coefficients uniform in [−scale, scale].

    The quadratic monomials are the triple's stacked ``quadratics1`` and
    ``quadratics2``; all θ, then all φ, are drawn in one call, which gives
    the same numbers as one scalar draw per monomial.  The monomials are
    anti-Hermitian for both factors, so the exponentials are unitary, even
    and real-subalgebra members.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    u = _gauge_elements(triple, _as_rng(rng), scale, 1)
    return GaugeElement(u1=u.u1[0], u2=u.u2[0])


def gauge_element_residuals(triple: PatiSalamTriple, u: GaugeElement) -> dict:
    """Invariant residuals of a gauge element: unitarity, evenness, reality.

    For a stacked element each value is an array with one residual per
    element of the stack.
    """
    res = {}
    for tag, mat, mod in (("u1", u.u1, triple.action.mod1),
                          ("u2", u.u2, triple.action.mod2)):
        res[f"{tag}_unitary"] = unitarity_residual(mat)
        res[f"{tag}_even"] = max_abs(commutator(mat, mod.chirality))
        res[f"{tag}_real"] = mod.J.commutation_residual(mat, 1)
    return res


def _adjoint_image(triple: PatiSalamTriple, u: GaugeElement):
    """l(u)·r(u*) with its residual against u₁⊗u₂ and |det(l(u)) − 1|; for a
    stacked element, the stack of images and arrays of residuals.

    r(u*) = J·l(u)·J⁻¹ is conjugated from l(u) itself: the entries of u**
    are those of u, so l(u**) would repeat l(u) bit for bit.
    """
    lu = triple.left_action(u.as_algebra_element())
    adj = lu @ triple.J.conjugate_matrix(lu)
    with np.errstate(invalid="ignore", divide="ignore"):  # NaN fails quietly
        det = np.linalg.det(lu)
    return (adj, max_abs(adj - stacked_kron(u.u1, u.u2)), _scalar_abs(det - 1.0))


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
    """Sampled factorization and unimodularity of the adjoint gauge action.

    The samples run in blocks of :func:`linalg.stack_blocks`, each drawn in
    one call and exponentiated as one stack per factor; the draws, and the
    report bit for bit, equal those of one :func:`sample_gauge_element`
    call per sample.  Raises ValueError unless ``samples`` ≥ 1 and
    ``scale`` > 0.
    """
    if samples < 1:
        raise ValueError("at least one sample is required")
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = _as_rng(rng)
    worst = det_worst = inv_worst = 0.0
    for block in stack_blocks(samples, triple.dim):
        u = _gauge_elements(triple, rng, scale, block.stop - block.start)
        for values in gauge_element_residuals(triple, u).values():
            inv_worst = fold_max(inv_worst, values)
        _, resid, det_err = _adjoint_image(triple, u)
        worst = fold_max(worst, resid)
        det_worst = fold_max(det_worst, det_err)
    passed = worst < tol and det_worst < det_tol and inv_worst < tol
    return Report(
        name=f"gauge-action({triple.variant})",
        passed=passed,
        max_residual=fold_max(worst, inv_worst),
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
    worst = fold_max(resid, norm_err)
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
    combined = ca.generators
    bracket_res = bracket_residual(combined)
    n1 = ca.n1
    id1, id2 = eye(ca.mod1.dim), eye(ca.mod2.dim)

    theta = 0.7
    failure = None

    def factor_match(indices, angle, quads, element):
        """Worst |exp(θ·Tᴬᴮ) − l(u)·r(u*)| over one factor's monomials (A, B
        from ``indices``), u = element(exp(angle·quads)), in stacked blocks;
        records the first adjoint failure in monomial order."""
        nonlocal failure
        keys = list(itertools.combinations(indices, 2))
        worst = 0.0
        for block in stack_blocks(len(keys), triple.dim):
            big = expm(theta * np.stack([combined.t(a, b) for a, b in keys[block]]))
            adj, resid, det_err = _adjoint_image(triple, element(expm(angle * quads[block])))
            for r, e in zip(resid, det_err):
                failure = failure or _adjoint_failure(r, e, tol, DET_TOL)
            worst = fold_max(worst, max_abs(big - adj))
        return worst

    match1 = factor_match(range(n1), -theta, triple.quadratics1,
                          lambda u: GaugeElement(u1=u, u2=id2))
    match2 = factor_match(range(n1, n1 + ca.n2), theta, triple.quadratics2,
                          lambda u: GaugeElement(u1=id1, u2=u))

    a_generic = triple.random_algebra_element(rng)
    la = triple.left_action(a_generic)
    mixed = [g for (a, b), g in combined.generators.items() if a < n1 <= b]
    # l(a) first: the detector stops at its first block, which is not phased
    others = np.arange(1, len(mixed) + 1)
    mixed_min = float(pair_residuals([la, *mixed], 0 * others, others, -1, None).min())

    worst = fold_max(bracket_res, (match1, match2))
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
