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
is generated by the 21 quadratic monomials of the two factors.

Every identity is checked exactly on generators and draws nothing, except
the generic algebra element of the Spin(10) mixed-generator minimum: the
order conditions on the ten algebra generators, and the gauge action, the
Higgs covariance and the Spin(10) block matches on the 21 gauge generators
through the derived action X ↦ l(X) + r(X*).  The order check and the
mixed minimum are :func:`linalg.pair_residuals` calls; the 32×32 generator
stacks run in blocks of :func:`linalg.stack_blocks`.

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
)
from .report import Report

VARIANTS = ("plain", "hatted_second")


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


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

    def __getitem__(self, index) -> "AlgebraElement":
        """The members at ``index`` of a stacked element."""
        return AlgebraElement(self.a1[index], self.a2[index])


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

    def gauge_generators(self) -> AlgebraElement:
        """The 21 generators of the gauge Lie algebra, stacked: (T₁ᵏ, 0) for
        the 6 ``quadratics1``, then (0, T₂ᵏ) for the 15 ``quadratics2``."""
        k1, k2 = len(self.quadratics1), len(self.quadratics2)
        zeros = lambda count, dim: np.zeros((count, dim, dim), dtype=complex)
        return AlgebraElement(np.concatenate([self.quadratics1, zeros(k2, self.dim1)]),
                              np.concatenate([zeros(k1, self.dim2), self.quadratics2]))

    def derived_action(self, x: AlgebraElement) -> np.ndarray:
        """l(X) + r(X*) = l(X) + J·l(X)·J⁻¹, the generator of the gauge action
        u ↦ l(u)·r(u*) along X; a stacked X gives a stack (B, D, D)."""
        return self.left_action(x) + self.right_action(x.star())

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
    k1 = len(triple.quadratics1)
    angles = _as_rng(rng).uniform(-scale, scale, size=k1 + len(triple.quadratics2))
    return GaugeElement(u1=expm(linear_combination(angles[:k1], triple.quadratics1)),
                        u2=expm(linear_combination(angles[k1:], triple.quadratics2)))


def verify_gauge_action(triple: PatiSalamTriple, tol: float = DEFAULT_TOL) -> Report:
    """Factorization and unimodularity of the adjoint gauge action
    u ↦ l(u)·r(u*), checked exactly on the 21 gauge generators.

    For u = eˣ, l(u) = e^{l(X)}, because l is a unital algebra homomorphism
    on the even subalgebras, and r(u*) = J·l(u)·J⁻¹ = e^{J·l(X)·J⁻¹}, which
    commutes with l(X) by the order conditions; so l(u)·r(u*) is
    e^{derived_action(X)}, and det l(u) = e^{tr l(X)}.  The identities
    l(u)·r(u*) = u₁⊗u₂ and det l(u) = 1, with u unitary, even and real,
    therefore hold on the gauge group exactly when every generator X meets

    * factorization: derived_action(X) = X₁⊗1 + 1⊗X₂;
    * unimodularity: tr l(X) = 0;
    * element invariants: X is anti-Hermitian, commutes with its factor's
      chirality and is real under its factor's J.
    """
    gens = triple.gauge_generators()
    id1, id2 = eye(triple.dim1), eye(triple.dim2)
    factor = trace = 0.0
    for block in stack_blocks(len(gens.a1), triple.dim):
        x = gens[block]
        expected = stacked_kron(x.a1, id2) + stacked_kron(id1, x.a2)
        factor = fold_max(factor, max_abs(triple.derived_action(x) - expected))
        trace = fold_max(trace, np.abs(np.trace(triple.left_action(x), axis1=-2, axis2=-1)))
    invariants = 0.0
    for mats, mod in ((gens.a1, triple.action.mod1), (gens.a2, triple.action.mod2)):
        invariants = fold_max(invariants, (max_abs(mats + dagger(mats)),
                                           max_abs(commutator(mats, mod.chirality)),
                                           mod.J.commutation_residual(mats, 1)))
    worst = fold_max(factor, (trace, invariants))
    return Report(
        name=f"gauge-action({triple.variant})",
        passed=worst < tol,
        max_residual=worst,
        tolerance=tol,
        details=[{"generators": len(gens.a1), "factorization": factor,
                  "unimodularity": trace, "element_invariants": invariants}],
    )


def higgs_transform(triple: PatiSalamTriple, tol: float = DEFAULT_TOL) -> Report:
    """Covariance of the Dirac family D = Σ dₐ·Γ₁ᵃ (Γ₁ᵃ = γ₁ᵃ⊗1) under the
    adjoint gauge action, checked exactly on the 21 gauge generators.

    g·D·g† must be (u₁·(Σdₐγ₁ᵃ)·u₁†)⊗1 for g = l(u)·r(u*): only the first
    factor rotates the coefficient vector, and its Euclidean length is
    preserved.  With g = e^{derived_action(X)} this holds for every d and u
    exactly when every generator X meets

    * covariance: [derived_action(X), Γ₁ᵃ] = Σ_b M_ab·Γ₁ᵇ, with
      M_ab = tr([X₁, γ₁ᵃ]·γ₁ᵇ)/d₁, for every a; then g·Γ₁ᵃ·g† = Σ_b (e^M)_ab·Γ₁ᵇ;
    * ``norm_change``: M + Mᵀ = 0, so that e^M is orthogonal.
    """
    gens = triple.gauge_generators()
    gammas = np.asarray(triple.action.mod1.gammas)
    lifted = np.asarray(triple.action.gamma1)
    moved = commutator(gens.a1[:, None], gammas)
    m = np.trace(moved[:, :, None] @ gammas, axis1=-2, axis2=-1) / triple.dim1
    covariance = 0.0
    for block in stack_blocks(len(gens.a1), triple.dim):
        derived = triple.derived_action(gens[block])
        for a, gamma in enumerate(lifted):
            expected = linear_combination(m[block, a], lifted)
            covariance = fold_max(covariance, max_abs(commutator(derived, gamma) - expected))
    norm_change = fold_max(0.0, max_abs(m + np.swapaxes(m, -1, -2)))
    worst = fold_max(covariance, norm_change)
    return Report(
        name=f"higgs-covariance({triple.variant})",
        passed=worst < tol,
        max_residual=worst,
        tolerance=tol,
        details=[{"generators": len(gens.a1), "covariance": covariance,
                  "norm_change": norm_change}],
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

    Checks: the combined brackets close; each combined generator of the
    first-factor block equals derived_action(−T₁) of its monomial (the
    combined indexing negates the first-factor monomials) and each of the
    second-factor block derived_action(T₂), so the exponentials of the two
    blocks are the adjoint gauge images of :func:`verify_gauge_action`; the
    mixed generators are not symmetries of the algebra action (their
    commutator with the left action of an algebra element drawn from
    ``rng``, the only draw of the check, stays well away from zero).
    """
    rng = _as_rng(rng)
    ca = triple.action
    combined = ca.generators
    bracket_res = bracket_residual(combined)
    n1 = ca.n1
    keys = [*itertools.combinations(range(n1), 2),
            *itertools.combinations(range(n1, n1 + ca.n2), 2)]
    gens = triple.gauge_generators()
    gens = AlgebraElement(-gens.a1, gens.a2)
    resid = np.concatenate([
        max_abs(np.stack([combined.t(a, b) for a, b in keys[block]])
                - triple.derived_action(gens[block]))
        for block in stack_blocks(len(keys), triple.dim)])
    k1 = len(triple.quadratics1)
    match1, match2 = fold_max(0.0, resid[:k1]), fold_max(0.0, resid[k1:])

    a_generic = triple.random_algebra_element(rng)
    la = triple.left_action(a_generic)
    mixed = [g for (a, b), g in combined.generators.items() if a < n1 <= b]
    # l(a) first: the detector stops at its first block, which is not phased
    others = np.arange(1, len(mixed) + 1)
    mixed_min = float(pair_residuals([la, *mixed], 0 * others, others, -1, None).min())

    worst = fold_max(bracket_res, (match1, match2))
    return Report(
        name="spin10-extension",
        passed=worst < tol and mixed_min > 0.01,
        max_residual=worst,
        tolerance=tol,
        details=[{"brackets": bracket_res, "factor1_block_match": match1,
                  "factor2_block_match": match2,
                  "mixed_generator_min_commutator": mixed_min}],
    )
