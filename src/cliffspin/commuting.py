"""Commuting Clifford actions on a tensor product and the spinor
representation they generate.

Two gamma families Γ₁ᵃ = γ₁ᵃ⊗1 and Γ₂^α = 1⊗γ₂^α commute entry by entry
(rather than anticommute), yet the quadratic monomials

    T₁ᵃᵇ = ½Γ₁ᵃΓ₁ᵇ,   T₂^{αβ} = ½Γ₂^αΓ₂^β,   U^{aβ} = ½Γ₁ᵃΓ₂^β

close into an orthogonal Lie algebra for the metric (−η₁)⊕η₂: the sign
flip on the first factor is forced by the mixed U·U commutators.  The
combined indexing is

    Tᵃᵇ = −T₁ᵃᵇ,  T^{n₁+α,n₁+β} = T₂^{αβ},  T^{a,n₁+β} = U^{aβ},

extended antisymmetrically: the quadratic monomials of the concatenated
family Γ₁ then Γ₂ with the first block negated.  Every
:class:`CommutingAction` carries them as ``ca.generators``, built once from
its gammas.  Factor order is significant; swapping the factors lands the
flip on the other signature.  The five bracket families T₁·T₁, T₂·T₂, T₁·U,
U·T₂ and U·U are index blocks of the one bracket table of these combined
generators.

The resulting representation is a full (Dirac) spinor representation when
either factor has even generator count, and a single half-spinor (Weyl)
representation when both are odd.  Both identifications are implemented as
explicit checks: a unitary conjugation for the even case, and a doubled
Clifford module restricted to an eigenspace for the odd-odd case.

The gamma commutation residual is one :func:`linalg.pair_residuals` call.
The other per-generator checks run their matrices as stacks of at most
``linalg.STACK_BLOCK_ENTRIES`` entries per matrix; every stacked product is
bit-identical to the one-matrix product, so the residuals equal those of a
loop over generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clifford import (
    CliffordModule,
    as_signature,
    build_irrep,
    check_module_dim,
    clifford_residual,
    hatted_real_structure,
)
from .linalg import (
    DEFAULT_TOL,
    AntilinearOp,
    commutator,
    eye,
    fold_max,
    frozen,
    kron,
    linear_combination,
    max_abs,
    pair_residuals,
    stack_blocks,
    tensor_antilinear,
)
from .liealg import SoRepresentation, bracket_residual_table, quadratic_monomials
from .report import Report

#: largest product dimension D of :func:`build_commuting` and
#: :func:`three_action_closure_defect`: a pair peaks at 310 MB at D = 256, and
#: three actions need 0.64 GB for their quadratics alone at D = 512
MAX_PRODUCT_DIM = 256


def check_product_dim(sigs) -> None:
    """Refuse, before any module is built, a factor above ``MAX_MODULE_DIM``
    or a product dimension above ``MAX_PRODUCT_DIM``."""
    for sig in sigs:
        check_module_dim(sig.n)
    product_dim = math.prod(2 ** (sig.n // 2) for sig in sigs)
    if product_dim > MAX_PRODUCT_DIM:
        raise ValueError(
            f"product dimension {product_dim} is above the limit {MAX_PRODUCT_DIM}: "
            f"the dense product construction would need gigabytes of memory")


def combined_metric(eta1, eta2) -> np.ndarray:
    return np.concatenate([-np.asarray(eta1, dtype=int), np.asarray(eta2, dtype=int)])


def combined_generators(gamma1, gamma2, eta1, eta2) -> SoRepresentation:
    """Combined generators for the metric (−η₁)⊕η₂: the quadratic monomials
    of Γ₁ then Γ₂, with the T₁ block (b < n₁) negated."""
    n1, gammas = len(gamma1), (*gamma1, *gamma2)
    gens = {(a, b): frozen(-m) if b < n1 else m
            for (a, b), m in quadratic_monomials(gammas).items()}
    dim = gammas[0].shape[0] if gammas else 1
    return SoRepresentation(eta=combined_metric(eta1, eta2), dim=dim, generators=gens)


@dataclass(frozen=True)
class CommutingAction:
    """Two commuting gamma families acting on a tensor-product space, with
    the combined generators they form, built from the gammas."""

    mod1: CliffordModule
    mod2: CliffordModule
    gamma1: tuple
    gamma2: tuple
    generators: SoRepresentation = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", combined_generators(
            self.gamma1, self.gamma2, self.mod1.eta, self.mod2.eta))

    @property
    def dim(self) -> int:
        return self.mod1.dim * self.mod2.dim

    @property
    def n1(self) -> int:
        return self.mod1.n

    @property
    def n2(self) -> int:
        return self.mod2.n

    @property
    def s(self) -> int:
        """Signature parameter of the combined metric (−η₁)⊕η₂."""
        return (self.mod2.s - self.mod1.s) % 8


def build_commuting(sig1, sig2, branch1: int = 1, branch2: int = 1) -> CommutingAction:
    """Lift two irreducible modules to commuting families γ⊗1 and 1⊗γ;
    raises ValueError first when the product dimension is too large."""
    sig1, sig2 = as_signature(sig1), as_signature(sig2)
    check_product_dim((sig1, sig2))
    mod1 = build_irrep(sig1, branch1)
    mod2 = build_irrep(sig2, branch2)
    id1, id2 = eye(mod1.dim), eye(mod2.dim)
    gamma1 = tuple(frozen(kron(g, id2)) for g in mod1.gammas)
    gamma2 = tuple(frozen(kron(id1, g)) for g in mod2.gammas)
    return CommutingAction(mod1=mod1, mod2=mod2, gamma1=gamma1, gamma2=gamma2)


def commutation_residual(ca: CommutingAction) -> float:
    """max-abs of [Γ₁ᵃ, Γ₂^α] over all index pairs (must vanish), one
    :func:`linalg.pair_residuals` call over Γ₁ then Γ₂."""
    a, alpha = np.indices((ca.n1, ca.n2)).reshape(2, -1)
    return fold_max(0.0, pair_residuals([*ca.gamma1, *ca.gamma2], a, ca.n1 + alpha, -1, None))


#: the five bracket families as (row, column) blocks of the combined table; a
#: pair's block counts its indices in the second factor: 0 T₁, 1 U, 2 T₂
_FAMILIES = {"t1-t1": (0, 0), "t2-t2": (2, 2), "t1-u": (0, 1),
             "u-t2": (1, 2), "u-u": (1, 1)}


def _family_residuals(table: np.ndarray, pairs, n1: int) -> dict:
    """Worst entry of each family block of a combined bracket residual table."""
    block = np.array([(a >= n1) + (b >= n1) for a, b in pairs], dtype=int)
    return {key: max_abs(table[np.ix_(block == row, block == col)])
            for key, (row, col) in _FAMILIES.items()}


def bracket_family_residuals(gamma1, gamma2, eta1, eta2) -> dict:
    """Residuals of the five bracket families for two gamma families.

    The U·U family carries the distinguishing signs

        [U^{aβ}, U^{cδ}] = η₁ᵃᶜ T₂^{βδ} − η₂^{βδ} T₁ᶜᵃ

    (diagonal generators count as zero), which hold for commuting families
    and fail for anticommuting ones.
    """
    combined = combined_generators(gamma1, gamma2, eta1, eta2)
    return _family_residuals(bracket_residual_table(combined), combined.pairs(),
                             len(gamma1))


def verify_bracket_table(ca: CommutingAction, tol: float = DEFAULT_TOL) -> Report:
    """Check the five bracket families of the combined generators."""
    table = bracket_residual_table(ca.generators)
    fams = _family_residuals(table, ca.generators.pairs(), ca.n1)
    comm = commutation_residual(ca)
    total = max_abs(table)
    worst = fold_max(comm, total)
    name = f"bracket-families{_pair_label(ca)}"
    details = [{"family": key, "residual": val} for key, val in sorted(fams.items())]
    details.append({"family": "gamma-commutation", "residual": comm})
    details.append({"family": "combined-bracket", "residual": total})
    return Report(name=name, passed=worst < tol, max_residual=worst,
                  tolerance=tol, details=details)


def _pair_label(ca: CommutingAction) -> str:
    return (f"({ca.mod1.signature.p},{ca.mod1.signature.q})x"
            f"({ca.mod2.signature.p},{ca.mod2.signature.q})")


def equivalence_even(ca: CommutingAction, tol: float = DEFAULT_TOL) -> Report:
    """Identify the combined generators with a full spinor representation.

    Requires n₁ even.  The reference module uses the gammas iγ₁ᵃ⊗1 and
    γ̄₁⊗γ₂^β (γ̄₁ the first factor's chirality); conjugating its quadratic
    monomials by V = exp(iπγ̄₁/4)⊗1 = (1+iγ̄₁)/√2⊗1 must reproduce the
    combined generators exactly, and V must leave the tensor product
    element unchanged.
    """
    if ca.n1 % 2 != 0:
        raise ValueError("the unitary-conjugation path requires even n1; "
                         "swap the factors or use the odd-odd path")
    id2 = eye(ca.mod2.dim)
    chir1 = kron(ca.mod1.chirality, id2)
    ref = [1j * g for g in ca.gamma1] + [chir1 @ g for g in ca.gamma2]
    ref_eta = combined_metric(ca.mod1.eta, ca.mod2.eta)
    cliff_res = clifford_residual(ref, ref_eta)

    v = kron((eye(ca.mod1.dim) + 1j * ca.mod1.chirality) / math.sqrt(2), id2)
    vh = v.conj().T
    # the reference monomials come in the (a, b) order of the combined ones
    ref_quads = list(quadratic_monomials(ref).values())
    gens = list(ca.generators.generators.values())
    worst = 0.0
    for block in stack_blocks(len(gens), ca.dim):
        worst = fold_max(worst, max_abs(
            v @ np.stack(ref_quads[block]) @ vh - np.stack(gens[block])))
    p_res = 0.0
    if (ca.n1 + ca.n2) % 2 == 0:
        prod = tensor_product_element(ca)
        p_res = max_abs(v @ prod @ vh - prod)
    overall = fold_max(worst, (p_res, cliff_res))
    return Report(
        name=f"even-equivalence{_pair_label(ca)}",
        passed=overall < tol,
        max_residual=overall,
        tolerance=tol,
        details=[
            {"item": "reference-clifford-relations", "residual": cliff_res},
            {"item": "conjugated-generators", "residual": worst},
            {"item": "product-element-invariance", "residual": p_res},
        ],
    )


def equivalence_odd_odd(ca: CommutingAction, tol: float = DEFAULT_TOL) -> Report:
    """Identify the odd-odd tensor representation as one half-spinor piece.

    A doubled Clifford module on C²⊗(the tensor space) uses the gammas

        [[0, γ₁ᵃ], [−γ₁ᵃ, 0]]⊗1   and   [[0, 1], [1, 0]]⊗γ₂^α,

    whose quadratic monomials commute with t = diag(1, −1)⊗1.  The upper
    block (t = +1) must reproduce the combined generators, and the tensor
    product element must be a unit scalar, pinning which half occurs.
    """
    if ca.n1 % 2 == 0 or ca.n2 % 2 == 0:
        raise ValueError("the doubled-module path requires both factors odd")
    flip = np.array([[0, 1], [-1, 0]], dtype=complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    doubled = [kron(flip, g) for g in ca.gamma1] + [kron(swap, g) for g in ca.gamma2]
    ref_eta = combined_metric(ca.mod1.eta, ca.mod2.eta)
    cliff_res = clifford_residual(doubled, ref_eta)

    d = ca.dim
    doubled_quads = list(quadratic_monomials(doubled).values())
    gens = list(ca.generators.generators.values())
    worst = 0.0
    for block in stack_blocks(len(gens), 2 * d):
        quad = np.stack(doubled_quads[block])
        worst = fold_max(worst, [max_abs(quad[:, :d, d:]), max_abs(quad[:, d:, :d]),
                                 max_abs(quad[:, :d, :d] - np.stack(gens[block]))])

    prod = tensor_product_element(ca)
    scalar = complex(prod[0, 0])
    scalar_res = max_abs(prod - scalar * eye(d))
    unit_res = abs(abs(scalar) - 1.0)
    overall = fold_max(worst, (cliff_res, scalar_res, unit_res))
    return Report(
        name=f"odd-odd-equivalence{_pair_label(ca)}",
        passed=overall < tol,
        max_residual=overall,
        tolerance=tol,
        details=[
            {"item": "doubled-clifford-relations", "residual": cliff_res},
            {"item": "restricted-generators", "residual": worst},
            {"item": "product-scalar", "re": scalar.real, "im": scalar.imag,
             "residual": fold_max(scalar_res, unit_res)},
        ],
    )


def tensor_product_element(ca: CommutingAction) -> np.ndarray:
    """Product element of the combined representation.

    Even-even: (−1)^{n₁/2}·P₁⊗P₂; odd-odd: (−1)^{(n₁−1)/2}·P₁⊗P₂.  Not
    defined when the combined signature parameter is odd.
    """
    if ca.s % 2 != 0:
        raise ValueError("no product element for odd combined signature parameter")
    if ca.n1 % 2 == 0:
        sign = (-1.0) ** (ca.n1 // 2)
    else:
        sign = (-1.0) ** ((ca.n1 - 1) // 2)
    return sign * kron(ca.mod1.P, ca.mod2.P)


def real_structure_recipe(ca: CommutingAction) -> Optional[str]:
    """Which tensor formula gives an antilinear map commuting with the
    combined generators, or None when no general formula exists.

    The mixed generators are odd in each factor's gammas, so the factor
    maps must carry equal commutation signs: plain⊗plain works when the
    signs agree, a hatted factor flips one sign, and the odd-odd cases
    with antisymmetric sign mismatch (combined s = 2, 6) have no formula.
    """
    even1, even2 = ca.n1 % 2 == 0, ca.n2 % 2 == 0
    s1, s2 = ca.mod1.s, ca.mod2.s
    if even1 and even2:
        return "J1xJ2"
    if not even1 and not even2:
        return "J1xJ2" if ca.s in (0, 4) else None
    if even1:
        return "J1xJ2" if s2 in (3, 7) else "Jhat1xJ2"
    return "J1xJ2" if s1 in (3, 7) else "J1xJhat2"


def tensor_real_structure(ca: CommutingAction) -> Optional[AntilinearOp]:
    """Antilinear structure map of the combined representation, if any."""
    recipe = real_structure_recipe(ca)
    if recipe is None:
        return None
    if recipe == "J1xJ2":
        return tensor_antilinear(ca.mod1.J, ca.mod2.J)
    if recipe == "Jhat1xJ2":
        return tensor_antilinear(hatted_real_structure(ca.mod1), ca.mod2.J)
    return tensor_antilinear(ca.mod1.J, hatted_real_structure(ca.mod2))


def tensor_hatted_real_structure(ca: CommutingAction) -> AntilinearOp:
    """Even-even only: the hatted map (−1)^{n₁/2}·Ĵ₁⊗Ĵ₂, equal to J∘P."""
    if ca.n1 % 2 != 0 or ca.n2 % 2 != 0:
        raise ValueError("the hatted tensor structure requires both factors even")
    sign = (-1.0) ** (ca.n1 // 2)
    k = sign * kron(hatted_real_structure(ca.mod1).matrix,
                    hatted_real_structure(ca.mod2).matrix)
    return AntilinearOp(k)


def real_structure_commutation(ca: CommutingAction, j: AntilinearOp) -> float:
    """Worst residual of K·conj(Tᴬᴮ) = Tᴬᴮ·K over the combined generators."""
    gens = list(ca.generators.generators.values())
    worst = 0.0
    for block in stack_blocks(len(gens), ca.dim):
        worst = fold_max(worst, j.commutation_residual(np.stack(gens[block]), 1))
    return worst


def three_action_closure_defect(sig_a, sig_b, sig_c) -> float:
    """Distance of the quadratic monomials of three commuting families from
    closing under commutators.

    All within- and cross-family quadratics are formed on the triple tensor
    product; every pairwise commutator is projected (real least squares)
    onto the real span of the identity and the quadratics, and the largest
    max-abs projection residual is returned; a NaN anywhere makes it NaN.
    A strictly positive defect shows the quadratics do not span a Lie
    algebra.  Raises ValueError,
    before any module is built, when the product dimension is above
    ``MAX_PRODUCT_DIM``.
    """
    sigs = [as_signature(s) for s in (sig_a, sig_b, sig_c)]
    if any(sig.n == 0 for sig in sigs):
        raise ValueError("each factor needs at least one generator")
    check_product_dim(sigs)
    mods = [build_irrep(sig) for sig in sigs]
    dims = [m.dim for m in mods]
    lifted = [
        [kron(kron(g, eye(dims[1])), eye(dims[2])) for g in mods[0].gammas],
        [kron(kron(eye(dims[0]), g), eye(dims[2])) for g in mods[1].gammas],
        [kron(eye(dims[0]), kron(eye(dims[1]), g)) for g in mods[2].gammas],
    ]
    quadratics = []
    for fam in lifted:
        for a in range(len(fam)):
            for b in range(a + 1, len(fam)):
                quadratics.append(0.5 * (fam[a] @ fam[b]))
    for i in range(3):
        for j in range(i + 1, 3):
            for ga in lifted[i]:
                for gb in lifted[j]:
                    quadratics.append(0.5 * (ga @ gb))
    dim = dims[0] * dims[1] * dims[2]
    span = np.stack([eye(dim)] + quadratics)
    quadratics = span[1:]

    def realvec(mat):
        flat = np.asarray(mat, dtype=complex).ravel()
        return np.concatenate([flat.real, flat.imag])

    basis = np.column_stack([realvec(m) for m in span])
    # a non-finite span has no least-squares projector: the defect is NaN
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


def swap_factors(ca: CommutingAction) -> CommutingAction:
    """The same data with the two factors exchanged (metric flip moves)."""
    return build_commuting(
        (ca.mod2.signature.p, ca.mod2.signature.q),
        (ca.mod1.signature.p, ca.mod1.signature.q),
        ca.mod2.branch, ca.mod1.branch)


__all__ = [
    "CommutingAction",
    "build_commuting",
    "commutation_residual",
    "combined_metric",
    "combined_generators",
    "bracket_family_residuals",
    "verify_bracket_table",
    "equivalence_even",
    "equivalence_odd_odd",
    "tensor_product_element",
    "real_structure_recipe",
    "tensor_real_structure",
    "tensor_hatted_real_structure",
    "real_structure_commutation",
    "three_action_closure_defect",
    "swap_factors",
]
