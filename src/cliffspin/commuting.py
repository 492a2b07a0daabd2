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
:class:`CommutingAction` holds Γ₁, Γ₂ and their monomials ``ca.generators``
(a :class:`liealg.SoRepresentation` built once from them) as read-only
stacks, which the checks here slice.  Factor order is significant;
swapping the factors lands the flip on the other signature.
The five bracket families T₁·T₁, T₂·T₂, T₁·U, U·T₂ and U·U are index
blocks of the one bracket table of these combined generators.

The resulting representation is a full (Dirac) spinor representation when
either factor has even generator count, and a single half-spinor (Weyl)
representation when both are odd.  Both identifications name, on the pair
as given, one Clifford family W on its own space whose commutators are the
combined generators, and check W's anticommutators and [W_A, W_B] = c·T^{AB}
by :func:`linalg.pair_residuals`.  For the full spinor W is n gammas of
(−η₁)⊕η₂ made from Γ₁, Γ₂ and an even factor's chirality.  For the
half-spinor W is the n − 1 generators 2T^{A,n−1}, gammas of Cl(n−1), whose
irreducible module has the pair's dimension 2^{(n−2)/2} (Lawson and
Michelsohn, *Spin Geometry*, ch. I).  The reports of ``cliffspin
commuting`` (:func:`verify_bracket_table`, :func:`verify_equivalence`,
:func:`verify_tensor_real_structure`) and of ``cliffspin three-actions``
(:func:`three_actions_report`) are built here.

The gamma commutation residual and both identifications are
:func:`linalg.pair_residuals` calls.  The tensor real structure's
commutation runs the generators as stacks of at most
``linalg.STACK_BLOCK_ENTRIES`` entries per matrix; every stacked product is
bit-identical to the one-matrix product, so the residual equals that of a
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
    product_of,
)
from .linalg import (
    DEFAULT_TOL,
    STACK_BLOCK_ENTRIES,
    AntilinearOp,
    commutator,
    eye,
    fold_max,
    kron,
    kron_all,
    linear_combination,
    max_abs,
    pair_residuals,
    stack_blocks,
    stacked_kron,
    tensor_antilinear,
)
from .liealg import SoRepresentation, bracket_residual_table, quadratic_monomials
from .report import Report

#: largest product dimension D of :func:`build_commuting` and
#: :func:`three_action_closure_defect`: ``cliffspin commuting`` peaks at
#: 188 MB ((0,8)x(0,8)), 206 MB ((0,9)x(0,8)) and 224 MB ((0,9)x(0,9)) at
#: D = 256, and three actions need 0.64 GB for their quadratics alone at
#: D = 512
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
    mats = quadratic_monomials((*gamma1, *gamma2))
    _, b = np.triu_indices(len(gamma1) + len(gamma2), 1)
    np.negative(mats, out=mats, where=(b < len(gamma1))[:, None, None])
    return SoRepresentation(eta=combined_metric(eta1, eta2), mats=mats)


@dataclass(frozen=True)
class CommutingAction:
    """Two commuting gamma families, read-only stacks made as a module makes
    its gammas, on a tensor-product space, with the generators they form."""

    mod1: CliffordModule
    mod2: CliffordModule
    gamma1: np.ndarray
    gamma2: np.ndarray
    generators: SoRepresentation = field(init=False)

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            gammas = np.asarray(getattr(self, name), dtype=complex)
            gammas.setflags(write=False)
            object.__setattr__(self, name, gammas.reshape(len(gammas), self.dim, self.dim))
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
    mod1, mod2 = build_irrep(sig1, branch1), build_irrep(sig2, branch2)
    return CommutingAction(mod1, mod2, stacked_kron(mod1.gammas, eye(mod2.dim)),
                           stacked_kron(eye(mod1.dim), mod2.gammas))


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


def _identification_report(ca: CommutingAction, name: str, family, metric, coef,
                            extra: list, tol: float) -> Report:
    """Report that ``family`` W, on the pair's own space, is a Clifford family
    of ``metric`` whose commutators are the combined generators:
    ``reference-clifford-relations`` holds W's anticommutators, and
    ``generator-monomials`` the worst of [W_A, W_B] − coef·T^{AB} over every
    pair A < B of W, one :func:`linalg.pair_residuals` call over W then the
    generators; ``extra`` items follow."""
    gens = ca.generators
    a, b = np.triu_indices(len(family), 1)
    terms = len(family) + gens.row(a, b), np.full(len(a), coef)
    monomials = fold_max(0.0, pair_residuals([*family, *gens.mats], a, b, -1, terms))
    details = [{"item": "reference-clifford-relations",
                "residual": clifford_residual(family, metric)},
               {"item": "generator-monomials", "residual": monomials}, *extra]
    overall = fold_max(0.0, [d["residual"] for d in details])
    return Report(name=f"{name}{_pair_label(ca)}", passed=overall < tol,
                  max_residual=overall, tolerance=tol, details=details)


def equivalence_even(ca: CommutingAction, tol: float = DEFAULT_TOL) -> Report:
    """Identify the combined generators with a full spinor representation.

    With χ an even factor's lifted chirality (χ₁⊗1 when n₁ is even, else
    1⊗χ₂), the n gammas

        W = (−χΓ₁ᵃ, χΓ₂^β)   or   W = (iΓ₁ᵃχ, −iχΓ₂^β)

    anticommute with metric (−η₁)⊕η₂ on the pair's own space, of dimension
    2^⌊n/2⌋, so they form the irreducible module there, and
    [W_A, W_B] = 4·T^{AB}: the combined generators are its quadratic
    monomials.  When n is even the ordered product of W must equal
    :func:`tensor_product_element`; an odd n has no product element and no
    such item.
    """
    if ca.n1 % 2 == 0:
        chir = kron(ca.mod1.chirality, eye(ca.mod2.dim))
        family = [*(-chir @ ca.gamma1), *(chir @ ca.gamma2)]
    elif ca.n2 % 2 == 0:
        chir = kron(eye(ca.mod1.dim), ca.mod2.chirality)
        family = [*(ca.gamma1 @ (1j * chir)), *((-1j * chir) @ ca.gamma2)]
    else:
        raise ValueError("the full-spinor identification requires an even factor")
    extra = []
    if len(family) % 2 == 0:
        extra.append({"item": "product-element", "residual": max_abs(
            product_of(family, ca.dim) - tensor_product_element(ca))})
    return _identification_report(ca, "even-equivalence", family, ca.generators.eta,
                                  4, extra, tol)


def equivalence_odd_odd(ca: CommutingAction, tol: float = DEFAULT_TOL) -> Report:
    """Identify the odd-odd tensor representation as one half-spinor piece.

    With l = n − 1, the n − 1 generators W_A = 2T^{A,l} must anticommute
    with metric −η_A·η_l: they are gammas of Cl(n−1), the even subalgebra
    of Cl(n), and n − 1 is odd, so a module of dimension 2^{(n−2)/2}, the
    pair's D, is irreducible (Lawson and Michelsohn, *Spin Geometry*,
    ch. I).  Then [W_A, W_B] = −4η_l·T^{AB} for A < B < l makes those
    generators the quadratic monomials of W, and T^{A,l} = ½W_A are its
    gammas: so(n) acts through Cl(n−1) on one half-spinor.  The tensor
    product element must be a unit scalar, pinning which half occurs.
    """
    if ca.n1 % 2 == 0 or ca.n2 % 2 == 0:
        raise ValueError("the half-spinor identification requires both factors odd")
    gens, eta = ca.generators, ca.generators.eta
    last = len(eta) - 1
    family = 2 * gens.mats[gens.row(np.arange(last), last)]
    prod = tensor_product_element(ca)
    scalar = complex(prod[0, 0])
    scalar_res = max_abs(prod - scalar * eye(ca.dim))
    unit_res = abs(abs(scalar) - 1.0)
    extra = [{"item": "product-scalar", "re": scalar.real, "im": scalar.imag,
              "residual": fold_max(scalar_res, unit_res)}]
    return _identification_report(ca, "odd-odd-equivalence", family,
                                  -eta[:last] * eta[last], -4 * eta[last], extra, tol)


def verify_equivalence(ca: CommutingAction, tol: float = DEFAULT_TOL) -> Report:
    """The identification that applies to the pair: :func:`equivalence_odd_odd`
    when both factors are odd, :func:`equivalence_even` otherwise."""
    if ca.n1 % 2 and ca.n2 % 2:
        return equivalence_odd_odd(ca, tol)
    return equivalence_even(ca, tol)


def tensor_product_element(ca: CommutingAction) -> np.ndarray:
    """Product element of the combined representation.

    Even-even: (−1)^{n₁/2}·P₁⊗P₂; odd-odd: (−1)^{(n₁−1)/2}·P₁⊗P₂, so
    (−1)^⌊n₁/2⌋·P₁⊗P₂ in both.  Not defined when the combined signature
    parameter is odd.
    """
    if ca.s % 2 != 0:
        raise ValueError("no product element for odd combined signature parameter")
    return (-1.0) ** (ca.n1 // 2) * kron(ca.mod1.P, ca.mod2.P)


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
    return _recipe_structure(ca, real_structure_recipe(ca))


def _recipe_structure(ca: CommutingAction, recipe: Optional[str]) -> Optional[AntilinearOp]:
    """The tensor map that ``recipe`` of :func:`real_structure_recipe` names,
    from each factor's stored J or Ĵ; a recipe hats only an even factor,
    whose module holds Ĵ."""
    if recipe is None:
        return None
    j1 = ca.mod1.Jhat if recipe == "Jhat1xJ2" else ca.mod1.J
    j2 = ca.mod2.Jhat if recipe == "J1xJhat2" else ca.mod2.J
    return tensor_antilinear(j1, j2)


def tensor_hatted_real_structure(ca: CommutingAction) -> AntilinearOp:
    """Even-even only: the hatted map (−1)^{n₁/2}·Ĵ₁⊗Ĵ₂ of the two stored
    Ĵ, equal to J∘P."""
    if ca.n1 % 2 != 0 or ca.n2 % 2 != 0:
        raise ValueError("the hatted tensor structure requires both factors even")
    sign = (-1.0) ** (ca.n1 // 2)
    return AntilinearOp(sign * kron(ca.mod1.Jhat.matrix, ca.mod2.Jhat.matrix))


def real_structure_commutation(ca: CommutingAction, j: AntilinearOp) -> float:
    """Worst residual of K·conj(Tᴬᴮ) = Tᴬᴮ·K over the combined generators."""
    gens = ca.generators.mats
    worst = 0.0
    for block in stack_blocks(len(gens), ca.dim):
        worst = fold_max(worst, j.commutation_residual(gens[block], 1))
    return worst


def verify_tensor_real_structure(ca: CommutingAction, tol: float = DEFAULT_TOL) -> Report:
    """The map of :func:`tensor_real_structure` must commute with every
    combined generator; a pair with no recipe passes with residual 0."""
    recipe = real_structure_recipe(ca)
    if recipe is None:
        resid, detail = 0.0, {"formula": None, "note": "no antilinear structure for this case"}
    else:
        resid = real_structure_commutation(ca, _recipe_structure(ca, recipe))
        detail = {"formula": recipe, "commutation": resid}
    return Report(name=f"tensor-real-structure{_pair_label(ca)}",
                  passed=recipe is None or resid < tol, max_residual=resid,
                  tolerance=tol, details=[detail])


def three_action_closure_defect(sig_a, sig_b, sig_c) -> float:
    """Distance of the quadratic monomials of three commuting families from
    closing under commutators.

    All within- and cross-family quadratics are formed on the triple tensor
    product; every pairwise commutator is projected (real least squares)
    onto the real span of the identity and the quadratics, and the largest
    max-abs projection residual is returned; a NaN anywhere makes it NaN.
    A strictly positive defect shows the quadratics do not span a Lie
    algebra.  The pairs i < j run in blocks: each forms its commutators as
    a stack, projects them by one stacked product with the pseudo-inverse
    and rebuilds them by one :func:`linalg.linear_combination`, whose
    (B, K, D, D) temporary holds at most ``STACK_BLOCK_ENTRIES`` entries
    (K = 1 + the number of quadratics).  Raises ValueError, before any
    module is built, when the product dimension is above
    ``MAX_PRODUCT_DIM``.
    """
    sigs = [as_signature(s) for s in (sig_a, sig_b, sig_c)]
    if any(sig.n == 0 for sig in sigs):
        raise ValueError("each factor needs at least one generator")
    check_product_dim(sigs)
    mods = [build_irrep(sig) for sig in sigs]
    ids = [eye(m.dim) for m in mods]
    lifted = np.concatenate([kron_all([*ids[:f], m.gammas, *ids[f + 1:]])
                             for f, m in enumerate(mods)])
    quads = quadratic_monomials(lifted)
    # within-family pairs first, family by family, then the cross-family
    # pairs by family pair, each group in ascending (a, b) order
    family = np.repeat(np.arange(3), [sig.n for sig in sigs])
    a, b = np.triu_indices(len(family), 1)
    order = np.lexsort((family[b], family[a], family[a] != family[b]))
    span = np.empty((1 + len(order), *quads.shape[1:]), dtype=complex)
    span[0] = eye(quads.shape[-1])
    quadratics = np.take(quads, order, axis=0, out=span[1:])
    del quads  # the unordered copy: the span holds every monomial

    # each matrix as one real row: the real parts of its entries, then the imaginary
    flat = span.reshape(len(span), -1)
    basis = np.concatenate([flat.real, flat.imag], axis=1).T
    # a non-finite span has no least-squares projector: the defect is NaN
    pinv = (np.linalg.pinv(basis) if np.isfinite(basis).all()
            else np.full(basis.T.shape, np.nan))
    i, j = np.triu_indices(len(quadratics), 1)
    step = max(1, STACK_BLOCK_ENTRIES // span.size)
    defect = 0.0
    for lo in range(0, len(i), step):
        comm = commutator(quadratics[i[lo:lo + step]], quadratics[j[lo:lo + step]])
        flat = comm.reshape(len(comm), -1)
        coeff = pinv @ np.concatenate([flat.real, flat.imag], axis=1)[..., None]
        recon = linear_combination(coeff[..., 0], span)
        defect = fold_max(defect, max_abs(comm - recon))
    return defect


def three_actions_report(sigs, min_defect: float = 0.1) -> Report:
    """:func:`three_action_closure_defect` of three signatures, which passes
    only when it exceeds ``min_defect``."""
    defect = three_action_closure_defect(*sigs)
    label = "x".join(f"({p},{q})" for p, q in sigs)
    return Report(name=f"three-action-defect{label}", passed=defect > min_defect,
                  max_residual=defect, tolerance=min_defect,
                  details=[{"defect": defect, "min_defect": min_defect,
                            "note": "pass requires the defect to EXCEED the threshold"}])


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
    "verify_equivalence",
    "tensor_product_element",
    "real_structure_recipe",
    "tensor_real_structure",
    "tensor_hatted_real_structure",
    "real_structure_commutation",
    "verify_tensor_real_structure",
    "three_action_closure_defect",
    "three_actions_report",
]
