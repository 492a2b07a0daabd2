"""Orthogonal Lie algebra representations from quadratic gamma monomials.

The generators Tᵃᵇ = ½γᵃγᵇ (a < b, extended antisymmetrically, zero on the
diagonal) satisfy

    [Tᵃᵇ, Tᶜᵈ] = ηᵇᶜTᵃᵈ − ηᵃᶜTᵇᵈ + ηᵇᵈTᶜᵃ − ηᵃᵈTᶜᵇ

for the module's diagonal metric η.  This module provides the bracket
checker, the Levi-Civita Casimir that reproduces the gamma product, the
chirality (Weyl) split, and intertwiner search for equivalence testing.

Indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordModule, sign_triple
from .linalg import (
    DEFAULT_TOL,
    eye,
    fixed_spaces,
    fold_max,
    frozen,
    max_abs,
    pair_residuals,
    phase_normalize,
)


@dataclass(frozen=True)
class SoRepresentation:
    """Indexed generators of an orthogonal Lie algebra on a complex space.

    ``generators`` maps (a, b) with a < b to a matrix; access through
    :meth:`t` for the antisymmetric extension.
    """

    eta: np.ndarray
    dim: int
    generators: dict

    @property
    def n(self) -> int:
        return len(self.eta)

    def pairs(self):
        return sorted(self.generators)

    def t(self, a: int, b: int) -> np.ndarray:
        if a == b:
            return np.zeros((self.dim, self.dim), dtype=complex)
        if a < b:
            return self.generators[(a, b)]
        return -self.generators[(b, a)]


def quadratic_monomials(gammas) -> dict:
    """{(a, b): ½γᵃγᵇ} for a < b, read-only, in ascending (a, b) order."""
    n = len(gammas)
    return {(a, b): frozen(0.5 * (gammas[a] @ gammas[b]))
            for a in range(n) for b in range(a + 1, n)}


def so_generators(m: CliffordModule) -> SoRepresentation:
    """Quadratic monomials Tᵃᵇ = ½γᵃγᵇ of an irreducible module."""
    return SoRepresentation(eta=np.asarray(m.eta, dtype=int), dim=m.dim,
                            generators=quadratic_monomials(m.gammas))


def bracket_residual_table(rep: SoRepresentation) -> np.ndarray:
    """Max-abs deviation of each bracket [Tᵃᵇ, Tᶜᵈ] from the structure relation.

    Rows and columns are both indexed by ``rep.pairs()``.  The table is one
    :func:`linalg.pair_residuals` call with sign −1 over all N² pairs of the
    N generators and the right-hand sides of :func:`_structure_terms`: on
    gathers in O(N²·d) when every generator is a phased permutation (the
    Pauli-string picture of stabilizer simulation), by stacked d×d
    commutators otherwise (perturbed, conjugated or fault-injected
    generators), bit-identical either way.
    """
    mats = [rep.generators[key] for key in rep.pairs()]
    size = len(mats)
    if size == 0:
        return np.zeros((0, 0))
    i, j = np.divmod(np.arange(size * size), size)
    table = pair_residuals(mats, i, j, -1, _structure_terms(rep))
    return table.reshape(size, size)


def _structure_terms(rep: SoRepresentation):
    """The one surviving term coef·T[k] of the structure relation's right-hand
    side for every (i, j) of the table, flattened row-major, as (k, coef).

    Two distinct pairs share at most one index, so at most one of the four
    η terms applies; a pair against itself gives T⁽ᵃᵃ⁾ = 0, coefficient 0.
    """
    pairs = np.array(rep.pairs(), dtype=np.intp).reshape(-1, 2)
    n, size = rep.n, len(pairs)
    index = np.zeros((n, n), dtype=np.intp)
    index[pairs[:, 0], pairs[:, 1]] = index[pairs[:, 1], pairs[:, 0]] = np.arange(size)
    # T⁽ˣʸ⁾ = sign(y − x)·T[index[x, y]]
    orient = np.sign(np.arange(n)[None, :] - np.arange(n)[:, None])
    eta = np.asarray(rep.eta)
    a, b = np.repeat(pairs[:, 0], size), np.repeat(pairs[:, 1], size)
    c, d = np.tile(pairs[:, 0], size), np.tile(pairs[:, 1], size)
    # [Tᵃᵇ, Tᶜᵈ] = ηᵇᶜTᵃᵈ − ηᵃᶜTᵇᵈ + ηᵇᵈTᶜᵃ − ηᵃᵈTᶜᵇ, first matching term
    conds = [b == c, a == c, b == d, a == d]
    x = np.select(conds, [a, b, c, c], 0)
    y = np.select(conds, [d, d, a, b], 0)
    coef = np.select(conds, [eta[b], -eta[a], eta[b], -eta[a]], 0) * orient[x, y]
    return index[x, y], coef


def bracket_residual(rep: SoRepresentation) -> float:
    """Worst max-abs deviation of any bracket from the structure relation."""
    return max_abs(bracket_residual_table(rep))


def flipped_representation(rep: SoRepresentation) -> SoRepresentation:
    """Negated generators with negated metric; satisfies the same relations.

    Exhibits the isomorphism between the algebras of signature (p, q) and
    (q, p) at the level of structure constants.
    """
    gens = {key: frozen(-g) for key, g in rep.generators.items()}
    return SoRepresentation(eta=-np.asarray(rep.eta), dim=rep.dim, generators=gens)


def casimir_element(rep: SoRepresentation) -> np.ndarray:
    """Levi-Civita contraction of generator products.

    Evaluates (2^{n/2}/n!)·ε_{a₁…aₙ}·T^{a₁a₂}…T^{a_{n-1}aₙ} by recursion
    over the still-unused index set S, memoized on S:

        F(∅) = 1,   F(S) = Σ_{a≠b∈S} sign(a,b;S)·Tᵃᵇ·F(S∖{a,b}),

    where sign(a,b;S) is the sign of moving a, then b, to the front of S.
    The ordered pairs (a,b) and (b,a) give equal terms, so each unordered
    pair is taken once and doubled.  This is the full signed sum over all
    n! index orders for any matrices (no commutation is assumed), in
    O(2ⁿ·n²) products.  For the quadratic monomials of an irreducible
    module it equals the ordered gamma product.
    """
    n = rep.n
    if n % 2 != 0:
        raise ValueError("the Casimir contraction requires an even index count")
    memo = {(): eye(rep.dim)}

    def contract(rest: tuple) -> np.ndarray:
        if rest not in memo:
            total = np.zeros((rep.dim, rep.dim), dtype=complex)
            for i, a in enumerate(rest):
                for j in range(i + 1, len(rest)):
                    sign = (-1) ** (i + j - 1)
                    others = rest[:i] + rest[i + 1:j] + rest[j + 1:]
                    total = total + sign * (rep.t(a, rest[j]) @ contract(others))
            memo[rest] = 2 * total
        return memo[rest]

    try:
        return (2 ** (n // 2) / math.factorial(n)) * contract(tuple(range(n)))
    finally:
        # the closure refers to itself, a cycle that would keep the memo of
        # 2^(n-1) matrices alive until the cyclic collector ran
        del contract


def weyl_projectors(m: CliffordModule):
    """Projectors (1 ± chirality)/2; defined for even n > 0."""
    if m.n == 0 or m.n % 2 != 0:
        raise ValueError("the chirality split requires even n > 0")
    plus = 0.5 * (eye(m.dim) + m.chirality)
    minus = 0.5 * (eye(m.dim) - m.chirality)
    return plus, minus


def _chirality_columns(m: CliffordModule, sign: int) -> np.ndarray:
    """Selector onto the chirality eigenspace, using that the deterministic
    construction makes the chirality operator diagonal with ±1 entries."""
    diag = np.diagonal(m.chirality)
    off = max_abs(m.chirality - np.diag(diag))
    if off > 1e-12:
        raise ValueError("chirality operator is unexpectedly non-diagonal")
    cols = [i for i, v in enumerate(diag) if abs(v - sign) < 1e-9]
    basis = np.zeros((m.dim, len(cols)), dtype=complex)
    for j, i in enumerate(cols):
        basis[i, j] = 1.0
    return basis


def weyl_pieces(m: CliffordModule):
    """The two half-spinor representations on the chirality eigenspaces."""
    rep = so_generators(m)
    pieces = []
    for sign in (1, -1):
        basis = _chirality_columns(m, sign)
        gens = {key: frozen(basis.conj().T @ g @ basis)
                for key, g in rep.generators.items()}
        pieces.append(SoRepresentation(eta=rep.eta, dim=basis.shape[1], generators=gens))
    return tuple(pieces)


def find_intertwiner(rep_a: SoRepresentation, rep_b: SoRepresentation,
                     rtol: float = 1e-6):
    """Invertible W with W·T_a = T_b·W for every generator, or None.

    W is a generic element of the space of W with 2T_b⁰ᵃ·W = W·2T_a⁰ᵃ,
    a = 1…n−1 (:func:`linalg.fixed_spaces`), which holds every intertwiner,
    so None is a sound verdict; for quadratic gamma monomials the 2T⁰ᵃ
    generate every 2Tᵃᵇ up to shared scalars.  W counts as invertible when
    its smallest singular value is at least ``rtol`` times the largest.
    Raises ValueError when a 2T⁰ᵃ does not square to a nonzero scalar and
    when W fails :func:`intertwiner_residual` on some generator.
    """
    if rep_a.dim != rep_b.dim:
        raise ValueError("representation dimension mismatch")
    if rep_a.n != rep_b.n or not np.array_equal(rep_a.eta, rep_b.eta):
        raise ValueError("representations must share one metric")
    dim = rep_a.dim
    basis, = fixed_spaces([2 * rep_b.t(0, a) for a in range(1, rep_a.n)],
                          [2 * rep_a.t(0, a) for a in range(1, rep_a.n)], dim, (1,))
    if basis.shape[1] == 0:
        return None
    w = phase_normalize(basis.sum(axis=1)).reshape(dim, dim)
    svals = np.linalg.svd(w, compute_uv=False)
    if svals[-1] < rtol * svals[0]:
        return None
    residual = intertwiner_residual(w, rep_a, rep_b)
    if not residual <= DEFAULT_TOL:
        raise ValueError(f"intertwiner of the 2T^0a fails a generator: residual {residual:.6g}")
    return w


def intertwiner_residual(w, rep_a: SoRepresentation, rep_b: SoRepresentation) -> float:
    """Worst max-abs of W·T_a − T_b·W over the generators; NaN anywhere gives NaN."""
    return fold_max(0.0, [max_abs(w @ rep_a.t(a, b) - rep_b.t(a, b) @ w)
                          for a, b in rep_a.pairs()])


@dataclass(frozen=True)
class StructureExpectation:
    """Which structure maps survive on the irreducible spinor representation."""

    s: int
    has_j: bool
    has_p: bool


def expected_structure(s: int) -> StructureExpectation:
    """Structure-map table: P survives iff s is even, J except at s = 2, 6."""
    s = s % 8
    return StructureExpectation(s=s, has_j=s not in (2, 6), has_p=s % 2 == 0)


def structure_survival(m: CliffordModule, tol: float = DEFAULT_TOL) -> dict:
    """Measure which structure maps survive on the irreducible representations.

    The product element is a structure map only when it is a nontrivial
    grading (even n); J always commutes with the quadratic monomials, but on
    the half-spinor pieces it survives only when it preserves the two
    chirality eigenspaces (measured sign +1 past the chirality operator).
    For odd n the full module is already irreducible and J survives as is.
    """
    rep = so_generators(m)
    mats = [m.P, *rep.generators.values()]
    others = np.arange(1, len(mats))
    p_comm = fold_max(0.0, pair_residuals(mats, 0 * others, others, -1, None))
    j_comm = fold_max(0.0, [m.J.commutation_residual(g, 1) for g in rep.generators.values()])
    if m.n == 0:
        has_p = has_j = True
    elif m.n % 2 == 1:
        has_p = False
        has_j = j_comm < tol
    else:
        has_p = p_comm < tol
        has_j = j_comm < tol and m.J.commutation_sign(m.chirality, tol) == 1
    expected = expected_structure(m.s)
    return {
        "has_p": has_p,
        "has_j": has_j,
        "matches_table": has_p == expected.has_p and has_j == expected.has_j,
        "p_residual": p_comm,
        "j_residual": j_comm,
        "eps_prime": sign_triple(m.s).eps_prime,
    }
