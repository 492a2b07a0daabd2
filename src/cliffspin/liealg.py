"""Orthogonal Lie algebra representations from quadratic gamma monomials.

The generators Tᵃᵇ = ½γᵃγᵇ (a < b, extended antisymmetrically, zero on the
diagonal) satisfy

    [Tᵃᵇ, Tᶜᵈ] = ηᵇᶜTᵃᵈ − ηᵃᶜTᵇᵈ + ηᵇᵈTᶜᵃ − ηᵃᵈTᶜᵇ

for the module's diagonal metric η, held by :class:`SoRepresentation` as one
read-only stack (n(n−1)/2, d, d) in ascending (a, b) order.  This module
provides the bracket checker, the Levi-Civita Casimir that reproduces the
gamma product, the chirality (Weyl) split, and intertwiner search for
equivalence testing.  It builds the two reports of ``cliffspin verify
brackets``: :func:`verify_brackets` (``so-brackets``) and
:func:`verify_casimir` (``casimir-product``).

Indices are 0-based throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import clifford
from .clifford import CliffordModule, sign_triple
from .linalg import (
    DEFAULT_TOL,
    eye,
    fixed_spaces,
    fold_max,
    max_abs,
    pair_residuals,
    phase_normalize,
)
from .report import Report


@dataclass(frozen=True)
class SoRepresentation:
    """Generators of an orthogonal Lie algebra on a complex space.

    ``mats``, made read-only here, stacks Tᵃᵇ for the pairs a < b of
    :meth:`pairs` in ascending order; :meth:`t` gives the antisymmetric
    extension.
    """

    eta: np.ndarray
    mats: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=complex)
        count = self.n * (self.n - 1) // 2
        if mats.ndim != 3 or mats.shape[:2] != (count, mats.shape[2]):
            raise ValueError(f"expected a stack of {count} square matrices, got {mats.shape}")
        mats.setflags(write=False)
        object.__setattr__(self, "mats", mats)

    @property
    def n(self) -> int:
        return len(self.eta)

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]

    def pairs(self):
        return list(itertools.combinations(range(self.n), 2))

    def row(self, a, b):
        """Index into ``mats`` of Tᵃᵇ for a < b (integers or index arrays):
        the rows of the pairs (c, ·), c < a, come first."""
        return a * (2 * self.n - a - 1) // 2 + b - a - 1

    def t(self, a: int, b: int) -> np.ndarray:
        if a == b:
            return np.zeros((self.dim, self.dim), dtype=complex)
        row = self.mats[self.row(*sorted((a, b)))]
        return row if a < b else -row


def quadratic_monomials(gammas) -> np.ndarray:
    """A new stack of ½γᵃγᵇ for a < b in ascending (a, b) order, filled in
    place one product at a time; no gammas give a (0, 1, 1) stack."""
    n = len(gammas)
    dim = gammas[0].shape[-1] if n else 1
    mats = np.empty((n * (n - 1) // 2, dim, dim), dtype=complex)
    for k, (a, b) in enumerate(itertools.combinations(range(n), 2)):
        np.matmul(gammas[a], gammas[b], out=mats[k])
        mats[k] *= 0.5
    return mats


def so_generators(m: CliffordModule) -> SoRepresentation:
    """Quadratic monomials Tᵃᵇ = ½γᵃγᵇ of an irreducible module."""
    return SoRepresentation(eta=np.asarray(m.eta, dtype=int),
                            mats=quadratic_monomials(m.gammas))


def bracket_residual_table(rep: SoRepresentation) -> np.ndarray:
    """Max-abs deviation of each bracket [Tᵃᵇ, Tᶜᵈ] from the structure relation.

    Rows and columns are both indexed by ``rep.pairs()``.  The table is one
    :func:`linalg.pair_residuals` call with sign −1 over all N² pairs of the
    N generators and the right-hand sides of :func:`_structure_terms`: in
    O(N²) on the Pauli strings (c, x, z) of the generators when every one
    is a string (the stabilizer picture; every module the package builds),
    on gathers in O(N²·d) for other phased permutations, and by stacked d×d
    commutators otherwise (perturbed or conjugated generators),
    bit-identical whenever every product of entries is exact.
    """
    size = len(rep.mats)
    if size == 0:
        return np.zeros((0, 0))
    i, j = np.divmod(np.arange(size * size), size)
    table = pair_residuals(rep.mats, i, j, -1, _structure_terms(rep))
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
    # (a, b) of the row as a column against (c, d) of the column as a row
    a, b, c, d = pairs[:, :1], pairs[:, 1:], pairs[:, 0], pairs[:, 1]
    # [Tᵃᵇ, Tᶜᵈ] = ηᵇᶜTᵃᵈ − ηᵃᶜTᵇᵈ + ηᵇᵈTᶜᵃ − ηᵃᵈTᶜᵇ, first matching term:
    # the terms are laid down last to first, so an earlier one overwrites
    x = y = coef = 0
    for cond, xs, ys, cs in ((a == d, c, b, -eta[a]), (b == d, c, a, eta[b]),
                             (a == c, b, d, -eta[a]), (b == c, a, d, eta[b])):
        x, y, coef = np.where(cond, xs, x), np.where(cond, ys, y), np.where(cond, cs, coef)
    return index[x, y].ravel(), (coef * orient[x, y]).ravel()


def bracket_residual(rep: SoRepresentation) -> float:
    """Worst max-abs deviation of any bracket from the structure relation."""
    return max_abs(bracket_residual_table(rep))


def flipped_representation(rep: SoRepresentation) -> SoRepresentation:
    """Negated generators with negated metric; satisfies the same relations.

    Exhibits the isomorphism between the algebras of signature (p, q) and
    (q, p) at the level of structure constants.
    """
    return SoRepresentation(eta=-np.asarray(rep.eta), mats=-rep.mats)


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


def verify_brackets(max_n: int, tol: float = DEFAULT_TOL) -> Report:
    """The structure relation of the monomials and of their flip for every
    p + q ≤ max_n; raises ValueError as :func:`clifford.check_max_n` does."""
    clifford.check_max_n(max_n)
    worst = 0.0
    details = []
    for n in range(max_n + 1):
        for p in range(n + 1):
            rep = so_generators(clifford.build_irrep((p, n - p)))
            res = bracket_residual(rep)
            flip = bracket_residual(flipped_representation(rep))
            worst = fold_max(worst, (res, flip))
            details.append({"p": p, "q": n - p, "bracket": res, "sign_flip": flip})
    return Report(name=f"so-brackets(max_n={max_n})", passed=worst < tol,
                  max_residual=worst, tolerance=tol, details=details)


def verify_casimir(max_n: int, tol: float = DEFAULT_TOL) -> Report:
    """The Casimir identity, :func:`casimir_element` equal to the product
    element within ``tol``, at (0,2), (4,0), (0,6) and at (0,n) for every
    even n from 8 up to ``max_n``."""
    details = []
    worst = 0.0
    for sig in ((0, 2), (4, 0), (0, 6)) + tuple((0, n) for n in range(8, max_n + 1, 2)):
        m = clifford.build_irrep(sig)
        res = max_abs(casimir_element(so_generators(m)) - m.P)
        worst = fold_max(worst, res)
        details.append({"p": sig[0], "q": sig[1], "residual": res})
    return Report(name="casimir-product", passed=worst < tol, max_residual=worst,
                  tolerance=tol, details=details)


def weyl_projectors(m: CliffordModule):
    """Projectors (1 ± chirality)/2; defined for even n > 0."""
    if m.n == 0 or m.n % 2 != 0:
        raise ValueError("the chirality split requires even n > 0")
    plus = 0.5 * (eye(m.dim) + m.chirality)
    minus = 0.5 * (eye(m.dim) - m.chirality)
    return plus, minus


def weyl_pieces(m: CliffordModule):
    """The two half-spinor representations on the chirality eigenspaces: the
    rows and columns of each generator at the +1, then the −1, entries of
    the chirality operator, which the deterministic construction makes
    diagonal with ±1 entries; raises ValueError for any other chirality
    operator, so every row lands in one piece."""
    diag = np.diagonal(m.chirality)
    # a non-finite entry anywhere, the diagonal included, makes off NaN
    off = max_abs(m.chirality - np.diag(diag))
    if not off <= 1e-12:
        raise ValueError("chirality operator is not a finite diagonal matrix")
    on = [np.abs(diag - sign) < 1e-9 for sign in (1, -1)]
    if not (on[0] | on[1]).all():
        raise ValueError("chirality operator has a diagonal entry other than ±1")
    rep = so_generators(m)
    return tuple(SoRepresentation(eta=rep.eta, mats=rep.mats[:, rows[:, None], rows])
                 for rows in map(np.flatnonzero, on))


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
    # the pairs (0, a) are the first n − 1 rows
    first = slice(rep_a.n - 1)
    basis, = fixed_spaces(2 * rep_b.mats[first], 2 * rep_a.mats[first], dim, (1,))
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
    return fold_max(0.0, max_abs(w @ rep_a.mats - rep_b.mats @ w))


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
    others = np.arange(1, len(rep.mats) + 1)
    p_comm = fold_max(0.0, pair_residuals([m.P, *rep.mats], 0 * others, others, -1, None))
    j_comm = fold_max(0.0, m.J.commutation_residual(rep.mats, 1))
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
