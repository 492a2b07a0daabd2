"""Dense complex linear algebra substrate.

Everything operates on square numpy arrays of dtype complex128.  Matrix
comparisons use the max-absolute-entry norm throughout the package, with a
single overridable default tolerance.  The Kronecker convention is first
factor major (row-major blocks) everywhere.  The module, like the whole
package, needs numpy only: :func:`expm` is a numpy Padé exponential.

The gammas of a Jordan–Wigner chain, and every product of them, are phased
permutations (Pauli strings; Aaronson and Gottesman, quant-ph/0406196): one
nonzero entry per row and per column.  :func:`phased_permutations` detects
a stack of such matrices exactly and gives its form (cols, vals), in which
a product (:func:`phased_compose`) or an inverse (:func:`phased_inverse`)
is an O(d) gather and a map X ↦ L·X·R an O(d²) gather.  The maps of the
sign measurement (:func:`antilinear_maps`) and of the intertwiner search
(:func:`intertwining_maps`), and the Clifford residual, take that form
whenever every input matrix passes the detector: the involution check and
the fixed space then run on ``PhasedMaps``.  Any other input takes the
dense code, which is also the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: project-wide default tolerance for residual checks
DEFAULT_TOL = 1e-10

#: relative singular-value threshold below which directions count as null
NULL_RTOL = 1e-9

#: random probes that :func:`fixed_space` projects, drawn from the
#: standard library's generator (stdlib MT19937, seed 0), so no fixed space
#: loads ``numpy.random``
FIXED_SPACE_PROBES = 3

#: matrix entries per stacked product of :func:`check_commuting_involutions`:
#: the maps, and the (i, j) pairs of maps, are checked in blocks of at most
#: this many entries in all (one map or pair at least), so the check's memory
#: does not grow with the number of maps
PRECONDITION_BLOCK_ENTRIES = 1 << 15

#: matrix entries per stacked product of the sampled loops of ``spectral``
#: and the per-generator loops of ``commuting``, and per block of the
#: detector :func:`phased_permutations`: samples, generators or tested
#: matrices are stacked in blocks of at most this many entries per d×d
#: matrix (one item at least), 8 at d = 32, so their memory does not grow
#: with the count
STACK_BLOCK_ENTRIES = 1 << 13

#: largest matrix dimension d for the dense d²-unknown Kronecker reference
#: solve (antilinear commutant): d = 32 (n = 10) builds a constraint matrix
#: of about 170 MB; d = 64 (n = 12) would need several GB
MAX_KRONECKER_DIM = 32

#: θ₁₃ of Higham (2005): the 1-norm up to which the [13/13] Padé
#: approximant of exp is accurate to double precision
_PADE13_THETA = 5.371920351148152

#: coefficients c₀ … c₁₃ of the [13/13] Padé numerator p(x) = Σ cⱼ·xʲ of
#: exp, cⱼ = (26 − j)!·13! / (26!·j!·(13 − j)!), so c₀ = 1 and exp(0) = 1
#: exactly; the denominator is p(−x)
_PADE13_COEFFS = tuple(
    math.factorial(26 - j) * math.factorial(13)
    / (math.factorial(26) * math.factorial(j) * math.factorial(13 - j))
    for j in range(14))


def as_matrices(a) -> np.ndarray:
    """Coerce the input to a square complex matrix or a stack (…, d, d) of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce the input to one square complex matrix."""
    m = as_matrices(a)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def stack_blocks(count: int, dim: int, entries: int = STACK_BLOCK_ENTRIES) -> list:
    """Slices that cut ``count`` stacked dim×dim matrices into blocks of at
    most ``entries`` entries in all (one matrix at least)."""
    size = max(1, entries // (dim * dim))
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def stack_at(mats, index) -> np.ndarray:
    """The matrices ``mats[i]`` for i in ``index``, as one stack."""
    return np.stack([mats[i] for i in index])


def max_abs(a):
    """Max-absolute-entry norm: a float for an array of at most two axes
    (zero when empty), and for a stack (…, d, d) an array of the norm of
    each matrix, by the same exact maximum."""
    arr = np.asarray(a)
    if arr.ndim > 2:
        return np.abs(arr).max(axis=(-2, -1))
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def fold_max(worst: float, values) -> float:
    """max(worst, v₀, v₁, …) over an array (or scalar) of residuals, as a
    loop of ``worst = max(worst, v)`` folds them, except that a NaN anywhere
    gives NaN, so a check on non-finite data cannot pass."""
    folded = [worst, *np.ravel(values).tolist()]
    return math.nan if any(map(math.isnan, folded)) else max(folded)


def eye(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def stacked_kron(a, b) -> np.ndarray:
    """Kronecker product over the last two axes, first factor major:

    out[…, i*db + k, j*db + l] = a[…, i, j] * b[…, k, l]

    with the leading (stack) axes of the two inputs broadcast.  One
    broadcast multiply forms the same products as ``np.kron``, so each
    matrix of the result is bit-identical to it, without its per-call
    overhead.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, ra, rb, ca, cb = out.shape
    return out.reshape(*lead, ra * rb, ca * cb)


def kron(a, b) -> np.ndarray:
    """:func:`stacked_kron` of two matrices; raises ValueError unless both
    inputs are 2-D."""
    if np.ndim(a) != 2 or np.ndim(b) != 2:
        raise ValueError(f"kron expects two matrices, got shapes "
                         f"{np.shape(a)} and {np.shape(b)}")
    return stacked_kron(a, b)


def kron_all(mats) -> np.ndarray:
    """Kronecker chain of a (possibly empty) sequence; empty gives [[1]]."""
    out = eye(1)
    for m in mats:
        out = kron(out, m)
    return out


def linear_combination(coeffs, mats) -> np.ndarray:
    """Σᵢ coeffs[i]·mats[i] over a stack (or sequence) of equal-shape matrices.

    The terms are added in index order starting from 0, as Python's
    ``sum(c * m for c, m in zip(coeffs, mats))`` adds them, so the result is
    bit-identical to that sum, signs of zeros included; an empty
    combination is the zero matrix of the stack's shape.  Coefficients of
    shape (…, N) give one combination per leading index, each bit-identical
    to the combination of its own N coefficients.
    """
    coeffs = np.asarray(coeffs)
    stack = np.asarray(mats, dtype=complex)
    if coeffs.shape[-1:] != stack.shape[:1] or stack.ndim != 3:
        raise ValueError(f"{coeffs.shape} coefficients for a stack of shape {stack.shape}")
    return np.add.reduce(coeffs[..., None, None] * stack, axis=-3, initial=0)


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    return a @ b + b @ a


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(np.asarray(a).conj(), -1, -2)


def unitarity_residual(u):
    """max-abs of U·U† − 1, for a matrix or (an array) for each matrix of a
    stack (…, d, d)."""
    m = as_matrices(u)
    return max_abs(m @ dagger(m) - eye(m.shape[-1]))


def expm(a) -> np.ndarray:
    """Matrix exponential of a matrix or of each matrix of a stack (…, d, d),
    by the scaling-and-squaring Padé(13) method (N. J. Higham, SIAM J.
    Matrix Anal. Appl. 26 (2005) 1179).  Raises ValueError when any entry is
    not finite.

    Each matrix is scaled by 2^-s, with s the least s ≥ 0 that brings its
    own 1-norm to at most θ₁₃; the [13/13] Padé approximant r = q⁻¹·p of
    the scaled matrix is solved for in one stacked call, and then squared s
    times, each squaring only on the matrices whose s is still ahead.  So
    every matrix of a stack is bit-identical to its own exponential.
    """
    m = as_matrices(a)
    if not np.all(np.isfinite(m)):
        raise ValueError("expm: input has non-finite entries")
    d = m.shape[-1]
    flat = m.reshape(math.prod(m.shape[:-2]), d, d)
    # s = max(0, ceil(log2(‖A‖₁ / θ₁₃))), read off the binary exponent
    mantissa, exponent = np.frexp(np.abs(flat).sum(axis=-2).max(axis=-1, initial=0.0)
                                  / _PADE13_THETA)
    s = np.maximum(exponent - (mantissa == 0.5), 0)
    x = flat * np.ldexp(1.0, -s)[:, None, None]
    c = _PADE13_COEFFS
    ident = np.eye(d)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (c[13] * x6 + c[11] * x4 + c[9] * x2)
             + c[7] * x6 + c[5] * x4 + c[3] * x2 + c[1] * ident)
    v = (x6 @ (c[12] * x6 + c[10] * x4 + c[8] * x2)
         + c[6] * x6 + c[4] * x4 + c[2] * x2 + c[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        ahead = s > k
        r[ahead] = r[ahead] @ r[ahead]
    return r.reshape(m.shape)


def polar_unitary(a, rtol: float = NULL_RTOL) -> np.ndarray:
    """Unitary factor U of the polar decomposition A = U·H with H positive.

    Raises ValueError when the smallest singular value falls below
    ``rtol`` times the largest (singular input).
    """
    m = as_matrix(a)
    w, s, vh = np.linalg.svd(m)
    if s[0] == 0.0 or s[-1] < rtol * s[0]:
        raise ValueError("polar_unitary: input is numerically singular")
    return w @ vh


def null_space(a, rtol: float = NULL_RTOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space of a matrix.

    Singular values below ``rtol`` times the largest count as zero; no rows
    (or a zero matrix) give the full space.  A tall or square matrix takes
    the thin SVD, so no rows×rows factor is allocated; a wide one needs the
    full ``vh`` for the directions beyond its row count.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError("null_space expects a matrix")
    if m.shape[0] == 0 or max_abs(m) == 0.0:
        return np.eye(m.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vh[int(np.sum(s > rtol * s[0])):].conj().T


def phased_permutations(mats, dim: int):
    """The phased-permutation form (cols, vals), each of shape (N, dim), of a
    sequence of N dim×dim matrices (a list or a stack), or None unless every
    matrix is exactly a phased permutation: one nonzero entry per row and
    per column, tested with ``!= 0`` and no tolerance, and every entry
    finite.  Row r of matrix k holds vals[k, r] at column cols[k, r] and
    zeros elsewhere.  The matrices are stacked and tested in blocks of at
    most ``STACK_BLOCK_ENTRIES`` entries, and nothing is sorted."""
    cols = np.zeros((len(mats), dim), dtype=np.intp)
    vals = np.zeros((len(mats), dim), dtype=complex)
    for block in stack_blocks(len(mats), dim):
        m = np.asarray(mats[block], dtype=complex)
        if m.shape[1:] != (dim, dim):
            return None
        nonzero = m != 0
        c = nonzero.argmax(axis=-1)
        v = m[_stack_index(c), np.arange(dim), c]
        # as many nonzeros as rows, none of them missing from a row (so one
        # per row), and none missing from a column (so one per column)
        if not (np.count_nonzero(nonzero) == c.size and np.all(v != 0)
                and nonzero.any(axis=-2).all() and np.isfinite(v).all()):
            return None
        cols[block], vals[block] = c, v
    return cols, vals


def _stack_index(cols) -> np.ndarray:
    """The index k of each matrix of a stack of forms (N, d), as a column."""
    return np.arange(len(cols))[:, None]


def phased_compose(a, b):
    """The form of A·B for phased-permutation forms ``a`` and ``b`` of two
    stacks of N matrices: row r of A·B is vals_a[r] times row cols_a[r] of
    B."""
    (cols_a, vals_a), (cols_b, vals_b) = a, b
    k = _stack_index(cols_a)
    return cols_b[k, cols_a], vals_a * vals_b[k, cols_a]


def _phased_rows(cols) -> np.ndarray:
    """The inverse permutations of phased-permutation columns: the row
    rows[c] of each matrix that holds column c, by one scatter."""
    rows = np.empty_like(cols)
    rows[_stack_index(cols), cols] = np.arange(cols.shape[-1])
    return rows


def phased_inverse(a):
    """The form of A⁻¹ for a phased-permutation form ``a``: A maps the unit
    vector of column cols[r] to vals[r] times that of row r."""
    cols, vals = a
    rows = _phased_rows(cols)
    return rows, 1 / vals[_stack_index(rows), rows]


def _phased_distance(a, b) -> np.ndarray:
    """max-abs of A − B for each matrix of two phased-permutation forms: a
    row whose columns agree gives |va − vb|, any other max(|va|, |vb|)."""
    (cols_a, vals_a), (cols_b, vals_b) = a, b
    gap = np.where(cols_a == cols_b, np.abs(vals_a - vals_b),
                   np.maximum(np.abs(vals_a), np.abs(vals_b)))
    return gap.max(axis=-1)


@dataclass(frozen=True)
class PhasedMaps:
    """Maps X ↦ Lᵢ·X·Rᵢ whose every Lᵢ and Rᵢ is a phased permutation, held
    as the forms (cols, vals) of the stacked Lᵢ and of the stacked Rᵢ, so
    that no d×d matrix of them is formed.  :func:`check_commuting_involutions`
    and :func:`fixed_space` take it in place of a list of (L, R) pairs."""

    lefts: tuple
    rights: tuple


def antilinear_maps(gammas, dim: int):
    """The maps K ↦ γ⁻¹·K·conj(γ), one per γ: the K with K·conj(γ) = s·γ·K
    for every γ are the fixed space of their :func:`signed_maps` by s.

    When every γ is a phased permutation (one detector call) they are
    ``PhasedMaps`` inverted by gather, with no d×d matrix formed; otherwise
    a list of (γ⁻¹, conj(γ)) pairs inverted by ``np.linalg.inv``.
    """
    forms = phased_permutations(gammas, dim)
    if forms is None:
        return [(np.linalg.inv(g), np.conj(g)) for g in gammas]
    cols, vals = forms
    return PhasedMaps(phased_inverse(forms), (cols, vals.conj()))


def intertwining_maps(lefts, rights, dim: int):
    """The maps X ↦ Lᵢ·X·Rᵢ⁻¹: the X with Lᵢ·X = X·Rᵢ for every i are their
    fixed space.

    When every Lᵢ and Rᵢ is a phased permutation (one detector call on
    them stacked) they are ``PhasedMaps`` inverted by gather; otherwise a
    list of (L, R⁻¹) pairs inverted by ``np.linalg.inv``.
    """
    lefts, rights = list(lefts), list(rights)
    forms = phased_permutations(lefts + rights, dim)
    if forms is None:
        return [(left, np.linalg.inv(right)) for left, right in zip(lefts, rights)]
    (cols, vals), n = forms, len(lefts)
    return PhasedMaps((cols[:n], vals[:n]), phased_inverse((cols[n:], vals[n:])))


def signed_maps(maps, sign: int):
    """The maps X ↦ sign·Lᵢ·X·Rᵢ of maps X ↦ Lᵢ·X·Rᵢ, in the form given."""
    if isinstance(maps, PhasedMaps):
        cols, vals = maps.lefts
        return PhasedMaps((cols, sign * vals), maps.rights)
    return [(sign * left, right) for left, right in maps]


def _first_failure(bad) -> int:
    """Index of the first True entry of a boolean vector, or its length."""
    return int(np.argmax(bad)) if bad.any() else len(bad)


def _raise_first_failure(bad_maps, commutes, pairs_per_block: int) -> None:
    """Raise ValueError for the first failure in the order map i, then its
    pairs (j, i) with j < i ascending: ``bad_maps`` flags the maps that are
    not involutions, and ``commutes(i, j)`` tells, for index arrays of at
    most ``pairs_per_block`` pairs, which pairs commute."""
    first_bad_map = _first_failure(bad_maps)
    rows, cols = np.tril_indices(first_bad_map, -1)
    for start in range(0, len(rows), pairs_per_block):
        i, j = rows[start:start + pairs_per_block], cols[start:start + pairs_per_block]
        k = _first_failure(~commutes(i, j))
        if k < len(i):
            raise ValueError(f"fixed_space: maps {j[k]} and {i[k]} do not commute")
    if first_bad_map < len(bad_maps):
        raise ValueError(f"fixed_space: map {first_bad_map} is not an involution")


def _check_phased(maps: PhasedMaps, dim: int) -> None:
    """The precondition on phased-permutation forms, in O(d) per map and
    per pair: the residuals are those of the dense products, entry for
    entry, since each entry of a product of phased permutations is one
    product of two entries."""
    lefts, rights = maps.lefts, maps.rights
    lsq, rsq = phased_compose(lefts, lefts), phased_compose(rights, rights)
    diag = np.arange(dim)
    c = np.where(lsq[0] == diag, lsq[1], 0).sum(axis=-1) / dim
    scale = np.where(c == 0, 1, c)[:, None]
    resid = np.maximum(_phased_distance(lsq, (diag, scale)),
                       _phased_distance(rsq, (diag, 1 / scale)))

    def commutes(i, j):
        (lc, lv), (rc, rv) = lefts, rights
        li, lj, ri, rj = (lc[i], lv[i]), (lc[j], lv[j]), (rc[i], rv[i]), (rc[j], rv[j])
        left_ij, left_ji = phased_compose(li, lj), phased_compose(lj, li)
        right_ji, right_ij = phased_compose(rj, ri), phased_compose(ri, rj)
        out = np.zeros(len(i), dtype=bool)
        for sigma in (1, -1):
            out |= np.maximum(
                _phased_distance(left_ij, (left_ji[0], sigma * left_ji[1])),
                _phased_distance(right_ji, (right_ij[0], sigma * right_ij[1]))) <= DEFAULT_TOL
        return out

    _raise_first_failure((c == 0) | ~(resid <= DEFAULT_TOL), commutes, max(1, len(c) ** 2))


def _check_dense(maps, dim: int) -> None:
    """The precondition by stacked d×d products over blocks of at most
    ``PRECONDITION_BLOCK_ENTRIES`` entries."""
    all_lefts = [left for left, _ in maps]
    all_rights = [right for _, right in maps]
    ident = eye(dim)

    bad_maps = [np.zeros(0, dtype=bool)]
    for block in stack_blocks(len(maps), dim, PRECONDITION_BLOCK_ENTRIES):
        lefts, rights = np.stack(all_lefts[block]), np.stack(all_rights[block])
        lsq, rsq = lefts @ lefts, rights @ rights
        c = np.trace(lsq, axis1=1, axis2=2) / dim
        scale = np.where(c == 0, 1, c)[:, None, None]
        resid = np.maximum(np.abs(lsq - scale * ident).max(axis=(1, 2)),
                           np.abs(rsq - ident / scale).max(axis=(1, 2)))
        bad_maps.append((c == 0) | ~(resid <= DEFAULT_TOL))

    def commutes(i, j):
        li, lj = stack_at(all_lefts, i), stack_at(all_lefts, j)
        ri, rj = stack_at(all_rights, i), stack_at(all_rights, j)
        left_ij, left_ji = li @ lj, lj @ li
        right_ji, right_ij = rj @ ri, ri @ rj
        out = np.zeros(len(i), dtype=bool)
        for sigma in (1, -1):
            resid = np.maximum(np.abs(left_ij - sigma * left_ji).max(axis=(1, 2)),
                               np.abs(right_ji - sigma * right_ij).max(axis=(1, 2)))
            out |= resid <= DEFAULT_TOL
        return out

    _raise_first_failure(np.concatenate(bad_maps), commutes,
                         max(1, PRECONDITION_BLOCK_ENTRIES // (dim * dim)))


def check_commuting_involutions(maps, dim: int):
    """The precondition of :func:`fixed_space`: every map Mᵢ: X ↦ Lᵢ·X·Rᵢ is
    an involution (L² = c·1, R² = c⁻¹·1) and every two commute (LᵢLⱼ =
    σLⱼLᵢ, RⱼRᵢ = σRᵢRⱼ, one σ ∈ {±1}), each to ``DEFAULT_TOL``.

    Returns ``PhasedMaps`` as given, and a list as pairs of complex
    matrices.  Raises ValueError for the first failure in the order map i,
    then its pairs (j, i) with j < i ascending.  On ``PhasedMaps`` both
    conditions are read off gathers, O(d) per map and per pair; on a list
    off stacked d×d products over blocks of at most
    ``PRECONDITION_BLOCK_ENTRIES`` entries.  A sign on any Lᵢ changes
    neither, so maps that differ only by such signs need one check.
    """
    if isinstance(maps, PhasedMaps):
        _check_phased(maps, dim)
        return maps
    maps = [(as_matrix(left), as_matrix(right)) for left, right in maps]
    _check_dense(maps, dim)
    return maps


def _probes(dim: int) -> np.ndarray:
    """``FIXED_SPACE_PROBES`` complex dim×dim probes whose real and imaginary
    parts are the 32-bit signed integers k/2³¹ on [−1, 1), from stdlib
    MT19937 with seed 0."""
    import random  # loaded by numpy already; the probes need no numpy.random

    count = 2 * FIXED_SPACE_PROBES * dim * dim
    words = np.frombuffer(random.Random(0).randbytes(4 * count), dtype="<i4")
    parts = (words * 2.0 ** -31).reshape(2, FIXED_SPACE_PROBES, dim, dim)
    return parts[0] + 1j * parts[1]


def fixed_space(maps, dim: int, checked: bool = False) -> np.ndarray:
    """Orthonormal basis (columns: row-major flattened X) of the dim×dim X
    with L·X·R = X for every (L, R) in ``maps`` (a list of pairs or
    ``PhasedMaps``); no dim²-unknown system.

    The maps must be commuting involutions: :func:`check_commuting_involutions`
    runs first and raises ValueError otherwise, unless ``checked`` says the
    caller has already run it on these maps or on maps that differ from
    them only by signs of the Lᵢ.  The projector Πᵢ(1 + Mᵢ)/2 is applied to
    ``FIXED_SPACE_PROBES`` random probes (stdlib MT19937, seed 0; a
    randomized range finder, arXiv:0909.4061) and the images are ranked
    against the probe norm, so an empty space gives no column and a space
    of ``FIXED_SPACE_PROBES`` dimensions or more gives that many.  Each of
    ``PhasedMaps`` is applied by one gather, each of a list by two
    products.
    """
    if not checked:
        maps = check_commuting_involutions(maps, dim)
    images = probes = _probes(dim)
    if isinstance(maps, PhasedMaps):
        (lc, lv), (rc, rv) = maps.lefts, maps.rights
        # (X·R)[:, c] = X[:, r]·R[r, c] for the one row r = rows[c] of column c
        rows = _phased_rows(rc)
        rv = rv[_stack_index(rows), rows]
        for k in range(len(lc)):
            images = 0.5 * (images + lv[k, :, None] * rv[k] * images[:, lc[k, :, None], rows[k]])
    else:
        for left, right in maps:
            images = 0.5 * (images + left @ images @ right)
    u, s, _ = np.linalg.svd(images.reshape(FIXED_SPACE_PROBES, dim * dim).T,
                            full_matrices=False)
    return u[:, :int(np.sum(s > NULL_RTOL * np.linalg.norm(probes)))]


def check_kronecker_dim(dim: int) -> None:
    """Refuse a dense Kronecker solve over dim×dim matrices above
    ``MAX_KRONECKER_DIM``, before any constraint matrix is allocated."""
    if dim > MAX_KRONECKER_DIM:
        raise ValueError(
            f"matrix dimension {dim} is above the dense Kronecker solve limit "
            f"{MAX_KRONECKER_DIM}: the {dim * dim}-unknown constraint system "
            f"does not fit in memory")


def phase_normalize(v, rtol: float = NULL_RTOL) -> np.ndarray:
    """Rescale a vector by a unit phase so its first significant entry is
    positive real.  Deterministic representative of a phase orbit."""
    vec = np.asarray(v, dtype=complex).ravel()
    mags = np.abs(vec)
    top = mags.max() if vec.size else 0.0
    if top == 0.0:
        return vec
    idx = int(np.argmax(mags > rtol * top))
    return vec / (vec[idx] / mags[idx])


def frozen(a) -> np.ndarray:
    """Read-only complex copy, for arrays stored on immutable value objects."""
    m = np.array(a, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class AntilinearOp:
    """Antilinear map v ↦ K·conj(v) with K unitary.

    Composition is the rule (J1∘J2)(v) = K1·conj(K2)·v, used everywhere a
    product of antilinear maps appears.
    """

    matrix: np.ndarray

    def __post_init__(self):
        k = as_matrix(self.matrix)
        if unitarity_residual(k) > 1e-8:
            raise ValueError("AntilinearOp: matrix part is not unitary")
        object.__setattr__(self, "matrix", frozen(k))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, v) -> np.ndarray:
        return self.matrix @ np.conj(np.asarray(v, dtype=complex))

    def compose(self, other: "AntilinearOp") -> np.ndarray:
        """Matrix of the linear map self∘other (antilinear twice = linear)."""
        return self.matrix @ np.conj(other.matrix)

    def square(self) -> np.ndarray:
        return self.compose(self)

    def square_sign(self, tol: float = DEFAULT_TOL) -> int:
        """The sign ε with J² = ε·I; raises when J² is not ±identity."""
        sq = self.square()
        for sign in (1, -1):
            if max_abs(sq - sign * eye(self.dim)) < tol:
                return sign
        raise ValueError("antilinear square is not plus or minus the identity")

    def after_linear(self, m) -> "AntilinearOp":
        """The antilinear map v ↦ J(M·v), i.e. matrix part K·conj(M)."""
        return AntilinearOp(self.matrix @ np.conj(as_matrix(m)))

    def conjugate_matrix(self, m) -> np.ndarray:
        """Matrix of the linear map J·M·J⁻¹ (K unitary): K·conj(M)·K†, for a
        matrix or each matrix of a stack (…, d, d)."""
        k = self.matrix
        return k @ np.conj(as_matrices(m)) @ k.conj().T

    def commutation_residual(self, m, phase: complex = 1):
        """max-abs of K·conj(M) − phase·M·K, for a matrix or (an array) for
        each matrix of a stack (…, d, d)."""
        k = self.matrix
        m = np.asarray(m, dtype=complex)
        return max_abs(k @ np.conj(m) - phase * (m @ k))

    def commutation_sign(self, m, tol: float = DEFAULT_TOL):
        """λ ∈ {+1, −1} with K·conj(M) = λ·M·K, or None if neither fits."""
        for lam in (1, -1):
            if self.commutation_residual(m, lam) < tol:
                return lam
        return None


def tensor_antilinear(a: AntilinearOp, b: AntilinearOp) -> AntilinearOp:
    """Tensor product of two antilinear maps; matrix part kron(Ka, Kb)."""
    return AntilinearOp(kron(a.matrix, b.matrix))


def antilinear_constraints(gammas, signs, dim: int | None = None) -> np.ndarray:
    """Stacked linear system whose null space holds the row-major K with
    K·conj(g) = sign·g·K for every (g, sign) pair.

    ``dim`` is needed only when the generator list is empty.  Raises
    ValueError above ``MAX_KRONECKER_DIM``.
    """
    gammas = [as_matrix(g) for g in gammas]
    signs = list(signs)
    if len(gammas) != len(signs):
        raise ValueError("one sign is required per generator")
    if gammas:
        dim = gammas[0].shape[0]
    elif dim is None:
        raise ValueError("dim is required when the generator list is empty")
    check_kronecker_dim(dim)
    ident = eye(dim)
    blocks = [np.kron(ident, np.conj(g).T) - sign * np.kron(g, ident)
              for g, sign in zip(gammas, signs)]
    return np.vstack(blocks) if blocks else np.zeros((0, dim * dim), dtype=complex)


def solve_antilinear_commutant(gammas, signs, dim: int | None = None,
                               rtol: float = NULL_RTOL) -> AntilinearOp:
    """Unitary K with K·conj(g) = sign·g·K for every (g, sign) pair.

    For an irreducible generator set the solution space is one complex
    dimension; the representative is chosen deterministically by phase
    normalizing the null-space vector and taking the unitary polar factor.

    Raises ValueError when the solution space is empty (wrong sign pattern)
    or has dimension above one (reducible input), and above
    ``MAX_KRONECKER_DIM``.
    """
    stacked = antilinear_constraints(gammas, signs, dim)
    dim = math.isqrt(stacked.shape[1])
    basis = null_space(stacked, rtol)
    n_sol = basis.shape[1]
    if n_sol == 0:
        raise ValueError("no antilinear solution: wrong sign pattern for these generators")
    if n_sol > 1:
        raise ValueError(f"solution space dimension {n_sol}: input representation is reducible")
    k = phase_normalize(basis[:, 0], rtol).reshape(dim, dim)
    return AntilinearOp(polar_unitary(k, rtol))
