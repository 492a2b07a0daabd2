"""Dense complex linear algebra substrate.

Everything operates on square numpy arrays of dtype complex128.  Matrix
comparisons use the max-absolute-entry norm throughout the package, with a
single overridable default tolerance.  The Kronecker convention is first
factor major (row-major blocks) everywhere.  The module, like the whole
package, needs numpy only: :func:`expm` is a numpy Padé exponential.

The gammas of a Jordan–Wigner chain, and every product of them, are
Pauli strings c·Z^z·X^x (Aaronson and Gottesman, quant-ph/0406196), and a
chirality projector cuts such a string down to a partial phased
permutation: at most one nonzero entry per row and per column.
:func:`phased_permutations` detects a stack of partial phased permutations
exactly and gives its ``PhasedForm`` (cols, vals), in which a product of
two matrices is an O(d) gather and a map X ↦ L·X·R an O(d²) gather.
Callers hand plain matrices to the two checks built on it, and each check
makes its one detector call itself:

* :func:`pair_residuals`, every pairwise identity (the Clifford relations,
  the so(p,q) brackets and the commutators checked in ``commuting``,
  ``spectral`` and ``liealg``), tries three exact forms in turn: Pauli
  strings (c, x, z) read off the ``PhasedForm``, a few operations per
  pair; the ``PhasedForm`` itself, O(d) gathers per pair; and, for
  anything else, stacked d×d products;
* :func:`fixed_spaces`, the X with Lᵢ·X = s·X·Rᵢ for every i and each sign
  s (the sign measurement and the intertwiner search), whose precondition
  (squares and commutations of the maps as given) is two pair-residual
  calls on its one detector answer, and which inverts each Lᵢ by its
  measured square.

:func:`_form_pair_residuals` is the one place that picks a pair tier from
the detector's answer.  Only this module knows the ``PhasedForm`` and the
strings; input that is not a stack of partial phased permutations takes
the dense code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: project-wide default tolerance for residual checks
DEFAULT_TOL = 1e-10

#: relative singular-value threshold below which directions count as null
NULL_RTOL = 1e-9

#: random probes that :func:`fixed_spaces` projects, drawn from the
#: standard library's generator (stdlib MT19937, seed 0), so no fixed space
#: loads ``numpy.random``
FIXED_SPACE_PROBES = 3

#: entries per block of every stacked loop (one item at least), so no
#: loop's memory grows with its count: d×d matrices per stacked product, 8
#: at d = 32, and gathered rows of AᵢAⱼ and AⱼAᵢ in :func:`pair_residuals`,
#: 2d per pair, so 32 pairs at d = 128
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


def stack_blocks(count: int, dim: int) -> list:
    """Slices that cut ``count`` stacked dim×dim matrices into blocks of at
    most ``STACK_BLOCK_ENTRIES`` entries in all (one matrix at least)."""
    size = max(1, STACK_BLOCK_ENTRIES // (dim * dim))
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def stack_at(mats, index) -> np.ndarray:
    """The matrices ``mats[i]`` for i in ``index``, as one stack."""
    return np.array([mats[i] for i in np.asarray(index).tolist()])


def max_abs(a):
    """Max-absolute-entry norm: a float for an array of at most two axes
    (zero when empty), and for a stack (…, d, d) an array of the norm of
    each matrix, by the same exact maximum."""
    arr = np.asarray(a)
    if arr.ndim > 2:
        return np.abs(arr).max(axis=(-2, -1))
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr).max())


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
    """Left-to-right :func:`stacked_kron` chain of matrices or stacks; empty gives [[1]]."""
    out = eye(1)
    for m in mats:
        out = stacked_kron(out, m)
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


class PhasedForm(NamedTuple):
    """The partial phased-permutation form of a stack of N dim×dim matrices:
    row r of matrix k holds vals[k, r] at column cols[k, r] and zeros
    elsewhere; a zero row has vals[k, r] = 0 (and cols[k, r] = 0)."""

    cols: np.ndarray
    vals: np.ndarray


def phased_permutations(mats, dim: int):
    """The ``PhasedForm`` (cols, vals), each of shape (N, dim), of a
    sequence of N dim×dim matrices (a list or a stack), or None unless every
    matrix is exactly a partial phased permutation: at most one nonzero
    entry per row and per column, tested with ``!= 0`` and no tolerance,
    and every entry finite.  The matrices are stacked and tested in blocks
    of at most ``STACK_BLOCK_ENTRIES`` entries, and nothing is sorted."""
    cols = np.zeros((len(mats), dim), dtype=np.intp)
    vals = np.zeros((len(mats), dim), dtype=complex)
    for block in stack_blocks(len(mats), dim):
        m = np.asarray(mats[block], dtype=complex)
        if m.shape[1:] != (dim, dim):
            return None
        nonzero = m != 0
        c = nonzero.argmax(axis=-1)
        v = m[_stack_index(c), np.arange(dim), c]
        # v holds one nonzero of each row that has one; as many nonzeros as
        # such rows (so at most one per row) and as many as the columns they
        # hit (so at most one per column)
        count = np.count_nonzero(nonzero)
        if not (count == np.count_nonzero(v) == np.count_nonzero(nonzero.any(axis=-2))
                and np.isfinite(v).all()):
            return None
        cols[block], vals[block] = c, v
    return PhasedForm(cols, vals)


class _PauliStrings(NamedTuple):
    """Matrix k of a stack of dim×dim matrices as coef[k]·Z^z[k]·X^x[k]:
    row r holds coef[k]·(−1)^parity[z[k] & r] at column r ⊕ x[k], and
    parity[w] is popcount(w) mod 2 for every w < dim."""

    coef: np.ndarray
    x: np.ndarray
    z: np.ndarray
    parity: np.ndarray


def _parities(dim: int) -> np.ndarray:
    """popcount(w) mod 2 for w < dim, as booleans: the top bit of w flips the
    parity of w with that bit cleared."""
    parity = np.zeros(dim, dtype=bool)
    bit = 1
    while bit < dim:
        parity[bit:2 * bit] = ~parity[:min(bit, dim - bit)]
        bit *= 2
    return parity


def _pauli_strings(form: PhasedForm):
    """The ``_PauliStrings`` of a ``PhasedForm``, or None unless every matrix
    is exactly a Pauli string: x = cols[0] with cols[r] = r ⊕ x for every
    row r, bit j of z set where vals[2^j] = −vals[0], and
    vals[r] = vals[0]·(−1)^popcount(z & r) for every r, compared with ==."""
    cols, vals = form
    dim = cols.shape[-1]
    rows = np.arange(dim)
    x, coef = cols[:, 0], vals[:, 0]
    bits = 1 << np.arange((dim - 1).bit_length())
    z = ((vals[:, bits] == -coef[:, None]) * bits).sum(axis=-1, dtype=np.intp)
    parity = _parities(dim)
    flip = parity[z[:, None] & rows]
    if not (np.array_equal(cols, rows ^ x[:, None])
            and np.array_equal(vals, np.where(flip, -coef[:, None], coef[:, None]))):
        return None
    return _PauliStrings(coef, x, z, parity)


def _stack_index(cols) -> np.ndarray:
    """The index k of each matrix of a stack of forms (N, d), as a column."""
    return np.arange(len(cols))[:, None]


def _phased_rows(cols) -> np.ndarray:
    """The inverse permutations of phased-permutation columns: the row
    rows[c] of each matrix that holds column c, by one scatter."""
    rows = np.empty_like(cols)
    rows[_stack_index(cols), cols] = np.arange(cols.shape[-1])
    return rows


def pair_residuals(mats, i, j, sign: int, terms) -> np.ndarray:
    """max-abs of Aᵢ·Aⱼ + sign·Aⱼ·Aᵢ − c·A[k] for each pair p = (i[p], j[p])
    of the d×d matrices A (a list or a stack), as an array over the pairs;
    ``terms`` is None (no right-hand side) or the index arrays (k, c), one
    index into A and one coefficient per pair, and a pair whose c is 0 has
    no right-hand side.  One :func:`phased_permutations` call, and
    :func:`_form_pair_residuals` on its answer."""
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    if not len(i):
        return np.zeros(0)
    form = phased_permutations(mats, np.shape(mats[0])[-1])
    return _form_pair_residuals(form, mats, i, j, sign, terms)


def _form_pair_residuals(form, mats, i, j, sign: int, terms) -> np.ndarray:
    """:func:`pair_residuals` of ``mats`` with ``form`` their
    :func:`phased_permutations` answer; ``mats`` is read only when
    ``form`` is None.  The one place that picks the cheapest exact tier:

    * Pauli strings, when the form reads as c·Z^z·X^x for every matrix: a
      few operations per pair (:func:`_string_pair_residuals`);
    * gathers, when every matrix is a partial phased permutation: O(d) per
      pair in blocks of at most ``STACK_BLOCK_ENTRIES`` rows of AᵢAⱼ and
      AⱼAᵢ (:func:`_phased_pair_residuals`);
    * stacked products otherwise, in blocks of at most
      ``STACK_BLOCK_ENTRIES`` entries per matrix.

    The strings and the gathers form the entries of (AᵢAⱼ ± AⱼAᵢ) − c·A[k]
    in the dense order, each product of two entries with the Aᵢ entry
    first, so the strings and the gathers give bit-identical residuals, and
    the dense path does too when every product of entries is exact (as in
    every module the package builds); otherwise it agrees to rounding.
    """
    if form is None:
        return _dense_pair_residuals(mats, i, j, sign, terms)
    strings = _pauli_strings(form)
    if strings is None:
        return _phased_pair_residuals(form, i, j, sign, terms)
    return _string_pair_residuals(strings, i, j, sign, terms)


def _string_pair_residuals(strings: _PauliStrings, i, j, sign: int, terms) -> np.ndarray:
    """:func:`pair_residuals` on Pauli strings.  Row r of AᵢAⱼ is
    p·(−1)^(xᵢ·zⱼ) and of AⱼAᵢ is p·(−1)^(xⱼ·zᵢ), with p = cᵢ·cⱼ, both
    times (−1)^((zᵢ ⊕ zⱼ)·r) at column r ⊕ xᵢ ⊕ xⱼ; so AᵢAⱼ ± AⱼAᵢ is α
    times the string S of (xᵢ ⊕ xⱼ, zᵢ ⊕ zⱼ), and with β = c·c_k the
    residual against c·A[k] is |α − β| when A[k] has the string of S,
    max(|α − β|, |α + β|) when it has the x of S and another z (the rows
    where the two signs differ give α + β), and max(|α|, |β|) otherwise."""
    coef, x, z, parity = strings
    p = coef[i] * coef[j]
    ab = np.where(parity[x[i] & z[j]], -p, p)
    ba = np.where(parity[x[j] & z[i]] ^ (sign < 0), -p, p)
    alpha = ab + ba
    if terms is None:
        return np.abs(alpha)
    k, c = terms
    beta = c * coef[k]
    same_x = x[k] == x[i] ^ x[j]
    same_z = z[k] == z[i] ^ z[j]
    minus = np.abs(alpha - beta)
    return np.where(same_x,
                    np.where(same_z, minus, np.maximum(minus, np.abs(alpha + beta))),
                    np.maximum(np.abs(alpha), np.abs(beta)))


def _phased_pair_residuals(form: PhasedForm, i, j, sign: int, terms) -> np.ndarray:
    """:func:`pair_residuals` by gathers: row r of AᵢAⱼ is vᵢ[r]·vⱼ[cᵢ[r]]
    at column cⱼ[cᵢ[r]], likewise for AⱼAᵢ, and c·A[k] is c·v_k[r] at
    c_k[r], so each row has at most three nonzero entries."""
    cols, vals = form
    out = np.zeros(len(i))
    step = max(1, STACK_BLOCK_ENTRIES // (2 * cols.shape[-1]))
    for lo in range(0, len(i), step):
        bi, bj = i[lo:lo + step], j[lo:lo + step]
        ci, cj = cols[bi], cols[bj]
        c1, ab = cols[bj[:, None], ci], vals[bi] * vals[bj[:, None], ci]
        c2, ba = cols[bi[:, None], cj], vals[bi[:, None], cj] * vals[bj]
        # the dense entries at the ≤ 3 columns hit, in place: ab, ba and rhs
        # end up holding those at c1, c2 and c3, each column counted once
        same = c2 == c1
        if sign < 0:
            np.negative(ba, out=ba)
        np.add(ab, ba, out=ab, where=same)
        if terms is not None:
            k, coef = terms[0][lo:lo + step], terms[1][lo:lo + step]
            c3, rhs = cols[k], coef[:, None] * vals[k]
            on1, on2 = c3 == c1, c3 == c2
            np.subtract(ab, rhs, out=ab, where=on1)
            np.subtract(ba, rhs, out=ba, where=on2)
            rhs[on1 | on2] = 0
        ba[same] = 0
        worst = np.abs(ab)
        np.maximum(worst, np.abs(ba), out=worst)
        if terms is not None:
            np.maximum(worst, np.abs(rhs), out=worst)
        out[lo:lo + step] = worst.max(axis=1)
    return out


def _dense_pair_residuals(mats, i, j, sign: int, terms) -> np.ndarray:
    """:func:`pair_residuals` by stacked d×d products."""
    out = np.zeros(len(i))
    if not len(i):
        return out
    for block in stack_blocks(len(i), mats[0].shape[-1]):
        ai, aj = stack_at(mats, i[block]), stack_at(mats, j[block])
        resid = ai @ aj + aj @ ai if sign > 0 else ai @ aj - aj @ ai
        if terms is not None:
            k, coef = terms[0][block], terms[1][block]
            hit = np.flatnonzero(coef)
            if len(hit):
                resid[hit] -= coef[hit, None, None] * stack_at(mats, k[hit])
        out[block] = max_abs(resid)
    return out


def _first_failure(bad) -> int:
    """Index of the first True entry of a boolean vector, or its length."""
    return int(np.argmax(bad)) if bad.any() else len(bad)


def _check_commuting_involutions(form, mats, squares) -> None:
    """The precondition of :func:`fixed_spaces` on the maps as given: with
    ``mats`` the Lᵢ, then the Rᵢ, then the identity, ``form`` their
    :func:`phased_permutations` answer and ``squares`` the measured
    cᵢ = (Lᵢ²)[0, 0], every map squares to a scalar, Lᵢ² = cᵢ·1 = Rᵢ² with
    cᵢ ≠ 0, and every two commute, LᵢLⱼ = σLⱼLᵢ and RⱼRᵢ = σRᵢRⱼ for one
    σ ∈ {±1}, each pair residual to ``DEFAULT_TOL``, times min(1, |cᵢ|) for a square.

    Raises ValueError for the first failure in the order map i, then its
    pairs (j, i) with j < i ascending.  Two :func:`_form_pair_residuals`
    calls check it all: one with sign +1 on the squares, the pairs (a, a)
    against 2cᵢ times the identity, and on the σ = −1 pairs; one with sign
    −1 on the pairs left.  A sign on any Lᵢ changes neither, so one check
    serves every sign.
    """
    count = len(squares)
    i, j = np.nonzero(np.tri(count, k=-1, dtype=bool))
    maps = np.arange(2 * count)
    # the squares, then the Lᵢ pairs (i, j), then the Rᵢ pairs (j, i)
    a = np.concatenate([maps, i, count + j])
    b = np.concatenate([maps, j, count + i])
    coef = np.zeros(len(a), dtype=complex)
    coef[:count] = coef[count:2 * count] = 2 * squares
    resid = _form_pair_residuals(form, mats, a, b, 1, (np.full(len(a), 2 * count), coef))
    squared = np.maximum(*resid[maps].reshape(2, count)) <= DEFAULT_TOL * np.minimum(1, abs(squares))
    first_bad_map = _first_failure((squares == 0) | ~squared)
    commutes = np.maximum(*resid[2 * count:].reshape(2, -1)) <= DEFAULT_TOL
    todo = np.flatnonzero(~commutes & (i < first_bad_map))
    if len(todo):
        pairs = 2 * count + np.concatenate([todo, len(i) + todo])
        commutes[todo] = np.maximum(*_form_pair_residuals(
            form, mats, a[pairs], b[pairs], -1, None).reshape(2, -1)) <= DEFAULT_TOL
    k = _first_failure(~commutes & (i < first_bad_map))
    if k < len(i):
        raise ValueError(f"fixed_space: maps {j[k]} and {i[k]} do not commute")
    if first_bad_map < count:
        raise ValueError(f"fixed_space: map {first_bad_map} is not an involution")


def _probes(dim: int) -> np.ndarray:
    """``FIXED_SPACE_PROBES`` complex dim×dim probes whose real and imaginary
    parts are the 32-bit signed integers k/2³¹ on [−1, 1), from stdlib
    MT19937 with seed 0."""
    import random  # loaded by numpy already; the probes need no numpy.random

    count = 2 * FIXED_SPACE_PROBES * dim * dim
    words = np.frombuffer(random.Random(0).randbytes(4 * count), dtype="<i4")
    parts = (words * 2.0 ** -31).reshape(2, FIXED_SPACE_PROBES, dim, dim)
    return parts[0] + 1j * parts[1]


def fixed_spaces(lefts, rights, dim: int, signs) -> list:
    """One orthonormal basis (columns: row-major flattened X) per sign s of
    ``signs``, of the dim×dim X with Lᵢ·X = s·X·Rᵢ for every i: the fixed
    space of the maps X ↦ s·Lᵢ⁻¹·X·Rᵢ.  ``lefts`` and ``rights`` are
    iterables of dim×dim matrices, each read once, and no dim²-unknown
    system is formed.

    The maps must be commuting involutions, stated on the matrices as
    given: Lᵢ² = cᵢ·1 = Rᵢ² with cᵢ ≠ 0, and LᵢLⱼ = σLⱼLᵢ, RⱼRᵢ = σRᵢRⱼ.
    Each cᵢ is measured as (Lᵢ²)[0, 0], row 0 of Lᵢ times its column 0,
    and Lᵢ⁻¹ = Lᵢ/cᵢ.  One :func:`phased_permutations` call on the stacked
    Lᵢ, Rᵢ and the identity serves the precondition
    (:func:`_check_commuting_involutions`, run once for all signs; it
    raises ValueError on failure) and the projections: when every matrix
    is a phased permutation the dense copies are dropped and the
    projections are gathers, otherwise d×d products.  A partial phased
    permutation squares to no cᵢ·1, so it fails the precondition.  For
    each sign the projector Πᵢ(1 + Mᵢ)/2 is applied to
    ``FIXED_SPACE_PROBES`` random probes (stdlib MT19937, seed 0; a
    randomized range finder, arXiv:0909.4061) and the images are ranked
    against the probe norm, so an empty space gives no column and a space
    of ``FIXED_SPACE_PROBES`` dimensions or more gives that many.
    """
    lefts = [as_matrix(left) for left in lefts]
    count = len(lefts)
    mats = [*lefts, *map(as_matrix, rights), eye(dim)]
    if len(mats) != 2 * count + 1:
        raise ValueError(f"{count} left and {len(mats) - count - 1} right matrices")
    squares = np.array([left[0] @ left[:, 0] for left in lefts], dtype=complex)
    form = phased_permutations(mats, dim)
    if form is not None:
        lefts = mats = None  # the form holds every entry
    _check_commuting_involutions(form, mats, squares)
    probes = _probes(dim)
    return [_project(form, mats, squares, sign, probes) for sign in signs]


def _project(form, mats, squares, sign: int, probes) -> np.ndarray:
    """The basis of :func:`fixed_spaces` for one sign, from the images of
    the probes under the projectors X ↦ (X + s·Lᵢ⁻¹·X·Rᵢ)/2, with
    Lᵢ⁻¹ = Lᵢ/cᵢ: one gather each on the ``form`` when there is one, two
    products each on ``mats`` otherwise."""
    count, dim = len(squares), probes.shape[-1]
    images = probes
    if form is None:
        for left, right, square in zip(mats, mats[count:], squares):
            images = 0.5 * (images + (sign / square * left) @ images @ right)
    else:
        cols, vals = form
        lc, lv = cols[:count], sign / squares[:, None] * vals[:count]
        # (X·R)[:, c] = X[:, r]·R[r, c] for the one row r = rows[c] of column c
        rows = _phased_rows(cols[count:2 * count])
        rv = vals[count:2 * count][_stack_index(rows), rows]
        for k in range(count):
            images = 0.5 * (images + lv[k, :, None] * rv[k] * images[:, lc[k, :, None], rows[k]])
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
        if not unitarity_residual(k) <= 1e-8:  # so a NaN residual is refused too
            raise ValueError("AntilinearOp: matrix part is not unitary")
        object.__setattr__(self, "matrix", frozen(k))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def compose(self, other: "AntilinearOp") -> np.ndarray:
        """Matrix of the linear map self∘other (antilinear twice = linear)."""
        return self.matrix @ np.conj(other.matrix)

    def square(self) -> np.ndarray:
        return self.compose(self)

    def square_sign(self, tol: float = DEFAULT_TOL):
        """The sign ε ∈ {+1, −1} with J² = ε·I, or None if neither fits."""
        sq = self.square()
        for sign in (1, -1):
            if max_abs(sq - sign * eye(self.dim)) < tol:
                return sign
        return None

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
