"""Per-pair dense loops, the independent references of the pairwise checks.

``linalg.pair_residuals`` evaluates the Clifford relations, the so(p,q)
brackets, the commutation precondition of ``fixed_spaces``, the order
conditions and the Spin(10) mixed-generator commutators for many pairs at
once, by gathers or by stacked products.  These loops take one pair at a
time with plain d×d products, as the package did before, and the tests
compare the package against them bit for bit.
"""

import math

import numpy as np

from cliffspin.linalg import DEFAULT_TOL, commutator, eye, fold_max, max_abs


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


def loop_mixed_min(mixed, la):
    """The least max-abs of [T, l(a)] over the mixed generators T, one at a
    time; a NaN anywhere gives NaN."""
    values = [max_abs(commutator(t, la)) for t in mixed]
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
