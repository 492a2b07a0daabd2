"""Irreducible unitary Clifford modules over real signatures (p, q).

Conventions, fixed project-wide:

* the metric is diagonal with the first p entries +1 and the last q
  entries −1;
* the gamma matrices come from a deterministic tensor chain of Pauli
  matrices (see :func:`build_irrep`), so identical inputs give
  bit-identical modules;
* the product element multiplies the gammas in increasing index order;
* for odd n the two inequivalent modules ("branches") differ only in the
  sign of the last gamma.  The chirality scalar flips with the branch but
  its absolute phase relative to the branch depends on the signature.

The structure maps are the chirality operator, the antilinear real
structure J with J² = ε, Jγᵃ = ε′γᵃJ, Jγ = ε″γJ, and for even s the
hatted variant Ĵ = J∘P which anticommutes with every gamma.  The signs
(ε, ε′, ε″) depend only on s = (q − p) mod 8 and are tabulated in
``SIGN_TABLE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    AntilinearOp,
    eye,
    fixed_spaces,
    fold_max,
    frozen,
    kron,
    kron_all,
    max_abs,
    pair_residuals,
    phase_normalize,
    unitarity_residual,
)
from .report import Report

PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)

# sign table indexed by s = (q - p) mod 8
_EPS = (1, 1, -1, -1, -1, -1, 1, 1)
_EPS_PRIME = (1, -1, 1, 1, 1, -1, 1, 1)
_EPS_DPRIME = (1, 1, -1, 1, 1, 1, -1, 1)


class SignTriple(NamedTuple):
    """The signs (ε, ε′, ε″); ε″ is None where there is no chirality grading,
    and a measured sign is None where neither +1 nor −1 fits."""

    eps: Optional[int]
    eps_prime: Optional[int]
    eps_double_prime: Optional[int]


def sign_triple(s: int) -> SignTriple:
    """Sign-table row for s mod 8 (ε″ reported only for even s)."""
    s = s % 8
    eps_dd = _EPS_DPRIME[s] if s % 2 == 0 else None
    return SignTriple(_EPS[s], _EPS_PRIME[s], eps_dd)


SIGN_TABLE = {s: sign_triple(s) for s in range(8)}

#: largest module dimension 2^⌊n/2⌋ admitted (n ≤ 15): a module and its
#: so_generators take 838 MB RSS at d = 512, but the Casimir of ``verify
#: brackets`` memoizes 2^(n−1) d×d matrices, 2 GB at n = 14, 34 GB at n = 16
MAX_MODULE_DIM = 128


def check_module_dim(n: int) -> None:
    """Refuse n generators whose module dimension 2^⌊n/2⌋ is above
    ``MAX_MODULE_DIM``, comparing exponents so no huge integer is formed."""
    if n // 2 > MAX_MODULE_DIM.bit_length() - 1:
        raise ValueError(f"module dimension 2^{n // 2} (n = {n}) is above the limit {MAX_MODULE_DIM}")


@dataclass(frozen=True)
class Signature:
    """Signature (p, q): p generators square to +1, q to −1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("signature counts must be nonnegative")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def s(self) -> int:
        return (self.q - self.p) % 8

    @property
    def metric(self) -> np.ndarray:
        """Diagonal of the metric, canonical order (+1)^p then (−1)^q."""
        return np.array([1] * self.p + [-1] * self.q, dtype=int)


def as_signature(sig) -> Signature:
    if isinstance(sig, Signature):
        return sig
    p, q = sig
    return Signature(int(p), int(q))


@dataclass(frozen=True)
class CliffordModule:
    """An irreducible unitary Clifford module and its structure maps.

    Fields: the generating gamma matrices, their ordered product P, the
    chirality operator, the real structure J and (even s only) Ĵ = J∘P.
    """

    signature: Signature
    branch: int
    gammas: tuple
    P: np.ndarray
    chirality: np.ndarray
    J: AntilinearOp
    Jhat: Optional[AntilinearOp]

    @property
    def dim(self) -> int:
        return self.P.shape[0]

    @property
    def n(self) -> int:
        return self.signature.n

    @property
    def s(self) -> int:
        return self.signature.s

    @property
    def eta(self) -> np.ndarray:
        return self.signature.metric


def gamma_chain(sig, branch: int = 1) -> list:
    """Deterministic gamma matrices for the signature.

    The Hermitian chain on m = ⌊n/2⌋ qubit factors is

        g_{2k+1} = s3^{⊗k} ⊗ s1 ⊗ 1,   g_{2k+2} = s3^{⊗k} ⊗ s2 ⊗ 1,

    with branch·s3^{⊗m} appended when n is odd.  The first p entries stay
    Hermitian; the remaining q are multiplied by i, so the metric comes out
    in canonical order.
    """
    sig = as_signature(sig)
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    n, m = sig.n, sig.n // 2
    gs = []
    for k in range(m):
        pre = kron_all([PAULI_3] * k)
        post = eye(2 ** (m - k - 1))
        gs.append(kron(kron(pre, PAULI_1), post))
        gs.append(kron(kron(pre, PAULI_2), post))
    if n % 2 == 1:
        gs.append(branch * kron_all([PAULI_3] * m))
    return [g if a < sig.p else 1j * g for a, g in enumerate(gs)]


def product_of(gammas, dim: int | None = None) -> np.ndarray:
    """Ordered product g[0]·g[1]·…; the empty product is the identity."""
    if not len(gammas):
        if dim is None:
            raise ValueError("dim is required for an empty gamma list")
        return eye(dim)
    out = np.asarray(gammas[0], dtype=complex)
    for g in gammas[1:]:
        out = out @ g
    return out


def chirality_phase(s: int) -> complex:
    """The unit i^{s(s+1)/2} rescaling the product element to square to +1."""
    return 1j ** ((s % 8) * ((s % 8) + 1) // 2 % 4)


def build_irrep(sig, branch: int = 1) -> CliffordModule:
    """Construct the irreducible unitary module of dimension 2^⌊n/2⌋.

    Deterministic: identical inputs give bit-identical gamma matrices, and
    the real structure is the closed-form, phase-normalized representative
    of the (unique up to phase) antilinear solution.  No system is solved;
    ``MAX_MODULE_DIM`` is checked before any gamma is built.
    """
    sig = as_signature(sig)
    check_module_dim(sig.n)
    gammas = gamma_chain(sig, branch)
    dim = 2 ** (sig.n // 2)
    prod = product_of(gammas, dim)
    chir = chirality_phase(sig.s) * prod
    j = closed_form_real_structure(gammas, sign_triple(sig.s).eps_prime, dim)
    jhat = j.after_linear(prod) if sig.s % 2 == 0 else None
    return CliffordModule(
        signature=sig,
        branch=branch,
        gammas=tuple(frozen(g) for g in gammas),
        P=frozen(prod),
        chirality=frozen(chir),
        J=j,
        Jhat=jhat,
    )


def closed_form_real_structure(gammas, eps_prime: int, dim: int) -> AntilinearOp:
    """J with K·conj(γᵃ) = ε′γᵃK, by charge conjugation (Van Proeyen,
    *Tools for supersymmetry*, hep-th/9910030).

    For gammas that are each purely real or purely imaginary, K is the
    ordered product of the k real ones (ε′ = (−1)^(k−1)) or of the l
    imaginary ones (ε′ = (−1)^l); the empty product is the identity.  The
    candidate with the wanted ε′ is phase-normalized so that its first
    nonzero entry (row-major) is +1; with entries in {0, ±1, ±i} it is
    exactly unitary, so no SVD or polar step is needed.  Raises ValueError
    when no candidate satisfies the relation on every gamma.
    """
    gammas = [np.asarray(g, dtype=complex) for g in gammas]
    real = [g for g in gammas if not g.imag.any()]
    imag = [g for g in gammas if not g.real.any()]
    for factors, sign in ((real, (-1) ** (len(real) - 1)), (imag, (-1) ** len(imag))):
        if sign != eps_prime:
            continue
        j = AntilinearOp(phase_normalize(product_of(factors, dim)).reshape(dim, dim))
        if all(j.commutation_residual(g, eps_prime) < DEFAULT_TOL for g in gammas):
            return j
    raise ValueError(f"no closed-form real structure with eps' = {eps_prime}: "
                     "the gammas are not each purely real or purely imaginary")


def hatted_real_structure(m: CliffordModule) -> AntilinearOp:
    """Ĵ = J∘P, the second real structure; defined for even s only."""
    if m.s % 2 != 0:
        raise ValueError("the hatted real structure exists only for even s")
    return m.J.after_linear(m.P)


def clifford_residual(gammas, eta) -> float:
    """max-abs deviation from γᵃγᵇ + γᵇγᵃ = 2ηᵃᵇ·1 over all index pairs.

    One :func:`linalg.pair_residuals` call over the pairs a ≥ b (the
    anticommutator is symmetric) of the gammas with the identity appended,
    which is the right-hand side 2ηᵃ·1 of the pairs a = b.
    """
    if len(gammas) == 0:
        return 0.0
    n, dim = len(gammas), gammas[0].shape[0]
    mats = [*gammas, eye(dim)]
    a, b = np.nonzero(np.tri(n, dtype=bool))
    terms = np.full(len(a), n), np.where(a == b, 2 * np.asarray(eta)[a], 0)
    return fold_max(0.0, pair_residuals(mats, a, b, 1, terms))


def hermiticity_residual(m: CliffordModule) -> float:
    """Gammas must be Hermitian up to index p and anti-Hermitian after."""
    return fold_max(0.0, [max_abs(g.conj().T - (1 if a < m.signature.p else -1) * g)
                          for a, g in enumerate(m.gammas)])


def measure_sign_triple(m: CliffordModule, tol: float = DEFAULT_TOL):
    """Measure (ε, ε′, ε″) of the module's real structure directly.

    ε′ is found, independently of the sign table, by testing which signs s
    admit a one-dimensional space of K with γᵃ·K = s·K·conj(γᵃ), that is
    K·conj(γᵃ) = s·γᵃ·K: one :func:`linalg.fixed_spaces` call gives both
    spaces.  For even n both signs do (J and Ĵ) and the real structure is
    the commuting one; for odd n exactly one does.  J for the measured ε′ is
    then taken in closed form (:func:`closed_form_real_structure`), and ε
    and ε″ are read off it; returns the triple and that J.  Raises
    ValueError for gammas that are not anticommuting involutions, admit the
    wrong signs or miss the closed form.
    """
    # a generator, so the conjugates are freed once fixed_spaces has detected them
    spaces = fixed_spaces(m.gammas, (np.conj(g) for g in m.gammas), m.dim, (1, -1))
    solvable = [sign for sign, basis in zip((1, -1), spaces) if basis.shape[1] == 1]
    if not solvable:
        raise ValueError("no antilinear structure found for either sign pattern")
    if m.n % 2 == 0:
        if 1 not in solvable:
            raise ValueError("even-dimensional module without a commuting real structure")
        eps_prime = 1
    else:
        if len(solvable) != 1:
            raise ValueError("odd module admits both sign patterns; construction is inconsistent")
        eps_prime = solvable[0]
    j = closed_form_real_structure(m.gammas, eps_prime, m.dim)
    eps = j.square_sign(tol)
    eps_dd = j.commutation_sign(m.chirality, tol) if m.s % 2 == 0 else None
    return SignTriple(eps, eps_prime, eps_dd), j


def module_residuals(m: CliffordModule) -> dict:
    """Defining-relation residuals of a constructed module."""
    res = {
        "clifford": clifford_residual(m.gammas, m.eta),
        "unitarity": fold_max(0.0, [unitarity_residual(g) for g in m.gammas]),
        "hermiticity_split": hermiticity_residual(m),
        "product_square": max_abs(
            m.P @ m.P - (-1.0) ** (m.s * (m.s + 1) // 2) * eye(m.dim)),
        "chirality_square": max_abs(m.chirality @ m.chirality - eye(m.dim)),
        "chirality_hermitian": max_abs(m.chirality.conj().T - m.chirality),
        "j_unitarity": unitarity_residual(m.J.matrix),
    }
    eps, eps_prime, eps_dd = sign_triple(m.s)
    res["j_square"] = max_abs(m.J.square() - eps * eye(m.dim))
    res["j_gamma"] = fold_max(
        0.0, [m.J.commutation_residual(g, eps_prime) for g in m.gammas])
    if eps_dd is not None:
        res["j_chirality"] = m.J.commutation_residual(m.chirality, eps_dd)
    if m.Jhat is not None:
        res["jhat_square"] = max_abs(m.Jhat.square() - eps_dd * eps * eye(m.dim))
        res["jhat_gamma"] = fold_max(
            0.0, [m.Jhat.commutation_residual(g, -1) for g in m.gammas])
        res["jhat_chirality"] = m.Jhat.commutation_residual(m.chirality, eps_dd)
    return res


def verify_module_signs(max_n: int, tol: float = DEFAULT_TOL):
    """Measure the sign triple for every (p, q) with p + q ≤ max_n.

    Both branches are checked when n is odd.  Returns a Report whose
    details carry the per-signature measured and expected rows; failures
    are reported, never raised (perturbed gammas give a failed row).  A row
    whose measurement raised carries the ValueError text under ``error``.
    Raises ValueError when max_n < 1 and, before any module is built, when
    the largest module is above ``MAX_MODULE_DIM``.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    check_module_dim(max_n)
    details = []
    worst = 0.0
    all_ok = True
    for n in range(max_n + 1):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for branch in ((1,) if n % 2 == 0 else (1, -1)):
                m = build_irrep(sig, branch)
                expected = sign_triple(sig.s)
                res = module_residuals(m)
                row_max = fold_max(0.0, list(res.values()))
                failure = {}
                try:
                    measured, _ = measure_sign_triple(m, tol)
                except ValueError as exc:
                    measured, failure = None, {"error": str(exc)}
                ok = measured == expected and row_max < tol
                all_ok = all_ok and ok
                worst = fold_max(worst, row_max)
                details.append({
                    "p": sig.p, "q": sig.q, "branch": branch, "s": sig.s,
                    "measured": list(measured) if measured else None,
                    "expected": list(expected),
                    "max_residual": row_max,
                    "passed": ok,
                    **failure,
                })
    return Report(
        name=f"sign-table(max_n={max_n})",
        passed=all_ok,
        max_residual=worst,
        tolerance=tol,
        details=details,
    )
