"""The phased-permutation kernel of ``linalg`` against the dense code it
stands in for.

The gammas of the Jordan–Wigner chain and their quadratic monomials are
phased permutations, so ``fixed_spaces`` (the sign measurement and the
intertwiner search: precondition and projections) and ``pair_residuals``
(Clifford residual, bracket table) run on gathers, and every pair check,
the precondition of ``fixed_spaces`` among them, reads Pauli strings off
the gathered form where every matrix is one.  Each makes its one detector
call itself; making the string reader answer None sends phased input
through the gathers, and making the detector answer None sends the same
input through the dense code, which must agree in every rank, verdict,
error text and residual.  Faulted modules must give the same FAIL or the same
error on every path, no RuntimeWarning on any, and the pairwise checks of
every path must equal the per-pair loops of ``dense_reference``."""

import contextlib
import dataclasses
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffspin import cli, clifford, commuting, liealg, linalg
from cliffspin.clifford import (
    build_irrep,
    clifford_residual,
    measure_sign_triple,
    verify_module_signs,
)
from cliffspin.commuting import build_commuting, commutation_residual
from cliffspin.liealg import (
    SoRepresentation,
    bracket_residual_table,
    find_intertwiner,
    flipped_representation,
    intertwiner_residual,
    so_generators,
    weyl_pieces,
)
from cliffspin.linalg import (
    DEFAULT_TOL,
    fixed_spaces,
    max_abs,
    null_space,
    pair_residuals,
    phased_permutations,
)
from dense_reference import (
    loop_bracket_table,
    loop_clifford_residual,
    loop_pair_residuals,
    loop_precondition_failure,
)

#: every module with n ≤ 10, both branches for odd n
MODULES_10 = [(p, n - p, branch) for n in range(11) for p in range(n + 1)
              for branch in ((1,) if n % 2 == 0 else (1, -1))]


def dense_only():
    """The detector answers None, so only the dense code runs."""
    return mock.patch.object(linalg, "phased_permutations", return_value=None)


def gathers_only():
    """The string reader answers None, so phased input takes the gathers."""
    return mock.patch.object(linalg, "_pauli_strings", return_value=None)


def outcome(f, *args, **kwargs):
    """What f returns, or the text of the ValueError it raises."""
    try:
        return "returned", f(*args, **kwargs)
    except ValueError as exc:
        return "raised", str(exc)


def paths():
    """The path the detector picks, the gathers and the dense code."""
    return contextlib.nullcontext(), gathers_only(), dense_only()


def every_path(f, *args, **kwargs):
    """The ``outcome`` of f on each of :func:`paths`."""
    outcomes = []
    for context in paths():
        with context:
            outcomes.append(outcome(f, *args, **kwargs))
    return tuple(outcomes)


def same_on_every_path(f, *args, **kwargs):
    """The ``outcome`` of f, the same (by ==) on each of :func:`paths`."""
    first, *rest = every_path(f, *args, **kwargs)
    assert all(other == first for other in rest)
    return first


def same_float(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def sign_outcome(m):
    """The measured triple and J of a module, or the error text."""
    kind, value = outcome(measure_sign_triple, m)
    if kind == "raised":
        return kind, value
    triple, j = value
    return kind, tuple(triple), j.matrix.tobytes()


def sign_spaces(gammas, dim):
    """The ranks of the sign measurement's two fixed spaces, of the K with
    γᵃ·K = s·K·conj(γᵃ) for s = 1 and s = −1."""
    return [basis.shape[1] for basis in
            fixed_spaces(gammas, np.conj(gammas), dim, (1, -1))]


def intertwiner_space(rep):
    """The rank of the intertwiner search's fixed space of a representation
    with itself, the W with 2T⁰ᵃ·W = W·2T⁰ᵃ."""
    gens = [2 * rep.t(0, a) for a in range(1, rep.n)]
    return fixed_spaces(gens, gens, rep.dim, (1,))[0].shape[1]


def is_phased(mats, dim) -> bool:
    return phased_permutations(mats, dim) is not None


def unitary(dim):
    """A fixed dense unitary, to conjugate the chain off the phased form."""
    k = np.arange(dim * dim).reshape(dim, dim)
    return np.linalg.qr(np.cos(k) + 1j * np.sin(k ** 2))[0]


class TestDetector:
    def test_reads_the_form_of_a_stack(self):
        g = np.array([[0, 2j], [-1, 0]])
        cols, vals = phased_permutations([g, np.eye(2)], 2)
        assert cols.tolist() == [[1, 0], [0, 1]]
        assert vals.tolist() == [[2j, -1], [1, 1]]

    @pytest.mark.parametrize("g", [
        [[1, 1], [0, 1]],          # two nonzeros in a row
        [[1, 0], [1, 0]],          # a column hit twice, one missing
        [[0, 0], [1, 1]],          # a zero row leaves no room for two in another
        [[np.nan, 0], [0, 1]],     # not finite
        [[np.inf, 0], [0, 1]],
        [[1, 1e-300], [0, 1]],     # no tolerance: a tiny entry counts
    ])
    def test_refuses_anything_else(self, g):
        assert phased_permutations([np.eye(2), g], 2) is None

    def test_reads_partial_forms(self):
        # at most one nonzero per row and per column: a zero row reads as
        # value 0 at column 0, and the zero matrix is a form too
        cols, vals = phased_permutations([[[0, 0], [0, 1]], np.zeros((2, 2))], 2)
        assert cols.tolist() == [[0, 1], [0, 0]]
        assert vals.tolist() == [[0, 1], [0, 0]]

    def test_refuses_the_wrong_size(self):
        assert phased_permutations([np.eye(3)], 2) is None
        assert phased_permutations(np.eye(2), 2) is None

    def test_empty_and_blocked_stacks(self):
        cols, vals = phased_permutations([], 4)
        assert cols.shape == vals.shape == (0, 4)
        # d = 64 puts two matrices in a block; a fault in the last block
        # is still seen
        mats = list(build_irrep((0, 12)).gammas)
        assert linalg.STACK_BLOCK_ENTRIES // 64 ** 2 == 2
        assert phased_permutations(mats, 64) is not None
        mats[-1] = mats[-1] + 1e-6 * np.eye(64)
        assert phased_permutations(mats, 64) is None


@pytest.mark.parametrize("p, q, branch", MODULES_10)
def test_sign_measurement_agrees_with_the_dense_path(p, q, branch):
    m = build_irrep((p, q), branch)
    assert is_phased([*m.gammas, *np.conj(m.gammas)], m.dim)
    kind, ranks = same_on_every_path(sign_spaces, m.gammas, m.dim)
    assert kind == "returned" and sorted(ranks) == ([1, 1] if m.n % 2 == 0 else [0, 1])
    _, (kind, triple, _) = same_on_every_path(sign_outcome, m)
    assert kind == "returned" and triple == tuple(clifford.sign_triple(m.s))
    assert same_on_every_path(clifford_residual, m.gammas, m.eta) == ("returned", 0.0)


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(2, 11, 2) for p in range(n + 1)])
def test_intertwiner_search_agrees_with_the_dense_path(p, q):
    m = build_irrep((p, q))
    rep = so_generators(m)
    plus, minus = weyl_pieces(m)
    assert same_on_every_path(find_intertwiner, plus, minus) == ("returned", None)
    for kind, w in every_path(find_intertwiner, rep, rep):
        assert kind == "returned" and w is not None
        assert intertwiner_residual(w, rep, rep) < 1e-10
    # every path ranks the same fixed space of the 2T⁰ᵃ maps: the span of
    # the identity and the chirality, one scalar on each Weyl piece
    assert is_phased([2 * rep.t(0, a) for a in range(1, rep.n)], rep.dim)
    assert same_on_every_path(intertwiner_space, rep) == ("returned", 2)
    # a unitary conjugate of the representation takes the dense path and is
    # found equivalent to it
    u = unitary(rep.dim)
    conjugated = SoRepresentation(eta=rep.eta, mats=[u @ g @ u.conj().T for g in rep.mats])
    assert not is_phased(conjugated.mats, rep.dim)
    w = find_intertwiner(rep, conjugated)
    assert w is not None and intertwiner_residual(w, rep, conjugated) < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_first_failure_is_named_alike_on_both_paths(seed):
    # diagonal sign matrices commute, a swap of neighbours does not commute
    # with most of them, and a halved left matrix is no involution; at
    # d = 64 the dense check takes its pairs in blocks of 8
    rng = np.random.default_rng(seed)
    dim = 64
    diag = [np.diag(rng.choice([-1.0, 1.0], size=dim)).astype(complex) for _ in range(12)]
    lefts, rights = list(diag), list(diag)
    swap = np.eye(dim, dtype=complex)[np.arange(dim) ^ 1]
    for k in rng.choice(np.arange(2, 12), size=rng.integers(1, 4), replace=False):
        if rng.random() < 0.6:
            lefts[k] = rights[k] = swap
        else:
            lefts[k] = 0.5 * diag[k]
    assert is_phased(lefts + rights, dim)
    expected = loop_precondition_failure(lefts, rights, dim)
    assert all(verdict(result) == expected for result in every_path(
        fixed_spaces, lefts, rights, dim, (1, -1)))


def verdict(result):
    """The ValueError text of an ``outcome``, or None when it returned."""
    kind, value = result
    return value if kind == "raised" else None


#: Pauli strings whose squares cᵢ are not ±1, so that Lᵢ⁻¹ = Lᵢ/cᵢ is no
#: ±Lᵢ: every module gamma has cᵢ = ±1 and would not see a wrong scale
S1, S3 = clifford.PAULI_1, clifford.PAULI_3
NON_UNIT_SQUARES = [
    ([2 * S1, S3], [2 * S1, S3]),
    ([(1 + 1j) * S1, 2j * S3], [(1 + 1j) * S1, 2j * S3]),
    ([np.kron(2 * S1, S3), np.kron(S3, 0.5j * S1), 3 * np.kron(S1, S1)],) * 2,
]


@pytest.mark.parametrize("lefts, rights", NON_UNIT_SQUARES)
def test_non_unit_squares_match_the_null_space_on_every_path(lefts, rights):
    # the X with Lᵢ·X = s·X·Rᵢ, row-major: (Lᵢ ⊗ 1 − s·1 ⊗ Rᵢᵀ)·vec(X) = 0
    dim = len(lefts[0])
    ident = np.eye(dim)
    assert reads_as_strings([*lefts, *rights, ident])
    for sign in (1, -1):
        dense = null_space(np.vstack([np.kron(left, ident) - sign * np.kron(ident, right.T)
                                      for left, right in zip(lefts, rights)]))
        for kind, (basis,) in every_path(fixed_spaces, lefts, rights, dim, (sign,)):
            assert kind == "returned" and basis.shape == dense.shape
            assert max_abs(basis @ basis.conj().T - dense @ dense.conj().T) < 1e-12


@pytest.mark.parametrize("lefts, rights", [
    ([2 * S1, S3], [S1, S3]),            # R₀² = 1, not c₀ = 4
    ([S3, 2 * S1], [S3, 2j * S1]),       # R₁² = −4, not c₁ = 4
    ([2 * S1, 2 * S3], [2 * S1, 2 * S1]),
    ([2j * S3, 0.5 * S1], [2j * S3, 0.5 * S1]),
])
def test_non_unit_squares_are_named_as_the_loop_names_them(lefts, rights):
    # the loop inverts with np.linalg.inv and checks L⁻², the package
    # checks the squares of the maps as given: one verdict
    expected = loop_precondition_failure(lefts, rights, 2)
    assert all(verdict(result) == expected
               for result in every_path(fixed_spaces, lefts, rights, 2, (1, -1)))


def nan_entry(m):
    g = np.array(m.gammas[0])
    g[0, 0] = np.nan
    return dataclasses.replace(m, gammas=(g, *m.gammas[1:]))


def times_i(m):
    return dataclasses.replace(m, gammas=(*m.gammas[:-1], 1j * m.gammas[-1]))


def swapped(m):
    # the first and the last gamma square to +1 and −1: the swap breaks the
    # metric, where a swap within one sign would be an automorphism
    gs = list(m.gammas)
    gs[0], gs[-1] = gs[-1], gs[0]
    return dataclasses.replace(m, gammas=tuple(gs))


def perturbed(m):
    noise = 1e-6 * np.cos(np.arange(m.dim * m.dim)).reshape(m.dim, m.dim)
    return dataclasses.replace(m, gammas=(m.gammas[0] + noise, *m.gammas[1:]))


#: faults and whether the faulted gammas are still phased permutations
FAULTS = {"nan-entry": (nan_entry, False), "gamma-times-i": (times_i, True),
          "swapped-gammas": (swapped, True), "perturbed-1e-6": (perturbed, False)}
FAULT_SIGNATURES = [(1, 1), (1, 2), (2, 2), (3, 2), (1, 5), (4, 4), (3, 6)]


#: a warning fails the test: the NaN fault reaches the dense checks, which
#: must fail it without a RuntimeWarning
NO_WARNING = pytest.mark.filterwarnings("error")


@NO_WARNING
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("pq", FAULT_SIGNATURES)
def test_faults_give_the_same_verdict_on_both_paths(fault, pq):
    make, still_phased = FAULTS[fault]
    m = make(build_irrep(pq))
    # a fault that leaves no phased permutation reaches the dense fallback
    assert (phased_permutations(m.gammas, m.dim) is not None) == still_phased
    same_on_every_path(sign_spaces, m.gammas, m.dim)
    same_on_every_path(sign_outcome, m)
    residuals = [value for _, value in every_path(clifford_residual, m.gammas, m.eta)]
    assert all(same_float(value, residuals[0]) for value in residuals)
    assert not residuals[0] < 1e-10


@NO_WARNING
@pytest.mark.parametrize("p, q, branch", [(p, q, b) for p, q, b in MODULES_10 if p and q])
def test_every_faulted_module_to_n_10_agrees_on_both_paths(p, q, branch):
    # every fault of every module with both metric signs: on the strings,
    # the gathers and the dense code, the same ranks or error texts of the
    # sign measurement's fixed spaces, the same measured triple or error,
    # and for even n the same intertwiner verdict
    for make, _ in FAULTS.values():
        m = make(build_irrep((p, q), branch))
        same_on_every_path(sign_spaces, m.gammas, m.dim)
        same_on_every_path(sign_outcome, m)
        if m.n % 2 == 0:
            rep = so_generators(m)
            found = every_path(find_intertwiner, rep, rep)
            assert len({(verdict(result), result[1] is None) for result in found}) == 1


@NO_WARNING
@pytest.mark.parametrize("p, q, branch", [(p, q, b) for p, q, b in MODULES_10 if p and q])
def test_a_nan_row_names_its_map_on_both_paths(p, q, branch):
    # a NaN row of γ₁ makes its measured square NaN, and the precondition
    # names map 1 on every path, without a RuntimeWarning
    m = build_irrep((p, q), branch)
    g = np.array(m.gammas[1])
    g[0, :] = np.nan
    m = dataclasses.replace(m, gammas=(m.gammas[0], g, *m.gammas[2:]))
    expected = ("raised", "fixed_space: map 1 is not an involution")
    assert every_path(sign_spaces, m.gammas, m.dim) == (expected,) * 3
    assert every_path(measure_sign_triple, m) == (expected,) * 3


@NO_WARNING
@pytest.mark.parametrize("fault", FAULTS)
def test_faulted_sign_reports_fail_alike(fault):
    make, _ = FAULTS[fault]
    real_build = clifford.build_irrep

    def faulted(sig, branch=1):
        m = real_build(sig, branch)
        return make(m) if m.signature.p and m.signature.q else m

    texts = []
    for context in paths():
        with context, mock.patch.object(clifford, "build_irrep", faulted):
            texts.append(json.dumps(verify_module_signs(4).to_dict()))
    assert texts[1:] == texts[:1] * 2
    report = json.loads(texts[0])
    assert not report["passed"]
    failed = {(d["p"], d["q"]) for d in report["details"] if not d["passed"]}
    assert failed == {(p, n - p) for n in range(2, 5) for p in range(1, n)}


def pair_paths(f, *args):
    """What f returns on the path ``pair_residuals`` picks, under
    :func:`gathers_only` and under :func:`dense_only`, as float arrays."""
    values = []
    for context in paths():
        with context:
            values.append(np.asarray(f(*args), dtype=float))
    return values


def assert_pairwise_checks_match_the_loops(gammas, eta, rep):
    """clifford_residual, the bracket table and the precondition verdict of
    the sign maps, on every path, equal the per-pair loops bit for bit."""
    reference = loop_clifford_residual(gammas, eta)
    for value in pair_paths(clifford_residual, gammas, eta):
        assert same_float(float(value), reference)
    reference = loop_bracket_table(rep)
    for table in pair_paths(bracket_residual_table, rep):
        assert np.array_equal(table, reference, equal_nan=True)
    dim, conj = rep.dim, np.conj(gammas)
    expected = loop_precondition_failure(gammas, conj, dim)
    assert all(verdict(result) == expected for result in every_path(
        fixed_spaces, gammas, conj, dim, (1, -1)))


class TestPairResiduals:
    """``linalg.pair_residuals``, and the three checks made of it, against
    the per-pair loops of ``dense_reference`` on both paths."""

    @pytest.mark.parametrize("p, q, branch", MODULES_10)
    def test_every_module_to_n_10(self, p, q, branch):
        # the gammas with the identity and both generator stacks read as
        # Pauli strings, and the flipped table matches its loop too
        m = build_irrep((p, q), branch)
        rep = so_generators(m)
        assert_pairwise_checks_match_the_loops(list(m.gammas), m.eta, rep)
        flipped = flipped_representation(rep)
        reference = loop_bracket_table(flipped)
        for table in pair_paths(bracket_residual_table, flipped):
            assert np.array_equal(table, reference)
        if m.n:
            assert reads_as_strings([*m.gammas, np.eye(m.dim)])
        if m.n > 1:
            assert reads_as_strings(rep.mats) and reads_as_strings(flipped.mats)

    @pytest.mark.parametrize("sig1, sig2", cli.DEFAULT_PAIRS)
    def test_combined_generators_of_the_default_pairs(self, sig1, sig2):
        # the two commuting families together: pairs across them commute
        # (σ = +1), pairs within one anticommute (σ = −1)
        ca = build_commuting(sig1, sig2)
        gammas = [*ca.gamma1, *ca.gamma2]
        eta = np.concatenate([ca.mod1.eta, ca.mod2.eta])
        assert_pairwise_checks_match_the_loops(gammas, eta, ca.generators)
        assert loop_clifford_residual(gammas, eta) > 1.0

    @NO_WARNING
    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("pq", FAULT_SIGNATURES)
    def test_faults(self, fault, pq):
        make, _ = FAULTS[fault]
        m = make(build_irrep(pq))
        assert_pairwise_checks_match_the_loops(list(m.gammas), m.eta, so_generators(m))

    @pytest.mark.parametrize("seed, dim", [(seed, dim) for seed in range(6) for dim in (1, 3, 8)])
    def test_random_phased_permutations(self, seed, dim):
        # random columns put AᵢAⱼ, AⱼAᵢ and A[k] on any columns of a row;
        # power-of-two magnitudes keep every product and sum exact
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(5):
            g = np.zeros((dim, dim), dtype=complex)
            g[np.arange(dim), rng.permutation(dim)] = (
                2.0 ** rng.integers(-3, 4, dim) * rng.choice([1, -1, 1j, -1j], dim))
            mats.append(g)
        i, j, k = rng.integers(0, 5, (3, 40))
        coef = rng.choice([0, 1, -1, 2, -0.5], 40)
        assert is_phased(mats, dim)
        for sign in (1, -1):
            for terms in (None, (k, coef)):
                reference = loop_pair_residuals(mats, i, j, sign, terms)
                for value in pair_paths(pair_residuals, mats, i, j, sign, terms):
                    assert np.array_equal(value, reference)

    def test_scalars_commute_exactly_on_both_paths(self):
        # 1×1 matrices are phased permutations with inexact products, and a
        # complex multiply need not commute bit for bit; the phased path
        # forms AᵢAⱼ and AⱼAᵢ with the Aᵢ entry first, so a·b − b·a is
        # exactly 0.0, as on the dense path
        rng = np.random.default_rng(23)
        mats = list(rng.standard_normal((400, 1, 1)) + 1j * rng.standard_normal((400, 1, 1)))
        i, j = np.arange(0, 400, 2), np.arange(1, 400, 2)
        assert is_phased(mats, 1)
        for value in pair_paths(pair_residuals, mats, i, j, -1, None):
            assert value.shape == (200,) and np.all(value == 0.0)

    def test_blocks_and_empty_pairs(self):
        # d = 128 puts 32 of the 91 pairs in a phased block (2d gathered
        # rows each), and one in a dense one
        mats = list(build_irrep((0, 14)).gammas)
        i, j = np.triu_indices(14, 1)
        assert is_phased(mats, 128)
        assert linalg.STACK_BLOCK_ENTRIES // (2 * 128) == 32 < len(i)
        reference = loop_pair_residuals(mats, i, j, 1, None)
        assert np.all(reference == 0.0)
        for value in pair_paths(pair_residuals, mats, i, j, 1, None):
            assert np.array_equal(value, reference)
        for value in pair_paths(pair_residuals, mats, i[:0], j[:0], -1, None):
            assert value.shape == (0,)


def reads_as_strings(mats) -> bool:
    form = phased_permutations(mats, np.shape(mats[0])[-1])
    return form is not None and linalg._pauli_strings(form) is not None


def assert_bit_equal(values):
    """Every array of ``values`` has the bits of the first."""
    assert all(value.tobytes() == values[0].tobytes() for value in values[1:])


#: the default pairs of ``cliffspin commuting`` and one with two odd
#: factors of the same sign
STRING_PAIRS = (*cli.DEFAULT_PAIRS, ((2, 3), (1, 2)))

#: factors that fault one gamma and leave a Pauli string: an exact phase,
#: a scale and a phase whose products round
STRING_FAULTS = {"times-i": 1j, "scaled-1e-6": 1 + 1e-6, "phase-0.3": np.exp(0.3j)}


class TestStringTier:
    """Pauli strings, gathers and the dense code give the same residuals
    (every module with n ≤ 10 is in ``TestPairResiduals``), and the reader
    refuses every other phased permutation."""

    @pytest.mark.parametrize("sig1, sig2", STRING_PAIRS)
    def test_commuting_pairs(self, sig1, sig2):
        ca = build_commuting(sig1, sig2)
        gammas = [*ca.gamma1, *ca.gamma2]
        eta = np.concatenate([ca.mod1.eta, ca.mod2.eta])
        assert reads_as_strings(gammas) and reads_as_strings(ca.generators.mats)
        assert_bit_equal(pair_paths(clifford_residual, gammas, eta))
        assert_bit_equal(pair_paths(commutation_residual, ca))
        assert_bit_equal(pair_paths(bracket_residual_table, ca.generators))

    def test_reads_c_x_z_and_refuses_near_strings(self):
        y = np.array([[0, -1j], [1j, 0]])  # −i·Z·X
        coef, x, z, _ = linalg._pauli_strings(phased_permutations([y, np.eye(2)], 2))
        assert coef.tolist() == [-1j, 1] and x.tolist() == [1, 0] and z.tolist() == [1, 0]
        # a controlled Z has the columns of a string and values off its sign
        # pattern; a cyclic shift has the values of one and columns that are
        # no r ⊕ x; with 1 and X⊗1 both take the gathers, and a reader that
        # took them for 1 and 1⊗X would miss [CZ, X⊗1] and C² ≠ 1
        flip_high = np.kron(clifford.PAULI_1, np.eye(2))
        i, j = np.divmod(np.arange(9), 3)
        terms = np.zeros(9, dtype=np.intp), np.where(i == j, 2, 0)
        for g in (np.diag([1, 1, 1, -1]), np.roll(np.eye(4), 1, axis=1)):
            mats = [np.eye(4), g, flip_high]
            assert is_phased(mats, 4) and not reads_as_strings(mats)
            for sign in (1, -1):
                reference = loop_pair_residuals(mats, i, j, sign, terms)
                assert reference.max() == 2
                for value in pair_paths(pair_residuals, mats, i, j, sign, terms):
                    assert np.array_equal(value, reference)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_strings(self, seed):
        # every c·Z^z·X^x on d = 8 with x in {0, 3} and z < 4, a set closed
        # under products, with random c: A[k] falls on the string of AᵢAⱼ,
        # on its x with another z, or off its x, all three often;
        # power-of-two magnitudes keep every product and sum exact
        rng = np.random.default_rng(seed)
        rows = np.arange(8)
        x, z = np.repeat([0, 3], 4), np.tile(np.arange(4), 2)
        mats = []
        for xk, zk in zip(x, z):
            g = np.zeros((8, 8), dtype=complex)
            signs = [(-1) ** bin(zk & r).count("1") for r in rows]
            g[rows, rows ^ xk] = (2.0 ** rng.integers(-2, 3)
                                  * rng.choice([1, -1, 1j, -1j]) * np.array(signs))
            mats.append(g)
        i, j, k = rng.integers(0, 8, (3, 200))
        coef = rng.choice([0, 1, -1, 2, -0.5], 200)
        assert reads_as_strings(mats)
        on_x = (x[k] == x[i] ^ x[j]) & (coef != 0)
        on_z = z[k] == z[i] ^ z[j]
        assert (on_x & on_z).any() and (on_x & ~on_z).any() and (~on_x & (coef != 0)).any()
        for sign in (1, -1):
            for terms in (None, (k, coef)):
                reference = loop_pair_residuals(mats, i, j, sign, terms)
                for value in pair_paths(pair_residuals, mats, i, j, sign, terms):
                    assert np.array_equal(value, reference)

    @settings(max_examples=40, deadline=None)
    @given(module=st.sampled_from([mod for mod in MODULES_10 if mod[0] + mod[1]]),
           fault=st.sampled_from(sorted(STRING_FAULTS)), data=st.data())
    def test_a_faulted_gamma_still_fails(self, module, fault, data):
        p, q, branch = module
        m = build_irrep((p, q), branch)
        a = data.draw(st.integers(0, m.n - 1), label="gamma")
        gammas = list(m.gammas)
        gammas[a] = STRING_FAULTS[fault] * gammas[a]
        rep = so_generators(dataclasses.replace(m, gammas=tuple(gammas)))
        assert reads_as_strings(gammas) and (m.n < 2 or reads_as_strings(rep.mats))
        for f, args in ((clifford_residual, (gammas, m.eta)), (bracket_residual_table, (rep,))):
            strings, gathers, dense = pair_paths(f, *args)
            assert strings.tobytes() == gathers.tobytes()
            # the phase's products round, and the dense products may round
            # them otherwise
            if fault == "phase-0.3":
                assert np.allclose(dense, strings, rtol=0, atol=1e-15)
            else:
                assert dense.tobytes() == strings.tobytes()
        for value in pair_paths(clifford_residual, gammas, m.eta):
            assert not value < DEFAULT_TOL

    @NO_WARNING
    @pytest.mark.parametrize("p, q", [(1, 0), (0, 3), (2, 2), (3, 6)])
    def test_a_nan_gamma_is_refused_and_fails(self, p, q):
        m = nan_entry(build_irrep((p, q)))
        assert phased_permutations(m.gammas, m.dim) is None
        for value in pair_paths(clifford_residual, m.gammas, m.eta):
            assert np.isnan(value)

    def test_all_takes_no_dense_pair_check(self):
        # every pairwise check of ``cliffspin all`` takes an exact form, and
        # every bracket table with a generator takes the strings
        strings = call_counter(linalg._string_pair_residuals)
        per_table = []

        def spied(table):
            def counted(rep):
                before = strings.calls
                out = table(rep)
                per_table.append((len(rep.mats), strings.calls - before))
                return out
            return counted

        with mock.patch.object(linalg, "_dense_pair_residuals",
                               side_effect=AssertionError("dense pair check")), \
                mock.patch.object(linalg, "_string_pair_residuals", strings), \
                mock.patch.object(liealg, "bracket_residual_table",
                                  spied(liealg.bracket_residual_table)), \
                mock.patch.object(commuting, "bracket_residual_table",
                                  spied(commuting.bracket_residual_table)), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["all"]) == 0
        assert len(per_table) > 40
        assert all(calls == (1 if size else 0) for size, calls in per_table)


def call_counter(f):
    """f, counting its calls; unlike ``mock.Mock(wraps=f)`` it keeps no
    reference to the arguments, so they are freed as the caller frees them."""
    def counted(*args, **kwargs):
        counted.calls += 1
        return f(*args, **kwargs)
    counted.calls = 0
    return counted


class TestFootprint:
    """The phased path keeps O(n²·d) arrays, and detects once per call."""

    def test_sign_measurement_at_n_15(self):
        # a (pairs, d, d) stack of the 105 pairs of the fifteen d = 128
        # gammas is 27.5 MB; the conjugated gammas (3.9 MB), the probes and
        # their images fit below the bound, that stack does not
        m = build_irrep((7, 8))
        spy = call_counter(linalg.phased_permutations)
        tracemalloc.start()
        try:
            with mock.patch.object(linalg, "phased_permutations", spy):
                measured, _ = measure_sign_triple(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tuple(measured) == clifford.sign_triple(m.s)
        assert spy.calls == 1
        assert peak <= 6e6

    def test_clifford_residual_at_n_15(self):
        # the n² anticommutators stacked as (n, n, d, d) would be 59 MB
        m = build_irrep((7, 8))
        spy = call_counter(linalg.phased_permutations)
        tracemalloc.start()
        try:
            with mock.patch.object(linalg, "phased_permutations", spy):
                resid = clifford_residual(m.gammas, m.eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert resid == 0.0
        assert spy.calls == 1
        assert peak <= 6e6

    def test_intertwiner_search_detects_once(self):
        rep = so_generators(build_irrep((3, 5)))
        spy = mock.Mock(wraps=linalg.phased_permutations)
        with mock.patch.object(linalg, "phased_permutations", spy):
            assert find_intertwiner(rep, rep) is not None
        assert spy.call_count == 1

    def test_conjugated_gammas_take_the_dense_path(self):
        # no unitary conjugate of the chain is a phased permutation; the
        # dense path finds the same ranks, and the gathers never run
        m = build_irrep((3, 6))
        u = unitary(m.dim)
        conjugated = [u @ g @ u.conj().T for g in m.gammas]
        assert not is_phased(conjugated, m.dim)
        ranks = sign_spaces(m.gammas, m.dim)
        with mock.patch.object(linalg, "_phased_pair_residuals",
                               side_effect=AssertionError("gathered")):
            assert sign_spaces(conjugated, m.dim) == ranks == [1, 0]  # s = 3: ε′ = 1

    def test_a_partial_form_fails_the_precondition_on_every_path(self):
        # the detector admits a zero row, but a partial form squares to no
        # c·1, so the map fails the precondition before any projection;
        # L² = R² = diag(1e-12, 0) is within an absolute 1e-12 of 1e-12·1,
        # so only the tolerance scaled by |c| = 1e-12 refuses the tiny map
        expected = ("raised", "fixed_space: map 0 is not an involution")
        tiny = np.diag([1e-6, 0.0])
        for lefts, rights in (([np.diag([1.0, 0.0])], [np.eye(2)]), ([tiny], [tiny])):
            assert not phased_permutations(lefts + rights, 2).vals.all()
            assert every_path(fixed_spaces, lefts, rights, 2, (1,)) == (expected,) * 3
            assert loop_precondition_failure(lefts, rights, 2) == expected[1]

    def test_phased_maps_are_not_detected_again(self):
        # one detector call and one precondition for both signs
        m = build_irrep((2, 3))
        detect = mock.Mock(wraps=linalg.phased_permutations)
        check = mock.Mock(wraps=linalg._check_commuting_involutions)
        with mock.patch.object(linalg, "phased_permutations", detect), \
                mock.patch.object(linalg, "_check_commuting_involutions", check):
            assert sign_spaces(m.gammas, m.dim) == [0, 1]  # s = 1: ε′ = −1
        assert detect.call_count == check.call_count == 1
