"""The phased-permutation kernel of ``linalg`` against the dense code it
stands in for.

The gammas of the Jordan–Wigner chain and their quadratic monomials are
phased permutations, so ``fixed_spaces`` (the sign measurement and the
intertwiner search: inverses, involution check, commutation precondition
and projections) and ``pair_residuals`` (Clifford residual, bracket table)
run on gathers.  Each makes its one detector call itself; making the
detector answer None sends the same input through the dense code, which
must agree in every rank, verdict, error text and residual.  Faulted
modules must give the same FAIL or the same error on both paths, no
RuntimeWarning on either, and the pairwise checks of both paths must equal
the per-pair loops of ``dense_reference``."""

import contextlib
import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cliffspin import cli, clifford, linalg
from cliffspin.clifford import (
    build_irrep,
    clifford_residual,
    measure_sign_triple,
    verify_module_signs,
)
from cliffspin.commuting import build_commuting
from cliffspin.liealg import (
    SoRepresentation,
    bracket_residual_table,
    find_intertwiner,
    intertwiner_residual,
    so_generators,
    weyl_pieces,
)
from cliffspin.linalg import (
    fixed_spaces,
    pair_residuals,
    phased_compose,
    phased_inverse,
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


def outcome(f, *args, **kwargs):
    """What f returns, or the text of the ValueError it raises."""
    try:
        return "returned", f(*args, **kwargs)
    except ValueError as exc:
        return "raised", str(exc)


def both_paths(f, *args, **kwargs):
    phased = outcome(f, *args, **kwargs)
    with dense_only():
        dense = outcome(f, *args, **kwargs)
    return phased, dense


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
        [[0, 0], [0, 1]],          # a row without a nonzero
        [[np.nan, 0], [0, 1]],     # not finite
        [[np.inf, 0], [0, 1]],
        [[1, 1e-300], [0, 1]],     # no tolerance: a tiny entry counts
    ])
    def test_refuses_anything_else(self, g):
        assert phased_permutations([np.eye(2), g], 2) is None

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

    @pytest.mark.parametrize("pq", [(0, 3), (2, 3), (4, 4)])
    def test_compose_and_inverse_match_the_dense_products(self, pq):
        gammas = np.stack(build_irrep(pq).gammas)
        dim = gammas.shape[-1]
        form = phased_permutations(gammas, dim)
        rolled = phased_permutations(np.roll(gammas, 1, axis=0), dim)

        def dense(f):
            out = np.zeros((len(f[0]), dim, dim), dtype=complex)
            out[np.arange(len(f[0]))[:, None], np.arange(dim), f[0]] = f[1]
            return out

        assert np.array_equal(dense(phased_compose(form, rolled)),
                              gammas @ np.roll(gammas, 1, axis=0))
        assert np.array_equal(dense(phased_inverse(form)), np.linalg.inv(gammas))


@pytest.mark.parametrize("p, q, branch", MODULES_10)
def test_sign_measurement_agrees_with_the_dense_path(p, q, branch):
    m = build_irrep((p, q), branch)
    assert is_phased([*m.gammas, *np.conj(m.gammas)], m.dim)
    phased, dense = both_paths(sign_spaces, m.gammas, m.dim)
    assert phased == dense
    assert sorted(phased[1]) == ([1, 1] if m.n % 2 == 0 else [0, 1])
    phased = sign_outcome(m)
    with dense_only():
        dense = sign_outcome(m)
    assert phased == dense
    assert phased[1] == tuple(clifford.sign_triple(m.s))
    phased, dense = both_paths(clifford_residual, m.gammas, m.eta)
    assert phased[1] == dense[1] == 0.0


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(2, 11, 2) for p in range(n + 1)])
def test_intertwiner_search_agrees_with_the_dense_path(p, q):
    m = build_irrep((p, q))
    rep = so_generators(m)
    plus, minus = weyl_pieces(m)
    phased, dense = both_paths(find_intertwiner, plus, minus)
    assert phased == dense == ("returned", None)
    phased, dense = both_paths(find_intertwiner, rep, rep)
    assert phased[0] == dense[0] == "returned"
    assert phased[1] is not None and dense[1] is not None
    assert intertwiner_residual(phased[1], rep, rep) < 1e-10
    # both paths rank the same fixed space of the 2T⁰ᵃ maps: the span of
    # the identity and the chirality, one scalar on each Weyl piece
    assert is_phased([2 * rep.t(0, a) for a in range(1, rep.n)], rep.dim)
    phased, dense = both_paths(intertwiner_space, rep)
    assert phased == dense == ("returned", 2)
    # a unitary conjugate of the representation takes the dense path and is
    # found equivalent to it
    u = unitary(rep.dim)
    conjugated = SoRepresentation(eta=rep.eta, dim=rep.dim, generators={
        key: u @ g @ u.conj().T for key, g in rep.generators.items()})
    assert not is_phased(list(conjugated.generators.values()), rep.dim)
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
    phased, dense = both_paths(fixed_spaces, lefts, rights, dim, (1, -1))
    assert phased[0] == dense[0]
    assert verdict(phased) == verdict(dense) == loop_precondition_failure(lefts, rights, dim)


def verdict(result):
    """The ValueError text of an ``outcome``, or None when it returned."""
    kind, value = result
    return value if kind == "raised" else None


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
    phased, dense = both_paths(sign_spaces, m.gammas, m.dim)
    assert phased == dense
    phased = sign_outcome(m)
    with dense_only():
        dense = sign_outcome(m)
    assert phased == dense
    phased, dense = both_paths(clifford_residual, m.gammas, m.eta)
    assert same_float(phased[1], dense[1])
    assert not phased[1] < 1e-10


@NO_WARNING
@pytest.mark.parametrize("p, q, branch", [(p, q, b) for p, q, b in MODULES_10 if p and q])
def test_every_faulted_module_to_n_10_agrees_on_both_paths(p, q, branch):
    # every fault of every module with both metric signs: the same ranks or
    # error texts of the sign measurement's fixed spaces, the same measured
    # triple or error, and for even n the same intertwiner verdict
    for make, _ in FAULTS.values():
        m = make(build_irrep((p, q), branch))
        phased, dense = both_paths(sign_spaces, m.gammas, m.dim)
        assert phased == dense
        phased = sign_outcome(m)
        with dense_only():
            dense = sign_outcome(m)
        assert phased == dense
        if m.n % 2 == 0:
            rep = so_generators(m)
            phased, dense = both_paths(find_intertwiner, rep, rep)
            assert verdict(phased) == verdict(dense)
            assert (phased[1] is None) == (dense[1] is None)


@NO_WARNING
@pytest.mark.parametrize("p, q, branch", [(p, q, b) for p, q, b in MODULES_10 if p and q])
def test_a_nan_row_names_its_map_on_both_paths(p, q, branch):
    # a NaN row of γ₁ can make np.linalg.inv call the matrix singular; the
    # dense path then inverts it to NaN, and the precondition names map 1
    m = build_irrep((p, q), branch)
    g = np.array(m.gammas[1])
    g[0, :] = np.nan
    m = dataclasses.replace(m, gammas=(m.gammas[0], g, *m.gammas[2:]))
    expected = ("raised", "fixed_space: map 1 is not an involution")
    assert both_paths(sign_spaces, m.gammas, m.dim) == (expected, expected)
    assert both_paths(measure_sign_triple, m) == (expected, expected)


@NO_WARNING
@pytest.mark.parametrize("fault", FAULTS)
def test_faulted_sign_reports_fail_alike(fault):
    make, _ = FAULTS[fault]
    real_build = clifford.build_irrep

    def faulted(sig, branch=1):
        m = real_build(sig, branch)
        return make(m) if m.signature.p and m.signature.q else m

    reports = []
    for context in (contextlib.nullcontext(), dense_only()):
        with context, mock.patch.object(clifford, "build_irrep", faulted):
            reports.append(verify_module_signs(4).to_dict())
    assert json.dumps(reports[0]) == json.dumps(reports[1])
    assert not reports[0]["passed"]
    failed = {(d["p"], d["q"]) for d in reports[0]["details"] if not d["passed"]}
    assert failed == {(p, n - p) for n in range(2, 5) for p in range(1, n)}


def pair_paths(f, *args):
    """What f returns on the phased path and under :func:`dense_only`, as
    float arrays."""
    phased = f(*args)
    with dense_only():
        dense = f(*args)
    return np.asarray(phased, dtype=float), np.asarray(dense, dtype=float)


def assert_pairwise_checks_match_the_loops(gammas, eta, rep):
    """clifford_residual, the bracket table and the precondition verdict of
    the sign maps, on both paths, equal the per-pair loops bit for bit."""
    reference = loop_clifford_residual(gammas, eta)
    for value in pair_paths(clifford_residual, gammas, eta):
        assert same_float(float(value), reference)
    reference = loop_bracket_table(rep)
    for table in pair_paths(bracket_residual_table, rep):
        assert np.array_equal(table, reference, equal_nan=True)
    dim, conj = rep.dim, np.conj(gammas)
    phased, dense = both_paths(fixed_spaces, gammas, conj, dim, (1, -1))
    assert verdict(phased) == verdict(dense) == loop_precondition_failure(gammas, conj, dim)


class TestPairResiduals:
    """``linalg.pair_residuals``, and the three checks made of it, against
    the per-pair loops of ``dense_reference`` on both paths."""

    @pytest.mark.parametrize("p, q, branch", MODULES_10)
    def test_every_module_to_n_10(self, p, q, branch):
        m = build_irrep((p, q), branch)
        assert_pairwise_checks_match_the_loops(list(m.gammas), m.eta, so_generators(m))

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
        with mock.patch.object(linalg, "_phased_involutions",
                               side_effect=AssertionError("gathered")), \
                mock.patch.object(linalg, "_phased_pair_residuals",
                                  side_effect=AssertionError("gathered")):
            assert sign_spaces(conjugated, m.dim) == ranks == [1, 0]  # s = 3: ε′ = 1

    def test_phased_maps_are_not_detected_again(self):
        # one detector call and one precondition for both signs
        m = build_irrep((2, 3))
        detect = mock.Mock(wraps=linalg.phased_permutations)
        check = mock.Mock(wraps=linalg._check_commuting_involutions)
        with mock.patch.object(linalg, "phased_permutations", detect), \
                mock.patch.object(linalg, "_check_commuting_involutions", check):
            assert sign_spaces(m.gammas, m.dim) == [0, 1]  # s = 1: ε′ = −1
        assert detect.call_count == check.call_count == 1
