"""The phased-permutation kernel of ``linalg`` against the dense code it
stands in for.

The gammas of the Jordan–Wigner chain and their quadratic monomials are
phased permutations, so the involution check, the fixed spaces, the
inverses of the sign measurement and of the intertwiner search, and the
pairwise checks of ``pair_residuals`` (Clifford residual, bracket table,
commutation precondition) run on gathers.  Making the detector answer
None sends the same input through the dense code, which must agree in
every rank, verdict, error text and residual; faulted modules must give
the same FAIL or the same error on both paths, and the pairwise checks of
both paths must equal the per-pair loops of ``dense_reference``."""

import contextlib
import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cliffspin import cli, clifford, liealg, linalg
from cliffspin.clifford import (
    build_irrep,
    clifford_residual,
    measure_sign_triple,
    verify_module_signs,
)
from cliffspin.commuting import build_commuting
from cliffspin.liealg import (
    bracket_residual_table,
    find_intertwiner,
    intertwiner_residual,
    so_generators,
    weyl_pieces,
)
from cliffspin.linalg import (
    PhasedMaps,
    antilinear_maps,
    check_commuting_involutions,
    fixed_space,
    intertwining_maps,
    pair_residuals,
    phased_compose,
    phased_inverse,
    phased_permutations,
    signed_maps,
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


@contextlib.contextmanager
def dense_only():
    """Every caller of the detector sees None, so only the dense code runs."""
    refuse = mock.Mock(return_value=None)
    with mock.patch.object(linalg, "phased_permutations", refuse), \
            mock.patch.object(clifford, "phased_permutations", refuse), \
            mock.patch.object(liealg, "phased_permutations", refuse):
        yield


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


def sign_maps(m):
    """The maps K ↦ (γᵃ)⁻¹·K·conj(γᵃ) of the sign measurement: ``PhasedMaps``,
    or under :func:`dense_only` a list of pairs."""
    return antilinear_maps(m.gammas, m.dim)


def intertwiner_maps(rep):
    """The maps W ↦ (2T⁰ᵃ)·W·(2T⁰ᵃ)⁻¹ of the intertwiner search of a
    representation with itself."""
    gens = [2 * rep.t(0, a) for a in range(1, rep.n)]
    return intertwining_maps(gens, gens, rep.dim)


def phased_maps(maps, dim):
    """``PhasedMaps`` of a list of (L, R) pairs of phased permutations."""
    return PhasedMaps(phased_permutations([left for left, _ in maps], dim),
                      phased_permutations([right for _, right in maps], dim))


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
    assert isinstance(sign_maps(m), PhasedMaps)
    phased, dense = both_paths(lambda: check_commuting_involutions(sign_maps(m), m.dim))
    assert phased[0] == dense[0] == "returned"
    assert isinstance(dense[1], list)
    for sign in (1, -1):
        phased, dense = both_paths(lambda: fixed_space(signed_maps(sign_maps(m), sign), m.dim))
        assert phased[1].shape == dense[1].shape
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
    # both paths rank the same fixed space of the 2T⁰ᵃ maps
    assert isinstance(intertwiner_maps(rep), PhasedMaps)
    phased, dense = both_paths(lambda: fixed_space(intertwiner_maps(rep), rep.dim))
    assert phased[1].shape == dense[1].shape


@pytest.mark.parametrize("seed", range(8))
def test_first_failure_is_named_alike_on_both_paths(seed):
    # diagonal sign matrices commute, a swap of neighbours does not commute
    # with most of them, and a doubled map is no involution; at d = 64 the
    # dense check takes its pairs in blocks of 8
    rng = np.random.default_rng(seed)
    dim = 64
    diag = [np.diag(rng.choice([-1.0, 1.0], size=dim)).astype(complex) for _ in range(12)]
    maps = [(d, d) for d in diag]
    swap = np.eye(dim, dtype=complex)[np.arange(dim) ^ 1]
    for k in rng.choice(np.arange(2, 12), size=rng.integers(1, 4), replace=False):
        maps[k] = (swap, swap) if rng.random() < 0.6 else (2 * diag[k], diag[k])
    phased = outcome(check_commuting_involutions, phased_maps(maps, dim), dim)
    dense = outcome(check_commuting_involutions, maps, dim)
    assert phased[0] == dense[0]
    assert verdict(phased) == verdict(dense) == loop_precondition_failure(maps, dim)


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


#: the NaN fault makes the dense check divide by NaN, as it is meant to
NAN_WARNING = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


@NAN_WARNING
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("pq", FAULT_SIGNATURES)
def test_faults_give_the_same_verdict_on_both_paths(fault, pq):
    make, still_phased = FAULTS[fault]
    m = make(build_irrep(pq))
    # a fault that leaves no phased permutation reaches the dense fallback
    assert (phased_permutations(m.gammas, m.dim) is not None) == still_phased
    # LinAlgError, a ValueError, when a dense inverse meets a NaN
    phased, dense = both_paths(lambda: check_commuting_involutions(sign_maps(m), m.dim))
    assert phased[0] == dense[0]
    if phased[0] == "raised":
        assert phased[1] == dense[1]
    phased = sign_outcome(m)
    with dense_only():
        dense = sign_outcome(m)
    assert phased == dense
    phased, dense = both_paths(clifford_residual, m.gammas, m.eta)
    assert same_float(phased[1], dense[1])
    assert not phased[1] < 1e-10


@NAN_WARNING
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
    dim = rep.dim
    phased = outcome(lambda: check_commuting_involutions(antilinear_maps(gammas, dim), dim))
    with dense_only():
        dense = outcome(lambda: check_commuting_involutions(antilinear_maps(gammas, dim), dim))
    maps = outcome(lambda: [(np.linalg.inv(g), np.conj(g)) for g in gammas])
    if maps[0] == "raised":  # a dense inverse met a NaN: the same LinAlgError
        assert phased == dense == maps
    else:
        assert verdict(phased) == verdict(dense) == loop_precondition_failure(maps[1], dim)


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

    @NAN_WARNING
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
        form = phased_permutations(mats, dim)
        for sign in (1, -1):
            for terms in (None, (k, coef)):
                reference = loop_pair_residuals(mats, i, j, sign, terms)
                assert np.array_equal(pair_residuals(form, i, j, sign, terms), reference)
                assert np.array_equal(pair_residuals(mats, i, j, sign, terms), reference)

    def test_blocks_and_empty_pairs(self):
        # d = 128 puts 32 pairs in a phased block and 2 in a dense one
        mats = list(build_irrep((0, 14)).gammas)
        i, j = np.triu_indices(14, 1)
        form = phased_permutations(mats, 128)
        assert linalg.BRACKET_BLOCK_ENTRIES // 128 < len(i)
        reference = loop_pair_residuals(mats, i, j, 1, None)
        assert np.array_equal(pair_residuals(form, i, j, 1, None), reference)
        assert np.array_equal(pair_residuals(mats, i, j, 1, None), reference)
        assert np.all(reference == 0.0)
        for given in (form, mats):
            assert pair_residuals(given, i[:0], j[:0], -1, None).shape == (0,)


class TestFootprint:
    """The phased path keeps O(n²·d) arrays, and detects once per call."""

    def test_sign_measurement_at_n_15(self):
        # a (n, d, d) stack of the fifteen d = 128 gammas is 3.9 MB, and a
        # (pairs, d, d) one 27.5 MB; the probes and their images fit below
        # the bound, either stack does not
        m = build_irrep((7, 8))
        spy = mock.Mock(wraps=linalg.phased_permutations)
        tracemalloc.start()
        try:
            with mock.patch.object(clifford, "phased_permutations", spy), \
                    mock.patch.object(linalg, "phased_permutations", spy):
                measured, _ = measure_sign_triple(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tuple(measured) == clifford.sign_triple(m.s)
        assert spy.call_count == 1
        assert peak <= 6e6

    def test_clifford_residual_at_n_15(self):
        # the n² anticommutators stacked as (n, n, d, d) would be 59 MB
        m = build_irrep((7, 8))
        spy = mock.Mock(wraps=linalg.phased_permutations)
        tracemalloc.start()
        try:
            with mock.patch.object(clifford, "phased_permutations", spy):
                resid = clifford_residual(m.gammas, m.eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert resid == 0.0
        assert spy.call_count == 1
        assert peak <= 6e6

    def test_intertwiner_search_detects_once(self):
        rep = so_generators(build_irrep((3, 5)))
        spy = mock.Mock(wraps=linalg.phased_permutations)
        with mock.patch.object(linalg, "phased_permutations", spy):
            assert find_intertwiner(rep, rep) is not None
        assert spy.call_count == 1

    def test_a_list_of_maps_takes_the_dense_path(self):
        m = build_irrep((3, 6))
        rank = fixed_space(sign_maps(m), m.dim).shape[1]
        with dense_only():
            maps = sign_maps(m)
        with mock.patch.object(linalg, "phased_permutations",
                               side_effect=AssertionError("detected")):
            assert len(check_commuting_involutions(maps, m.dim)) == m.n
            assert fixed_space(maps, m.dim).shape[1] == rank

    def test_phased_maps_are_not_detected_again(self):
        m = build_irrep((2, 3))
        form = phased_permutations(m.gammas, m.dim)
        maps = PhasedMaps(phased_inverse(form), (form[0], form[1].conj()))
        with mock.patch.object(linalg, "phased_permutations",
                               side_effect=AssertionError("detected")):
            assert check_commuting_involutions(maps, m.dim) is maps
            assert [fixed_space(signed_maps(maps, sign), m.dim, checked=True).shape[1]
                    for sign in (1, -1)] == [0, 1]  # s = 1: ε′ = −1
