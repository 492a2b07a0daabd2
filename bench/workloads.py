"""The benchmark's workloads.

Each workload is built from the seed into a zero-argument pass function.
A pass runs the workload once, checks every output, and returns
``(result, checks)``: ``result`` is a value that identical passes must
reproduce exactly (the runner compares every pass with the first one), and
``checks`` counts the checks attempted and failed.  A check is a returned
``Report`` or one of the benchmark's own comparisons; an exception raised
by the program counts as a failed check.

The workloads call the library only through module attributes
(``clifford.build_irrep(...)``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from cliffspin import cli, clifford, liealg, serialize
from cliffspin.linalg import DEFAULT_TOL, max_abs

#: Casimir residual bound, the one ``cliffspin verify brackets`` applies
CASIMIR_TOL = 1e-10
#: a three-action defect must exceed this to show non-closure
MIN_DEFECT = 0.1

#: signatures with p + q ≤ 7 (both branches for odd n), then the two n = 8
#: signatures (0,8) and (3,5), which have s = 0 and s = 2
SWEEP = ([(p, n - p, branch)
          for n in range(8) for p in range(n + 1)
          for branch in ((1,) if n % 2 == 0 else (1, -1))]
         + [(0, 8, 1), (3, 5, 1)])

#: every signature with 1 ≤ n ≤ 4; the pair grid takes all ordered pairs
GRID_SIGNATURES = [(p, n - p) for n in range(1, 5) for p in range(n + 1)]
GRID_TRIPLES = tuple(cli.DEFAULT_TRIPLES) + (((0, 3), (0, 3), (0, 3)),
                                             ((2, 0), (0, 3), (0, 2)))


class Checks:
    """Counts checks attempted and keeps the names of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    @contextlib.contextmanager
    def guard(self, name: str):
        """Count an exception raised inside the block as one failed check."""
        try:
            yield
        except Exception as exc:  # the program must report, never raise
            self.add(f"{name}: {type(exc).__name__}: {exc}", False)


def suite_all(seed: int, smoke: bool = False):
    """``cliffspin all --seed S --format json``, run in-process.

    The suite has a single size, so ``smoke`` changes nothing here.
    """
    argv = ["all", "--seed", str(seed), "--format", "json"]

    def one_pass():
        checks = Checks()
        out = io.StringIO()
        with checks.guard("cli.run"):
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
            checks.add("exit-code", code == 0)
            doc = json.loads(out.getvalue())
            checks.add("all-passed", doc["all_passed"] is True)
            for report in doc["checks"]:
                checks.add(report["check"], report["passed"] is True)
        return out.getvalue(), checks

    return one_pass


def _same_module(a, b) -> bool:
    """Bit-exact equality of two modules' data."""
    arrays_a = [*a.gammas, a.P, a.chirality, a.J.matrix]
    arrays_b = [*b.gammas, b.P, b.chirality, b.J.matrix]
    if (a.Jhat is None) != (b.Jhat is None):
        return False
    if a.Jhat is not None:
        arrays_a.append(a.Jhat.matrix)
        arrays_b.append(b.Jhat.matrix)
    return (a.signature == b.signature and a.branch == b.branch
            and len(arrays_a) == len(arrays_b)
            and all(x.shape == y.shape and x.tobytes() == y.tobytes()
                    for x, y in zip(arrays_a, arrays_b)))


def _sweep_one(p: int, q: int, branch: int, checks: Checks) -> dict:
    label = f"({p},{q})b{branch}"
    n = p + q
    m = clifford.build_irrep((p, q), branch)
    residuals = clifford.module_residuals(m)
    checks.add(f"module-residuals{label}", max(residuals.values()) < DEFAULT_TOL)
    measured, _ = clifford.measure_sign_triple(m, DEFAULT_TOL)
    checks.add(f"sign-row{label}", measured == clifford.sign_triple(m.s))

    rep = liealg.so_generators(m)
    bracket = liealg.bracket_residual(rep)
    flipped = liealg.bracket_residual(liealg.flipped_representation(rep))
    checks.add(f"brackets{label}", bracket < DEFAULT_TOL)
    checks.add(f"flipped-brackets{label}", flipped < DEFAULT_TOL)
    record = {"sig": label, "residuals": residuals, "measured": list(measured),
              "bracket": bracket, "flipped": flipped}
    if n % 2 == 0:
        casimir = max_abs(liealg.casimir_element(rep) - m.P)
        checks.add(f"casimir{label}", casimir < CASIMIR_TOL)
        record["casimir"] = casimir
    if n % 2 == 0 and n >= 2:
        plus, minus = liealg.weyl_pieces(m)
        absent = liealg.find_intertwiner(plus, minus) is None
        checks.add(f"half-spinors-inequivalent{label}", absent)
        record["half_spinor_intertwiner_absent"] = absent

    text = serialize.module_to_json(m)
    back = serialize.module_from_dict(json.loads(text))
    same = _same_module(m, back)
    checks.add(f"round-trip{label}", same)
    record["round_trip_exact"] = same
    return record


def signature_sweep(seed: int, smoke: bool = False):
    """Construct, measure and check every module in ``SWEEP``.

    The seed fixes the order in which the signatures are visited.
    """
    sigs = [s for s in SWEEP if not smoke or sum(s[:2]) <= 4]
    random.Random(seed).shuffle(sigs)

    def one_pass():
        checks = Checks()
        records = []
        for p, q, branch in sigs:
            with checks.guard(f"sweep({p},{q})b{branch}"):
                records.append(_sweep_one(p, q, branch, checks))
        return records, checks

    return one_pass


def pair_grid(seed: int, smoke: bool = False):
    """The commuting suite over every ordered pair of small signatures, then
    the three-action defect on four triples.

    The seed fixes the order in which the pairs are visited.
    """
    sigs = [s for s in GRID_SIGNATURES if not smoke or sum(s) <= 2]
    pairs = [(a, b) for a in sigs for b in sigs]
    random.Random(seed).shuffle(pairs)
    triples = GRID_TRIPLES[:1] if smoke else GRID_TRIPLES

    def one_pass():
        checks = Checks()
        reports = []
        for sig1, sig2 in pairs:
            with checks.guard(f"commuting{sig1}x{sig2}"):
                for report in cli.commuting_suite(sig1, sig2, 1, 1, DEFAULT_TOL):
                    checks.add(report.name, report.passed)
                    reports.append(report.to_dict())
        for sigs3 in triples:
            with checks.guard(f"three-actions{sigs3}"):
                report = cli.three_actions_report(sigs3, MIN_DEFECT)
                checks.add(report.name, report.passed and report.max_residual > MIN_DEFECT)
                reports.append(report.to_dict())
        return reports, checks

    return one_pass


WORKLOADS = {
    "suite_all": suite_all,
    "signature_sweep": signature_sweep,
    "pair_grid": pair_grid,
}

#: most of a traced pass that may fall outside every wrapped function (the
#: benchmark's own code and unwrapped library functions).  Measured at the
#: commit that added the benchmark, full size (smoke size): ``suite_all``
#: 0.0003 (0.0003), ``signature_sweep`` 0.004 (0.07), ``pair_grid`` 0.06
#: (0.13).  A wrapper that is bypassed at the top level pushes its time here.
MAX_OUTSIDE_SHARE = {
    "suite_all": 0.01,
    "signature_sweep": 0.15,
    "pair_grid": 0.25,
}
