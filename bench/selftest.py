"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

* a reduced-size smoke run of every workload, untraced and traced, must
  pass and print exactly the metrics named in ``BENCHMARK.json``, each with
  its unit;
* injected faults (a perturbed J after a module round trip, one flipped
  byte in the suite JSON, a three-action defect below its threshold, an
  exception inside the program, traced wrappers that are bypassed) must
  each raise the fail ratio above 0;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark must exit nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cliffspin import cli, clifford, commuting, serialize  # noqa: E402
from cliffspin.linalg import AntilinearOp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_command(*extra, cwd=ROOT):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def fail_ratio(workload: str, seed: int = 1, passes: int = 2, traced: bool = False) -> float:
    """Fail ratio of ``passes`` smoke passes, or of a smoke traced run,
    judged the way run.py judges them."""
    one_pass = workloads.WORKLOADS[workload](seed, smoke=True)
    total = workloads.Checks()
    reference, checks = one_pass()
    total.merge(checks)
    if traced:
        run.traced_metrics(one_pass, 0, reference, total,
                           workloads.MAX_OUTSIDE_SHARE[workload])
    else:
        run.timed_passes(one_pass, 0, passes - 1, reference, total)
    return len(total.failed) / total.attempted


class SmokeRun(unittest.TestCase):
    def test_every_declared_metric_is_printed_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    done = bench_command("--workload", workload, "--seed", "1",
                                         "--seconds", "1", "--trace", trace, "--smoke")
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared})
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))


class FaultInjection(unittest.TestCase):
    def test_clean_passes_have_no_failures(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(fail_ratio(workload), 0.0)

    def test_perturbed_j_after_round_trip(self):
        original = serialize.module_from_dict

        def perturbed(doc):
            m = original(doc)
            return dataclasses.replace(m, J=AntilinearOp(m.J.matrix * np.exp(1e-3j)))

        with mock.patch.object(serialize, "module_from_dict", perturbed):
            self.assertGreater(fail_ratio("signature_sweep"), 0)

    def test_flipped_byte_in_suite_json(self):
        original = cli.run
        calls = []

        def flip_second(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = original(argv)
            text = out.getvalue()
            calls.append(argv)
            if len(calls) == 2:  # digits keep the JSON valid: only the byte comparison sees it
                at = text.index('"max_residual": ') + len('"max_residual": ')
                text = text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1:]
            sys.stdout.write(text)
            return code

        with mock.patch.object(cli, "run", flip_second):
            self.assertGreater(fail_ratio("suite_all"), 0)

    def test_three_action_defect_below_threshold(self):
        with mock.patch.object(commuting, "three_action_closure_defect",
                               lambda *sigs: 0.05):
            self.assertGreater(fail_ratio("pair_grid"), 0)

    def test_exception_counts_as_failed_check(self):
        def broken(m, tol=None):
            raise RuntimeError("injected")

        with mock.patch.object(clifford, "measure_sign_triple", broken):
            self.assertGreater(fail_ratio("signature_sweep", passes=1), 0)

    def test_bypassed_wrappers_fail_the_outside_span_check(self):
        self.assertEqual(fail_ratio("signature_sweep", traced=True), 0.0)
        with mock.patch.object(tracer.Tracer, "_wrap", lambda self, layer, name, fn: fn):
            self.assertGreater(fail_ratio("signature_sweep", traced=True), 0)


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = bench_command("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
