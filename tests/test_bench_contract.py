"""The benchmark's contract with the package: every function that
``bench/tracer.py`` wraps exists under its name, and every workload of
``bench/workloads.py`` passes at its smoke size, untraced and traced, with
the same result, and makes the same wrapped calls on a second traced pass.
A renamed wrapped function, a dropped CLI flag that a workload passes or a
cache that outlives a pass fails here, not only in a benchmark run.  No host
time is asserted."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

#: two traced smoke passes of one workload, the tracer reset before each as
#: the traced run does; argv: the source directory, the bench directory and
#: the workload.  A fresh interpreter, so that no earlier pass has filled a
#: cache that outlives a pass
COUNT_CHILD = """\
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer, workloads
one_pass = workloads.WORKLOADS[sys.argv[3]](1, smoke=True)
spans = tracer.Tracer()
counts = []
for _ in range(2):
    with spans.installed(memory=False):
        spans.reset()
        one_pass()
    counts.append({"calls": {f"{layer}.{name}": count
                             for (layer, name), count in spans.calls.items()},
                   "cells": spans.cells})
print(json.dumps(counts))
"""


def load_bench(name: str):
    """The module ``bench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_bench("tracer")
workloads = load_bench("workloads")


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in tracer.WRAPPED.items()
                                         for name in names])
def test_every_wrapped_name_is_a_function_of_its_layer(layer, name):
    assert callable(getattr(importlib.import_module(f"cliffspin.{layer}"), name, None))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_pass_is_clean_untraced_and_traced(workload):
    one_pass = workloads.WORKLOADS[workload](1, smoke=True)
    result, checks = one_pass()
    assert checks.attempted > 0 and checks.failed == []
    with tracer.Tracer().installed(memory=False) as traced:
        traced_result, traced_checks = one_pass()
    assert traced_checks.failed == [] and traced_checks.attempted == checks.attempted
    assert traced_result == result
    assert traced.calls[("cli", "run") if workload == "suite_all"
                        else ("clifford", "build_irrep")] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_call_counts_repeat_between_passes(workload):
    # the traced run fails a pass whose exact counts differ from the first
    # pass's, as they do under a cache kept across passes
    done = subprocess.run([sys.executable, "-c", COUNT_CHILD, str(ROOT / "src"), str(BENCH),
                           workload], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    first, second = json.loads(done.stdout)
    assert sum(first["calls"].values()) > 0
    assert second == first
