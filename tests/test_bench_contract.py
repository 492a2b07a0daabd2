"""The benchmark's contract with the package: every function that
``bench/tracer.py`` wraps exists under its name, and every workload of
``bench/workloads.py`` passes at its smoke size, untraced and traced, with
the same result.  A renamed wrapped function or a dropped CLI flag that a
workload passes fails here, not only in a benchmark run.  No host time is
asserted."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
