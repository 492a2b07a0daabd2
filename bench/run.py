"""cliffspin benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of the checkout the script sits in, never from an installed copy.
Workloads (see ``workloads.py`` and ``README.md``): ``suite_all``,
``signature_sweep``, ``pair_grid``.

With ``--trace 0`` the run measures, in one process:

* ``setup_s``: median over several fresh processes of the time to import
  cliffspin and make the first ``build_irrep((0, 6))`` call;
* ``wall_s`` and ``cpu_s``: median wall and process CPU time (all threads)
  of one warm pass, over the passes that fit in ``--seconds`` (at least 3),
  after one warm-up pass;
* ``peak_rss_mb``: the process's peak resident memory.

With ``--trace 1`` it runs untraced and span-traced passes (``tracer.py``)
in turn for ``--seconds`` and one pass with memory tracing, and reports the
per-layer metrics, the traced pass time ``trace.wall_s`` and the tracing
overhead ``trace.overhead_ratio`` (median ratio of a traced pass to the
untraced pass before it); the overhead in seconds, ``trace.overhead_s``
(traced minus untraced median), is printed as a comment line.

Every pass must reproduce the first pass's output exactly, traced passes
included; traced passes must repeat the exact counts and keep the time
outside every span within the workload's share.  Failed checks
over checks attempted is the fail ratio; any failure makes the run exit 1.
The last line of standard output is the result as one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Missing
sources give exit code 2 and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh processes timed for ``setup_s``; the median is reported
SETUP_RUNS = 7
#: fewest timed passes of an untraced run
MIN_PASSES = 3

#: child program timed for ``setup_s``: import plus the first module build
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cliffspin
cliffspin.build_irrep((0, 6))
print(repr(time.perf_counter() - start))
"""

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_ratio": "ratio"}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure_setup(runs: int) -> float:
    """Median time for a fresh interpreter to import and build (0, 6)."""
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cliffspin").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    """Machine, library and thread settings the numbers were taken under."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def timed_passes(one_pass, seconds: float, min_passes: int, reference, total,
                 after_pass=None) -> tuple:
    """Run passes until ``seconds`` have elapsed and at least ``min_passes``
    ran; return their wall and CPU times.  Each pass's output must equal
    ``reference``; its checks go into ``total``.  ``after_pass(wall, checks)``
    runs after each pass, outside the timed region."""
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result, checks = one_pass()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        checks.add("same-output-as-first-pass", result == reference)
        if after_pass is not None:
            after_pass(walls[-1], checks)
        total.merge(checks)
    return walls, cpus


def traced_metrics(one_pass, seconds: float, reference, total,
                   max_outside_share: float) -> dict:
    """Per-layer metrics: untraced and span-traced passes in turn for
    ``seconds``, then one pass with memory tracing for ``L.peak_mb``.

    Times are medians over the span-traced passes; the memory pass is
    timed apart because allocation tracing slows numpy code severalfold.
    The tracing overhead is the median ratio of each traced pass to the
    untraced pass just before it, so that a drift in host speed cancels.
    Each traced pass's time outside every span, ``bench.self_s``, must lie
    between 0 (the root spans fit in the pass) and ``max_outside_share`` of
    the pass (no wrapper is bypassed at the top level).
    """
    tracer = Tracer()
    per_pass = []

    def record(wall, checks):
        try:
            metrics = tracer.pass_metrics(wall)
        except RuntimeError as exc:
            checks.add(f"span-stack: {exc}", False)
            return
        outside = metrics["bench.self_s"]
        checks.add(f"time-outside-spans {outside:.4g} s of {wall:.4g} s within its share",
                   -1e-9 <= outside <= max_outside_share * wall)
        if per_pass:
            checks.add("exact-counts-repeat", all(
                metrics[name] == per_pass[0][name] for name in metrics
                if name.endswith((".calls", ".cells"))))
        per_pass.append(metrics)

    def traced_pass():
        tracer.reset()
        return one_pass()

    plain_walls, traced_walls = [], []
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        plain_walls += timed_passes(one_pass, 0, 1, reference, total)[0]
        with tracer.installed(memory=False):
            traced_walls += timed_passes(traced_pass, 0, 1, reference, total,
                                         after_pass=record)[0]
    with tracer.installed(memory=True):
        timed_passes(traced_pass, 0, 1, reference, total, after_pass=record)
    if len(per_pass) < 2:
        return {}
    timing, memory = per_pass[:-1], per_pass[-1]
    out = {}
    for name in memory:
        if name.endswith((".calls", ".cells", "_mb")):
            out[name] = memory[name]
        else:
            out[name] = statistics.median(m[name] for m in timing)
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_walls, plain_walls))
    print(f"# trace.overhead_s {out['trace.wall_s'] - statistics.median(plain_walls)!r} s "
          f"(traced minus untraced median, {len(traced_walls)} passes each)")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and one pass, for the self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "cliffspin" / "__init__.py").is_file():
        print(f"error: no cliffspin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cliffspin
    import workloads

    if Path(cliffspin.__file__).resolve().parent != SRC / "cliffspin":
        print(f"error: imported cliffspin from {cliffspin.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = measure_setup(2 if args.smoke else SETUP_RUNS)
    cliffspin.build_irrep((0, 6))  # the first BLAS call is slow; keep it out of the passes
    one_pass = workloads.WORKLOADS[args.workload](args.seed, args.smoke)

    total = workloads.Checks()
    reference, checks = one_pass()  # warm-up pass; every later pass must match it
    total.merge(checks)
    if args.trace:
        metrics.update(traced_metrics(one_pass, args.seconds, reference, total,
                                      workloads.MAX_OUTSIDE_SHARE[args.workload]))
        units = {**metric_units(), **TRACE_UNITS}
    else:
        walls, cpus = timed_passes(one_pass, args.seconds,
                                   1 if args.smoke else MIN_PASSES, reference, total)
        metrics["wall_s"] = statistics.median(walls)
        metrics["cpu_s"] = statistics.median(cpus)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = E2E_UNITS
        print(f"# passes {len(walls)}: wall_s min {min(walls):.4f} max {max(walls):.4f}, "
              f"cpu_s min {min(cpus):.4f} max {max(cpus):.4f}")

    failed = len(total.failed)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# fail_ratio {failed / total.attempted:.6g} ratio "
          f"({failed} failed of {total.attempted} checks)")
    for name in total.failed[:20]:
        print(f"# FAILED {name}")
    for name, value in metrics.items():
        print(f"# {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": total.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
