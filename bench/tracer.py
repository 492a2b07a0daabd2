"""Span tracer for the benchmark's traced run.

The tracer wraps selected public functions of each cliffspin layer (one
layer per module) from outside the package: every module of the package
that holds a reference to a wrapped function gets the wrapper, so a call
from one layer into another becomes a child span.  Nothing under ``src/``
changes, and the untraced run never installs the wrappers.

Per pass it records, for each wrapped function F of layer L, the call count
``L.F.calls`` and inclusive time ``L.F.s``; for each layer its self time
``L.self_s`` (span time minus the time of its child spans) and
``L.peak_mb`` (tracemalloc peak above the level at entry, taken over the
layer's outermost spans; recorded only while memory tracing is on); the
work count ``linalg.null_space.cells`` (sum of rows·cols of every matrix
factored); and ``bench.self_s``, the pass time outside every span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

#: the public functions wrapped in each layer
WRAPPED = {
    "linalg": ("null_space", "solve_antilinear_commutant", "polar_unitary", "expm"),
    "clifford": ("build_irrep", "measure_sign_triple", "module_residuals"),
    "liealg": ("bracket_residual", "casimir_element", "find_intertwiner"),
    "commuting": ("verify_bracket_table", "bracket_family_residuals",
                  "equivalence_even", "equivalence_odd_odd",
                  "three_action_closure_defect"),
    "spectral": ("build_pati_salam", "check_order_conditions",
                 "verify_gauge_action", "higgs_transform", "spin10_action"),
    "serialize": ("module_to_json", "module_from_dict"),
    "cli": ("run",),
}

_NULL_SPACE = ("linalg", "null_space")


def metric_units() -> dict:
    """Name → unit of every metric a traced pass yields, in output order."""
    units = {}
    for layer, names in WRAPPED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.peak_mb"] = "MB"
    units["linalg.null_space.cells"] = "count"
    units["bench.self_s"] = "s"
    return units


class Tracer:
    """Records spans of the wrapped functions while :meth:`installed` is active."""

    def __init__(self):
        self.memory = False
        self.reset()

    def reset(self) -> None:
        """Clear the per-pass counters."""
        keys = [(layer, name) for layer, names in WRAPPED.items() for name in names]
        self.calls = dict.fromkeys(keys, 0)
        self.seconds = dict.fromkeys(keys, 0.0)
        self.self_s = dict.fromkeys(WRAPPED, 0.0)
        self.peak_bytes = dict.fromkeys(WRAPPED, 0)
        self.cells = 0
        self.root_s = 0.0
        self._depth = dict.fromkeys(WRAPPED, 0)
        self._stack = []  # open spans: [layer, has memory frame, start, child seconds]
        self._mem = []    # outermost-span memory frames: [bytes at entry, peak]

    def _open(self, layer: str) -> list:
        framed = self.memory and self._depth[layer] == 0
        self._depth[layer] += 1
        if framed:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        span = [layer, framed, 0.0, 0.0]
        self._stack.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, key) -> None:
        end = time.perf_counter()
        layer, framed, start, child = self._stack.pop()
        duration = end - start
        self.calls[key] += 1
        self.seconds[key] += duration
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.root_s += duration
        self._depth[layer] -= 1
        if framed:
            entry, peak = self._mem.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            self.peak_bytes[layer] = max(self.peak_bytes[layer], peak - entry)
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)

    def _wrap(self, layer: str, name: str, fn):
        key = (layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key == _NULL_SPACE:
                self.cells += int(np.prod(np.shape(args[0])))
            self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(key)

        return wrapper

    @contextmanager
    def installed(self, memory: bool):
        """Wrap the functions in every loaded cliffspin module; with ``memory``
        also trace allocations, which slows allocation-heavy code severalfold,
        so the times of such a pass are not representative."""
        modules = [mod for modname, mod in sorted(sys.modules.items())
                   if modname == "cliffspin" or modname.startswith("cliffspin.")]
        replaced = []
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"cliffspin.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
        self.memory = memory
        if memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            if memory:
                tracemalloc.stop()
            self.memory = False
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def pass_metrics(self, wall_s: float) -> dict:
        """Metrics of the pass just traced, which took ``wall_s`` seconds.

        Raises RuntimeError when a span is still open, which would mean a
        wrapper missed its exit and the self times are wrong.
        """
        if self._stack or self._mem:
            raise RuntimeError("span stack not empty at the end of a pass")
        out = {}
        for layer, names in WRAPPED.items():
            for name in names:
                out[f"{layer}.{name}.calls"] = self.calls[(layer, name)]
                out[f"{layer}.{name}.s"] = self.seconds[(layer, name)]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.peak_mb"] = self.peak_bytes[layer] / 2 ** 20
        out["linalg.null_space.cells"] = self.cells
        out["bench.self_s"] = wall_s - self.root_s
        return out
