"""In-memory span tracer for the public functions of the ``edgeplan`` package.

Each traced function is wrapped in every ``edgeplan`` module namespace that
bound it by name (``optimizer`` imports ``accuracy_of_kappa`` directly,
``simulator`` imports ``solve_discrete``, and so on), so calls made inside
the package are recorded as well as calls made by the benchmark.  A span is
``[name, start, end, parent_index, phase]``; spans stay in memory until the
run ends.  Self time is a span's duration minus the time its child spans
cover; a span nested inside a span of the same name is left out of that
name's total so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import sys
from time import perf_counter

# (module, function) pairs, named after the module that defines them.
TARGETS = (
    ("circstats", "bessel_ratio"),
    ("circstats", "bessel_ratio_inv"),
    ("circstats", "sample_von_mises"),
    ("accuracy", "accuracy_of_kappa"),
    ("accuracy", "kappa_distorted"),
    ("accuracy", "min_depth_for_accuracy"),
    ("accuracy", "accuracy_model"),
    ("optimizer", "solve_discrete"),
    ("optimizer", "solve_cr"),
    ("optimizer", "brute_force"),
    ("simulator", "run_algorithm1"),
    ("simulator", "generate_dataset"),
    ("simulator", "distort"),
    ("simulator", "empirical_accuracy"),
    ("simulator", "classify_map"),
    ("simulator", "sweep"),
    ("rng", "make_rng"),
    ("config", "load_config"),
    ("cli", "main"),
)

NAMES = tuple(f"{module}.{func}" for module, func in TARGETS)


class Tracer:
    """Records spans while installed; restores every original on uninstall."""

    def __init__(self) -> None:
        self.spans: list = []
        self.phase = "work"
        self.records_built = 0
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.phase]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if name == "simulator.run_algorithm1":
                self.records_built += len(result[0])
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "edgeplan" or key.startswith("edgeplan."))
        ]
        for module_name, func in TARGETS:
            original = getattr(sys.modules[f"edgeplan.{module_name}"], func)
            wrapper = self._wrap(f"{module_name}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def aggregate(self, phase: str) -> dict:
        """Per-name ``calls``, ``self_s`` and ``total_s`` over one phase."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in NAMES}
        for i, (name, start, end, parent, span_phase) in enumerate(spans):
            if span_phase != phase:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                entry["total_s"] += end - start
        return out

    def write(self, path, unit: int) -> None:
        """Append the spans as ``unit,index,name,start,end,parent,phase`` lines."""
        with gzip.open(path, "at", encoding="utf-8") as fh:
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(f"{unit},{i},{name},{start:.9f},{end:.9f},{parent},{phase}\n")
