"""Spans around the calls into bellpoly's layers, for the traced run.

:func:`installed` wraps each function in :data:`TRACED` under every name
it is bound to inside the ``bellpoly`` package (its own module, modules
that imported it by name, and the package namespace), and restores the
originals afterwards.  Source files are not touched, and a run without
tracing installs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, function, per-layer metrics reported for it)
BOTH = ("calls_per_item", "self_ms_per_item")
TRACED = (
    ("chained", "identify_gpr", BOTH),
    ("chained", "chained_value", ("calls_per_item",)),  # boxes scanned
    ("chained", "decompose_chained", BOTH),
    ("chained", "tightness_witness", BOTH),
    ("efficiency", "critical_efficiency", BOTH),
    ("efficiency", "apply_efficiency", ("calls_per_item",)),  # bisection probes
    ("metrics", "kl_closest_local", BOTH),
    ("metrics", "kl_minimize", BOTH),
    ("metrics", "tv_closest_local", BOTH),
    ("metrics", "face_projection", BOTH),
    ("chsh", "violated_symmetry", BOTH),
    ("chsh", "decompose_222", BOTH),
    ("chsh", "decompose_local_222", BOTH),
    ("chsh", "estimator_weights", BOTH),
    ("exactlin", "rank", BOTH),
    ("exactlin", "solve_square", BOTH),
    ("exactlin", "simplex_feasible", BOTH),
    ("exactlin", "project_onto_affine", BOTH),
    ("polytope", "enumerate_vertices", BOTH),
    ("polytope", "is_extremal", BOTH),
    ("core", "validate", BOTH),
    ("core", "mix", BOTH),
    ("fileio", "load_distribution", BOTH),
)
# Counters read from a traced function's return value.
RESULT_COUNTERS = {
    "metrics.kl_minimize": ("iterations", lambda result: result[2]),
}


class Tracer:
    """Spans kept in flat arrays; self time is a span's duration minus
    the time its child spans cover."""

    def __init__(self):
        self.names: list[str] = []
        self.item = -1
        self.columns = {k: array("q") for k in ("id", "parent", "item", "name", "start", "end")}
        self.open: list[list[int]] = []  # [span id, name id, start ns, child ns]
        self.next_id = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.wrappers: dict[str, object] = {}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = RESULT_COUNTERS.get(name)
        clock, stack, columns = time.perf_counter_ns, self.open, self.columns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.next_id, name_id, 0, 0]
            self.next_id += 1
            stack.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - span[2]
                if stack:
                    stack[-1][3] += duration
                for key, value in (("id", span[0]), ("parent", stack[-1][0] if stack else -1),
                                   ("item", self.item), ("name", name_id),
                                   ("start", span[2]), ("end", end)):
                    columns[key].append(value)
                self.calls[name] += 1
                self.self_ns[name] += duration - span[3]
            if counter:
                self.counters[f"{name}.{counter[0]}"] += counter[1](result)
            return result

        return traced

    def layer_metrics(self, items: int) -> dict:
        """Per-item normalised calls, self time and counters."""
        out = {}
        for module, function, kinds in TRACED:
            name = f"{module}.{function}"
            if "calls_per_item" in kinds:
                out[f"{name}.calls_per_item"] = (self.calls[name] / items, "count")
            if "self_ms_per_item" in kinds:
                out[f"{name}.self_ms_per_item"] = (self.self_ns[name] / 1e6 / items, "ms")
        for name, (counter, _) in RESULT_COUNTERS.items():
            out[f"{name}.{counter}_per_item"] = (self.counters[f"{name}.{counter}"] / items, "count")
        return out

    def write(self, path: Path) -> int:
        """Write the spans as tab-separated rows; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.columns
        with path.open("w") as handle:
            handle.write("id\tparent\titem\tname\tstart_ns\tend_ns\n")
            for row in zip(cols["id"], cols["parent"], cols["item"], cols["name"],
                           cols["start"], cols["end"]):
                handle.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{self.names[row[3]]}\t{row[4]}\t{row[5]}\n")
        return len(cols["id"])


@contextlib.contextmanager
def installed(tracer: Tracer):
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "bellpoly" or name.startswith("bellpoly."))]
    patched = []
    try:
        for module, function, _ in TRACED:
            name = f"{module}.{function}"
            original = getattr(sys.modules[f"bellpoly.{module}"], function)
            if name not in tracer.wrappers:
                tracer.wrappers[name] = tracer.wrap(name, original)
            wrapper = tracer.wrappers[name]
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        patched.append((m, attr, original))
        yield tracer
    finally:
        for m, attr, original in reversed(patched):
            setattr(m, attr, original)
