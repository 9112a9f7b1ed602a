"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of `uniequiv` in the module namespace
where their callers look them up (for example `uniequiv.solver.nullspace_basis`,
which `solve_solution_space` calls), so nothing in the package changes.
Each span holds its name, start, end, parent index and request id; counts
are taken by the same wrappers. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import Counter

# (module, attribute, span name). A name seen in several modules is wrapped
# in each, because every caller resolves it in its own module.
TARGETS = (
    ("uniequiv.serialize", "load_instance", "serialize.parse"),
    ("uniequiv.serialize", "parse_instance", "serialize.parse"),
    ("uniequiv.serialize", "verdict_document", "serialize.dump"),
    ("uniequiv.serialize", "dumps_document", "serialize.dump"),
    ("uniequiv.serialize", "full_algebra", "algebra.construct"),
    ("uniequiv.serialize", "factor_algebra", "algebra.construct"),
    ("uniequiv.solver", "full_algebra", "algebra.construct"),
    ("uniequiv.states", "factor_algebra", "algebra.construct"),
    ("uniequiv.solver", "verify_algebra", "algebra.verify"),
    ("uniequiv.solver", "singular_value_prefilter", "solver.prefilter"),
    ("uniequiv.solver", "build_linear_system", "solver.build"),
    ("uniequiv.solver", "nullspace_basis", "linalg.nullspace"),
    ("uniequiv.solver", "sample_invertible", "solver.sample"),
    ("uniequiv.solver", "extract_unitaries", "solver.extract"),
    ("uniequiv.solver", "decide_uep", "solver.decide"),
    ("uniequiv.states", "decide_uep", "solver.decide"),
    ("uniequiv.cli", "decide_uep", "solver.decide"),
    ("uniequiv.solver", "decide_invertible_equivalence", "solver.matpoly"),
    ("uniequiv.cli", "decide_invertible_equivalence", "solver.matpoly"),
    ("uniequiv.linalg", "hermitian_eigendecomposition", "linalg.eig"),
    ("uniequiv.states", "hermitian_eigendecomposition", "linalg.eig"),
    ("uniequiv.states", "simultaneous_lu_pure", "states.reduce"),
    ("uniequiv.states", "unilocal_mixed_equivalence", "states.reduce"),
    ("uniequiv.states", "generic_mixed_lu", "states.reduce"),
    ("uniequiv.cli", "simultaneous_lu_pure", "states.reduce"),
    ("uniequiv.cli", "unilocal_mixed_equivalence", "states.reduce"),
    ("uniequiv.cli", "generic_mixed_lu", "states.reduce"),
)

# Counted without a span: one call per candidate drawn by the sampler.
COUNTED = (("uniequiv.solver", "draw_candidate", "solver.trials"),)


def _on_prefilter(rec, result):
    if not result[0]:
        rec.counts["solver.prefilter_no"] += 1


def _on_build(rec, result):
    rows, cols = result.matrix.shape
    rec.maxima["solver.system_mb"] = max(rec.maxima["solver.system_mb"], rows * cols * 8 / 2**20)


def _on_nullspace(rec, result):
    rec.counts["solver.nullity"] += int(result.shape[1])


def _on_sample(rec, result):
    if result is not None:
        rec.counts["solver.accepted"] += 1


ON_RESULT = {
    "solver.prefilter": _on_prefilter,
    "solver.build": _on_build,
    "linalg.nullspace": _on_nullspace,
    "solver.sample": _on_sample,
}


class Recorder:
    def __init__(self, request=0):
        self.spans = []          # [name, start, end, parent index, request id]
        self.stack = []
        self.request = request
        self.counts = Counter()  # includes "<span>.raised.<ExceptionType>"
        self.maxima = Counter()
        self.missing = []        # targets absent from the package under test
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           self.request])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        on_result = ON_RESULT.get(name)
        measure_memory = name == "linalg.nullspace"

        def wrapper(*args, **kwargs):
            if measure_memory:
                tracemalloc.start()
            try:
                result = self.call(name, fn, *args, **kwargs)
            finally:
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.maxima["linalg.nullspace_peak_mb"] = max(
                        self.maxima["linalg.nullspace_peak_mb"], peak)
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for targets, make in ((TARGETS, self._wrap), (COUNTED, self._count)):
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, make(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def absorb(self, other_spans, parent):
        """Append spans recorded in a child process under the span `parent`."""
        offset = len(self.spans)
        for name, start, end, par, request in other_spans:
            self.spans.append([name, start, end, parent if par < 0 else par + offset, request])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "maxima": dict(self.maxima), "missing": self.missing}, fh)


def self_times(spans):
    """Per span name: total self time (duration minus direct children) and call count."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, calls = Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += (end - start) - child[i]
        calls[name] += 1
    return total, calls


def child_calls(spans, name, parent_name):
    """How many `name` spans have a direct parent called `parent_name`."""
    return sum(1 for n, _, _, p, _ in spans if n == name and p >= 0 and spans[p][0] == parent_name)
