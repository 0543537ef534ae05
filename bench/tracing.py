"""Timing wrappers around the public functions of each ``anycond`` layer.

Only the traced run installs them.  :meth:`Tracer.install` replaces every
binding site of each traced function (``anycond.cli.order_parameter`` as
well as ``anycond.entropy.order_parameter``) and wraps the ``__init__`` of
the traced classes, so that calls made between modules are seen too.
:meth:`Tracer.remove` puts the originals back.  Spans (name, start, end,
parent) are kept in memory and folded into per-function call counts and
self times after each pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

TRACED = (
    ("channels", "SectorState"),
    ("channels", "restrict"),
    ("channels", "lift"),
    ("channels", "round_trip"),
    ("channels", "lift_coarse"),
    ("channels", "verify_idempotence"),
    ("entropy", "order_parameter"),
    ("branching", "jones_index"),
    ("branching", "overlap_matrix"),
    ("branching", "validate_branching"),
    ("branching", "BranchingData"),
    ("systems", "AnyonSystem"),
    ("systems", "validate_system"),
    ("search", "enumerate_branchings"),
    ("io", "branching_to_dict"),
    ("io", "load"),
    ("duality", "find_dualities"),
    ("duality", "verify_duality"),
    ("duality", "apply_permutation"),
    ("cli", "build_parser"),
    ("cli", "main"),
    ("catalog", "entry"),
)
# Counts read off return values at the layer boundary.
RESULT_COUNTS = {
    "search.enumerate_branchings": "search.results",
    "duality.find_dualities": "duality.results",
}
COUNTERS = ("search.candidates", "search.results", "duality.results")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self._stack: list[int] = []
        self._undo: list = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.passes = 0
        self.last_pass: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = RESULT_COUNTS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter_ns(), parent)
                stack.pop()
            if counter:
                counts[counter] += len(result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "anycond" or n.startswith("anycond.")]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            obj = getattr(importlib.import_module(f"anycond.{module_name}"), attr)
            if isinstance(obj, type):
                original = obj.__dict__["__init__"]
                obj.__init__ = self._wrap(name, original)
                self._undo.append((obj, "__init__", original))
                continue
            wrapper = self._wrap(name, obj)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is obj:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, obj))

    def remove(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def fold(self):
        """Add the spans of one finished pass to the totals, then forget
        all but the last pass's spans (kept for :meth:`write`)."""
        child_ns = [0] * len(self.spans)
        under_search = [False] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                under_search[i] = under_search[parent] or self.spans[parent][0] == "search.enumerate_branchings"
        for i, (name, start, end, parent) in enumerate(self.spans):
            self.calls[name] += 1
            self.self_ns[name] += end - start - child_ns[i]
            if under_search[i] and name == "branching.validate_branching":
                self.counts["search.candidates"] += 1
        self.passes += 1
        self.last_pass = list(self.spans)
        self.spans.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-pass means of calls, self time and counters."""
        per = max(self.passes, 1)
        out = {}
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            out[f"{name}.calls"] = (self.calls[name] / per, "count")
            out[f"{name}.self_s"] = (self.self_ns[name] / per / 1e9, "s")
        for name in COUNTERS:
            out[name] = (self.counts[name] / per, "count")
        candidates = self.counts["search.candidates"]
        ratio = self.counts["search.results"] / candidates if candidates else 0.0
        out["search.useful_ratio"] = (ratio, "ratio")
        return out

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.last_pass):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
