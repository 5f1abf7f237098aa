"""In-memory span recorder for the traced benchmark run.

Spans sit at layer boundaries: the benchmark opens its own spans around a
job and its file-format phases, and `Tracer.installed` wraps the module-level
functions that censtab's layers import from one another.  Nothing under
`src/` changes; a wrapped name is re-bound in every censtab module that holds
it (the defining module included, so intra-module calls such as `quotient`
calling `ideal_witness` are seen too) and restored afterwards.

A span is the list [name, start, end, parent, job]: `parent` is the index of
the enclosing span (-1 for none) and `job` the id of the job that ran it.
Spans stay in memory until `write` dumps them as JSON.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# The layer functions that get a span, as "module.name" under censtab.
WRAPPED = (
    "algebras.build_algebra",
    "algebras.center",
    "algebras.commutator_space",
    "algebras.ideal_generated",
    "algebras.ideal_witness",
    "algebras.quotient",
    "radical.radical",
    "linalg.kernel_of_rows",
    "linalg.subspace_intersect",
    "linalg.express_in_span",
    "stability.algebra_centrally_stable",
    "stability.element_centrally_stable",
    "stability.decompose_tensor_element",
    "stability.verify_certificate",
)

# Spans the benchmark itself opens around the calls into the file format.
BENCH_SPANS = ("fileformat.load", "fileformat.report", "fileformat.replay")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = -1

    @contextmanager
    def span(self, name):
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Re-bind every name in WRAPPED, in each censtab module holding it."""
        modules = [m for k, m in sys.modules.items() if k == "censtab" or k.startswith("censtab.")]
        undo = []
        try:
            for target in WRAPPED:
                mod, name = target.split(".")
                orig = getattr(sys.modules[f"censtab.{mod}"], name)
                wrapper = self._wrap(target, orig)
                for m in modules:
                    if m.__dict__.get(name) is orig:
                        setattr(m, name, wrapper)
                        undo.append((m, name, orig))
            yield self
        finally:
            for m, name, orig in reversed(undo):
                setattr(m, name, orig)

    def summary(self, scale):
        """Per span name: calls, total seconds and self seconds.

        Durations are multiplied by scale[job] (see clock.py); spans of jobs
        missing from `scale` count no time.  Self time is the span's duration
        minus the time its child spans cover; children of one span run one
        after another, so their durations add up.  No wrapped function calls
        itself, so total time counts each span once.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, job) in enumerate(spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            f = scale.get(job, 0.0)
            dur = end - start
            out[name] = (calls + 1, total + dur * f, self_s + (dur - child[idx]) * f)
        return out

    def count_children(self, parent_name, child_name):
        """How many `child_name` spans sit directly under a `parent_name` span."""
        spans = self.spans
        return sum(
            1
            for name, _, _, parent, _ in spans
            if name == child_name and parent >= 0 and spans[parent][0] == parent_name
        )

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p, j] for n, s, e, p, j in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": rows}, fh, separators=(",", ":"))
