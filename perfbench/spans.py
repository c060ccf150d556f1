"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: while a recording is
active, selected module attributes of harecast are replaced by wrappers
that time each call, and the originals are put back when it ends.  Outside
a recording nothing is patched, so untraced work runs the original
functions with no added cost.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict


class Tracer:
    """Records (name, start, end, parent, op) spans and per-op counters.

    patch() registers a wrapper for owner.attr; the wrappers are installed
    only inside recording().  A span's name is a string or a function of
    the call's arguments; an optional counter maps (args, result) to
    {counter name: increment} for counts measured at the same boundary.
    """

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.ops = {}  # op id -> (unit, start_ns, end_ns)
        self.counters = defaultdict(lambda: defaultdict(float))  # op id -> name -> value
        self._patches = []
        self._stack = []
        self._op = None

    def patch(self, owner, attr, name, counter=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self._wrap(original, name, counter)))

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span = [label, 0, 0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                bucket = self.counters[self._op]
                for key, inc in counter(args, result).items():
                    bucket[key] += inc
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, unit, op_id):
        """Install the wrappers for the duration of one op of a unit."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._op = op_id
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)
            self._op = None
            self._stack.clear()
            self.ops[op_id] = (unit, start, end)

    def per_op(self):
        """op id -> span name -> [inclusive ns, self ns, calls]."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            row = table[op][name]
            row[0] += end - start
            row[1] += end - start - child_ns[i]
            row[2] += 1
        return table

    def coverage(self, op_id) -> float:
        """Share of the op's wall time spent inside top-level spans."""
        _, start, end = self.ops[op_id]
        covered = sum(e - s for _, s, e, parent, op in self.spans if op == op_id and parent < 0)
        return covered / (end - start)

    def write(self, path) -> None:
        """Dump every span as one JSON line (gzip), ops first."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for op_id, (unit, start, end) in sorted(self.ops.items()):
                fh.write(json.dumps({"op": op_id, "unit": unit, "start_ns": start, "end_ns": end}) + "\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
