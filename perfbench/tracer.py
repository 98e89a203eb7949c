"""Spans around the benchmark's own calls into spinel, and the null tracer.

A span covers one call the benchmark makes into a module.  Spans never nest:
a call from spinstruct into quat stays inside the spinstruct span, so a span's
duration is the self time of the module at the boundary the benchmark sees.
Each span names its parent query; the query span itself is recorded by the
closed loop in run.py.
"""

from __future__ import annotations

import time
from collections import Counter


class NullTracer:
    """Same call path as Tracer, nothing recorded: the untraced runs use it."""

    query = None

    def call(self, layer, fn, *args):
        return fn(*args)

    def count(self, name):
        pass


class Tracer:
    """Keeps spans and counters in memory; run.py writes them out at the end."""

    def __init__(self):
        #: (layer, function qualname, start_ns, end_ns, query id, raised)
        self.spans: list[tuple[str, str, int, int, int, bool]] = []
        self.counts: Counter[str] = Counter()
        self.query = None

    def call(self, layer, fn, *args):
        start = time.perf_counter_ns()
        raised = True
        try:
            result = fn(*args)
            raised = False
            return result
        finally:
            end = time.perf_counter_ns()
            self.spans.append((layer, fn.__qualname__, start, end, self.query, raised))

    def count(self, name):
        self.counts[name] += 1
