"""Spans recorded around the benchmark's calls into the thicket layers.

A span has a name, a start, an end and the index of its parent span.
Spans are kept in memory and written out once the round has ended.  A
span name is ``<layer>.<call>``, optionally qualified as
``<layer>.<call>/<qualifier>``; the part before the first dot names the
layer.  Layer ``harness`` is the benchmark's own bookkeeping.

The spans sit at the boundary between the benchmark and the layers, so
a layer's self time includes whatever that layer calls internally in
other layers (``classifier.enumerate_thick`` reads ``root_coxeter``
caches, for example).  Spans inside the program are not part of this
benchmark.
"""

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Span recorder; a disabled tracer hands out a shared no-op context."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self._null = nullcontext()

    def span(self, name):
        if not self.enabled:
            return self._null
        return self._span(name)

    @contextmanager
    def _span(self, name):
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def self_times(self):
        """Per-span-name and per-layer self time, in seconds.

        Self time is a span's duration minus the durations of its
        direct children; children never outlive their parent.
        """
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        by_name = {}
        by_layer = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            own = (end - start) - child_total[i]
            by_name[name] = by_name.get(name, 0.0) + own
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + own
        return by_name, by_layer

    @staticmethod
    def span_cost(samples=20000):
        """Seconds one span adds, measured on a throwaway tracer."""
        probe = Tracer(True)
        t0 = perf_counter()
        for _ in range(samples):
            with probe.span("harness.probe"):
                pass
        return (perf_counter() - t0) / samples

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p}
                    for n, s, e, p in self.spans
                ],
                fh,
            )
