"""In-memory spans for the traced run, and the per-layer figures derived from them.

A span is one timed call into a curv4 layer, recorded from the benchmark's own
files: name ("<layer>.<operation>"), start, end, parent span and request id.
Spans of one request share the request id.  Probe spans (direct calls into a
layer that the request reached only through another layer) are roots of their
own, outside the request span, so they never inflate the request's time.

The untraced run uses `NULL_TRACER`, whose spans record nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("surd", "bivector", "berger", "estimates", "topology", "classify", "io", "cli")
REQUEST = "bench.request"


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer of the untraced run: spans and counts cost one call and record nothing."""

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, parent, tracer.request_id, None])

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        rec = self.tracer.spans[self.index]
        rec[2] = time.perf_counter()
        if exc_type is not None:
            rec[5] = exc_type.__name__
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans as [name, start, end, parent index, request id, error type]."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        # figures measured once per traced run rather than per call (peak memory)
        self.values: dict = {}
        self.request_id = -1
        self._stack: list = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def dump(self, path: str, provenance: dict) -> None:
        """Write one JSON line of provenance, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": provenance, "counts": dict(self.counts)}) + "\n")
            keys = ("name", "start", "end", "parent", "request", "error")
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    # -- derived figures ------------------------------------------------------------

    def durations(self, name: str) -> list:
        return [r[2] - r[1] for r in self.spans if r[0] == name]

    def median_ms(self, name: str, per: int = 1) -> float:
        d = self.durations(name)
        return statistics.median(d) * 1e3 / per if d else 0.0

    def median_us(self, name: str, per: int = 1) -> float:
        return self.median_ms(name, per) * 1e3

    def by_request(self, name: str) -> dict:
        """Duration of the span `name` per request id, for spans that raised nothing."""
        return {r[4]: r[2] - r[1] for r in self.spans if r[0] == name and r[5] is None}

    def self_times(self) -> dict:
        """Self time per layer inside request spans, in seconds summed over requests.

        A span's self time is its duration minus the time its direct children
        cover.  Only the request subtrees count; probe roots are excluded.
        """
        child_time = defaultdict(float)
        in_request = [False] * len(self.spans)
        for i, r in enumerate(self.spans):
            parent = r[3]
            if r[0] == REQUEST:
                in_request[i] = True
            elif parent >= 0 and in_request[parent]:
                in_request[i] = True
            if parent >= 0:
                child_time[parent] += r[2] - r[1]
        out = defaultdict(float)
        for i, r in enumerate(self.spans):
            if in_request[i]:
                layer = r[0].split(".", 1)[0]
                out[layer] += (r[2] - r[1]) - child_time[i]
        return dict(out)

    def layer_time(self) -> float:
        """Time covered by the layer spans directly under request spans (seconds)."""
        roots = {i for i, r in enumerate(self.spans) if r[0] == REQUEST}
        return sum(
            r[2] - r[1]
            for r in self.spans
            if r[3] in roots and r[0].split(".", 1)[0] in LAYERS
        )
