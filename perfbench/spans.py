"""In-memory span recorder and the self-time arithmetic built on it.

A span is (id, name, start, end, parent, op, work): `parent` is the id of
the span that caused it, `op` the identifier shared by every span of one
benchmark operation and `work` the units of work the call did (sweeps for a
chain, else 1).  Spans are kept in a list and written out only when the
run ends.  A span's self time is its duration minus the part of its interval
that its children cover; children that overlap (the verify fan-out runs in
threads) are merged before they are subtracted.
"""
from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    work: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; safe to use from the verify fan-out's worker threads."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, parent: int | None = None, op: int | None = None,
             work: int = 1):
        with self._lock:
            sid = next(self._ids)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, op, work))


class NullTracer:
    """Tracing off: every span is a no-op context yielding None."""

    enabled = False

    def span(self, name: str, parent: int | None = None, op: int | None = None,
             work: int = 1):
        return nullcontext()


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one empty span, in seconds."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t0) / samples


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c.start, sp.start), min(c.end, sp.end)) for c in children[sp.id]]
        out[sp.id] = sp.duration - _covered([k for k in kids if k[1] > k[0]])
    return out


def durations_by_name(spans) -> dict[str, list[float]]:
    out = defaultdict(list)
    for sp in spans:
        out[sp.name].append(sp.duration)
    return out


def layer_of(name: str) -> str:
    """The module a span belongs to: the part of its name before the first dot."""
    return name.split(".", 1)[0]


def op_breakdown(spans) -> dict:
    """Per-op accounting of the timed loop's traced ops.

    For every op span (name "op"), the time of each layer is the self time
    of that layer's spans in the op's tree; the op span's own self time is
    the benchmark's work between calls (output checks, input files).  The
    layer times of one op add up to the op's duration, except where calls
    run in threads at once (the verify fan-out): there they add up to the
    busy time of all threads, which is more.
    """
    selft = self_times(spans)
    ops = [sp for sp in spans if sp.name == "op"]
    if not ops:
        return {"ops": 0}
    op_ids = {sp.op for sp in ops}
    per_layer = defaultdict(float)
    for sp in spans:
        if sp.op in op_ids and sp.name != "op":
            per_layer[layer_of(sp.name)] += selft[sp.id]
    total = sum(sp.duration for sp in ops)
    op_self = [selft[sp.id] for sp in ops]
    return {
        "ops": len(ops),
        "op_ms_mean": 1e3 * total / len(ops),
        "op_self_ms_median": 1e3 * statistics.median(op_self),
        "layer_self_ms_per_op": {k: 1e3 * v / len(ops) for k, v in sorted(per_layer.items())},
        "layer_share": {k: v / total for k, v in sorted(per_layer.items())},
        "op_self_share": sum(op_self) / total,
        "wait_ms": None,
    }


def to_rows(spans, t0: float) -> list[list]:
    """Spans as JSON rows [id, name, start_s, end_s, parent, op, work], times from t0."""
    return [[sp.id, sp.name, sp.start - t0, sp.end - t0, sp.parent, sp.op, sp.work]
            for sp in sorted(spans, key=lambda s: s.id)]
