"""Measuring primitives shared by the perf runner, its workloads and compare.py.

* :func:`summarize` turns repeated samples into median, quartiles and n.
* :class:`Recorder` keeps benchmark-side spans in memory (never inside the
  program under test) and :func:`self_times` / :func:`layer_totals` turn
  them into per-layer self time: a span's duration minus the part of its
  interval that its child spans cover.

Stdlib only, so the runner can load it before it knows the program exists.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile (``statistics.quantiles``) and n."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples to summarize")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * q / 100)))
    return ordered[rank - 1]


class Recorder:
    """In-memory span store; a disabled recorder records nothing.

    A span is a dict with ``workload``, ``op``, ``id``, ``name``
    (``layer.call``), ``start``, ``end``, ``parent`` and ``attrs``.  Inside
    :meth:`span` the parent defaults to the innermost span open on the same
    thread; :meth:`add` records an interval measured elsewhere, e.g. a
    request whose parts run on different threads.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name: str, start: float, end: float, *, op: Any = None,
            parent: Optional[int] = None, **attrs: Any) -> Optional[int]:
        if not self.enabled:
            return None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "workload": self.workload, "op": op, "id": span_id,
                "name": name, "start": start, "end": end, "parent": parent,
                "attrs": attrs,
            })
        return span_id

    @contextmanager
    def span(self, name: str, *, op: Any = None, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the body as one span; the yielded dict collects attributes."""
        if not self.enabled:
            yield {}
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = self.add(name, time.perf_counter(), float("nan"), op=op,
                           parent=parent, **attrs)
        stack.append(span_id)
        record = self.spans[span_id]
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def write_jsonl(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((max(c["start"], start), min(c["end"], end))
                             for c in children.get(span["id"], [])):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def layer_totals(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Self time summed per layer (the part of a span name before the dot)."""
    totals: Dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[span["id"]]
    return totals
