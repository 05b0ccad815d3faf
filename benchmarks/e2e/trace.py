"""In-memory span recorder for the traced benchmark pass.

The harness wraps each call into a layer's public function in a span
(``with tracer.span("parser.parse")``). Spans nest: the span open when
another starts is its parent, and every span carries the id of the
operation (the root span) that caused it. Nothing is written while the
benchmark runs; :func:`write_trace` dumps the spans at exit.

A layer's *self time* is its span's duration minus the time its child
spans cover, so the self times under one operation sum to exactly that
operation's duration (:func:`self_times` / :func:`check_self_times`).

One :class:`Tracer` per thread: the parent stack is not shared.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterable, Optional

__all__ = ["Tracer", "self_times", "check_self_times", "write_trace"]

# span record layout (a list, so the exit side can fill ``end`` in place)
ID, NAME, START, END, PARENT, OP, ATTRS = range(7)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> list:
        tracer = self.tracer
        record = self.record
        stack = tracer._stack
        if stack:
            parent = stack[-1]
            record[PARENT] = parent[ID]
            record[OP] = parent[OP]
        else:
            record[OP] = record[ID]
        stack.append(record)
        tracer.spans.append(record)
        record[START] = time.perf_counter_ns()
        return record

    def __exit__(self, *_exc: Any) -> None:
        self.record[END] = time.perf_counter_ns()
        self.tracer._stack.pop()


class Tracer:
    """Records ``[id, name, start_ns, end_ns, parent_id, op_id, attrs]``."""

    def __init__(self, first_id: int = 0):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._next = first_id

    def span(self, name: str, attrs: Optional[dict] = None) -> _Span:
        """A context manager timing one call; yields the span record so
        the caller can attach counters (``record[ATTRS]``) afterwards."""
        self._next += 1
        return _Span(self, [self._next, name, 0, 0, None, None, attrs])


def _own_times(spans: list[list]) -> list[tuple[list, int]]:
    """Pair every span with its self time (duration minus children)."""
    child_ns: dict[int, int] = {}
    for record in spans:
        if record[PARENT] is not None:
            child_ns[record[PARENT]] = (
                child_ns.get(record[PARENT], 0) + record[END] - record[START]
            )
    return [
        (record, record[END] - record[START] - child_ns.get(record[ID], 0))
        for record in spans
    ]


def self_times(spans: Iterable[list]) -> dict[str, tuple[int, int]]:
    """``name -> (total self ns, span count)`` over ``spans``."""
    out: dict[str, tuple[int, int]] = {}
    for record, own in _own_times(list(spans)):
        total, count = out.get(record[NAME], (0, 0))
        out[record[NAME]] = (total + own, count + 1)
    return out


def check_self_times(spans: Iterable[list]) -> int:
    """Number of operations whose spans' self times do *not* sum to the
    root span's duration (0 on a well-formed trace)."""
    self_sum: dict[int, int] = {}
    root_ns: dict[int, int] = {}
    for record, own in _own_times(list(spans)):
        self_sum[record[OP]] = self_sum.get(record[OP], 0) + own
        if record[PARENT] is None:
            root_ns[record[ID]] = record[END] - record[START]
    return sum(1 for op, total in root_ns.items() if self_sum[op] != total)


def write_trace(path: str, workload: str, spans: Iterable[list]) -> None:
    """Dump spans as JSON: one object per span, times in ns since the
    first span's start."""
    spans = list(spans)
    origin = min((record[START] for record in spans), default=0)
    doc = {
        "workload": workload,
        "time_unit": "ns",
        "fields": ["id", "name", "start", "end", "parent", "op", "attrs"],
        "spans": [
            [
                record[ID],
                record[NAME],
                record[START] - origin,
                record[END] - origin,
                record[PARENT],
                record[OP],
                record[ATTRS],
            ]
            for record in spans
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
