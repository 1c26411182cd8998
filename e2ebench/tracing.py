"""In-memory spans recorded around the public layer calls a workload makes.

A span is ``(id, name, start, end, parent, op)``; spans of one op share the
op id.  The recorder keeps every span in memory and writes them out once,
when the run ends, so tracing adds no I/O to the measured loop.  Untraced
runs pass :func:`null_span` instead, which costs one shared no-op context
manager per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

__all__ = ["ROOT_SPAN", "SpanRecorder", "null_span", "self_times", "write_spans"]

#: Name of the span that wraps one whole op; its self time is the op's
#: wall time that no layer span covers (``trace.unattributed_s``).
ROOT_SPAN = "op"

_NULL = nullcontext()


def null_span(name: str):
    """The untraced stand-in for :meth:`SpanRecorder.span`."""
    return _NULL


class SpanRecorder:
    """Collects spans for a run; ``span`` is passed to the workload ops."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "name": name, "start": 0.0, "end": 0.0,
                  "parent": parent, "op": self.op}
        self.spans.append(record)
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def op_spans(self, op: int) -> list[dict]:
        return [s for s in self.spans if s["op"] == op]


def write_spans(spans: list[dict], path: Path) -> None:
    """Write spans as JSON lines, once, when the run ends."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds per span name: duration minus what child spans cover.

    Children of one parent never overlap (the run is single-threaded), so
    the covered part is the sum of the children's durations.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
