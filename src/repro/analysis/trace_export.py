"""Chrome-trace export for sampled operation traces.

Writes the ``chrome://tracing`` / Perfetto JSON object format: one
complete ("X") event per span, timestamps in microseconds of simulated
time, one timeline row (tid) per client thread.  Output is fully
deterministic — a fixed benchmark seed yields byte-identical files.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.span import Trace

__all__ = ["chrome_trace", "write_chrome_trace"]


def _store_attempts(trace: "Trace") -> list:
    """The per-attempt store spans: direct ``store`` children of the root.

    Each ``session.execute`` call wraps one attempt in a
    ``<store>.<op>`` span directly under the root, so a retried
    operation shows two or more of them.
    """
    return [child for child in trace.root.children
            if child.component == "store"]


def _span_events(trace: "Trace") -> Iterable[dict]:
    attempts = _store_attempts(trace)
    retried = attempts if len(attempts) >= 2 else []
    for node in trace.spans():
        end = node.end if node.end is not None else trace.root.end
        event = {
            "name": node.name,
            "cat": node.component,
            "ph": "X",
            "ts": round(node.start * 1e6, 3),
            "dur": round(max(0.0, (end or node.start) - node.start) * 1e6,
                         3),
            "pid": 1,
            "tid": trace.thread,
        }
        args = dict(node.meta) if node.meta else {}
        if node is trace.root:
            args["trace_id"] = trace.trace_id
            args["op"] = trace.op
            args["key"] = trace.key
            if trace.error:
                args["error"] = True
            if getattr(trace, "error_kind", None):
                args["error_kind"] = trace.error_kind
            if getattr(trace, "keep_reason", None):
                args["keep_reason"] = trace.keep_reason
        elif node in retried:
            args["attempt"] = retried.index(node) + 1
        if args:
            event["args"] = args
        yield event
    # Flow events ("s" start -> "f" finish, binding at the enclosing
    # slice) stitch consecutive attempts of one logical operation into
    # a single arrow chain in the viewer, so a tail-sampled retry storm
    # reads as one flow rather than unrelated slices.
    for index in range(len(retried) - 1):
        prev, nxt = retried[index], retried[index + 1]
        prev_end = prev.end if prev.end is not None else trace.root.end
        common = {
            "name": "retry",
            "cat": "retry",
            "id": trace.trace_id,
            "pid": 1,
            "tid": trace.thread,
        }
        yield {**common, "ph": "s",
               "ts": round((prev_end or prev.start) * 1e6, 3)}
        yield {**common, "ph": "f", "bp": "e",
               "ts": round(nxt.start * 1e6, 3)}


def chrome_trace(traces: Iterable["Trace"]) -> dict:
    """The Chrome trace-event object for ``traces``."""
    events = []
    for trace in traces:
        events.extend(_span_events(trace))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "apmbench", "clock": "simulated"},
    }


def write_chrome_trace(traces: Iterable["Trace"], path: str) -> str:
    """Serialise ``traces`` to ``path``; returns the path written."""
    payload = chrome_trace(traces)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
