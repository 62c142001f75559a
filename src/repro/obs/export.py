"""Trace exporters: Chrome-trace JSON, JSONL event stream, tree view.

The Chrome-trace form loads directly in ``chrome://tracing`` and Perfetto
(one complete event per span, one instant event per span event, modeled
times in ``args``).  The JSONL form is one self-describing JSON object per
line — spans and events interleaved in start order — for ``jq``-style
processing.  The tree view is the human ``repro trace <prog> --format
tree`` rendering.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.obs.tracer import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "render_tree",
    "to_jsonl_lines",
    "write_chrome_trace",
    "write_jsonl",
]


def _json_safe(value):
    """Attribute values come from toolchain internals; keep the export
    loadable whatever they are."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def _safe_attrs(attrs: Dict[str, object]) -> Dict[str, object]:
    return {str(k): _json_safe(v) for k, v in attrs.items()}


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, object]]:
    """The ``traceEvents`` list: ``ph=X`` complete events for spans,
    ``ph=i`` instants for span events, microsecond timestamps relative to
    the tracer epoch."""
    pid = os.getpid()
    events: List[Dict[str, object]] = []

    trace_context = getattr(tracer, "trace_context", None)
    if trace_context is not None:
        # Identity metadata: lets a viewer (or a cross-process stitcher)
        # attribute this export to its service request.  Absent entirely
        # when no trace context is set, so plain traced runs are unchanged.
        events.append({
            "name": "trace_context",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "args": dict(trace_context.to_dict()),
        })

    for span in tracer.sorted_spans():
        args = _safe_attrs(span.attrs)
        if span.modeled_seconds is not None:
            args["modeled_us"] = span.modeled_seconds * 1e6
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": (span.wall_start - tracer.epoch) * 1e6,
            "dur": span.wall_seconds * 1e6,
            "pid": pid,
            "tid": span.thread_id,
            "args": args,
        })
        for ev in span.events:
            events.append({
                "name": ev.name,
                "cat": span.category,
                "ph": "i",
                "s": "t",
                "ts": (ev.wall - tracer.epoch) * 1e6,
                "pid": pid,
                "tid": span.thread_id,
                "args": _safe_attrs(ev.attrs),
            })
    for ev in tracer.orphan_events:
        events.append({
            "name": ev.name,
            "cat": "orphan",
            "ph": "i",
            "s": "p",
            "ts": (ev.wall - tracer.epoch) * 1e6,
            "pid": pid,
            "tid": 0,
            "args": _safe_attrs(ev.attrs),
        })
    return events


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    payload = {"traceEvents": chrome_trace_events(tracer),
               "displayTimeUnit": "ms"}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))
        handle.write("\n")


def to_jsonl_lines(tracer: Tracer) -> List[str]:
    """One JSON object per line: spans (with nested events) in start order,
    preceded by a ``trace_context`` header record when an identity is set."""
    lines = []
    trace_context = getattr(tracer, "trace_context", None)
    if trace_context is not None:
        lines.append(json.dumps(
            {"kind": "trace_context", **trace_context.to_dict()},
            sort_keys=True,
        ))
    for span in tracer.sorted_spans():
        record = span.to_dict()
        record["kind"] = "span"
        record["attrs"] = _safe_attrs(record["attrs"])
        record["events"] = [
            {**e, "attrs": _safe_attrs(e.get("attrs", {}))}
            for e in record["events"]
        ]
        lines.append(json.dumps(record, sort_keys=True))
    for ev in tracer.orphan_events:
        lines.append(json.dumps(
            {"kind": "event", "name": ev.name, "attrs": _safe_attrs(ev.attrs)},
            sort_keys=True,
        ))
    return lines


def write_jsonl(tracer: Tracer, path: str) -> None:
    with open(path, "w") as handle:
        for line in to_jsonl_lines(tracer):
            handle.write(line + "\n")


def render_tree(tracer: Tracer, max_events: int = 4) -> str:
    """Indented span tree with wall/modeled durations and inline events."""
    spans = tracer.sorted_spans()
    known = {span.span_id for span in spans}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        # A parent that never closed (error unwinding) is absent from the
        # finished list; render its children as roots rather than dropping.
        parent = span.parent_id if span.parent_id in known else 0
        children.setdefault(parent, []).append(span)

    lines: List[str] = []

    def fmt_attrs(attrs: Dict[str, object]) -> str:
        if not attrs:
            return ""
        body = " ".join(f"{k}={_json_safe(v)}" for k, v in attrs.items())
        return f"  [{body}]"

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        modeled = span.modeled_seconds
        clocks = f"{span.wall_seconds * 1e6:.0f}us wall"
        if modeled is not None:
            clocks += f", {modeled * 1e6:.1f}us modeled"
        lines.append(f"{indent}{span.name} ({span.category}) "
                     f"{clocks}{fmt_attrs(span.attrs)}")
        shown = span.events[:max_events]
        for ev in shown:
            lines.append(f"{indent}  * {ev.name}{fmt_attrs(ev.attrs)}")
        hidden = len(span.events) - len(shown)
        if hidden > 0:
            lines.append(f"{indent}  * ... {hidden} more event(s)")
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in children.get(0, ()):
        walk(root, 0)
    for ev in tracer.orphan_events:
        lines.append(f"* {ev.name}{fmt_attrs(ev.attrs)}")
    return "\n".join(lines) or "(no spans recorded)"
