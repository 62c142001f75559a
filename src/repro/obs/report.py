"""RunReport: one self-describing JSON artifact per toolchain run.

A report bundles everything a CI job (or a person debugging one) needs to
ask "what did this run do": spans, metrics (counters + histograms),
coherence findings, transfer-byte totals, pass stats, and — for failed runs
— the typed error including the interactive loop's per-iteration convergence
history.  ``scripts/check_report_schema.py`` validates the schema and
``scripts/check_bench.py --compare-reports`` diffs two reports structurally
(deterministic fields only; wall-clock noise is excluded by construction).
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = [
    "SCHEMA",
    "build_report",
    "diff_reports",
    "structural_projection",
    "validate_report",
]

SCHEMA = "repro.run-report/2"


def build_report(ctx, command: Optional[str] = None,
                 program: Optional[str] = None,
                 params: Optional[Dict[str, object]] = None,
                 error: Optional[BaseException] = None,
                 extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Assemble the report from one :class:`~repro.toolchain.ToolchainContext`
    (and the last runtime it saw, when a run got that far)."""
    runtime = getattr(ctx, "last_runtime", None)
    tracer = getattr(ctx, "tracer", None)
    trace_context = getattr(ctx, "trace_context", None)

    report: Dict[str, object] = {
        "schema": SCHEMA,
        "command": command,
        "program": program,
        # Trace identity (None for runs outside the service/trace plumbing).
        # Excluded from the structural projection: ids are minted per run.
        "trace": (trace_context.to_dict()
                  if trace_context is not None else None),
        "params": {k: v for k, v in (params or {}).items()
                   if isinstance(v, (int, float, str, bool))},
        "metrics": ctx.metrics.snapshot(),
        "pass_stats": _pass_stats(ctx),
        "spans": ([s.to_dict() for s in tracer.sorted_spans()]
                  if tracer is not None and tracer.enabled else []),
        # Events emitted outside any open span (e.g. the interactive
        # loop's terminal optimize.no_convergence marker).
        "events": ([e.to_dict() for e in tracer.orphan_events]
                   if tracer is not None and tracer.enabled else []),
    }

    if runtime is not None:
        profiler = runtime.profiler
        device = runtime.device
        report["modeled_time_s"] = profiler.total()
        report["modeled_breakdown_s"] = {
            cat: sec for cat, sec in profiler.breakdown().items() if sec
        }
        report["bytes"] = {
            "h2d": device.bytes_h2d,
            "d2h": device.bytes_d2h,
            "total": device.total_transferred_bytes(),
            "saved": profiler.counters.get("bytes.saved", 0),
        }
        report["transfers"] = {
            "count": len(runtime.transfer_log),
            "batches": sum(rec.batches for rec in runtime.transfer_log),
        }
        report["launches"] = len(runtime.launch_log)
        tracker = runtime.coherence
        report["findings"] = ([
            {
                "kind": f.kind,
                "var": f.var,
                "site": f.site,
                "context": [list(c) for c in f.context],
                "nbytes_wasted": f.nbytes_wasted,
            }
            for f in tracker.findings
        ] if tracker is not None else [])
    else:
        report["modeled_time_s"] = None
        report["modeled_breakdown_s"] = {}
        report["bytes"] = {"h2d": 0, "d2h": 0, "total": 0, "saved": 0}
        report["transfers"] = {"count": 0, "batches": 0}
        report["launches"] = 0
        report["findings"] = []

    if error is not None:
        from repro.errors import error_stage

        err_entry: Dict[str, object] = {
            "type": type(error).__name__,
            "stage": error_stage(error),
            "message": str(error),
        }
        history = getattr(error, "history", None)
        if history:
            # ConvergenceError: the failed run carries its per-iteration
            # convergence trajectory (PR 2) right in the artifact.
            err_entry["convergence_history"] = list(history)
        report["error"] = err_entry
    else:
        report["error"] = None

    if extra:
        report.update(extra)
    return report


def _pass_stats(ctx) -> Dict[str, object]:
    stats = ctx.pass_stats
    return {
        name: {
            "invocations": rec.invocations,
            "cache_hits": rec.cache_hits,
            "cache_misses": rec.cache_misses,
        }
        for name, rec in sorted(stats.records.items())
    }


# ---------------------------------------------------------------------------
# Schema validation (hand-rolled: no external jsonschema dependency)
# ---------------------------------------------------------------------------

_TOP_LEVEL = {
    "schema": str,
    "params": dict,
    "metrics": dict,
    "pass_stats": dict,
    "spans": list,
    "events": list,
    "modeled_breakdown_s": dict,
    "bytes": dict,
    "transfers": dict,
    "launches": int,
    "findings": list,
}


def validate_report(report) -> List[str]:
    """Structural checks; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema") != SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, expected {SCHEMA!r}")
    for key, typ in _TOP_LEVEL.items():
        if key not in report:
            problems.append(f"missing key {key!r}")
        elif not isinstance(report[key], typ):
            problems.append(f"{key!r} is {type(report[key]).__name__}, "
                            f"expected {typ.__name__}")
    if problems:
        return problems

    metrics = report["metrics"]
    for sub in ("counters", "histograms"):
        if not isinstance(metrics.get(sub), dict):
            problems.append(f"metrics.{sub} missing or not an object")
    if isinstance(metrics.get("counters"), dict):
        for name, value in metrics["counters"].items():
            if not isinstance(value, int):
                problems.append(f"counter {name!r} is not an int")
    if isinstance(metrics.get("histograms"), dict):
        for name, hist in metrics["histograms"].items():
            if not isinstance(hist, dict) or not {
                "count", "sum", "min", "max", "buckets"
            } <= set(hist):
                problems.append(f"histogram {name!r} malformed")

    for key in ("h2d", "d2h", "total", "saved"):
        if not isinstance(report["bytes"].get(key), int):
            problems.append(f"bytes.{key} missing or not an int")

    for i, span in enumerate(report["spans"]):
        if not isinstance(span, dict):
            problems.append(f"spans[{i}] is not an object")
            continue
        if not isinstance(span.get("name"), str) or not isinstance(span.get("cat"), str):
            problems.append(f"spans[{i}] missing name/cat")
        if not isinstance(span.get("id"), int) or not isinstance(span.get("parent"), int):
            problems.append(f"spans[{i}] missing id/parent")
        if not isinstance(span.get("wall_s"), (int, float)):
            problems.append(f"spans[{i}] missing wall_s")
        if not isinstance(span.get("attrs"), dict) or not isinstance(span.get("events"), list):
            problems.append(f"spans[{i}] missing attrs/events")

    for i, finding in enumerate(report["findings"]):
        if not isinstance(finding, dict) or not {
            "kind", "var", "site"
        } <= set(finding):
            problems.append(f"findings[{i}] malformed")

    error = report.get("error")
    if error is not None and (not isinstance(error, dict)
                              or not {"type", "stage", "message"} <= set(error)):
        problems.append("error entry malformed")

    trace = report.get("trace")
    if trace is not None:
        if not isinstance(trace, dict) or not isinstance(
                trace.get("trace_id"), str):
            problems.append("trace entry malformed (expected trace_id string)")

    flight = report.get("flight_recorder")
    if flight is not None:
        if not isinstance(flight, dict):
            problems.append("flight_recorder is not an object")
        else:
            for ring, entries in flight.items():
                if not isinstance(entries, list) or not all(
                        isinstance(e, dict) for e in entries):
                    problems.append(
                        f"flight_recorder.{ring} is not a list of entries")
    return problems


# ---------------------------------------------------------------------------
# Structural diff (deterministic fields only)
# ---------------------------------------------------------------------------

def structural_projection(report: Dict[str, object]) -> Dict[str, object]:
    """The deterministic skeleton of a report: everything modeled or
    counted, nothing wall-clocked.  Two runs of the same program at the same
    settings project identically; any difference is a behavior change."""
    span_counts: Dict[str, int] = {}
    for span in report.get("spans", []):
        key = f"{span.get('cat', '?')}:{span.get('name', '?')}"
        span_counts[key] = span_counts.get(key, 0) + 1
    finding_counts: Dict[str, int] = {}
    for finding in report.get("findings", []):
        kind = finding.get("kind", "?")
        finding_counts[kind] = finding_counts.get(kind, 0) + 1
    metrics = report.get("metrics", {})
    return {
        "schema": report.get("schema"),
        "modeled_time_s": report.get("modeled_time_s"),
        "bytes": report.get("bytes"),
        "transfers": report.get("transfers"),
        "launches": report.get("launches"),
        "counters": metrics.get("counters", {}),
        "span_counts": dict(sorted(span_counts.items())),
        "finding_counts": dict(sorted(finding_counts.items())),
        "error": ((report.get("error") or {}).get("type")
                  if report.get("error") else None),
    }


def diff_reports(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Human-readable structural differences between two reports."""
    pa, pb = structural_projection(a), structural_projection(b)
    diffs: List[str] = []
    for key in sorted(set(pa) | set(pb)):
        va, vb = pa.get(key), pb.get(key)
        if va == vb:
            continue
        if isinstance(va, dict) and isinstance(vb, dict):
            for sub in sorted(set(va) | set(vb)):
                if va.get(sub) != vb.get(sub):
                    diffs.append(f"{key}.{sub}: {va.get(sub)!r} != {vb.get(sub)!r}")
        else:
            diffs.append(f"{key}: {va!r} != {vb!r}")
    return diffs
