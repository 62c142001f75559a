"""Exporter round-trip tests on a telemetry-enabled run.

One traced benchmark run feeds every exporter: the Chrome-trace form must
carry the ``trace_context`` metadata event, the JSONL form must re-parse
losslessly with its identity header, and the RunReport built from the same
context must satisfy ``validate_report`` with the trace identity stamped."""

import json

import pytest

from repro.bench import suite
from repro.interp import run_compiled
from repro.obs.export import chrome_trace_events, to_jsonl_lines
from repro.obs.report import build_report, validate_report
from repro.obs.telemetry import TraceContext
from repro.obs.tracer import Tracer
from repro.toolchain import ToolchainContext

@pytest.fixture(scope="module")
def traced_run():
    """One JACOBI run with tracing + identity."""
    bench = suite.get("JACOBI")
    ctx = ToolchainContext()
    ctx.tracer = Tracer()
    ctx.trace_context = TraceContext("feedc0de12345678", "r000042")
    ctx.tracer.trace_context = ctx.trace_context
    compiled = bench.compile("optimized", ctx=ctx)
    run = run_compiled(compiled, params=bench.params("tiny"), ctx=ctx)
    return ctx, run


class TestChromeTrace:
    def test_trace_context_metadata_event(self, traced_run):
        ctx, _ = traced_run
        events = chrome_trace_events(ctx.tracer)
        meta = [e for e in events
                if e.get("ph") == "M" and e["name"] == "trace_context"]
        assert len(meta) == 1
        assert meta[0]["args"] == {"trace_id": "feedc0de12345678",
                                   "request_id": "r000042"}

    def test_json_serializes_losslessly(self, traced_run):
        ctx, _ = traced_run
        events = chrome_trace_events(ctx.tracer)
        assert json.loads(json.dumps(events)) == events

    def test_no_context_no_metadata(self):
        tracer = Tracer()
        with tracer.span("solo", category="test"):
            pass
        events = chrome_trace_events(tracer)
        assert not any(e["name"] == "trace_context" for e in events)


class TestJsonl:
    def test_header_record_carries_identity(self, traced_run):
        ctx, _ = traced_run
        lines = to_jsonl_lines(ctx.tracer)
        header = json.loads(lines[0])
        assert header == {"kind": "trace_context",
                          "trace_id": "feedc0de12345678",
                          "request_id": "r000042"}

    def test_every_line_reparses_losslessly(self, traced_run):
        ctx, _ = traced_run
        lines = to_jsonl_lines(ctx.tracer)
        assert len(lines) > 1
        for line in lines:
            record = json.loads(line)
            assert isinstance(record, dict) and "kind" in record
            # Lossless: re-serializing with the exporter's own settings
            # reproduces the line byte-for-byte.
            assert json.dumps(record, sort_keys=True) == line


class TestReport:
    def test_report_valid_with_trace_identity(self, traced_run):
        ctx, _ = traced_run
        report = build_report(ctx, command="run", program="jacobi.c",
                              params={"N": 16, "ITER": 3})
        assert validate_report(report) == []
        assert report["trace"] == {"trace_id": "feedc0de12345678",
                                   "request_id": "r000042"}

    def test_schema_checker_script_accepts(self, traced_run, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        ctx, _ = traced_run
        report = build_report(ctx, command="run", program="jacobi.c",
                              params={"N": 16, "ITER": 3})
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report, default=repr, sort_keys=True))
        repo = Path(__file__).resolve().parents[2]
        script = repo / "scripts" / "check_report_schema.py"
        if not script.exists():
            pytest.skip("no check_report_schema.py in this tree")
        proc = subprocess.run(
            [sys.executable, str(script), str(path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
