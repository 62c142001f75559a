"""Telemetry-plane unit tests: trace contexts, the flight recorder, the
sliding-window statistics, the Prometheus rendering, and trace propagation
across the experiment scheduler's process pool."""

import pickle
import sys
from pathlib import Path

import pytest

from repro.experiments.scheduler import RowJob, _execute_in_worker, run_jobs
from repro.obs.metrics import Histogram, WindowedHistogram
from repro.obs.telemetry import (
    FlightRecorder,
    Telemetry,
    TraceContext,
    render_prometheus,
)
from repro.obs.tracer import Tracer
from repro.toolchain import ToolchainContext

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
from check_prometheus import validate as validate_prometheus  # noqa: E402


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTraceContext:
    def test_mint_is_unique(self):
        a, b = TraceContext.mint(), TraceContext.mint()
        assert a.trace_id != b.trace_id
        assert len(a.trace_id) == 16

    def test_to_dict_and_equality(self):
        tc = TraceContext("cafe", "r1")
        assert tc.to_dict() == {"trace_id": "cafe", "request_id": "r1"}
        assert tc == TraceContext("cafe", "r1")
        assert tc != TraceContext("cafe", "r2")

    def test_pickle_roundtrip(self):
        tc = TraceContext.mint("r42")
        clone = pickle.loads(pickle.dumps(tc))
        assert clone == tc


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record({"kind": "event", "i": i})
        assert len(rec) == 4
        assert rec.dropped == 6
        assert [e["i"] for e in rec.tail()] == [6, 7, 8, 9]
        assert [e["i"] for e in rec.tail(2)] == [8, 9]

    def test_sink_records_spans_with_tag(self):
        rec = FlightRecorder()
        tracer = Tracer()
        tracer.sinks = [rec.sink({"trace_id": "cafe", "request_id": "r1"})]
        with tracer.span("work", category="test", n=3, obj=object()):
            tracer.event("tick", step=1)
        entries = rec.tail()
        kinds = [e["kind"] for e in entries]
        assert "span" in kinds
        span = next(e for e in entries if e["kind"] == "span")
        assert span["name"] == "work"
        assert span["trace_id"] == "cafe" and span["request_id"] == "r1"
        assert span["attrs"]["n"] == 3
        # Non-primitive attrs are stringified, never carried by reference.
        assert isinstance(span["attrs"]["obj"], str)

    def test_orphan_events_reach_sink(self):
        rec = FlightRecorder()
        tracer = Tracer()
        tracer.sinks = [rec.sink()]
        tracer.event("standalone", x=1)
        assert [e["name"] for e in rec.tail() if e["kind"] == "event"] \
            == ["standalone"]


class TestWindowedHistogram:
    def test_window_expires_old_observations(self):
        clock = FakeClock()
        wh = WindowedHistogram(window_s=60.0, slots=6, clock=clock)
        wh.observe(10.0)
        assert wh.merged().count == 1
        clock.advance(30.0)
        wh.observe(20.0)
        assert wh.merged().count == 2
        # Past the window: only the newer observation's slot survives.
        clock.advance(45.0)
        assert wh.merged().count == 1
        clock.advance(120.0)
        assert wh.merged().count == 0

    def test_quantiles_are_ordered(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.5) <= h.quantile(0.95) <= h.quantile(0.99)
        assert h.quantile(0.0) >= 1.0
        assert h.quantile(1.0) <= 100.0


class TestTelemetry:
    def test_lifecycle_and_latency(self):
        clock = FakeClock()
        tel = Telemetry(workers=2, window_s=60.0, clock=clock)
        tel.request_submitted()
        assert tel.snapshot()["queue_depth"] == 1
        tel.request_started("compile")
        snap = tel.snapshot()
        assert snap["queue_depth"] == 0 and snap["inflight"] == 1
        clock.advance(1.0)
        tel.request_finished("compile", 0.010, ok=True)
        snap = tel.snapshot()
        assert snap["inflight"] == 0
        assert snap["requests"] == 1 and snap["errors"] == 0
        verb = snap["verbs"]["compile"]
        assert verb["count"] == 1
        assert verb["p50_ms"] > 0
        assert verb["buckets"][-1]["le"] == "+Inf"
        assert verb["buckets"][-1]["count"] == 1

    def test_utilization(self):
        clock = FakeClock()
        tel = Telemetry(workers=1, window_s=10.0, clock=clock)
        clock.advance(10.0)
        tel.request_started("run")
        tel.request_finished("run", 5.0, ok=True)
        # 5 busy seconds in a 10s window over 1 worker.
        assert tel.utilization() == pytest.approx(0.5)
        assert tel.snapshot()["utilization"] == pytest.approx(0.5)

    def test_errors_counted(self):
        tel = Telemetry(workers=1)
        tel.request_started("run")
        tel.request_finished("run", 0.001, ok=False)
        assert tel.snapshot()["errors"] == 1

    def test_record_run_folds_device_aggregates(self):
        class FakeRuntime:
            busy_s = 0.25

        tel = Telemetry(workers=1)
        tel.record_run(FakeRuntime())
        tel.record_run(FakeRuntime())
        assert tel.snapshot()["device_busy_s"] == pytest.approx(0.5)

    def test_record_run_without_busy_time_is_noop(self):
        tel = Telemetry(workers=1)
        tel.record_run(object())
        assert tel.snapshot()["device_busy_s"] == 0.0


class TestRenderPrometheus:
    def _loaded_snapshot(self):
        tel = Telemetry(workers=2)
        for i in range(20):
            tel.request_started("compile")
            tel.request_finished("compile", 0.001 * (i + 1), ok=True)
        tel.request_started("run")
        tel.request_finished("run", 0.5, ok=False)

        class FakeRuntime:
            busy_s = 0.3

        tel.record_run(FakeRuntime())
        return tel.snapshot()

    def test_exposition_is_valid(self):
        text = render_prometheus(
            self._loaded_snapshot(),
            counters={"service.requests": 21, "bytes.h2d": 64},
            cache={"mem": {"hits": 3, "misses": 1, "hit_ratio": 0.75},
                   "disk": {"hits": 0, "misses": 4, "hit_ratio": 0.0}})
        problems = validate_prometheus(
            text,
            required_families=(
                "repro_requests_total", "repro_errors_total",
                "repro_request_latency_ms", "repro_worker_utilization",
                "repro_device_busy_seconds", "repro_cache_hit_ratio",
                "repro_counter_total"))
        assert problems == []
        # One unlabelled busy series for the one simulated device.
        assert "repro_device_busy_seconds 0.3" in text.splitlines()

    def test_counter_names_are_sanitized(self):
        text = render_prometheus(self._loaded_snapshot())
        # Verb labels and family names never contain raw dots.
        for line in text.splitlines():
            if not line.startswith("#"):
                name = line.split("{")[0].split(" ")[0]
                assert "." not in name

    def test_empty_snapshot_renders(self):
        text = render_prometheus(Telemetry(workers=1).snapshot())
        assert validate_prometheus(text) == []


class TestSchedulerTracePropagation:
    PROBE = "tests.obs.trace_probe"

    def test_worker_rebuilds_trace_context(self):
        tc = TraceContext("cafe1234", "r7")
        row = _execute_in_worker((None, None, tc),
                                 RowJob(self.PROBE, "JACOBI", "tiny"))
        assert row["trace"] == {"trace_id": "cafe1234", "request_id": "r7"}

    def test_pool_ships_trace_to_workers(self):
        ctx = ToolchainContext()
        ctx.trace_context = TraceContext("feed5678", "r1")
        jobs = [RowJob(self.PROBE, name, "tiny")
                for name in ("A", "B", "C", "D")]
        rows = run_jobs(jobs, jobs_n=2, ctx=ctx)
        assert [r["trace"]["trace_id"] for r in rows] == ["feed5678"] * 4

    def test_no_trace_ships_none(self):
        rows = run_jobs([RowJob(self.PROBE, "A", "tiny")], jobs_n=1,
                        ctx=ToolchainContext())
        assert rows[0]["trace"] is None
