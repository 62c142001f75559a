"""Service-layer telemetry tests: the ``stats`` verb, trace-context
propagation over the wire, byte-identity of telemetry-enabled responses,
device busy time through the daemon, ``repro top --once``, the
Prometheus exposition, and the chaos-fault flight-recorder regression."""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.service import ServiceConfig, ToolchainDaemon, connect

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
from check_prometheus import validate as validate_prometheus  # noqa: E402

PROGRAM = """
int N;
double a[N];
double r;

void main()
{
    #pragma acc data copyout(a)
    {
        #pragma acc kernels loop
        for (int i = 0; i < N; i++) { a[i] = (double)i * 2.0; }
    }
    r = a[N - 1];
    printf("r=%f\\n", r);
}
"""

# An iterative stencil: every sweep launches two kernels, so one run
# accumulates modeled device busy time.
STENCIL = """
int N;
int ITER;
double a[N];
double b[N];

void main()
{
    #pragma acc data copy(a) create(b)
    {
        for (int t = 0; t < ITER; t++) {
            #pragma acc kernels loop
            for (int i = 1; i < N - 1; i++) {
                b[i] = 0.5 * (a[i - 1] + a[i + 1]);
            }
            #pragma acc kernels loop
            for (int i = 1; i < N - 1; i++) { a[i] = b[i]; }
        }
    }
    printf("a=%f\\n", a[1]);
}
"""


@pytest.fixture
def daemon(tmp_path):
    config = ServiceConfig(socket=str(tmp_path / "repro.sock"), workers=2,
                           report_dir=str(tmp_path / "reports"),
                           spool_dir=str(tmp_path / "spool"))
    daemon = ToolchainDaemon(config).start_in_thread()
    yield daemon
    daemon.request_shutdown()
    daemon.join()


@pytest.fixture
def client(daemon):
    with connect(daemon.config.socket) as client:
        yield client


class TestStatsVerb:
    def test_snapshot_shape(self, client):
        client.ping()
        response = client.request("stats")
        assert response["ok"]
        snap = response["telemetry"]
        for key in ("uptime_s", "workers", "requests", "errors", "inflight",
                    "queue_depth", "utilization", "verbs", "device_busy_s",
                    "cache", "flight"):
            assert key in snap, key
        assert snap["workers"] == 2
        assert snap["verbs"]["ping"]["count"] >= 1
        assert set(snap["cache"]) == {"mem", "disk"}

    def test_latency_quantiles_recorded(self, client):
        for _ in range(5):
            client.request("run", source=PROGRAM, params={"N": 8})
        verb = client.telemetry()["verbs"]["run"]
        assert verb["count"] == 5
        assert 0 < verb["p50_ms"] <= verb["p95_ms"] <= verb["p99_ms"]
        assert verb["buckets"][-1] == {"le": "+Inf", "count": 5}

    def test_flight_tail_on_request(self, client):
        client.ping()
        response = client.request("stats", flight=True)
        assert response["ok"]
        assert any(e["kind"] == "request" for e in response["flight"])

    def test_bad_format_rejected(self, client):
        response = client.request("stats", format="xml")
        assert not response["ok"]
        assert response["error"]["type"] == "ServiceProtocolError"

    def test_stats_is_admin_readonly(self, client):
        before = client.telemetry()["requests"]
        client.request("stats")
        # Reading stats serves requests but never resets anything.
        assert client.telemetry()["requests"] >= before


class TestTracePropagation:
    def test_client_trace_id_echoed(self, client):
        response = client.request("ping", trace_id="feedbead00000001")
        assert response["trace_id"] == "feedbead00000001"
        assert response["request_id"].startswith("r")

    def test_client_auto_mints_connection_trace(self, client):
        first = client.ping()
        second = client.ping()
        assert first["trace_id"] == second["trace_id"] == client.trace_id
        assert first["request_id"] != second["request_id"]

    def test_daemon_mints_when_absent(self, daemon):
        response = daemon.handle_line(
            json.dumps({"id": 1, "op": "ping"}).encode() + b"\n")
        assert response["trace_id"]

    def test_trace_lands_in_run_report(self, client):
        response = client.request("run", source=PROGRAM, params={"N": 8},
                                  trace_id="beadfeed00000002")
        assert response["ok"]
        report = json.load(open(response["report"]))
        assert report["trace"]["trace_id"] == "beadfeed00000002"
        assert report["trace"]["request_id"] == response["request_id"]

    def test_responses_byte_identical_across_trace_ids(self, client):
        digests = set()
        for trace_id in ("aaaa000000000001", "bbbb000000000002", None):
            fields = {"params": {"N": 8}}
            if trace_id:
                fields["trace_id"] = trace_id
            response = client.request("run", source=PROGRAM, **fields)
            assert response["ok"]
            digests.add(hashlib.sha256(
                response["stdout"].encode()).hexdigest())
        assert len(digests) == 1


class TestDeviceBusyThroughService:
    def test_busy_series_accumulates(self, client):
        assert client.telemetry()["device_busy_s"] == 0.0
        response = client.request("run", source=STENCIL,
                                  params={"N": 64, "ITER": 4})
        assert response["ok"], response.get("error")
        busy_s = client.telemetry()["device_busy_s"]
        assert busy_s > 0
        busy = [line for line in client.prometheus().splitlines()
                if line.startswith("repro_device_busy_seconds")]
        # One unlabelled series: the runtime owns exactly one device.
        assert len(busy) == 1 and "{" not in busy[0]
        assert float(busy[0].split()[1]) == pytest.approx(busy_s)


class TestPrometheus:
    def test_exposition_validates(self, client):
        client.request("run", source=PROGRAM, params={"N": 8})
        text = client.prometheus()
        problems = validate_prometheus(
            text,
            required_families=("repro_requests_total",
                               "repro_request_latency_ms",
                               "repro_worker_utilization",
                               "repro_cache_hit_ratio"))
        assert problems == [], problems

    def test_cli_stats_prom(self, monkeypatch, daemon):
        from repro.cli import main

        with connect(daemon.config.socket) as client:
            client.ping()
        buf = io.StringIO()
        monkeypatch.setattr(sys, "stdout", buf)
        assert main(["stats", "--connect", daemon.config.socket,
                     "--prom"]) == 0
        assert validate_prometheus(buf.getvalue()) == []

    def test_metrics_http_endpoint(self, tmp_path):
        import urllib.request

        config = ServiceConfig(socket=str(tmp_path / "m.sock"), workers=1,
                               metrics_addr="127.0.0.1:0")
        daemon = ToolchainDaemon(config).start_in_thread()
        try:
            with connect(config.socket) as client:
                client.ping()
            body = urllib.request.urlopen(
                f"http://{daemon.metrics_address}/metrics",
                timeout=10).read().decode()
            assert validate_prometheus(body) == []
        finally:
            daemon.request_shutdown()
            daemon.join()


class TestTopCommand:
    def test_top_once_reports_load(self, monkeypatch, daemon):
        from repro.cli import main

        with connect(daemon.config.socket) as client:
            for _ in range(3):
                client.request("compile", source=PROGRAM)
            client.request("run", source=STENCIL,
                           params={"N": 64, "ITER": 4})
        buf = io.StringIO()
        monkeypatch.setattr(sys, "stdout", buf)
        assert main(["top", "--connect", daemon.config.socket, "--once"]) == 0
        out = buf.getvalue()
        # Utilization, per-verb quantiles, both cache tiers.
        assert "util" in out and "p50 ms" in out and "p99 ms" in out
        assert "compile" in out and "run" in out
        assert "mem" in out and "disk" in out
        util = float(out.split("util")[1].split("%")[0])
        assert util > 0

    def test_stats_json(self, monkeypatch, daemon):
        from repro.cli import main

        with connect(daemon.config.socket) as client:
            client.ping()
        buf = io.StringIO()
        monkeypatch.setattr(sys, "stdout", buf)
        assert main(["stats", "--connect", daemon.config.socket]) == 0
        doc = json.loads(buf.getvalue())
        assert doc["telemetry"]["verbs"]["ping"]["count"] >= 1


class TestChaosFlightRegression:
    """An operator-armed fault through the service must ship its black box:
    the typed-error response and the RunReport both carry the flight ring
    with the faulting span in it."""

    @pytest.fixture
    def chaos_daemon(self, tmp_path):
        config = ServiceConfig(socket=str(tmp_path / "chaos.sock"), workers=1,
                               report_dir=str(tmp_path / "reports"),
                               spool_dir=str(tmp_path / "spool"),
                               chaos_seed=0,
                               chaos_spec="transfer.corrupt=1.0")
        daemon = ToolchainDaemon(config).start_in_thread()
        yield daemon
        daemon.request_shutdown()
        daemon.join()

    @staticmethod
    def _fault_witnesses(entries):
        hits = []
        for entry in entries:
            if entry.get("kind") == "event" \
                    and entry.get("name") == "chaos.fault":
                hits.append(entry)
            elif entry.get("kind") == "span" and any(
                    ev.get("name") == "chaos.fault"
                    for ev in entry.get("events", [])):
                hits.append(entry)
        return hits

    def test_fault_ships_flight_recorder(self, chaos_daemon):
        with connect(chaos_daemon.config.socket) as client:
            response = client.request("run", source=PROGRAM,
                                      params={"N": 8})
        assert not response["ok"]
        assert response["error"]["type"] == "TransferCorruptionError"
        assert response["error"]["stage"] == "transfer"
        # The response's own black box contains the faulting span...
        flight = response["flight"]
        witnesses = self._fault_witnesses(flight["request"])
        assert witnesses, flight["request"]
        span = witnesses[0]
        assert span["trace_id"] == response["trace_id"]
        assert span["request_id"] == response["request_id"]
        # ...and so does the RunReport written for the failed request.
        report = json.load(open(response["report"]))
        assert report["error"]["type"] == "TransferCorruptionError"
        ring = report["flight_recorder"]
        assert self._fault_witnesses(ring["request"])
        # The daemon-lifetime ring holds spans/events by this point; its
        # request-kind entry is appended only after the response ships.
        assert ring["daemon"]

    def test_wire_still_rejects_chaos_flags(self, chaos_daemon):
        with connect(chaos_daemon.config.socket) as client:
            response = client.request("run", source=PROGRAM,
                                      params={"N": 8},
                                      args=["--chaos-seed", "0"])
        assert not response["ok"]
        assert response["error"]["type"] == "ServiceProtocolError"
