"""Daemon end-to-end tests: every op over the socket, admin ops, typed
error payloads, per-request RunReports on success *and* crash paths, and
persistence across a daemon restart."""

import json
import os

import pytest

from repro.errors import ServiceError
from repro.service import ServiceConfig, ToolchainDaemon, connect

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


@pytest.fixture
def daemon(tmp_path):
    config = ServiceConfig(socket=str(tmp_path / "repro.sock"), workers=2,
                           cache_dir=str(tmp_path / "cache"),
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


class TestToolchainOps:
    def test_compile(self, client):
        response = client.request("compile", source=PROGRAM)
        assert response["ok"] and response["exit_code"] == 0
        assert "main_kernel0" in response["stdout"]
        assert response["cache"] == "cold"

    def test_run_with_params(self, client):
        response = client.request("run", source=PROGRAM, params={"N": 8})
        assert response["ok"]
        assert "r=14.0" in response["stdout"]
        assert "modeled time" in response["stdout"]

    def test_verify_and_memcheck(self, client):
        assert client.request("verify", source=PROGRAM,
                              params={"N": 8})["ok"]
        assert client.request("memcheck", source=PROGRAM,
                              params={"N": 8})["ok"]

    def test_file_requests_read_daemon_side(self, client, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(PROGRAM)
        response = client.request("run", file=str(path), params={"N": 4})
        assert response["ok"]

    def test_unreadable_file_is_typed_error(self, client):
        response = client.request("run", file="/nonexistent/x.c")
        assert not response["ok"]
        assert response["error"]["stage"] == "service"

    def test_parse_error_payload(self, client):
        response = client.request("compile", source="int main( {")
        assert not response["ok"] and response["exit_code"] == 2
        assert response["error"]["type"] == "ParseError"
        assert response["error"]["stage"] == "parse"

    def test_id_echoed(self, client):
        # The client already asserts the echo on every request; check a
        # raw non-integer id survives verbatim too.
        client._sock.sendall(
            b'{"id": "abc-123", "op": "ping"}\n')
        response = json.loads(client._recv.readline())
        assert response["id"] == "abc-123"

    def test_malformed_line_answered_not_dropped(self, client):
        client._sock.sendall(b"this is not json\n")
        response = json.loads(client._recv.readline())
        assert not response["ok"]
        assert response["error"]["type"] == "ServiceProtocolError"
        # The connection survives a protocol error.
        assert client.ping()["ok"]

    def test_responses_cached_across_requests(self, client):
        first = client.request("run", source=PROGRAM, params={"N": 8})
        second = client.request("run", source=PROGRAM, params={"N": 8})
        assert second["cache"] == "mem"
        assert first["stdout"] == second["stdout"]


class TestAdminOps:
    def test_ping(self, client):
        response = client.ping()
        assert response["pong"] and response["workers"] == 2

    def test_stats_shape(self, client):
        client.request("compile", source=PROGRAM)
        stats = client.stats()
        assert "compile" in stats["tiers"]["mem"]
        assert stats["tiers"]["disk"]["entries"] == 1
        assert stats["counters"]["cache.tier.mem.miss"] >= 1
        assert stats["requests"] >= 2

    def test_cache_clear_tiers(self, client):
        client.request("compile", source=PROGRAM)
        cleared = client.clear("mem")["cleared"]
        assert cleared["mem"] >= 1 and cleared["disk"] == 0
        assert client.request("compile", source=PROGRAM)["cache"] == "disk"
        cleared = client.clear("all")["cleared"]
        assert cleared["disk"] == 1

    def test_cache_clear_bad_tier(self, client):
        response = client.request("cache.clear", tier="bogus")
        assert not response["ok"]
        assert response["error"]["type"] == "ServiceProtocolError"

    def test_cache_warm(self, client, tmp_path):
        path = tmp_path / "warm.c"
        path.write_text(PROGRAM)
        response = client.request("cache.warm", files=[str(path)])
        assert response["ok"]
        assert response["warmed"][0]["tier"] == "cold"
        assert client.request("compile", source=PROGRAM)["cache"] == "mem"

    def test_cache_warm_reports_per_item_errors(self, client, tmp_path):
        good = tmp_path / "good.c"
        good.write_text(PROGRAM)
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        response = client.request("cache.warm",
                                  files=[str(good), str(bad)])
        assert response["ok"]
        by_program = {w["program"]: w for w in response["warmed"]}
        assert by_program[str(good)]["ok"]
        assert not by_program[str(bad)]["ok"]
        assert by_program[str(bad)]["error"]["stage"] == "parse"

    def test_cache_warm_needs_inputs(self, client):
        response = client.request("cache.warm")
        assert not response["ok"]


class TestReports:
    def test_report_written_per_request(self, daemon, client):
        response = client.request("run", source=PROGRAM, params={"N": 8})
        assert response["report"] and os.path.exists(response["report"])
        report = json.load(open(response["report"]))
        assert report["command"] == "run"
        assert report["error"] is None
        names = [s["name"] for s in report["spans"]]
        assert "service.request" in names

    def test_report_written_on_typed_error(self, client):
        response = client.request("compile", source="int main( {")
        assert response["report"] and os.path.exists(response["report"])
        report = json.load(open(response["report"]))
        assert report["error"]["type"] == "ParseError"

    def test_report_written_on_handler_crash(self, daemon):
        """A non-ReproError crash inside the handler must still answer the
        socket with a typed payload AND leave a report artifact."""
        real = daemon.cache.ensure_compiled

        def boom(*args, **kwargs):
            raise RuntimeError("cache exploded")

        daemon.cache.ensure_compiled = boom
        try:
            with connect(daemon.config.socket) as client:
                response = client.request("compile", source=PROGRAM)
        finally:
            daemon.cache.ensure_compiled = real
        assert not response["ok"]
        assert response["error"] == {"type": "RuntimeError",
                                     "stage": "internal",
                                     "message": "cache exploded"}
        assert response["report"] and os.path.exists(response["report"])
        report = json.load(open(response["report"]))
        assert report["error"]["type"] == "RuntimeError"

    def test_daemon_survives_crash(self, daemon, client):
        real = daemon.cache.ensure_compiled
        daemon.cache.ensure_compiled = lambda *a, **k: (_ for _ in ()).throw(
            RuntimeError("boom"))
        try:
            assert not client.request("compile", source=PROGRAM)["ok"]
        finally:
            daemon.cache.ensure_compiled = real
        assert client.request("compile", source=PROGRAM)["ok"]


class TestRestartPersistence:
    def test_disk_tier_survives_restart(self, tmp_path):
        config = ServiceConfig(socket=str(tmp_path / "repro.sock"),
                               workers=2, cache_dir=str(tmp_path / "cache"),
                               spool_dir=str(tmp_path / "spool"))
        daemon = ToolchainDaemon(config).start_in_thread()
        with connect(config.socket) as client:
            cold = client.request("run", source=PROGRAM, params={"N": 8})
            client.shutdown()
        daemon.join()
        assert cold["cache"] == "cold"

        daemon = ToolchainDaemon(ServiceConfig(
            socket=str(tmp_path / "repro.sock"), workers=2,
            cache_dir=str(tmp_path / "cache"),
            spool_dir=str(tmp_path / "spool"))).start_in_thread()
        with connect(config.socket) as client:
            warm = client.request("run", source=PROGRAM, params={"N": 8})
            client.shutdown()
        daemon.join()
        assert warm["cache"] == "disk"
        assert warm["stdout"] == cold["stdout"]
        assert warm["exit_code"] == cold["exit_code"]


class TestLifecycle:
    def test_shutdown_op(self, tmp_path):
        config = ServiceConfig(socket=str(tmp_path / "s.sock"), workers=1)
        daemon = ToolchainDaemon(config).start_in_thread()
        with connect(config.socket) as client:
            assert client.shutdown()["shutdown"]
        daemon.join()
        assert not daemon.started.is_set()
        assert not os.path.exists(config.socket)

    def test_needs_an_address(self, tmp_path):
        daemon = ToolchainDaemon(ServiceConfig())
        with pytest.raises(ServiceError):
            import asyncio

            asyncio.run(daemon.serve_async())
        daemon.close()

    def test_daemon_never_replaces_process_stdout(self, tmp_path,
                                                  monkeypatch):
        import io
        import sys

        from repro import cli

        before = io.StringIO()
        monkeypatch.setattr(sys, "stdout", before)
        seen = []
        real_run_compiled = cli.run_compiled

        def spy(*args, **kwargs):
            seen.append(sys.stdout)
            return real_run_compiled(*args, **kwargs)

        monkeypatch.setattr(cli, "run_compiled", spy)
        daemon = ToolchainDaemon(ServiceConfig(
            socket=str(tmp_path / "s.sock"), workers=1)).start_in_thread()
        assert sys.stdout is before
        with connect(daemon.config.socket) as client:
            response = client.request("run", source=PROGRAM,
                                      params={"N": 8})
        daemon.request_shutdown()
        daemon.join()
        assert seen == [before]       # mid-request, in the worker thread
        assert sys.stdout is before
        assert "r=14.0" in response["stdout"]
        assert before.getvalue() == ""  # nothing leaked past the response
