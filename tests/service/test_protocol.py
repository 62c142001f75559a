"""Wire-protocol unit tests: decoding, argv mapping, typed errors."""

import json

import pytest

from repro.errors import ServiceProtocolError
from repro.service import protocol


class TestDecode:
    def test_valid_request(self):
        req = protocol.decode_request(b'{"op": "compile", "source": "x"}\n')
        assert req["op"] == "compile"

    def test_not_json(self):
        with pytest.raises(ServiceProtocolError):
            protocol.decode_request(b"not json\n")

    def test_not_an_object(self):
        with pytest.raises(ServiceProtocolError):
            protocol.decode_request(b"[1, 2]\n")

    def test_missing_op(self):
        with pytest.raises(ServiceProtocolError):
            protocol.decode_request(b'{"source": "x"}\n')

    def test_unknown_op(self):
        with pytest.raises(ServiceProtocolError, match="unknown op"):
            protocol.decode_request(b'{"op": "frobnicate"}\n')

    def test_admin_ops_accepted(self):
        for op in protocol.ADMIN_OPS:
            assert protocol.decode_request(
                json.dumps({"op": op}).encode())["op"] == op

    def test_devices_key_rejected(self):
        # The runtime owns one device; a client asking for more must hear
        # so instead of silently running on that one.
        line = json.dumps({"op": "run", "source": "x", "devices": 2})
        with pytest.raises(ServiceProtocolError, match="'devices'"):
            protocol.decode_request(line.encode())

    def test_misspelt_key_rejected(self):
        line = json.dumps({"op": "optimize", "source": "x", "ouputs": "a"})
        with pytest.raises(ServiceProtocolError, match="'ouputs'"):
            protocol.decode_request(line.encode())

    def test_admin_key_rejected_on_toolchain_op(self):
        line = json.dumps({"op": "run", "source": "x", "tier": "mem"})
        with pytest.raises(ServiceProtocolError, match="'tier'"):
            protocol.decode_request(line.encode())

    def test_toolchain_key_rejected_on_admin_op(self):
        with pytest.raises(ServiceProtocolError, match="'params'"):
            protocol.decode_request(
                b'{"op": "ping", "params": {"N": 8}}\n')

    def test_every_read_key_accepted(self):
        full = {"id": 1, "trace_id": "ab12", "file": "p.c", "source": "x",
                "params": {"N": 8}, "options": "", "outputs": "a",
                "args": []}
        for op in protocol.TOOLCHAIN_OPS:
            protocol.decode_request(json.dumps({"op": op, **full}).encode())
        for op, fields in (("cache.clear", {"tier": "mem"}),
                           ("cache.warm", {"files": [], "sources": []}),
                           ("stats", {"format": "json", "flight": True})):
            protocol.decode_request(
                json.dumps({"op": op, "id": 2, **fields}).encode())


class TestBuildArgv:
    def test_run_with_params(self):
        argv = protocol.build_argv(
            {"op": "run", "params": {"N": 8, "M": 2}}, "p.c")
        assert argv == ["run", "p.c", "-p", "M=2", "-p", "N=8"]

    def test_params_sorted_deterministically(self):
        a = protocol.build_argv({"op": "run", "params": {"b": 1, "a": 2}}, "x")
        b = protocol.build_argv({"op": "run", "params": {"a": 2, "b": 1}}, "x")
        assert a == b

    def test_compile_rejects_params(self):
        with pytest.raises(ServiceProtocolError):
            protocol.build_argv({"op": "compile", "params": {"N": 8}}, "p.c")

    def test_non_numeric_param_rejected(self):
        with pytest.raises(ServiceProtocolError):
            protocol.build_argv({"op": "run", "params": {"N": "8"}}, "p.c")
        with pytest.raises(ServiceProtocolError):
            protocol.build_argv({"op": "run", "params": {"N": True}}, "p.c")

    def test_verify_options(self):
        argv = protocol.build_argv(
            {"op": "verify", "options": "errorMargin=1e-6"}, "p.c")
        assert argv == ["verify", "p.c", "--options", "errorMargin=1e-6"]

    def test_options_rejected_outside_verify(self):
        with pytest.raises(ServiceProtocolError):
            protocol.build_argv({"op": "run", "options": "x"}, "p.c")

    def test_outputs_only_for_optimize(self):
        argv = protocol.build_argv(
            {"op": "optimize", "outputs": "a,r"}, "p.c")
        assert argv == ["optimize", "p.c", "--outputs", "a,r"]
        with pytest.raises(ServiceProtocolError):
            protocol.build_argv({"op": "run", "outputs": "a"}, "p.c")

    def test_whitelisted_flags_pass_through(self):
        argv = protocol.build_argv(
            {"op": "run", "args": ["--no-auto-privatize"]}, "p.c")
        assert "--no-auto-privatize" in argv

    def test_unlisted_flag_rejected(self):
        # Flags that touch the daemon's filesystem must not cross the wire.
        with pytest.raises(ServiceProtocolError, match="not allowed"):
            protocol.build_argv(
                {"op": "run", "args": ["--report"]}, "p.c")


class TestRequestProgram:
    def test_exactly_one_required(self):
        with pytest.raises(ServiceProtocolError):
            protocol.request_program({"op": "run"})
        with pytest.raises(ServiceProtocolError):
            protocol.request_program(
                {"op": "run", "file": "a.c", "source": "x"})

    def test_file_or_source(self):
        assert protocol.request_program(
            {"op": "run", "file": "a.c"}) == ("a.c", None)
        assert protocol.request_program(
            {"op": "run", "source": "x"}) == (None, "x")


class TestErrorPayload:
    def test_stage_matches_cli_diagnostics(self):
        from repro.errors import ParseError, ServiceError

        payload = protocol.error_payload(ParseError("bad", line=3, col=1))
        assert payload["type"] == "ParseError"
        assert payload["stage"] == "parse"
        payload = protocol.error_payload(ServiceError("x"))
        assert payload["stage"] == "service"
        payload = protocol.error_payload(ValueError("x"))
        assert payload["stage"] == "internal"

    def test_encode_response_is_one_line(self):
        line = protocol.encode_response({"ok": True, "id": 1})
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert json.loads(line) == {"ok": True, "id": 1}
