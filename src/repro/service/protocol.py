"""Wire protocol for the toolchain service: newline-delimited JSON.

One request per line, one response per line, UTF-8.  Requests are JSON
objects; the daemon answers every parseable line — including protocol
violations — with a JSON object, so a client never has to guess whether a
silence is a crash.

Request shape::

    {"id": <any>,              # echoed verbatim in the response (optional)
     "op": "compile" | "run" | "profile" | "verify" | "memcheck"
           | "optimize" | "cache.stats" | "cache.clear" | "cache.warm"
           | "stats" | "ping" | "shutdown",
     "trace_id": "<hex>",               # optional client-minted trace id;
                                        #   the daemon mints one if absent
                                        #   and echoes trace_id/request_id
     "file": "<daemon-local path>",     # toolchain ops: one of file/source
     "source": "<program text>",        #   (source is spooled to a
                                        #    fingerprint-named file)
     "params": {"N": 64, ...},          # -p NAME=VALUE bindings
     "options": "<string>",             # verify: VerificationOptions string
     "outputs": "a,r",                  # optimize: observable outputs
     "args": ["--no-auto-privatize"],   # extra CLI flags (whitelisted)
     "tier": "mem" | "disk" | "all",    # cache.clear (default "all")
     "format": "json" | "prometheus",   # stats exposition (default json)
     "flight": true,                    # stats: include flight-recorder tail
     "files": [...], "sources": [...]}  # cache.warm inputs

A key the op does not read is rejected, never ignored: a client that
misspells ``"ouputs"`` gets a typed error naming the key instead of a
response to a request it did not mean to send.

Toolchain ops are mapped to the *offline CLI's own argument parser and
command functions*, which is what makes the service's byte-identity
guarantee cheap to state: for any toolchain op, ``response["stdout"]`` and
``response["exit_code"]`` are exactly what ``python -m repro <op> ...``
prints and returns for the same inputs (the concurrency equivalence test
enforces this).  Responses::

    {"id": ..., "ok": true,  "op": ..., "exit_code": 0, "stdout": "...",
     "cache": "mem"|"disk"|"cold"|null, "report": <path|null>,
     "elapsed_ms": <float>}                      # success
    {"id": ..., "ok": false, "error": {"type": ..., "stage": ...,
     "message": ...}, "exit_code": 2, "stdout": "...",
     "report": <path|null>}                      # typed failure

``stage`` matches the CLI's one-line diagnostics (``repro: error
[<stage>]: ...``); protocol violations carry stage ``"service"``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceProtocolError

__all__ = [
    "TOOLCHAIN_OPS",
    "ADMIN_OPS",
    "build_argv",
    "decode_request",
    "encode_response",
    "error_payload",
]

# Toolchain ops are exactly the CLI subcommands the daemon re-serves.
TOOLCHAIN_OPS = ("compile", "run", "profile", "verify", "memcheck", "optimize")

# The keys each op reads, beyond the ones every request may carry.  The
# toolchain ops share one set; build_argv rejects the op-specific keys
# (options, outputs, compile params) where they do not apply.
_COMMON_KEYS = frozenset({"id", "op", "trace_id"})
_TOOLCHAIN_KEYS = frozenset({"file", "source", "params", "options",
                             "outputs", "args"})
_ADMIN_KEYS = {
    "cache.stats": frozenset(),
    "cache.clear": frozenset({"tier"}),
    "cache.warm": frozenset({"files", "sources"}),
    "stats": frozenset({"format", "flight"}),
    "ping": frozenset(),
    "shutdown": frozenset(),
}
ADMIN_OPS = tuple(_ADMIN_KEYS)

# Per-program flags a client may pass through to the CLI parser.  Anything
# else (trace/report paths, chaos seeds...) touches the
# daemon's filesystem or global behavior and must come from the operator's
# command line, not the wire.
_ALLOWED_FLAGS = (
    "--no-auto-privatize",
    "--no-auto-reduction",
    "--show-source",
    "--show-instrumented",
    "--compare-sequential",
)


def decode_request(line: bytes) -> Dict:
    """Parse one request line; every failure is a typed protocol error."""
    try:
        request = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ServiceProtocolError(f"request is not valid JSON: {err}")
    if not isinstance(request, dict):
        raise ServiceProtocolError(
            f"request must be a JSON object, got {type(request).__name__}")
    op = request.get("op")
    if not isinstance(op, str):
        raise ServiceProtocolError("request has no 'op' string")
    if op not in TOOLCHAIN_OPS and op not in ADMIN_OPS:
        raise ServiceProtocolError(
            f"unknown op {op!r} (toolchain: {', '.join(TOOLCHAIN_OPS)}; "
            f"admin: {', '.join(ADMIN_OPS)})")
    trace_id = request.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ServiceProtocolError("'trace_id' must be a string")
    unknown = sorted(set(request) - _COMMON_KEYS
                     - _ADMIN_KEYS.get(op, _TOOLCHAIN_KEYS))
    if unknown:
        raise ServiceProtocolError(
            f"op {op!r} does not read key(s) "
            f"{', '.join(repr(key) for key in unknown)}")
    return request


def encode_response(response: Dict) -> bytes:
    return (json.dumps(response, sort_keys=True, default=repr) + "\n").encode()


def error_payload(err: BaseException) -> Dict[str, object]:
    """The typed error entry (same shape as a RunReport's ``error``)."""
    from repro.errors import error_stage

    return {
        "type": type(err).__name__,
        "stage": error_stage(err),
        "message": str(err),
    }


def build_argv(request: Dict, program_path: str) -> List[str]:
    """Map one toolchain-op request onto offline-CLI argv."""
    op = request["op"]
    argv: List[str] = [op, program_path]
    params = request.get("params") or {}
    if not isinstance(params, dict):
        raise ServiceProtocolError("'params' must be an object")
    if params and op == "compile":
        raise ServiceProtocolError("'params' is meaningless for op compile")
    for name in sorted(params):
        value = params[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ServiceProtocolError(
                f"param {name!r} must be numeric, got {type(value).__name__}")
        argv += ["-p", f"{name}={value}"]
    options = request.get("options")
    if options is not None:
        if op != "verify":
            raise ServiceProtocolError("'options' applies to op verify only")
        if not isinstance(options, str):
            raise ServiceProtocolError("'options' must be a string")
        argv += ["--options", options]
    outputs = request.get("outputs")
    if outputs is not None:
        if op != "optimize":
            raise ServiceProtocolError("'outputs' applies to op optimize only")
        if not isinstance(outputs, str):
            raise ServiceProtocolError("'outputs' must be a string")
        argv += ["--outputs", outputs]
    extra = request.get("args") or []
    if not isinstance(extra, list):
        raise ServiceProtocolError("'args' must be a list of flags")
    for flag in extra:
        if flag not in _ALLOWED_FLAGS:
            raise ServiceProtocolError(
                f"flag {flag!r} is not allowed over the wire "
                f"(allowed: {', '.join(_ALLOWED_FLAGS)})")
        argv.append(flag)
    return argv


def request_program(request: Dict) -> Tuple[Optional[str], Optional[str]]:
    """The (file, source) pair of a toolchain-op request; exactly one must
    be present."""
    file = request.get("file")
    source = request.get("source")
    if (file is None) == (source is None):
        raise ServiceProtocolError(
            "toolchain ops need exactly one of 'file' or 'source'")
    if file is not None and not isinstance(file, str):
        raise ServiceProtocolError("'file' must be a string path")
    if source is not None and not isinstance(source, str):
        raise ServiceProtocolError("'source' must be a string")
    return file, source
