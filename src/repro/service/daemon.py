"""The toolchain daemon: a long-lived async server over the offline CLI.

Architecture (Devito-style separation of lowering from backend: the
*service* layer owns scheduling and caching, the *toolchain* stays the
stateless library PR 3 made it):

* one **asyncio event loop** accepts connections (unix socket or TCP) and
  reads newline-delimited JSON requests (:mod:`repro.service.protocol`);
* CPU-bound request handling runs on a bounded **worker pool**
  (``ThreadPoolExecutor``) so the loop never blocks; requests on one
  connection answer in order, requests across connections interleave;
* every request gets a fresh request-scoped
  :class:`~repro.toolchain.ToolchainContext` whose *cache registry is the
  daemon's shared one* (the cross-request memory tier) and whose metrics
  registry chains into the server-wide aggregate, under a per-request
  tracer rooted at a ``service.request`` span;
* compiles resolve through the two-tier
  :class:`~repro.service.cache.ServiceCache` (memory → disk → cold);
* when a report directory is configured, **every request — including every
  crash path — writes a RunReport artifact** before the socket is
  answered, mirroring the PR 7 every-exit-path guarantee.

Toolchain ops execute the *offline CLI's own command functions* against the
CLI's own argument parser, so a served response's ``stdout``/``exit_code``
are byte-identical to the offline ``python -m repro ...`` invocation.  The
CLI's commands write to their context's output stream
(``ToolchainContext.out``); each request's context carries its own
``StringIO``, so concurrent handlers never interleave output and the
process's standard output is never replaced.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import itertools
import json
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, ServiceError, ServiceProtocolError
from repro.obs.metrics import MetricsRegistry, register_counter
from repro.obs.telemetry import (
    FlightRecorder,
    Telemetry,
    TraceContext,
    render_prometheus,
)
from repro.service import protocol
from repro.service.cache import DiskTier, ServiceCache
from repro.toolchain import CacheRegistry, ToolchainContext

__all__ = ["ServiceConfig", "ToolchainDaemon"]

# Serving defaults: entries/bytes per named memory-tier cache.
DEFAULT_MEM_ENTRIES = 512
DEFAULT_MEM_BYTES = 256 * 1024 * 1024

# Daemon request/error counters (obs counter-name registry).
CTR_REQUESTS = register_counter("service.requests")
CTR_ERRORS = register_counter("service.errors")

_PARSER_CACHE = threading.local()


def _cli_parser():
    """The offline CLI's parser, built once per worker thread: building the
    full subparser tree costs more than a whole warm-cache compile, so the
    daemon must not pay it per request."""
    parser = getattr(_PARSER_CACHE, "parser", None)
    if parser is None:
        from repro.cli import build_parser

        parser = _PARSER_CACHE.parser = build_parser()
    return parser


@dataclass
class ServiceConfig:
    """One daemon's serving policy."""

    socket: Optional[str] = None        # unix-socket path…
    host: str = "127.0.0.1"             # …or TCP host/port
    port: Optional[int] = None
    workers: int = 4
    cache_dir: Optional[str] = None     # persistent disk tier (None = off)
    cache_mem_entries: int = DEFAULT_MEM_ENTRIES
    cache_mem_bytes: int = DEFAULT_MEM_BYTES
    cache_disk_bytes: Optional[int] = None
    report_dir: Optional[str] = None    # per-request RunReport artifacts
    spool_dir: Optional[str] = None     # inline-source spool (None = tmpdir)
    metrics_addr: Optional[str] = None  # Prometheus HTTP endpoint (host:port)
    flight_capacity: int = 512          # daemon flight-recorder ring size
    telemetry_window_s: float = 60.0    # sliding statistics window
    # Operator-side fault injection: every served run executes under this
    # chaos plan.  Deliberately *not* settable over the wire (the protocol
    # whitelist rejects chaos flags) — it comes from `repro serve` only.
    chaos_seed: Optional[int] = None
    chaos_spec: Optional[str] = None

    def address(self) -> str:
        if self.socket:
            return self.socket
        return f"{self.host}:{self.port}"


def _parse_metrics_addr(addr: str) -> Tuple[str, int]:
    """``host:port``, ``:port``, or bare ``port`` → (host, port); port 0
    binds an ephemeral port (the bound address lands in
    ``ToolchainDaemon.metrics_address``)."""
    host, sep, port = addr.rpartition(":")
    if not sep:
        host, port = "", addr
    try:
        port_n = int(port)
    except ValueError:
        raise ServiceError(f"bad metrics address {addr!r} (want host:port)")
    return (host or "127.0.0.1", port_n)


class ToolchainDaemon:
    """Serve concurrent toolchain requests over one shared cache.

    Usable three ways: ``serve_forever()`` (the ``repro serve`` CLI),
    ``start_in_thread()`` (tests and the load harness), or direct
    ``handle_request(dict)`` calls inside ``with daemon:`` (the baseline
    guard, which wants deterministic in-process behavior).
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.metrics = MetricsRegistry()
        self.registry = CacheRegistry(max_entries=config.cache_mem_entries,
                                      max_bytes=config.cache_mem_bytes)
        disk = (DiskTier(config.cache_dir, max_bytes=config.cache_disk_bytes)
                if config.cache_dir else None)
        self.cache = ServiceCache(self.registry, disk, metrics=self.metrics)
        # Live plane: rolling statistics and the daemon-lifetime flight
        # recorder.  Both only *read* request state — responses stay
        # byte-identical with telemetry on.
        self.telemetry = Telemetry(workers=max(1, config.workers),
                                   window_s=config.telemetry_window_s)
        self.flight = FlightRecorder(capacity=config.flight_capacity)
        self.metrics_address: Optional[str] = None  # bound metrics endpoint
        self.started = threading.Event()
        self._stop = threading.Event()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._seq = itertools.count(1)
        self._rid = itertools.count(1)
        self._spool = config.spool_dir
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._client_tasks: set = set()
        self._client_writers: set = set()
        if config.report_dir:
            os.makedirs(config.report_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ToolchainDaemon":
        """Create the worker pool and the spool directory (idempotent)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=max(1, self.config.workers),
                thread_name_prefix="repro-serve")
        if self._spool is None:
            self._spool = tempfile.mkdtemp(prefix="repro-spool-")
        else:
            os.makedirs(self._spool, exist_ok=True)
        return self

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ToolchainDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Async serving
    # ------------------------------------------------------------------
    async def serve_async(self) -> None:
        self.start()
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        if self.config.socket:
            path = self.config.socket
            if os.path.exists(path):
                os.unlink(path)     # stale socket from a killed daemon
            server = await asyncio.start_unix_server(self._serve_client,
                                                     path=path)
        elif self.config.port is not None:
            server = await asyncio.start_server(
                self._serve_client, host=self.config.host,
                port=self.config.port)
        else:
            raise ServiceError("daemon needs a unix-socket path or TCP port")
        metrics_server = None
        if self.config.metrics_addr:
            host, port = _parse_metrics_addr(self.config.metrics_addr)
            metrics_server = await asyncio.start_server(
                self._serve_metrics_client, host=host, port=port)
            bound = metrics_server.sockets[0].getsockname()
            self.metrics_address = f"{bound[0]}:{bound[1]}"
        try:
            async with server:
                self.started.set()
                await self._stop_async.wait()
                # Graceful drain: handlers mid-request finish and answer
                # (the shutdown response included); connections idle in
                # readline are then unblocked by closing their transports,
                # so every handler task *returns* instead of being
                # cancelled at loop teardown.
                if self._client_tasks:
                    await asyncio.wait(set(self._client_tasks), timeout=1.0)
                for writer in list(self._client_writers):
                    try:
                        writer.close()
                    except Exception:
                        pass
                if self._client_tasks:
                    await asyncio.wait(set(self._client_tasks), timeout=5.0)
        finally:
            self.started.clear()
            if metrics_server is not None:
                metrics_server.close()
                try:
                    await metrics_server.wait_closed()
                except Exception:
                    pass
                self.metrics_address = None
            if self.config.socket and os.path.exists(self.config.socket):
                try:
                    os.unlink(self.config.socket)
                except OSError:
                    pass

    def serve_forever(self) -> None:
        try:
            asyncio.run(self.serve_async())
        finally:
            self.close()

    def start_in_thread(self, timeout: float = 10.0) -> "ToolchainDaemon":
        """Run the server on a daemon thread; returns once it accepts."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        if not self.started.wait(timeout):
            raise ServiceError("daemon failed to start listening "
                               f"on {self.config.address()}")
        return self

    def join(self, timeout: float = 10.0) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def request_shutdown(self) -> None:
        self._stop.set()
        if self._loop is not None and self._stop_async is not None:
            self._loop.call_soon_threadsafe(self._stop_async.set)

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        self._client_tasks.add(task)
        self._client_writers.add(writer)
        try:
            while not self._stop.is_set():
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Queue-depth gauge: accepted here, started when a worker
                # picks the request up in handle_request.
                self.telemetry.request_submitted()
                response = await loop.run_in_executor(
                    self._pool, self.handle_line, line)
                writer.write(protocol.encode_response(response))
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
        finally:
            self._client_tasks.discard(task)
            self._client_writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_metrics_client(self, reader: asyncio.StreamReader,
                                    writer: asyncio.StreamWriter) -> None:
        """Minimal HTTP/1.0 responder for the Prometheus endpoint: any GET
        gets the full exposition.  Rendering only reads telemetry snapshots,
        so serving scrapes never perturbs request handling."""
        try:
            while True:     # drain the request head; the path is ignored
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = self.prometheus().encode("utf-8")
            head = ("HTTP/1.0 200 OK\r\n"
                    "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n")
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except Exception:
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Request handling (worker threads; also callable in-process)
    # ------------------------------------------------------------------
    def handle_line(self, line: bytes) -> Dict:
        try:
            request = protocol.decode_request(line)
        except ServiceProtocolError as err:
            self.metrics.count(CTR_REQUESTS)
            self.metrics.count(CTR_ERRORS)
            # Pair the lifecycle hooks so the queue-depth gauge stays exact
            # even for lines that never become requests.
            self.telemetry.request_started("invalid")
            self.telemetry.request_finished("invalid", 0.0, False)
            request_id = None
            try:
                parsed = json.loads(line.decode("utf-8", "replace"))
                if isinstance(parsed, dict):
                    request_id = parsed.get("id")
            except Exception:
                pass
            return {"id": request_id, "ok": False, "exit_code": 2,
                    "stdout": "", "error": protocol.error_payload(err),
                    "report": None}
        return self.handle_request(request)

    def handle_request(self, request: Dict) -> Dict:
        """One request → one response dict.  Never raises: every failure —
        protocol violation, typed toolchain error, or handler crash — is
        answered with a typed error payload, and (when a report directory
        is configured) leaves a RunReport artifact behind."""
        self.metrics.count(CTR_REQUESTS)
        op = request.get("op")
        verb = op if isinstance(op, str) else "invalid"
        trace = self._mint_trace(request)
        self.telemetry.request_started(verb)
        started = time.perf_counter()
        try:
            if op in protocol.ADMIN_OPS:
                response = self._admin_op(op, request)
            else:
                response = self._toolchain_op(op, request, trace)
        except Exception as err:   # typed error or crash: answer, don't die
            response = self._error_response(request, op, err, trace=trace)
        response.setdefault("id", request.get("id"))
        response.setdefault("op", op)
        response["trace_id"] = trace.trace_id
        response["request_id"] = trace.request_id
        elapsed = time.perf_counter() - started
        response["elapsed_ms"] = elapsed * 1e3
        ok = bool(response.get("ok"))
        if not ok:
            self.metrics.count(CTR_ERRORS)
        self.telemetry.request_finished(verb, elapsed, ok)
        self.flight.record({
            "kind": "request", "op": verb, "ok": ok,
            "elapsed_ms": elapsed * 1e3,
            "trace_id": trace.trace_id, "request_id": trace.request_id,
        })
        return response

    def _mint_trace(self, request: Dict) -> TraceContext:
        """The request's identity: the client's trace id when it sent one
        (propagation), a fresh one otherwise; the request id is always
        daemon-minted (one per request served)."""
        request_id = f"r{next(self._rid):06d}"
        trace_id = request.get("trace_id")
        if isinstance(trace_id, str) and trace_id:
            return TraceContext(trace_id, request_id)
        return TraceContext.mint(request_id)

    def _error_response(self, request: Dict, op, err: BaseException,
                        stdout: str = "", ctx=None,
                        params=None, program=None, trace=None) -> Dict:
        # Every typed-error exit ships the flight-recorder tail: the
        # request's own ring (in-flight span context of the failing run)
        # plus the daemon ring's recent history.
        flight = self._flight_tail(ctx)
        if ctx is not None:
            runtime = getattr(ctx, "last_runtime", None)
            if runtime is not None:
                self.telemetry.record_run(runtime)
        report = self._write_report(op, program, params, ctx=ctx, error=err,
                                    flight=flight, trace=trace)
        return {"id": request.get("id"), "ok": False, "exit_code": 2,
                "stdout": stdout, "error": protocol.error_payload(err),
                "flight": flight, "report": report}

    def _flight_tail(self, ctx=None) -> Dict[str, List[Dict]]:
        """The black box dumped on failure paths: the failing request's own
        span ring (when a context got far enough to have one) and the tail
        of the daemon-lifetime ring."""
        recorder = getattr(ctx, "flight_recorder", None) \
            if ctx is not None else None
        return {
            "request": recorder.tail(64) if recorder is not None else [],
            "daemon": self.flight.tail(16),
        }

    # -- toolchain ops -------------------------------------------------------
    def _request_context(self, args,
                         trace: Optional[TraceContext] = None
                         ) -> ToolchainContext:
        from repro.cli import _context
        from repro.obs.tracer import Tracer

        ctx = _context(args)
        ctx.caches = self.registry          # shared cross-request mem tier
        ctx.metrics = MetricsRegistry(parent=self.metrics)
        ctx.tracer = Tracer()
        if trace is not None:
            ctx.trace_context = trace
            ctx.tracer.trace_context = trace
            # Flight recording: every finished span lands in the request's
            # own bounded ring and the daemon-lifetime ring, tagged with the
            # request identity.  Ring appends only — never perturbs the run.
            recorder = FlightRecorder(
                capacity=min(128, self.config.flight_capacity))
            ctx.flight_recorder = recorder
            tag = {"trace_id": trace.trace_id,
                   "request_id": trace.request_id}
            ctx.tracer.sinks = [recorder.sink(tag), self.flight.sink(tag)]
        return ctx

    def _toolchain_op(self, op: str, request: Dict,
                      trace: Optional[TraceContext] = None) -> Dict:
        from repro.cli import _parse_params
        from repro.compiler.driver import CompilerOptions

        file, source = protocol.request_program(request)
        if source is not None:
            path = self._spool_source(source)
        else:
            path = file
            try:
                with open(path) as handle:
                    source = handle.read()
            except OSError as err:
                raise ServiceError(f"cannot read program {path!r}: {err}")

        argv = protocol.build_argv(request, path)
        try:
            args = _cli_parser().parse_args(argv)
        except SystemExit as err:       # argparse rejected the argv
            raise ServiceProtocolError(
                f"request maps to invalid CLI arguments {argv!r} "
                f"(exit {err.code})")
        # Operator-configured chaos: the wire cannot carry chaos flags (the
        # protocol whitelist rejects them), so a chaos-serving daemon
        # injects its own plan into ops that accept one.
        if ((self.config.chaos_seed is not None or self.config.chaos_spec)
                and hasattr(args, "chaos_seed")):
            if self.config.chaos_seed is not None:
                args.chaos_seed = self.config.chaos_seed
            if self.config.chaos_spec:
                args.chaos_spec = self.config.chaos_spec
        ctx = self._request_context(args, trace)
        ctx.out = io.StringIO()
        params = _parse_params(getattr(args, "param", None))

        tier: Optional[str] = None
        span_attrs = {"op": op, "program": os.path.basename(path)}
        if trace is not None:
            span_attrs["trace_id"] = trace.trace_id
            span_attrs["request_id"] = trace.request_id
        try:
            with ctx.tracer.span("service.request", category="service",
                                 **span_attrs) as sp:
                if op != "optimize":
                    # optimize re-parses and rewrites its own program; the
                    # other ops all start from the memoized compile.
                    options = CompilerOptions(
                        auto_privatize=not getattr(args, "no_auto_privatize",
                                                   False),
                        auto_reduction=not getattr(args, "no_auto_reduction",
                                                   False),
                    )
                    _, tier = self.cache.ensure_compiled(source, options, ctx)
                    sp.set_attr("cache", tier)
                exit_code = args.func(args, ctx)
        except Exception as err:
            return self._error_response(request, op, err,
                                        stdout=ctx.out.getvalue(), ctx=ctx,
                                        params=params, program=path,
                                        trace=trace)
        runtime = getattr(ctx, "last_runtime", None)
        if runtime is not None:
            self.telemetry.record_run(runtime)
        report = self._write_report(op, path, params, ctx=ctx)
        return {"id": request.get("id"), "ok": True, "op": op,
                "exit_code": int(exit_code or 0), "stdout": ctx.out.getvalue(),
                "cache": tier, "report": report}

    def _spool_source(self, source: str) -> str:
        """Inline source → a deterministic fingerprint-named spool file (so
        identical sources map to identical paths, keeping responses
        byte-identical across requests and daemon restarts)."""
        assert self._spool is not None, "daemon not started"
        name = hashlib.sha256(source.encode()).hexdigest()[:16] + ".c"
        path = os.path.join(self._spool, name)
        if not os.path.exists(path):
            tmp = f"{path}.{threading.get_ident()}.tmp"
            with open(tmp, "w") as handle:
                handle.write(source)
            os.replace(tmp, path)
        return path

    # -- admin ops -----------------------------------------------------------
    def _admin_op(self, op: str, request: Dict) -> Dict:
        if op == "ping":
            from repro import __version__

            return {"ok": True, "pong": True, "version": __version__,
                    "workers": self.config.workers}
        if op == "cache.stats":
            return {"ok": True, "stats": self.stats()}
        if op == "stats":
            fmt = request.get("format", "json")
            if fmt in ("prom", "prometheus"):
                return {"ok": True, "format": "prometheus",
                        "text": self.prometheus()}
            if fmt != "json":
                raise ServiceProtocolError(
                    f"bad stats format {fmt!r} (json or prometheus)")
            response = {"ok": True, "stats": self.stats(),
                        "telemetry": self.telemetry_snapshot()}
            if request.get("flight"):
                response["flight"] = self.flight.tail()
            return response
        if op == "cache.clear":
            tier = request.get("tier", "all")
            if tier not in ("mem", "disk", "all"):
                raise ServiceProtocolError(
                    f"bad tier {tier!r} (mem, disk, or all)")
            return {"ok": True, "cleared": self.cache.clear(tier)}
        if op == "cache.warm":
            return {"ok": True, "warmed": self._warm(request)}
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "shutdown": True}
        raise ServiceProtocolError(f"unhandled admin op {op!r}")

    def _warm(self, request: Dict) -> List[Dict]:
        from repro.compiler.driver import CompilerOptions

        files = request.get("files") or []
        sources = request.get("sources") or []
        if not isinstance(files, list) or not isinstance(sources, list):
            raise ServiceProtocolError("'files'/'sources' must be lists")
        if not files and not sources:
            raise ServiceProtocolError("cache.warm needs 'files' or 'sources'")
        args = _cli_parser().parse_args(["compile", "ignored.c"])
        results: List[Dict] = []
        for label, source in self._warm_inputs(files, sources):
            ctx = self._request_context(args)
            try:
                tier = self.cache.warm(source, CompilerOptions(), ctx)
            except ReproError as err:
                results.append({"program": label, "ok": False,
                                "error": protocol.error_payload(err)})
            else:
                results.append({"program": label, "ok": True, "tier": tier})
        return results

    def _warm_inputs(self, files: List, sources: List):
        for path in files:
            if not isinstance(path, str):
                raise ServiceProtocolError("'files' entries must be paths")
            try:
                with open(path) as handle:
                    yield path, handle.read()
            except OSError as err:
                raise ServiceError(f"cannot read program {path!r}: {err}")
        for i, source in enumerate(sources):
            if not isinstance(source, str):
                raise ServiceProtocolError("'sources' entries must be strings")
            yield f"<source[{i}]>", source

    # -- reports -------------------------------------------------------------
    def _write_report(self, op, program, params, ctx=None,
                      error: Optional[BaseException] = None,
                      flight: Optional[Dict] = None,
                      trace: Optional[TraceContext] = None) -> Optional[str]:
        """The per-request RunReport artifact (crash paths included).  A
        failure to *write* the report must never mask the response."""
        if not self.config.report_dir:
            return None
        from repro.obs.report import build_report

        if ctx is None:
            # The request died before a context existed (protocol errors,
            # unreadable programs): report against an empty context so the
            # artifact still records the typed error.
            ctx = ToolchainContext()
        if trace is not None and getattr(ctx, "trace_context", None) is None:
            ctx.trace_context = trace
        seq = next(self._seq)
        name = f"req-{seq:06d}-{(op or 'invalid').replace('.', '_')}.json"
        path = os.path.join(self.config.report_dir, name)
        try:
            extra = {"flight_recorder": flight} if flight is not None else None
            report = build_report(ctx, command=op, program=program,
                                  params=params, error=error, extra=extra)
            tmp = f"{path}.tmp"
            with open(tmp, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True,
                          default=repr)
                handle.write("\n")
            os.replace(tmp, path)
        except Exception:
            return None
        return path

    # -- stats ---------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        tiers = self.cache.stats()
        counters = self.metrics.snapshot()["counters"]
        return {
            "requests": counters.get(CTR_REQUESTS, 0),
            "errors": counters.get(CTR_ERRORS, 0),
            "tiers": tiers,
            "counters": counters,
        }

    def telemetry_snapshot(self) -> Dict[str, object]:
        """The ``stats`` verb's telemetry payload: the rolling snapshot plus
        two-tier cache hit ratios and flight-recorder occupancy."""
        snap = self.telemetry.snapshot()
        counters = self.metrics.counters
        cache: Dict[str, Dict[str, object]] = {}
        for tier in ("mem", "disk"):
            hits = counters.get(f"cache.tier.{tier}.hit", 0)
            misses = counters.get(f"cache.tier.{tier}.miss", 0)
            total = hits + misses
            cache[tier] = {
                "hits": hits,
                "misses": misses,
                "hit_ratio": (hits / total) if total else None,
            }
        snap["cache"] = cache
        snap["flight"] = {
            "entries": len(self.flight),
            "capacity": self.flight.capacity,
            "dropped": self.flight.dropped,
        }
        return snap

    def prometheus(self) -> str:
        """The full Prometheus text exposition (the ``stats`` verb's
        ``format: prometheus`` answer and the ``--metrics-addr`` body)."""
        snap = self.telemetry_snapshot()
        return render_prometheus(snap, counters=dict(self.metrics.counters),
                                 cache=snap["cache"])
