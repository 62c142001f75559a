"""Live telemetry plane: trace contexts, rolling daemon statistics, and the
crash flight recorder.

Three cooperating pieces, all zero-cost when unused:

* :class:`TraceContext` — a ``trace_id``/``request_id`` pair minted by the
  service client (or by the daemon when a request arrives without one),
  carried through the NDJSON protocol, stamped on every span, RunReport and
  flight-recorder entry produced by that request, and shipped to experiment
  pool workers so a multi-process run stitches into one coherent trace.

* :class:`Telemetry` — the daemon's rolling statistics: per-verb request
  latency over a sliding window (:class:`~repro.obs.metrics.WindowedHistogram`
  ring of power-of-two histograms), queue-depth / in-flight gauges, worker
  utilization (busy seconds in the window over ``window × workers``), and
  the cumulative modeled device busy time folded in from each request's
  :class:`~repro.runtime.accrt.AccRuntime`.  Everything is
  *read-only over runtime state* — recording telemetry never touches the
  modeled clock, the chaos RNG, or any device memory, so telemetry-enabled
  responses stay byte-identical to the offline CLI.

* :class:`FlightRecorder` — a bounded ring of recent spans/events (one ring
  per request plus one daemon-lifetime ring) dumped into the RunReport and
  error payload on any failure path, so post-mortems ship their own black
  box instead of requiring a re-run with ``--trace``.
"""

from __future__ import annotations

import collections
import threading
import time
import uuid
from typing import Dict, List, Optional

from repro.obs.metrics import WindowedHistogram

__all__ = [
    "FlightRecorder",
    "Telemetry",
    "TraceContext",
    "render_prometheus",
]


class TraceContext:
    """One request's identity: ``trace_id`` names the end-to-end trace (the
    client's session of related requests), ``request_id`` names this hop."""

    __slots__ = ("trace_id", "request_id")

    def __init__(self, trace_id: str, request_id: Optional[str] = None):
        self.trace_id = trace_id
        self.request_id = request_id

    @classmethod
    def mint(cls, request_id: Optional[str] = None) -> "TraceContext":
        return cls(uuid.uuid4().hex[:16], request_id)

    def to_dict(self) -> Dict[str, Optional[str]]:
        return {"trace_id": self.trace_id, "request_id": self.request_id}

    def __eq__(self, other):
        return (isinstance(other, TraceContext)
                and other.trace_id == self.trace_id
                and other.request_id == self.request_id)

    def __repr__(self):
        return (f"TraceContext(trace_id={self.trace_id!r}, "
                f"request_id={self.request_id!r})")

    # Plain __getstate__/__setstate__ so the experiment scheduler can ship a
    # context to ProcessPoolExecutor workers despite __slots__.
    def __getstate__(self):
        return (self.trace_id, self.request_id)

    def __setstate__(self, state):
        self.trace_id, self.request_id = state


class FlightRecorder:
    """Bounded ring of recent observability entries (the black box).

    Entries are plain dicts (``kind`` of ``span``/``event``/``request``) so a
    dump is directly JSON-serializable into reports and error payloads.  The
    recorder itself never raises and never blocks beyond a ring append.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = int(capacity)
        self._ring = collections.deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self.dropped = 0

    def record(self, entry: Dict[str, object]) -> None:
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(entry)

    def tail(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        with self._lock:
            entries = list(self._ring)
        if limit is not None and limit >= 0:
            entries = entries[-limit:]
        return entries

    def __len__(self):
        with self._lock:
            return len(self._ring)

    def sink(self, tag: Optional[Dict[str, object]] = None) -> "_RecorderSink":
        """A tracer sink feeding this ring, tagging every entry with ``tag``
        (e.g. the request's trace/request ids)."""
        return _RecorderSink(self, dict(tag or {}))


class _RecorderSink:
    """Adapter from :class:`~repro.obs.tracer.Tracer` sink callbacks to
    compact, JSON-safe :class:`FlightRecorder` entries."""

    __slots__ = ("recorder", "tag")

    def __init__(self, recorder: FlightRecorder, tag: Dict[str, object]):
        self.recorder = recorder
        self.tag = tag

    @staticmethod
    def _safe_attrs(attrs: Dict[str, object]) -> Dict[str, object]:
        return {
            key: (value if isinstance(value, (int, float, str, bool,
                                              type(None)))
                  else repr(value))
            for key, value in attrs.items()
        }

    def record_span(self, span) -> None:
        entry: Dict[str, object] = {
            "kind": "span",
            "name": span.name,
            "cat": span.category,
            "wall_s": span.wall_seconds,
            "attrs": self._safe_attrs(span.attrs),
        }
        modeled = span.modeled_seconds
        if modeled is not None:
            entry["modeled_s"] = modeled
        if span.events:
            entry["events"] = [
                {"name": e.name, "attrs": self._safe_attrs(e.attrs)}
                for e in span.events
            ]
        entry.update(self.tag)
        self.recorder.record(entry)

    def record_event(self, event) -> None:
        entry = {
            "kind": "event",
            "name": event.name,
            "attrs": self._safe_attrs(event.attrs),
        }
        entry.update(self.tag)
        self.recorder.record(entry)


class Telemetry:
    """The daemon's rolling statistics (see module docstring).

    Lifecycle hooks (``request_submitted`` → ``request_started`` →
    ``request_finished``) are called by the daemon around each request;
    ``record_run`` folds the device busy time out of a finished request's
    runtime.  :meth:`snapshot` renders everything into one JSON-safe dict —
    the payload of the ``stats`` protocol verb and the input of
    :func:`render_prometheus` and ``repro top``.
    """

    def __init__(self, workers: int = 1, window_s: float = 60.0,
                 slots: int = 6, clock=time.monotonic):
        self.workers = max(1, int(workers))
        self.window_s = float(window_s)
        self._slots = int(slots)
        self._clock = clock
        self.started_at = clock()
        self._lock = threading.Lock()
        self._latency: Dict[str, WindowedHistogram] = {}
        # Busy seconds per finished request, in-window: utilization numerator.
        self._busy = WindowedHistogram(window_s, slots, clock)
        self._queue_depth = 0
        self._inflight = 0
        self._finished = 0
        self._errors = 0
        # Cumulative modeled busy seconds of the simulated device.
        self._device_busy = 0.0

    # -- request lifecycle ---------------------------------------------------
    def request_submitted(self) -> None:
        with self._lock:
            self._queue_depth += 1

    def request_started(self, verb: str) -> None:
        with self._lock:
            if self._queue_depth > 0:
                self._queue_depth -= 1
            self._inflight += 1

    def request_finished(self, verb: str, elapsed_s: float, ok: bool) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            self._finished += 1
            if not ok:
                self._errors += 1
            hist = self._latency.get(verb)
            if hist is None:
                hist = self._latency[verb] = WindowedHistogram(
                    self.window_s, self._slots, self._clock)
        hist.observe(elapsed_s * 1e3)
        self._busy.observe(elapsed_s)

    # -- device busy time ----------------------------------------------------
    def record_run(self, runtime) -> None:
        """Fold a finished request's device busy time into the lifetime
        aggregates.  Reads runtime state only; never mutates it."""
        busy = getattr(runtime, "busy_s", None)
        if busy is None:
            return
        with self._lock:
            self._device_busy += busy

    # -- derived views -------------------------------------------------------
    def utilization(self) -> float:
        """Busy seconds inside the window over ``window × workers`` (the
        window is clipped to the daemon's uptime while warming up)."""
        window = min(self.window_s, max(1e-9, self._clock() - self.started_at))
        busy = self._busy.merged().total
        return min(1.0, busy / (window * self.workers))

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            latency = dict(self._latency)
            device_busy = self._device_busy
            queue_depth = self._queue_depth
            inflight = self._inflight
            finished = self._finished
            errors = self._errors
        uptime = max(0.0, self._clock() - self.started_at)
        window = min(self.window_s, max(1e-9, uptime))
        verbs: Dict[str, Dict[str, object]] = {}
        for verb, whist in sorted(latency.items()):
            merged = whist.merged()
            if merged.count == 0:
                continue
            verbs[verb] = {
                "count": merged.count,
                "rate_rps": merged.count / window,
                "mean_ms": merged.total / merged.count,
                "p50_ms": merged.quantile(0.50),
                "p95_ms": merged.quantile(0.95),
                "p99_ms": merged.quantile(0.99),
                "max_ms": merged.max,
                "buckets": merged.buckets_le(),
            }
        return {
            "uptime_s": uptime,
            "window_s": self.window_s,
            "workers": self.workers,
            "requests": finished,
            "errors": errors,
            "inflight": inflight,
            "queue_depth": queue_depth,
            "utilization": self.utilization(),
            "verbs": verbs,
            "device_busy_s": device_busy,
        }


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    text = "".join(out)
    if not text or not (text[0].isalpha() or text[0] == "_"):
        text = "_" + text
    return text


def _prom_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: Dict[str, object],
                      counters: Optional[Dict[str, int]] = None,
                      cache: Optional[Dict[str, Dict[str, object]]] = None,
                      namespace: str = "repro") -> str:
    """Render a :meth:`Telemetry.snapshot` (plus the daemon's counter dict
    and two-tier cache statistics) in the Prometheus text exposition format
    (version 0.0.4)."""
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str) -> str:
        full = f"{namespace}_{name}"
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        return full

    def sample(full: str, labels: Dict[str, object], value) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{str(val)}"' for key, val in labels.items())
            lines.append(f"{full}{{{rendered}}} {_prom_value(value)}")
        else:
            lines.append(f"{full} {_prom_value(value)}")

    full = family("uptime_seconds", "gauge", "Daemon uptime.")
    sample(full, {}, snapshot.get("uptime_s", 0.0))
    full = family("workers", "gauge", "Worker pool size.")
    sample(full, {}, snapshot.get("workers", 0))
    full = family("requests_total", "counter", "Requests served.")
    sample(full, {}, snapshot.get("requests", 0))
    full = family("errors_total", "counter", "Requests that returned an error.")
    sample(full, {}, snapshot.get("errors", 0))
    full = family("inflight_requests", "gauge", "Requests currently executing.")
    sample(full, {}, snapshot.get("inflight", 0))
    full = family("queue_depth", "gauge", "Requests accepted but not started.")
    sample(full, {}, snapshot.get("queue_depth", 0))
    full = family("worker_utilization", "gauge",
                  "Busy seconds over window times workers (0..1).")
    sample(full, {}, snapshot.get("utilization", 0.0))

    verbs = snapshot.get("verbs") or {}
    if verbs:
        full = family("request_latency_ms", "histogram",
                      "Per-verb request latency over the sliding window.")
        for verb, stats in sorted(verbs.items()):
            for bucket in stats.get("buckets", []):
                sample(f"{full}_bucket",
                       {"verb": verb, "le": bucket["le"]}, bucket["count"])
            sample(f"{full}_count", {"verb": verb}, stats.get("count", 0))
            mean = stats.get("mean_ms") or 0.0
            sample(f"{full}_sum", {"verb": verb},
                   mean * stats.get("count", 0))

    full = family("device_busy_seconds", "counter",
                  "Cumulative modeled busy time of the simulated device.")
    sample(full, {}, snapshot.get("device_busy_s", 0.0))

    if cache:
        full = family("cache_hit_ratio", "gauge",
                      "Two-tier pass-cache hit ratio per tier.")
        for tier, stats in sorted(cache.items()):
            ratio = stats.get("hit_ratio")
            if ratio is not None:
                sample(full, {"tier": tier}, ratio)
        full = family("cache_requests_total", "counter",
                      "Cache lookups per tier and outcome.")
        for tier, stats in sorted(cache.items()):
            sample(full, {"tier": tier, "outcome": "hit"},
                   stats.get("hits", 0))
            sample(full, {"tier": tier, "outcome": "miss"},
                   stats.get("misses", 0))

    if counters:
        full = family("counter_total", "counter",
                      "Registered toolchain counters (daemon lifetime).")
        for name, value in sorted(counters.items()):
            sample(full, {"name": name}, value)

    return "\n".join(lines) + "\n"
