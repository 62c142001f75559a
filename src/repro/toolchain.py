"""Toolchain context: the explicit home of cross-cutting toolchain state.

Everything that used to live in scattered process globals — the
``compile_source`` memo, the experiment harness's default chaos plan —
belongs to a :class:`ToolchainContext`:

* **caches** — named, bounded result caches (the whole-pipeline compile
  memo, the parse cache, the per-pass analysis cache);
* **default_chaos** — the default :class:`~repro.runtime.chaos.FaultPlan`
  picked up by experiment runs that do not pass one explicitly;
* **pass_stats** — per-pass wall-clock timing, invocation and cache
  counters filled in by :class:`~repro.compiler.passes.PassManager`;
* **dump_after** — name of the pass whose output the CLI wants printed.

A context is cheap to construct; tools that want isolation (the CLI builds
one per invocation, scheduler workers one per process) make their own.
Library entry points take an optional ``ctx`` argument and fall back to the
process-wide :func:`default_context`, which exists purely so that the
historical module-level API (``compile_source(src)`` with no context)
keeps working.
"""

from __future__ import annotations

import sys
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "BoundedCache",
    "CacheRegistry",
    "PassStats",
    "ToolchainContext",
    "default_context",
    "set_default_context",
]

# Entry bound shared by the named caches (the old ``_COMPILE_CACHE_MAX``).
DEFAULT_CACHE_MAX = 256


class BoundedCache:
    """An LRU dict with an entry bound, an optional byte budget, and
    hit/miss/eviction counters.

    Eviction is per-entry (least-recently-used first) so a long-lived
    process — the toolchain daemon in particular — degrades gracefully
    instead of dumping its whole working set on overflow.  Entry costs
    default to a shallow :func:`sys.getsizeof` estimate; callers that know
    the real footprint (the service's disk tier pickles entries anyway)
    pass ``cost=`` explicitly.  All operations are thread-safe: the daemon
    shares one registry across concurrent request handlers.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_MAX,
                 max_bytes: Optional[int] = None):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_held = 0
        self.on_evict: Optional[Callable[[int], None]] = None
        self._lock = threading.RLock()
        self._data: "OrderedDict" = OrderedDict()
        self._costs: Dict = {}

    def get(self, key, default=None):
        with self._lock:
            entry = self._data.get(key, default)
            if entry is not default:
                self.hits += 1
                self._data.move_to_end(key)
            else:
                self.misses += 1
            return entry

    def peek(self, key, default=None):
        """Like :meth:`get` but touches neither counters nor LRU order."""
        with self._lock:
            return self._data.get(key, default)

    def put(self, key, value, cost: Optional[int] = None) -> None:
        if cost is None:
            cost = sys.getsizeof(value)
        with self._lock:
            if key in self._data:
                self.bytes_held -= self._costs.get(key, 0)
                del self._data[key]
            self._data[key] = value
            self._costs[key] = cost
            self.bytes_held += cost
            evicted = 0
            while len(self._data) > self.max_entries or (
                self.max_bytes is not None
                and self.bytes_held > self.max_bytes
                and len(self._data) > 1
            ):
                old_key, _ = self._data.popitem(last=False)
                self.bytes_held -= self._costs.pop(old_key, 0)
                evicted += 1
            self.evictions += evicted
        if evicted and self.on_evict is not None:
            self.on_evict(evicted)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._costs.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.bytes_held = 0

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._data), "evictions": self.evictions,
                "bytes_held": self.bytes_held}


class CacheRegistry:
    """Named :class:`BoundedCache` instances, created on first use.

    ``fingerprints`` is the AST → source-hash side table the pass manager
    consults for analysis caching.  It lives on the registry — not on the
    manager — so that contexts *sharing* a registry (the daemon's request
    contexts share the server-wide one) also share fingerprint knowledge:
    a parse-cache tree resident from one request still gets analysis-level
    cache hits on the next.

    ``on_evict(name, n)``, when set, is called for every eviction in every
    cache created afterwards — the daemon wires it to the
    ``cache.tier.mem.evict`` counter.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_MAX,
                 max_bytes: Optional[int] = None):
        self._caches: Dict[str, BoundedCache] = {}
        self._lock = threading.Lock()
        self.default_max_entries = max_entries
        self.default_max_bytes = max_bytes
        self.fingerprints: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.on_evict: Optional[Callable[[str, int], None]] = None

    def get(self, name: str, max_entries: Optional[int] = None) -> BoundedCache:
        cache = self._caches.get(name)
        if cache is None:
            with self._lock:
                cache = self._caches.get(name)
                if cache is None:
                    cache = BoundedCache(
                        max_entries or self.default_max_entries,
                        max_bytes=self.default_max_bytes,
                    )
                    if self.on_evict is not None:
                        hook = self.on_evict
                        cache.on_evict = lambda n, _name=name: hook(_name, n)
                    self._caches[name] = cache
        return cache

    def names(self) -> List[str]:
        return sorted(self._caches)

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {name: cache.stats() for name, cache in sorted(self._caches.items())}

    def clear(self) -> None:
        for cache in self._caches.values():
            cache.clear()


@dataclass
class PassRecord:
    """Aggregate counters for one named pass."""

    invocations: int = 0
    seconds: float = 0.0        # self time: nested pass time excluded
    cache_hits: int = 0
    cache_misses: int = 0


class PassStats:
    """Per-pass timing/invocation/cache accounting plus an entry-point
    total, so ``--time-passes`` can report both the breakdown and how much
    of the toolchain's wall-clock the breakdown accounts for."""

    def __init__(self):
        self.records: Dict[str, PassRecord] = {}
        self.total_seconds = 0.0   # wall-clock inside toolchain entry points
        self.entries = 0           # number of top-level entry invocations

    def record(self, name: str, seconds: float) -> None:
        rec = self.records.setdefault(name, PassRecord())
        rec.invocations += 1
        rec.seconds += seconds

    def record_cache(self, name: str, hit: bool) -> None:
        rec = self.records.setdefault(name, PassRecord())
        if hit:
            rec.cache_hits += 1
        else:
            rec.cache_misses += 1

    def record_total(self, seconds: float) -> None:
        self.entries += 1
        self.total_seconds += seconds

    def pass_seconds(self) -> float:
        return sum(rec.seconds for rec in self.records.values())

    def coverage(self) -> float:
        """Fraction of entry-point wall-clock attributed to named passes
        (1.0 when nothing ran: an empty report hides nothing)."""
        if self.total_seconds <= 0.0:
            return 1.0
        return min(1.0, self.pass_seconds() / self.total_seconds)

    def reset(self) -> None:
        self.records.clear()
        self.total_seconds = 0.0
        self.entries = 0

    def report(self) -> str:
        """The ``--time-passes`` table."""
        lines = ["=== pass timing ==="]
        header = f"{'pass':14s} {'runs':>5s} {'seconds':>10s} {'%':>6s} {'hits':>5s} {'miss':>5s}"
        lines.append(header)
        lines.append("-" * len(header))
        total = self.total_seconds or self.pass_seconds() or 1.0
        for name, rec in sorted(self.records.items(),
                                key=lambda kv: -kv[1].seconds):
            lines.append(
                f"{name:14s} {rec.invocations:5d} {rec.seconds:10.6f} "
                f"{100.0 * rec.seconds / total:6.1f} "
                f"{rec.cache_hits:5d} {rec.cache_misses:5d}"
            )
        lines.append(
            f"{'total':14s} {self.entries:5d} {self.total_seconds:10.6f} "
            f"(passes account for {100.0 * self.coverage():.1f}%)"
        )
        return "\n".join(lines)


class ToolchainContext:
    """Explicit toolchain state threaded compiler → interp → runtime →
    verify → experiments (see module docstring)."""

    def __init__(self, default_chaos=None, device_config=None):
        self.caches = CacheRegistry()
        self.pass_stats = PassStats()
        # Default FaultPlan for runs that do not pass one explicitly
        # (shared on purpose: one plan's fault budget spans a whole sweep).
        self.default_chaos = default_chaos
        # Default DeviceConfig for runtimes this context spawns (None keeps
        # the stock device).  The CLI's --delta-transfers/--merge-gap flags
        # and the delta-equivalence harness configure runs through this.
        self.device_config = device_config
        # Phase-sampled execution (repro.sampling.SamplingConfig); None —
        # the default — keeps every run bit-identical to an unsampled one.
        self.sampling = None
        # Fault-handling knobs: retry ceiling for transient faults and the
        # backoff base seconds.  None defers to AccRuntime defaults / the
        # cost model, keeping existing runs bit-identical.
        self.max_retries: Optional[int] = None
        self.backoff_base: Optional[float] = None
        # CLI observability hooks.
        self.dump_after: Optional[str] = None
        self.dump_sink: Callable[[str], None] = print
        # Observability layer: span tracer (NULL_TRACER = tracing off) and
        # the run-wide metrics aggregate every runtime's profiler mirrors
        # into.  ``last_runtime`` remembers the most recent AccRuntime this
        # context spawned, so a RunReport can be built even after an error.
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import NULL_TRACER

        self.tracer = NULL_TRACER
        self.metrics = MetricsRegistry()
        self.last_runtime = None
        # Trace identity (repro.obs.telemetry.TraceContext) of the service
        # request or traced CLI run this context serves; None otherwise.
        # Stamped on RunReports/exports and shipped to pool workers.
        self.trace_context = None
        self._passes = None

    @property
    def passes(self):
        """The context's :class:`~repro.compiler.passes.PassManager`
        (created lazily to keep this module import-light)."""
        if self._passes is None:
            from repro.compiler.passes import PassManager

            self._passes = PassManager(self)
        return self._passes

    def resolve_chaos(self, chaos=None):
        """An explicit plan/spec wins; otherwise the context default.
        A :class:`FaultSpec` is promoted to a fresh plan (own rng/budget)."""
        from repro.runtime.chaos import FaultPlan, FaultSpec

        if chaos is None:
            chaos = self.default_chaos
        if chaos is None:
            return None
        if isinstance(chaos, FaultSpec):
            return FaultPlan(chaos)
        return chaos

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/size counters for every named cache in this context."""
        return self.caches.stats()

    def clear_caches(self) -> None:
        self.caches.clear()


_DEFAULT_CONTEXT: Optional[ToolchainContext] = None


def default_context() -> ToolchainContext:
    """The process-wide fallback context (compatibility for the historical
    module-level API; new code should construct and thread its own)."""
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = ToolchainContext()
    return _DEFAULT_CONTEXT


def set_default_context(ctx: Optional[ToolchainContext]) -> ToolchainContext:
    """Replace the process-wide fallback context (None installs a fresh
    one).  Returns the previous context so callers can restore it."""
    global _DEFAULT_CONTEXT
    previous = default_context()
    _DEFAULT_CONTEXT = ctx if ctx is not None else ToolchainContext()
    return previous
