"""Unified metrics registry: counters + histograms.

The registry absorbs the historical ``Profiler.count`` counters (the
profiler keeps its ``counters`` dict as a compatibility view into its
registry) and adds power-of-two histograms for value distributions the
counters flatten away — per-batch transfer bytes, retry backoff latencies.

Registries chain: a per-profiler registry can point at a context-level
``parent``, so every count/observation lands both in the owning runtime's
view (what the historical tests and the byte guard read) and in the
:class:`~repro.toolchain.ToolchainContext`'s run-wide aggregate (what the
RunReport exports).
"""

from __future__ import annotations

import math
import re
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "WindowedHistogram",
    "is_registered_counter",
    "register_counter",
    "register_counter_prefix",
    "registered_counter_prefixes",
    "registered_counters",
]

# ---------------------------------------------------------------------------
# Counter-name registry.  One module-level source of truth for every counter
# the toolchain may bump; ``Profiler.count`` rejects anything else.  The
# registry lives here (the obs layer) so that every layer that mints counter
# names — runtime, service, device — declares them against the same set;
# :mod:`repro.runtime.profiler` re-exports these for compatibility.
# ---------------------------------------------------------------------------

_COUNTER_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
_REGISTERED_COUNTERS: set = set()
_REGISTERED_PREFIXES: set = set()


def register_counter(name: str) -> str:
    """Declare a counter name (``noun.verb`` dotted lowercase) and return it,
    so declarations double as the ``CTR_*`` constant definitions."""
    if not _COUNTER_NAME_RE.match(name):
        raise ValueError(
            f"counter name {name!r} does not follow the dotted-lowercase "
            f"noun.verb convention (e.g. 'launch.retried')")
    _REGISTERED_COUNTERS.add(name)
    return name


def register_counter_prefix(prefix: str) -> str:
    """Declare a dynamic counter family (e.g. ``fault.injected.<kind>``);
    the prefix must itself end with a dot."""
    if not prefix.endswith(".") or not _COUNTER_NAME_RE.match(prefix[:-1]):
        raise ValueError(f"counter prefix {prefix!r} must be dotted lowercase "
                         f"ending in '.'")
    _REGISTERED_PREFIXES.add(prefix)
    return prefix


def is_registered_counter(name: str) -> bool:
    if name in _REGISTERED_COUNTERS:
        return True
    return any(name.startswith(p) and _COUNTER_NAME_RE.match(name)
               for p in _REGISTERED_PREFIXES)


def registered_counters() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTERED_COUNTERS))


def registered_counter_prefixes() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTERED_PREFIXES))


class Histogram:
    """Power-of-two-bucketed distribution (count/sum/min/max + buckets).

    Bucket key ``k`` counts observations with ``2**(k-1) < value <= 2**k``
    (``value <= 0`` lands in the dedicated ``zero`` bucket), which spans
    bytes (large ints) and latencies (small floats) with one scheme.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}
        # ``zero`` bucket rides in the dict under the sentinel key below.

    _ZERO_BUCKET = -(10 ** 6)

    def observe(self, value) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value <= 0.0:
            key = self._ZERO_BUCKET
        else:
            key = math.ceil(math.log2(value))
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram (in place)."""
        if other.count == 0:
            return self
        self.count += other.count
        self.total += other.total
        self.min = other.min if self.min is None else min(self.min, other.min)
        self.max = other.max if self.max is None else max(self.max, other.max)
        for key, n in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + n
        return self

    @classmethod
    def bucket_bounds(cls, key: int) -> Tuple[float, float]:
        """``(lo, hi]`` value bounds of bucket ``key`` (zero bucket: (0, 0])."""
        if key == cls._ZERO_BUCKET:
            return (0.0, 0.0)
        return (2.0 ** (key - 1), 2.0 ** key)

    def buckets_le(self) -> List[Dict[str, object]]:
        """Cumulative (Prometheus-style) buckets: ``[{"le": bound, "count": n},
        ..., {"le": "+Inf", "count": total}]``.  External tooling can recompute
        percentiles from these without knowing the power-of-two scheme."""
        out: List[Dict[str, object]] = []
        cumulative = 0
        for key, n in sorted(self.buckets.items()):
            cumulative += n
            bound = 0.0 if key == self._ZERO_BUCKET else 2.0 ** key
            out.append({"le": bound, "count": cumulative})
        out.append({"le": "+Inf", "count": self.count})
        return out

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated quantile estimate (``q`` in [0, 1]).  Linear
        interpolation inside the containing power-of-two bucket, tightened by
        the observed min/max at the extremes.  None when empty."""
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for key, n in sorted(self.buckets.items()):
            if cumulative + n >= rank:
                lo, hi = self.bucket_bounds(key)
                lo = max(lo, self.min if self.min is not None else lo)
                hi = min(hi, self.max if self.max is not None else hi)
                if hi <= lo:
                    return lo
                return lo + (hi - lo) * (rank - cumulative) / n
            cumulative += n
        return self.max

    def snapshot(self) -> Dict[str, object]:
        buckets = {
            ("zero" if k == self._ZERO_BUCKET else f"le_2^{k}"): n
            for k, n in sorted(self.buckets.items())
        }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
            "cumulative": self.buckets_le(),
        }

    def __repr__(self):
        return f"Histogram(count={self.count}, sum={self.total})"


class WindowedHistogram:
    """Sliding-window time-series of :class:`Histogram`\\ s.

    A ring of ``slots`` power-of-two histograms, each covering
    ``window_s / slots`` seconds of wall clock; observations land in the
    current slot, and :meth:`merged` folds the still-live slots into one
    histogram covering (at most) the trailing ``window_s`` seconds.  Slots
    are recycled lazily on access — an idle window costs nothing.
    Thread-safe: the daemon's worker threads observe concurrently.
    """

    __slots__ = ("window_s", "slots", "slot_s", "_clock", "_ring", "_lock")

    def __init__(self, window_s: float = 60.0, slots: int = 6,
                 clock=time.monotonic):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        self.slots = int(slots)
        self.slot_s = self.window_s / self.slots
        self._clock = clock
        # ring[i] = [slot_epoch, Histogram]; epoch is the global slot index,
        # so a stale entry is detected (and recycled) without a sweeper.
        self._ring: List[List[object]] = [[-1, Histogram()]
                                          for _ in range(self.slots)]
        self._lock = threading.Lock()

    def _epoch(self) -> int:
        return int(self._clock() / self.slot_s)

    def observe(self, value) -> None:
        epoch = self._epoch()
        i = epoch % self.slots
        with self._lock:
            slot = self._ring[i]
            if slot[0] != epoch:
                slot[0] = epoch
                slot[1] = Histogram()
            slot[1].observe(value)

    def merged(self) -> Histogram:
        """One histogram folding every slot still inside the window."""
        epoch = self._epoch()
        live_from = epoch - self.slots + 1
        out = Histogram()
        with self._lock:
            for slot_epoch, hist in self._ring:
                if slot_epoch >= live_from:
                    out.merge(hist)
        return out

    def __repr__(self):
        return (f"WindowedHistogram(window_s={self.window_s}, "
                f"slots={self.slots})")


class MetricsRegistry:
    """Named counters and histograms, optionally mirrored into a parent."""

    def __init__(self, parent: Optional["MetricsRegistry"] = None):
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.parent = parent

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta
        if self.parent is not None:
            self.parent.count(name, delta)

    def observe(self, name: str, value) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)
        if self.parent is not None:
            self.parent.observe(name, value)

    def snapshot(self) -> Dict[str, object]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        """Clear this registry's own state (the parent keeps its aggregate)."""
        self.counters.clear()
        self.histograms.clear()
