"""Modeled-time profiler.

Maintains a host clock in *modeled seconds* and per-category totals.  The
categories are exactly the Figure-3 breakdown of the paper, plus a kernel
category (synchronous launches block the host) and a coherence-check
category (Figure-4 overhead).

Counters live in a :class:`~repro.obs.metrics.MetricsRegistry` behind the
historical ``Profiler.count``/``Profiler.counters`` surface.  Counter names
are *registered*: every name must be declared up front via
:func:`register_counter` (or fall under a registered dynamic prefix such as
``fault.injected.``) and follow the dotted-lowercase ``noun.verb``
convention, so a typo'd counter name fails loudly instead of silently
splitting a metric in two.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

# The counter-name registry lives in the obs layer (one source of truth for
# every layer that mints counter names); re-exported here because the
# ``CTR_*`` declarations below and the historical import surface
# (``repro.runtime.profiler.register_counter``) both live in this module.
from repro.obs.metrics import (
    MetricsRegistry,
    is_registered_counter,
    register_counter,
    register_counter_prefix,
    registered_counter_prefixes,
    registered_counters,
)


# Figure-3 categories.
CAT_MEM_FREE = "GPU Mem Free"
CAT_MEM_ALLOC = "GPU Mem Alloc"
CAT_TRANSFER = "Mem Transfer"
CAT_ASYNC_WAIT = "Async-Wait"
CAT_RESULT_COMP = "Result-Comp"
CAT_CPU = "CPU Time"
# Extra categories.
CAT_KERNEL = "GPU Kernel"
CAT_CHECK = "Coherence-Check"

# Counter names (Profiler.count) for the execution-backend split: how many
# kernel launches ran on the vectorized fast path vs. the interleaved
# stepper.  Modeled time is identical either way; the split is a wall-clock
# diagnostic and lets tests assert that race-revealing launches (Table II
# fault injection) really took the interleaved path.
CTR_LAUNCH_VECTORIZED = register_counter("launch.vectorized")
CTR_LAUNCH_INTERLEAVED = register_counter("launch.interleaved")

# Recovery counters: how often the hardened runtime re-issued a faulted
# operation (retry-with-backoff in accrt) or downgraded a kernel launch one
# rung on the degradation ladder (interp).  Zero in fault-free runs, so the
# chaos tests can assert that every recovery is observable.
CTR_TRANSFER_RETRIED = register_counter("transfer.retried")
CTR_ALLOC_RETRIED = register_counter("alloc.retried")
CTR_LAUNCH_RETRIED = register_counter("launch.retried")
CTR_LAUNCH_DEGRADED = register_counter("launch.degraded")

# Transfer-byte accounting (the byte-accurate transfer engine): bytes that
# actually crossed the modeled PCIe link in each direction, and bytes a
# whole-array transfer would have moved that delta transfers skipped.
# bytes.saved stays zero when delta transfers are off.
CTR_BYTES_H2D = register_counter("bytes.h2d")
CTR_BYTES_D2H = register_counter("bytes.d2h")
CTR_BYTES_SAVED = register_counter("bytes.saved")

# Chaos-injection counters (bumped by FaultPlan.draw); the per-kind family
# is dynamic — one counter per fault kind actually injected.
CTR_FAULT_INJECTED = register_counter("fault.injected")
FAULT_COUNTER_PREFIX = register_counter_prefix("fault.injected.")

# Phase-sampling counters (repro.sampling): kernel launches and host loop
# iterations the sampler elided and charged by extrapolation instead of
# executing.  Zero whenever sampling is off.
CTR_SAMPLE_SKIPPED_LAUNCHES = register_counter("sample.skipped_launches")
CTR_SAMPLE_SKIPPED_ITERATIONS = register_counter("sample.skipped_iterations")

# Histogram names (Profiler.observe): value distributions the flat counters
# lose — how big each coalesced transfer batch was, and how long each
# retry backed off for.
HIST_TRANSFER_BATCH_BYTES = "transfer.batch_bytes"
HIST_RETRY_BACKOFF_S = "retry.backoff_seconds"

ALL_CATEGORIES = (
    CAT_MEM_FREE,
    CAT_MEM_ALLOC,
    CAT_TRANSFER,
    CAT_ASYNC_WAIT,
    CAT_RESULT_COMP,
    CAT_CPU,
    CAT_KERNEL,
    CAT_CHECK,
)


class Profiler:
    """Host clock + category accounting."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.now = 0.0
        self.totals: Dict[str, float] = {cat: 0.0 for cat in ALL_CATEGORIES}
        # Counters/histograms live in the registry; ``counters`` below is the
        # historical dict view.  Pass ``metrics`` with a parent to mirror
        # this profiler's metrics into a run-wide aggregate.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Optional observer (repro.sampling.PhaseSampler) that sees every
        # spend/count/observe as it happens.  None (the default) keeps the
        # hot paths branch-cheap and the profiler bit-identical to a
        # tap-free one.
        self.tap = None

    @property
    def counters(self) -> Dict[str, int]:
        return self.metrics.counters

    def spend(self, category: str, seconds: float) -> None:
        """Advance the host clock doing ``category`` work."""
        if seconds < 0:
            raise ValueError("negative duration")
        if self.tap is not None:
            self.tap.on_spend(category, seconds)
        self.now += seconds
        self.totals[category] = self.totals.get(category, 0.0) + seconds

    def advance_to(self, timestamp: float, category: str = CAT_ASYNC_WAIT) -> float:
        """Block the host until ``timestamp`` (no-op if already past).
        Returns the waited duration."""
        wait = max(0.0, timestamp - self.now)
        if wait:
            self.spend(category, wait)
        return wait

    def count(self, name: str, delta: int = 1) -> None:
        if not is_registered_counter(name):
            raise ValueError(
                f"unregistered counter {name!r}; declare it with "
                f"repro.runtime.profiler.register_counter() first")
        if self.tap is not None:
            self.tap.on_count(name, delta)
        self.metrics.count(name, delta)

    def observe(self, name: str, value) -> None:
        """Record one histogram observation (power-of-two buckets)."""
        if self.tap is not None:
            self.tap.on_observe(name, value)
        self.metrics.observe(name, value)

    def total(self) -> float:
        return self.now

    def breakdown(self, categories: Optional[Tuple[str, ...]] = None) -> Dict[str, float]:
        cats = categories or ALL_CATEGORIES
        return {cat: self.totals.get(cat, 0.0) for cat in cats}

    def normalized_breakdown(self, baseline: float) -> Dict[str, float]:
        """Each category divided by a baseline time (Fig. 3 uses the
        sequential CPU execution time)."""
        if baseline <= 0:
            raise ValueError("baseline must be positive")
        return {cat: val / baseline for cat, val in self.breakdown().items()}

    def reset(self) -> None:
        self.now = 0.0
        self.totals = {cat: 0.0 for cat in ALL_CATEGORIES}
        self.metrics.reset()

    def __repr__(self):
        busy = {k: round(v, 6) for k, v in self.totals.items() if v}
        return f"Profiler(now={self.now:.6f}, {busy})"
