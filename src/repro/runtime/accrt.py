"""OpenACC runtime API.

This is the layer generated programs execute against: structured data-region
entry/exit, ``update`` transfers, kernel launches (sync or async), and
``wait``.  Every operation is charged to the profiler in modeled time, and —
when a :class:`CoherenceTracker` is attached — every transfer and free runs
the §III-B coherence hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.device import Device
from repro.device.engine import LaunchResult, LaunchSpec, Schedule
from repro.device.transfer import coalesce_intervals, diff_intervals
from repro.errors import RuntimeFault, TransferCorruptionError, TransientFault
from repro.obs.tracer import NULL_TRACER
from repro.runtime.chaos import FaultPlan
from repro.runtime.coherence import CPU, GPU, CoherenceTracker
from repro.runtime.intervals import D2H, H2D, DirtyMap
from repro.runtime.present import PresentTable
from repro.runtime.profiler import (
    CAT_ASYNC_WAIT,
    CAT_CHECK,
    CAT_CPU,
    CAT_KERNEL,
    CAT_MEM_ALLOC,
    CAT_MEM_FREE,
    CAT_RESULT_COMP,
    CAT_TRANSFER,
    CTR_ALLOC_RETRIED,
    CTR_BYTES_D2H,
    CTR_BYTES_H2D,
    CTR_BYTES_SAVED,
    CTR_LAUNCH_INTERLEAVED,
    CTR_LAUNCH_RETRIED,
    CTR_LAUNCH_VECTORIZED,
    CTR_TRANSFER_RETRIED,
    HIST_RETRY_BACKOFF_S,
    HIST_TRANSFER_BATCH_BYTES,
    Profiler,
)
from repro.runtime.queues import AsyncQueues


@dataclass(frozen=True)
class TransferRecord:
    """One successful dynamic transfer (the typed replacement for the old
    ``(var, site, direction)`` tuples in ``transfer_log``)."""

    var: str
    site: str
    direction: str      # "h2d" | "d2h"
    nbytes: int = 0     # bytes that actually crossed the link
    full_nbytes: int = 0  # bytes a whole-array/section transfer would move
    batches: int = 1    # coalesced interval batches (1 = classic copy)

    @property
    def nbytes_saved(self) -> int:
        return max(0, self.full_nbytes - self.nbytes)


@dataclass(frozen=True)
class _TransferPlan:
    """Delta-transfer decision for one copy: which element intervals to move
    (None = classic whole-array/section copy) and the byte accounting."""

    intervals: Optional[List[Tuple[int, int]]]
    nbytes: int
    full_nbytes: int
    batches: int
    span: Tuple[int, int]
    itemsize: int = 0   # element width; sizes per-batch histogram samples


class AccRuntime:
    """One runtime instance per program execution."""

    # Retry budget used when neither the constructor nor the context sets one.
    DEFAULT_MAX_RETRIES = 3

    def __init__(
        self,
        device: Optional[Device] = None,
        profiler: Optional[Profiler] = None,
        coherence: Optional[CoherenceTracker] = None,
        chaos: Optional[FaultPlan] = None,
        max_retries: Optional[int] = None,
        ctx=None,
    ):
        if device is None:
            device = Device(config=getattr(ctx, "device_config", None))
        self.device = device
        # Modeled kernel seconds the device spent executing.  Telemetry reads
        # it for device utilization; it never feeds back into the clock.
        self.busy_s = 0.0
        self.profiler = profiler or Profiler()
        # The owning ToolchainContext, when the caller threads one through.
        # Chaos stays an explicit constructor argument — the context default
        # is applied by the layer that decides a run should see faults (the
        # experiment harness), never implicitly here.
        self.ctx = ctx
        # Observability: the context's tracer (NULL_TRACER when tracing is
        # off), mirrored into every collaborator that emits events.  The
        # profiler's metrics chain into the context aggregate, and the
        # modeled clock is wired so spans carry both time axes.  Only state
        # is *read* — a traced run stays bit-identical to an untraced one.
        self.tracer = getattr(ctx, "tracer", None) or NULL_TRACER
        if ctx is not None:
            self.profiler.metrics.parent = ctx.metrics
            ctx.last_runtime = self
        if self.tracer.enabled:
            profiler = self.profiler
            self.tracer.modeled_clock = lambda: profiler.now
        self.device.tracer = self.tracer
        # Retry budget for operations that hit a fault marked transient
        # (TransientFault) or a detected transfer corruption.  Each retry
        # pays an exponential backoff on the simulated clock.  Both the
        # budget and the backoff base resolve explicit argument > context
        # knob > default, so recovery policy is tunable from the CLI
        # (--max-retries / --backoff-base) without code edits.
        if max_retries is None:
            max_retries = getattr(ctx, "max_retries", None)
        self.max_retries = (self.DEFAULT_MAX_RETRIES if max_retries is None
                            else max_retries)
        backoff_base = getattr(ctx, "backoff_base", None)
        self.backoff_base = (self.device.config.costs.retry_backoff_s
                             if backoff_base is None else backoff_base)
        self.chaos = chaos
        if chaos is not None:
            chaos.profiler = self.profiler
            chaos.tracer = self.tracer
            self.device.attach_chaos(chaos)
        self.queues = AsyncQueues(self.profiler, chaos=chaos)
        self.present = PresentTable()
        self.coherence = coherence
        # Phase sampler (repro.sampling.PhaseSampler) — attaches itself when
        # the run is sampled; None keeps launch/transfer paths hook-free.
        self.sampler = None
        if coherence is not None:
            coherence.tracer = self.tracer
        self.launch_log: List[LaunchResult] = []
        # One TransferRecord per successful dynamic transfer; the suggestion
        # engine aggregates these against the coherence findings.
        self.transfer_log: List[TransferRecord] = []
        # Dead-interval bookkeeping.  When a tracker is attached its map is
        # shared, so write checks (tracker) and alloc/launch/transfer events
        # (runtime) feed the same per-variable interval sets.
        self.dirty: DirtyMap = coherence.dirty if coherence is not None else DirtyMap()
        self.delta_transfers = bool(self.device.config.delta_transfers)
        # Footprints are worth collecting when delta transfers consume them
        # or a coherence tracker prices redundant transfers in bytes.
        self._track_writes = self.delta_transfers or coherence is not None
        if self._track_writes:
            self.device.engine.collect_write_sets = True
        # Dead-target pins to apply right after the next allocation of a
        # variable (compiler-directed; see checkinsert).
        self._pending_pins: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # Data regions
    # ------------------------------------------------------------------
    def data_enter(self, var: str, host: np.ndarray, copyin: bool, site: str = "",
                   queue: Optional[int] = None) -> bool:
        """Enter a data clause for one variable.

        Present-or semantics: if already present, just retain.  Returns True
        when a new device buffer was created."""
        if self.present.is_present(var):
            entry = self.present.retain(var)
            entry.copyout_on_exit.append(False)
            return False
        with self.tracer.span("mem.alloc", category="runtime.mem", var=var,
                              nbytes=host.size * host.itemsize, site=site):
            self.profiler.spend(CAT_MEM_ALLOC, self.device.config.costs.alloc_latency_s)
            handle = self._retrying(
                lambda: self.device.alloc(var, host.shape, host.dtype),
                CAT_MEM_ALLOC, CTR_ALLOC_RETRIED,
            )
        entry = self.present.add(var, handle)
        entry.copyout_on_exit.append(False)
        self.dirty.bind(var, host.size, host.itemsize)
        self.dirty.note_alloc(var)
        if self.coherence is not None and self.coherence.tracked(var):
            # A fresh device buffer holds no valid data: the GPU copy is
            # stale until the first transfer or device write (otherwise the
            # region's own copyin would be flagged redundant).
            from repro.runtime.coherence import STALE

            self.coherence.reset_status(var, GPU, STALE, site=site)
            pin = self._pending_pins.pop(var, None)
            if pin is not None:
                side, status, pin_site = pin
                self.coherence.reset_status(var, side, status, site=pin_site)
        if copyin:
            self.copy_to_device(var, host, site=site or f"enter({var})", queue=queue)
        return True

    def data_exit(self, var: str, host: np.ndarray, copyout: bool, site: str = "",
                  queue: Optional[int] = None) -> bool:
        """Exit a data clause.  Copyout (if requested) happens before a
        potential free.  Returns True when the device buffer was freed."""
        entry = self.present.lookup(var)
        entry.copyout_on_exit.pop()
        if copyout:
            self.copy_to_host(var, host, site=site or f"exit({var})", queue=queue)
        released = self.present.release(var)
        if released is not None:
            with self.tracer.span("mem.free", category="runtime.mem",
                                  var=var, site=site):
                self.profiler.spend(CAT_MEM_FREE, self.device.config.costs.free_latency_s)
                self.device.free(released.handle)
            if self.coherence is not None and self.coherence.tracked(var):
                self.coherence.on_free(var, site=site)  # also clears intervals
            else:
                self.dirty.note_free(var)
            return True
        return False

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def copy_to_device(self, var: str, host: np.ndarray, queue: Optional[int] = None,
                       site: str = "", section=None) -> float:
        handle = self.present.handle_of(var)
        plan = self._plan_transfer(var, handle, host, section, H2D)
        with self.tracer.span("transfer.h2d", category="runtime.transfer",
                              var=var, site=site, bytes=plan.nbytes,
                              full_bytes=plan.full_nbytes,
                              saved=max(0, plan.full_nbytes - plan.nbytes),
                              batches=plan.batches):
            seconds = self._hardened_transfer(
                lambda: self.device.memcpy_h2d(handle, host, async_queue=queue,
                                               section=section,
                                               intervals=plan.intervals),
                var, handle, host, section, site,
            )
            # Coherence hooks and the transfer log record only *successful*
            # transfers: a copy that faulted away must never mark its
            # destination fresh (notstale) or count as a dynamic transfer.
            self._transfer_done(var, CPU, GPU, site, section, plan, "h2d")
            self._charge_transfer(seconds, queue)
        return seconds

    def copy_to_host(self, var: str, host: np.ndarray, queue: Optional[int] = None,
                     site: str = "", section=None) -> float:
        handle = self.present.handle_of(var)
        plan = self._plan_transfer(var, handle, host, section, D2H)
        with self.tracer.span("transfer.d2h", category="runtime.transfer",
                              var=var, site=site, bytes=plan.nbytes,
                              full_bytes=plan.full_nbytes,
                              saved=max(0, plan.full_nbytes - plan.nbytes),
                              batches=plan.batches):
            seconds = self._hardened_transfer(
                lambda: self.device.memcpy_d2h(host, handle, async_queue=queue,
                                               section=section,
                                               intervals=plan.intervals),
                var, handle, host, section, site,
            )
            self._transfer_done(var, GPU, CPU, site, section, plan, "d2h")
            self._charge_transfer(seconds, queue)
        return seconds

    def _plan_transfer(self, var: str, handle: int, host: np.ndarray,
                       section, direction: str) -> _TransferPlan:
        """Decide what a transfer moves.

        Whole-array mode (the default) always returns the classic plan — a
        single batch covering the full array/section, priced exactly as
        before.  Delta mode moves the union of the tracked dirty intervals
        and a bitwise host/device diff: the diff is the soundness net (a
        write the tracking missed still differs, so it still transfers),
        and full-dirty variables degenerate to the classic whole plan, so
        values are bit-identical to whole-array mode in every case."""
        dev = self.device.array(handle)
        size, itemsize = dev.size, dev.itemsize
        if section is None:
            lo, hi = 0, size
        else:
            start, length = section
            lo, hi = start, start + length
        full_nbytes = (hi - lo) * itemsize
        whole = _TransferPlan(None, full_nbytes, full_nbytes, 1, (lo, hi), itemsize)
        self.dirty.bind(var, size, itemsize)
        if not self.delta_transfers:
            return whole
        pending = self.dirty.pending(var, direction)
        if pending is None:
            return whole
        need = pending.intersect(lo, hi)
        if need.covers(lo, hi):
            return whole  # full-dirty: degenerate whole-array fast path
        window = slice(lo, hi)
        host_flat = host.reshape(-1)[window]
        dev_flat = dev.reshape(-1)[window]
        for a, b in diff_intervals(host_flat, dev_flat):
            need.add(lo + a, lo + b)
        if need.covers(lo, hi):
            return whole
        gap_elems = max(0, self.device.config.merge_gap_bytes() // itemsize)
        batches = coalesce_intervals(need.intervals(), gap_elems)
        if batches and batches[0] == (lo, hi):
            return whole
        nbytes = sum(stop - start for start, stop in batches) * itemsize
        return _TransferPlan(batches, nbytes, full_nbytes, len(batches), (lo, hi),
                             itemsize)

    def _transfer_done(self, var: str, src: str, dst: str, site: str,
                       section, plan: _TransferPlan, direction: str) -> None:
        """Post-success bookkeeping: coherence hooks, dirty-interval drain,
        the transfer log, and the profiler's byte counters."""
        handled = self._coherence_transfer(var, src, dst, site, section, plan.span)
        if not handled:
            self.dirty.note_transfer(var, direction, span=plan.span)
        self.transfer_log.append(TransferRecord(
            var, site, direction, nbytes=plan.nbytes,
            full_nbytes=plan.full_nbytes, batches=plan.batches,
        ))
        self.profiler.count(
            CTR_BYTES_H2D if direction == "h2d" else CTR_BYTES_D2H, plan.nbytes
        )
        if self.sampler is not None:
            self.sampler.on_transfer(var, site, direction, plan.nbytes)
        saved = plan.full_nbytes - plan.nbytes
        if saved > 0:
            self.profiler.count(CTR_BYTES_SAVED, saved)
        if plan.intervals is None:
            self.profiler.observe(HIST_TRANSFER_BATCH_BYTES, plan.nbytes)
        else:
            for start, stop in plan.intervals:
                self.profiler.observe(HIST_TRANSFER_BATCH_BYTES,
                                      (stop - start) * plan.itemsize)

    def _hardened_transfer(self, op, var: str, handle: int, host: np.ndarray,
                           section, site: str) -> float:
        """Run one memcpy with retry-with-backoff.

        Transient faults abort the copy before data moves; corruption and
        truncation are caught by comparing the destination against the
        source after the copy (chaos runs only — the comparison is free in
        modeled time, and a re-copy repairs the payload exactly).  Retries
        beyond ``max_retries`` surface the typed error."""
        attempt = 0
        while True:
            try:
                seconds = op()
                if self.chaos is not None and not self._transfer_intact(
                        handle, host, section):
                    raise TransferCorruptionError(
                        f"transfer of '{var}' at {site or '?'} corrupted in flight"
                    )
                return seconds
            except (TransientFault, TransferCorruptionError) as err:
                if attempt >= self.max_retries:
                    raise
                backoff = self.backoff_time(attempt)
                self.profiler.spend(CAT_TRANSFER, backoff)
                self.profiler.count(CTR_TRANSFER_RETRIED)
                self.profiler.observe(HIST_RETRY_BACKOFF_S, backoff)
                self.tracer.event("retry", op="transfer", attempt=attempt,
                                  error=type(err).__name__,
                                  backoff_s=backoff)
                attempt += 1

    def _transfer_intact(self, handle: int, host: np.ndarray, section) -> bool:
        """Post-transfer verification: destination equals source over the
        transferred range (NaN-tolerant for float payloads — a NaN is a NaN
        whatever its bit pattern)."""
        dev = self.device.array(handle)
        if section is None:
            a, b = dev, host
        else:
            start, length = section
            sl = slice(start, start + length)
            a, b = dev.reshape(-1)[sl], host.reshape(-1)[sl]
        equal_nan = np.asarray(a).dtype.kind == "f"
        return np.array_equal(a, b, equal_nan=equal_nan)

    def _retrying(self, op, category: str, counter: str):
        """Generic retry-with-backoff for operations whose faults are marked
        transient (device allocation, kernel launch)."""
        attempt = 0
        while True:
            try:
                return op()
            except TransientFault as err:
                if attempt >= self.max_retries:
                    raise
                backoff = self.backoff_time(attempt)
                self.profiler.spend(category, backoff)
                self.profiler.count(counter)
                self.profiler.observe(HIST_RETRY_BACKOFF_S, backoff)
                self.tracer.event("retry", op=counter.split(".", 1)[0],
                                  attempt=attempt, error=type(err).__name__,
                                  backoff_s=backoff)
                attempt += 1

    def _coherence_transfer(self, var: str, src: str, dst: str, site: str,
                            section, span: Tuple[int, int]) -> bool:
        """Run the §III-B transfer hooks.  Whole-array coherence: a
        *sectioned* transfer refreshes only part of the destination, so a
        previously stale destination becomes may-stale instead of adopting
        the source's state outright.  Returns True when a tracker handled
        the transfer (it then also drained the dirty intervals)."""
        if self.coherence is None or not self.coherence.tracked(var):
            return False
        from repro.runtime.coherence import MAYSTALE, STALE

        was_stale = self.coherence.state(var, dst) == STALE
        self.coherence.on_transfer(var, src, dst, site=site, span=span)
        if section is not None and was_stale:
            self.coherence.reset_status(var, dst, MAYSTALE, site=site)
        return True

    def update_host(self, var: str, host: np.ndarray, queue: Optional[int] = None,
                    site: str = "", section=None) -> float:
        if not self.present.is_present(var):
            raise RuntimeFault(f"update host({var}): variable not present on device")
        return self.copy_to_host(var, host, queue=queue, site=site, section=section)

    def update_device(self, var: str, host: np.ndarray, queue: Optional[int] = None,
                      site: str = "", section=None) -> float:
        if not self.present.is_present(var):
            raise RuntimeFault(f"update device({var}): variable not present on device")
        return self.copy_to_device(var, host, queue=queue, site=site, section=section)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def device_array(self, var: str) -> np.ndarray:
        return self.device.array(self.present.handle_of(var))

    def launch(self, spec: LaunchSpec, queue: Optional[int] = None,
               schedule: Optional[Schedule] = None,
               backend: Optional[str] = None) -> LaunchResult:
        with self.tracer.span("kernel.launch", category="runtime.kernel",
                              kernel=spec.name) as sp:
            result = self._retrying(
                lambda: self.device.launch(spec, schedule=schedule,
                                           async_queue=queue, backend=backend),
                CAT_KERNEL, CTR_LAUNCH_RETRIED,
            )
            seconds = self.device.config.costs.kernel_time(result.total_steps)
            self.busy_s += seconds
            sp.set_attr("backend", result.backend)
            sp.set_attr("steps", result.total_steps)
            if queue is not None:
                sp.set_attr("queue", queue)
            self.profiler.count(
                CTR_LAUNCH_VECTORIZED if result.backend == "vectorized"
                else CTR_LAUNCH_INTERLEAVED
            )
            if queue is None:
                self.profiler.spend(CAT_KERNEL, seconds)
            else:
                self.queues.issue(queue, seconds, category=CAT_ASYNC_WAIT)
            self.launch_log.append(result)
            if self._track_writes:
                self._note_launch_writes(spec, result)
            if self.sampler is not None:
                self.sampler.on_launch(spec, result)
        return result

    def _note_launch_writes(self, spec: LaunchSpec, result: LaunchResult) -> None:
        """Feed the launch's write footprints into the dirty map.  The
        interleaved stepper reports no footprints (write_sets=None): every
        array it could have touched is treated as an unknown partial write —
        the conservative direction for both transfer sizing and coherence
        byte estimates."""
        write_sets = result.write_sets
        for kname, arr in spec.arrays.items():
            cname = spec.array_names.get(kname, kname)
            self.dirty.bind(cname, arr.size, arr.itemsize)
            if write_sets is None:
                self.dirty.note_write(cname, GPU)
            else:
                footprint = write_sets.get(kname)
                if footprint:
                    self.dirty.note_write(cname, GPU, footprint=footprint)

    def wait(self, queue: Optional[int] = None) -> float:
        if queue is None:
            return self.queues.wait_all()
        return self.queues.wait(queue)

    # ------------------------------------------------------------------
    # Instrumentation hooks (inserted by the check-insertion pass)
    # ------------------------------------------------------------------
    def check_read(self, var: str, side: str, site: str = "") -> None:
        self._charge_check()
        if self.coherence is not None and self.coherence.tracked(var):
            self.coherence.check_read(var, side, site=site)

    def check_write(self, var: str, side: str, site: str = "", full: bool = False,
                    footprint=None) -> None:
        self._charge_check()
        if self.coherence is not None and self.coherence.tracked(var):
            self.coherence.check_write(var, side, site=site, full=full,
                                       footprint=footprint)
        elif full or footprint is not None:
            self.dirty.note_write(var, side, footprint=footprint, full=full)

    def reset_status(self, var: str, side: str, status: str, site: str = "") -> None:
        self._charge_check()
        if self.coherence is not None and self.coherence.tracked(var):
            self.coherence.reset_status(var, side, status, site=site)

    def note_reduction(self, var: str, site: str = "") -> None:
        if self.coherence is not None and self.coherence.tracked(var):
            self.coherence.on_reduction_kernel(var, site=site)

    def pin_after_alloc(self, var: str, side: str, status: str, site: str = "") -> None:
        """Compiler-directed dead-target marking for a transfer whose
        destination buffer may not exist yet.  Applied immediately when the
        variable is device-resident; otherwise queued until its allocation
        (which would otherwise clobber the pin with the fresh-buffer stale
        state)."""
        self._charge_check()
        if self.coherence is None or not self.coherence.tracked(var):
            return
        if self.present.is_present(var):
            self.coherence.reset_status(var, side, status, site=site)
        else:
            self._pending_pins[var] = (side, status, site)

    # ------------------------------------------------------------------
    # Host-side accounting used by the interpreter / verification harness
    # ------------------------------------------------------------------
    def charge_cpu(self, steps: int) -> None:
        self.profiler.spend(CAT_CPU, self.device.config.costs.cpu_time(steps))

    def charge_compare(self, elements: int) -> None:
        self.profiler.spend(CAT_RESULT_COMP, self.device.config.costs.compare_time(elements))

    def _charge_transfer(self, seconds: float, queue: Optional[int]) -> None:
        if queue is None:
            self.profiler.spend(CAT_TRANSFER, seconds)
        else:
            self.queues.issue(queue, seconds, category=CAT_TRANSFER)

    def _charge_check(self) -> None:
        self.profiler.spend(CAT_CHECK, self.device.config.costs.check_call_s)

    def backoff_time(self, attempt: int) -> float:
        """Modeled backoff before retry ``attempt`` (doubles per attempt,
        from the context-tunable base)."""
        return self.backoff_base * (2 ** attempt)
