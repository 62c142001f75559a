"""Device facade: the simulated GPU the runtime talks to.

Bundles the allocator, the cost model, and the kernel engine, and logs every
operation as a :class:`DeviceEvent` with its *modeled* duration.  The
profiler folds these events into the Figure-1/3/4 breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.device.engine import KernelEngine, LaunchResult, LaunchSpec, Schedule
from repro.device.memory import DeviceMemory
from repro.device.transfer import CostModel, DEFAULT_COSTS
from repro.errors import DeviceError

# Event kinds (profiler categories key off these).
EV_ALLOC = "alloc"
EV_FREE = "free"
EV_H2D = "h2d"
EV_D2H = "d2h"
EV_LAUNCH = "launch"


@dataclass
class DeviceEvent:
    kind: str
    name: str
    nbytes: int = 0
    steps: int = 0
    seconds: float = 0.0
    async_queue: Optional[int] = None
    # Number of coalesced interval batches for h2d/d2h events (1 for a
    # classic whole-array or sectioned copy, 0 for an empty delta transfer).
    batches: int = 1


@dataclass
class DeviceConfig:
    capacity_bytes: int = 6 * 1024**3
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    schedule: Schedule = field(default_factory=Schedule.round_robin)
    max_kernel_steps: int = 50_000_000
    # Vectorized fast path for race-free launches (repro.device.vectorize);
    # False forces every launch onto the interleaved stepper.
    vectorize: bool = True
    # Delta transfers: update/region transfers move only dirty intervals
    # (plus a bitwise host/device diff as the soundness net) instead of the
    # whole array.  Off by default — whole-array mode is bit-identical to
    # the historical behavior in both values and modeled time.
    delta_transfers: bool = False
    # Dirty intervals closer than this many bytes are coalesced into one
    # batch; the filler bytes ride along.  None picks the cost model's
    # latency/bandwidth break-even (60 bytes at the default constants).
    transfer_merge_gap_bytes: Optional[int] = None

    def merge_gap_bytes(self) -> int:
        if self.transfer_merge_gap_bytes is not None:
            return self.transfer_merge_gap_bytes
        return self.costs.merge_break_even_bytes()


class Device:
    """One simulated accelerator."""

    def __init__(self, config: Optional[DeviceConfig] = None, chaos=None):
        self.config = config or DeviceConfig()
        self.mem = DeviceMemory(self.config.capacity_bytes)
        self.engine = KernelEngine(self.config.max_kernel_steps,
                                   vectorize=self.config.vectorize)
        self.events: List[DeviceEvent] = []
        self.bytes_h2d = 0
        self.bytes_d2h = 0
        # Span tracer (repro.obs); AccRuntime swaps in the live one.
        from repro.obs.tracer import NULL_TRACER

        self.tracer = NULL_TRACER
        # Chaos FaultPlan (repro.runtime.chaos); None in normal operation.
        self.chaos = None
        if chaos is not None:
            self.attach_chaos(chaos)

    def attach_chaos(self, plan) -> None:
        """Wire a chaos FaultPlan into every device-side injection point."""
        self.chaos = plan
        self.mem.chaos = plan

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def alloc(self, name: str, shape: Tuple[int, ...], dtype) -> int:
        allocation = self.mem.alloc(name, shape, dtype)
        self._log(DeviceEvent(EV_ALLOC, name, nbytes=allocation.nbytes,
                              seconds=self.config.costs.alloc_latency_s))
        return allocation.handle

    def free(self, handle: int) -> None:
        allocation = self.mem.free(handle)
        self._log(DeviceEvent(EV_FREE, allocation.name, nbytes=allocation.nbytes,
                              seconds=self.config.costs.free_latency_s))

    def array(self, handle: int) -> np.ndarray:
        """Device-side view of a buffer (engine/runtime internal use)."""
        return self.mem.get(handle).data

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def memcpy_h2d(self, handle: int, host: np.ndarray, async_queue: Optional[int] = None,
                   section: Optional[Tuple[int, int]] = None,
                   intervals: Optional[List[Tuple[int, int]]] = None) -> float:
        """Copy host -> device; ``section=(start, length)`` transfers a slice
        of the (1D-flattened) buffer, paying only its bytes.  ``intervals``
        (sorted, disjoint ``[start, stop)`` element intervals, already
        coalesced by the caller) performs an interval-batched delta copy:
        one latency per batch, bandwidth per byte, one chaos draw per batch.
        """
        dev = self.mem.get(handle)
        if dev.data.shape != host.shape:
            raise DeviceError(
                f"h2d shape mismatch for '{dev.name}': host {host.shape} vs device {dev.data.shape}"
            )
        if intervals is not None:
            return self._memcpy_batched(EV_H2D, dev, dev.data, host,
                                        intervals, async_queue)
        fault, snapshot = self._transfer_fault(f"h2d:{dev.name}", dev.data,
                                               self._full_or_section(dev, section))
        if section is None:
            np.copyto(dev.data, host, casting="same_kind")
            nbytes = dev.nbytes
            sl = slice(0, dev.data.size)
        else:
            sl = self._section_slice(dev, section)
            dev.data.reshape(-1)[sl] = host.reshape(-1)[sl]
            nbytes = (sl.stop - sl.start) * dev.data.itemsize
        if fault is not None:
            self._damage_payload(dev.data, snapshot, fault, sl)
        seconds = self.config.costs.transfer_time(nbytes)
        self.bytes_h2d += nbytes
        self._log(DeviceEvent(EV_H2D, dev.name, nbytes=nbytes, seconds=seconds,
                              async_queue=async_queue))
        return seconds

    def memcpy_d2h(self, host: np.ndarray, handle: int, async_queue: Optional[int] = None,
                   section: Optional[Tuple[int, int]] = None,
                   intervals: Optional[List[Tuple[int, int]]] = None) -> float:
        dev = self.mem.get(handle)
        if dev.data.shape != host.shape:
            raise DeviceError(
                f"d2h shape mismatch for '{dev.name}': host {host.shape} vs device {dev.data.shape}"
            )
        if intervals is not None:
            return self._memcpy_batched(EV_D2H, dev, host, dev.data,
                                        intervals, async_queue)
        fault, snapshot = self._transfer_fault(f"d2h:{dev.name}", host,
                                               self._full_or_section(dev, section))
        if section is None:
            np.copyto(host, dev.data, casting="same_kind")
            nbytes = dev.nbytes
            sl = slice(0, dev.data.size)
        else:
            sl = self._section_slice(dev, section)
            host.reshape(-1)[sl] = dev.data.reshape(-1)[sl]
            nbytes = (sl.stop - sl.start) * dev.data.itemsize
        if fault is not None:
            self._damage_payload(host, snapshot, fault, sl)
        seconds = self.config.costs.transfer_time(nbytes)
        self.bytes_d2h += nbytes
        self._log(DeviceEvent(EV_D2H, dev.name, nbytes=nbytes, seconds=seconds,
                              async_queue=async_queue))
        return seconds

    def _memcpy_batched(self, kind: str, dev, dest: np.ndarray,
                        src: np.ndarray, intervals: List[Tuple[int, int]],
                        async_queue: Optional[int]) -> float:
        """Delta transfer: copy each coalesced interval batch, drawing the
        chaos plan once per batch so corruption/truncation recovery works at
        batch granularity.  An aborting fault raises mid-sequence; earlier
        batches already landed, and the runtime's retry re-issues the whole
        plan (idempotent — re-copying equal data is harmless)."""
        size = dev.data.size
        last = 0
        for start, stop in intervals:
            if start < last or stop <= start or stop > size:
                raise DeviceError(
                    f"bad transfer interval [{start},{stop}) for '{dev.name}' "
                    f"of size {size}"
                )
            last = stop
        dest_flat = dest.reshape(-1)
        src_flat = src.reshape(-1)
        nbytes = 0
        for start, stop in intervals:
            sl = slice(start, stop)
            fault, snapshot = self._transfer_fault(f"{kind}:{dev.name}", dest, sl)
            dest_flat[sl] = src_flat[sl]
            if fault is not None:
                self._damage_payload(dest, snapshot, fault, sl)
            batch_bytes = (stop - start) * dev.data.itemsize
            nbytes += batch_bytes
            self.tracer.event("transfer.batch", var=dev.name, start=start,
                              stop=stop, bytes=batch_bytes)
        seconds = self.config.costs.transfer_time_batched(len(intervals), nbytes)
        if kind == EV_H2D:
            self.bytes_h2d += nbytes
        else:
            self.bytes_d2h += nbytes
        self._log(DeviceEvent(kind, dev.name, nbytes=nbytes, seconds=seconds,
                              async_queue=async_queue, batches=len(intervals)))
        return seconds

    @staticmethod
    def _full_or_section(dev, section: Optional[Tuple[int, int]]) -> slice:
        if section is None:
            return slice(0, dev.data.size)
        return Device._section_slice(dev, section)

    def _transfer_fault(self, site: str, dest: np.ndarray, sl: slice):
        """Consult the chaos plan before a copy.  An aborting fault raises
        here, before any data moved; a damaging fault returns with a snapshot
        of the destination range so truncation can restore the un-arrived
        suffix."""
        if self.chaos is None:
            return None, None
        fault = self.chaos.draw("transfer", site=site)
        if fault is None:
            return None, None
        if fault.aborts:
            raise fault.to_error("injected transient transfer failure")
        return fault, dest.reshape(-1)[sl].copy()

    @staticmethod
    def _damage_payload(dest: np.ndarray, snapshot: np.ndarray, fault,
                        sl: slice) -> None:
        """Apply in-flight damage, restricted to the transferred range so the
        caller's post-copy verification of that range is sufficient."""
        from repro.runtime.chaos import corrupt_payload, truncate_payload

        flat = dest.reshape(-1)[sl]
        if fault.corrupts:
            corrupt_payload(flat, fault)
        elif fault.truncates:
            truncate_payload(flat, snapshot, fault)

    @staticmethod
    def _section_slice(dev, section: Tuple[int, int]) -> slice:
        start, length = section
        size = dev.data.size
        if start < 0 or length <= 0 or start + length > size:
            raise DeviceError(
                f"bad section [{start}:{length}] for '{dev.name}' of size {size}"
            )
        return slice(start, start + length)

    # ------------------------------------------------------------------
    # Kernel execution
    # ------------------------------------------------------------------
    def launch(self, spec: LaunchSpec, schedule: Optional[Schedule] = None,
               async_queue: Optional[int] = None,
               backend: Optional[str] = None) -> LaunchResult:
        """Run one kernel.  ``backend='interleaved'`` bypasses the vectorized
        fast path (degradation ladder / diagnostics)."""
        if self.chaos is not None:
            fault = self.chaos.draw("launch", site=spec.name)
            if fault is not None:
                # Raised before the engine touches device memory, so callers
                # may retry or degrade against pristine state.
                raise fault.to_error("injected kernel-launch failure")
        result = self.engine.launch(spec, schedule or self.config.schedule,
                                    backend=backend)
        seconds = self.config.costs.kernel_time(result.total_steps)
        self._log(DeviceEvent(EV_LAUNCH, spec.name, steps=result.total_steps,
                              seconds=seconds, async_queue=async_queue))
        return result

    # ------------------------------------------------------------------
    def _log(self, event: DeviceEvent) -> None:
        self.events.append(event)

    def total_seconds(self, kind: Optional[str] = None) -> float:
        return sum(e.seconds for e in self.events if kind is None or e.kind == kind)

    def total_transferred_bytes(self) -> int:
        return self.bytes_h2d + self.bytes_d2h

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    def reset_events(self) -> None:
        self.events.clear()
        self.bytes_h2d = 0
        self.bytes_d2h = 0
