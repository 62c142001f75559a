"""PCIe transfer and device-operation cost model + interval batching.

All "time" in the simulator is *modeled* time, produced by this module and
accumulated by the profiler — not wall-clock.  The defaults approximate the
paper's testbed (Tesla M2090 behind PCIe 2.0 x16): ~10 µs per-transfer
latency, ~6 GB/s sustained bandwidth, small fixed costs for cudaMalloc/
cudaFree/kernel launch.  Figures 1/3/4 only need the *relative* shape, which
is insensitive to the exact constants (see DESIGN.md §2).

This module is also the byte-accurate transfer engine's toolbox: interval
coalescing under a merge gap (:func:`coalesce_intervals`), bitwise
host/device diffing (:func:`diff_intervals`), and the batched cost formula
(:meth:`CostModel.transfer_time_batched`) — one latency per coalesced batch
plus bandwidth per byte actually moved.  A single whole-array batch prices
identically to the classic :meth:`CostModel.transfer_time`, which keeps
full-dirty delta transfers bit-identical to whole-array mode."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class CostModel:
    """Tunable cost constants (seconds / bytes-per-second).

    Calibration: the simulator runs the paper's workloads at miniature
    sizes (tens-to-hundreds of elements where the testbed used millions),
    so the constants are scaled to keep the *regime* faithful — one
    simulated element stands for ~10^6 real ones.  Bandwidth is therefore
    6e6 B/s instead of PCIe's 6e9 B/s, and per-element comparison reflects
    a host-side tolerant compare of a "large" element.  What the figures
    report is insensitive to the absolute values; the relative ordering
    (transfer >> alloc >> launch; compare ~ transfer-per-element) is what
    reproduces the paper's breakdowns.
    """

    transfer_latency_s: float = 10e-6
    transfer_bandwidth_Bps: float = 6e6
    alloc_latency_s: float = 20e-6
    free_latency_s: float = 10e-6
    launch_latency_s: float = 8e-6
    # Per-VM-step device compute cost.  One step is one simple statement of
    # one logical thread; the gap to cpu_step_s models the SIMT speedup.
    device_step_s: float = 2e-9
    cpu_step_s: float = 50e-9
    # Result-comparison cost per compared element (host-side, §III-A).
    compare_elem_s: float = 1e-6
    # One coherence check call (§III-B instrumentation, Figure 4 overhead).
    check_call_s: float = 120e-9
    # Base delay before re-issuing an operation that hit a transient fault
    # (doubles per attempt; see CostModel.backoff_time).  Modeled time, like
    # everything else here — the retry layer charges it to the profiler.
    retry_backoff_s: float = 100e-6

    def transfer_time(self, nbytes: int) -> float:
        """h2d / d2h transfer of ``nbytes``."""
        return self.transfer_latency_s + nbytes / self.transfer_bandwidth_Bps

    def transfer_time_batched(self, nbatches: int, nbytes: int) -> float:
        """Interval-batched transfer: one latency per batch, bandwidth per
        byte.  ``transfer_time_batched(1, n) == transfer_time(n)``; zero
        batches move nothing and cost nothing."""
        return nbatches * self.transfer_latency_s + nbytes / self.transfer_bandwidth_Bps

    def merge_break_even_bytes(self) -> int:
        """Gap size at which transferring filler bytes costs the same as an
        extra batch latency (the natural default merge gap)."""
        return int(self.transfer_latency_s * self.transfer_bandwidth_Bps)

    def backoff_time(self, attempt: int) -> float:
        """Exponential backoff before retry number ``attempt`` (0-based)."""
        return self.retry_backoff_s * (2 ** attempt)

    def kernel_time(self, total_steps: int) -> float:
        """Device time for a launch that executed ``total_steps`` VM steps."""
        return self.launch_latency_s + total_steps * self.device_step_s

    def cpu_time(self, total_steps: int) -> float:
        return total_steps * self.cpu_step_s

    def compare_time(self, elements: int) -> float:
        return elements * self.compare_elem_s


DEFAULT_COSTS = CostModel()


# ---------------------------------------------------------------------------
# Interval batching / diffing (the byte-accurate transfer engine)
# ---------------------------------------------------------------------------

def coalesce_intervals(intervals: Sequence[Tuple[int, int]],
                       gap_elems: int) -> List[Tuple[int, int]]:
    """Merge sorted, disjoint element intervals whose gap is at most
    ``gap_elems`` elements.  The filler elements inside a closed gap ride
    along in the batch (and are charged as moved bytes); merging pays off
    whenever the gap is below the latency/bandwidth break-even."""
    out: List[Tuple[int, int]] = []
    for start, stop in intervals:
        if out and start - out[-1][1] <= gap_elems:
            out[-1] = (out[-1][0], max(out[-1][1], stop))
        else:
            out.append((start, stop))
    return out


def mask_to_intervals(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Runs of True in a flat boolean mask, as ``[start, stop)`` intervals."""
    if not mask.any():
        return []
    flat = mask.reshape(-1)
    boundaries = np.flatnonzero(np.diff(flat.astype(np.int8)))
    edges = np.concatenate(([0], boundaries + 1, [flat.size]))
    return [
        (int(edges[i]), int(edges[i + 1]))
        for i in range(len(edges) - 1)
        if flat[edges[i]]
    ]


def bitwise_neq_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat boolean mask of elements whose *bytes* differ.

    Plain ``!=`` would call two NaNs different (good: the copy is taken and
    stays conservative) but +0.0 and -0.0 equal (bad: skipping the copy
    would leave the destination bit-different from a whole-array transfer).
    Comparing the raw bytes makes delta transfers bit-exact for every dtype.
    """
    af = np.ascontiguousarray(a).reshape(-1)
    bf = np.ascontiguousarray(b).reshape(-1)
    if af.itemsize == 1:
        return af.view(np.uint8) != bf.view(np.uint8)
    av = af.view(np.uint8).reshape(af.size, af.itemsize)
    bv = bf.view(np.uint8).reshape(bf.size, bf.itemsize)
    return (av != bv).any(axis=1)


def diff_intervals(a: np.ndarray, b: np.ndarray) -> List[Tuple[int, int]]:
    """Element intervals (over the flattened arrays) where ``a`` and ``b``
    differ bitwise — the soundness net under delta transfers: anything the
    dirty tracking missed still shows up here and gets copied."""
    return mask_to_intervals(bitwise_neq_mask(a, b))
