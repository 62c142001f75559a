"""Seeded runtime fault injection (chaos framework).

The compile-time injectors in :mod:`repro.compiler.faults` plant *program*
bugs (dropped clauses, stripped data management) for the Table II / Figure 1
studies.  This module is their runtime counterpart: it plants *platform*
faults — allocation OOM, transfer corruption/truncation/transient errors,
async-queue stalls, kernel-launch failures — so the hardening layers
(retry-with-backoff in :mod:`repro.runtime.accrt`, the watchdog in the
execution backends, the degradation ladder in :mod:`repro.interp.interp`,
per-benchmark isolation in :mod:`repro.experiments.harness`) can be tested
deterministically.

Determinism contract: a :class:`FaultPlan` draws from ``random.Random(seed)``
in program order, one uniform per candidate fault kind per injection point,
so the same seed + the same execution reproduces the same fault sequence.
Every fault either

* aborts the faulted operation *before it mutates device state* (raised as a
  typed :class:`~repro.errors.ChaosFault` / :class:`~repro.errors.TransientFault`),
* corrupts/truncates a transfer *after* the copy (detected by the runtime's
  post-transfer verification and re-copied), or
* stalls an async queue (absorbed by ``wait`` as modeled time).

Recovered runs therefore stay bit-identical to fault-free runs; unrecovered
faults surface as typed :class:`~repro.errors.ReproError`\\ s, never hangs or
silent corruption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ChaosFault, TransientFault
from repro.obs.tracer import NULL_TRACER
from repro.runtime.profiler import CTR_FAULT_INJECTED

# Fault kinds, grouped by injection point.
KIND_ALLOC_OOM = "alloc.oom"                  # transient device OOM at alloc
KIND_TRANSFER_TRANSIENT = "transfer.transient"  # copy aborts before moving data
KIND_TRANSFER_CORRUPT = "transfer.corrupt"    # one byte of the payload flips
KIND_TRANSFER_TRUNCATE = "transfer.truncate"  # only a prefix arrives
KIND_QUEUE_STALL = "queue.stall"              # async op takes extra modeled time
KIND_LAUNCH_TRANSIENT = "launch.transient"    # launch aborts; retriable
KIND_LAUNCH_FAIL = "launch.fail"              # launch aborts; backend degraded

ALL_KINDS = (
    KIND_ALLOC_OOM,
    KIND_TRANSFER_TRANSIENT,
    KIND_TRANSFER_CORRUPT,
    KIND_TRANSFER_TRUNCATE,
    KIND_QUEUE_STALL,
    KIND_LAUNCH_TRANSIENT,
    KIND_LAUNCH_FAIL,
)

# Draw order per injection point (fixed: part of the determinism contract).
KINDS_AT: Dict[str, Tuple[str, ...]] = {
    "alloc": (KIND_ALLOC_OOM,),
    "transfer": (KIND_TRANSFER_TRANSIENT, KIND_TRANSFER_CORRUPT,
                 KIND_TRANSFER_TRUNCATE),
    "queue": (KIND_QUEUE_STALL,),
    "launch": (KIND_LAUNCH_TRANSIENT, KIND_LAUNCH_FAIL),
}

TRANSIENT_KINDS = frozenset({
    KIND_ALLOC_OOM, KIND_TRANSFER_TRANSIENT, KIND_LAUNCH_TRANSIENT,
})

# Point-name shorthand accepted by FaultSpec.parse: "alloc=0.1" means the
# point's first (most benign) kind.
_ALIASES = {
    "alloc": KIND_ALLOC_OOM,
    "transfer": KIND_TRANSFER_TRANSIENT,
    "stall": KIND_QUEUE_STALL,
    "queue": KIND_QUEUE_STALL,
    "launch": KIND_LAUNCH_TRANSIENT,
}

# Rates used when the CLI gets only --chaos-seed.
DEFAULT_RATES = ("alloc=0.02,transfer.transient=0.03,transfer.corrupt=0.03,"
                 "transfer.truncate=0.02,stall=0.05,launch=0.03,launch.fail=0.02")

# CTR_FAULT_INJECTED is declared (and registered) in repro.runtime.profiler
# and re-exported here for the historical import path.


@dataclass(frozen=True)
class Fault:
    """One injected fault, drawn by :meth:`FaultPlan.draw`."""

    kind: str
    site: str
    seq: int                    # ordinal within the plan (0-based)
    stall_seconds: float = 0.0  # queue.stall payload
    lane: int = 0               # corruption/truncation position seed

    @property
    def transient(self) -> bool:
        return self.kind in TRANSIENT_KINDS

    @property
    def aborts(self) -> bool:
        """Does this fault abort the operation (vs. silently damaging it)?"""
        return self.kind in (KIND_ALLOC_OOM, KIND_TRANSFER_TRANSIENT,
                             KIND_LAUNCH_TRANSIENT, KIND_LAUNCH_FAIL)

    @property
    def corrupts(self) -> bool:
        return self.kind == KIND_TRANSFER_CORRUPT

    @property
    def truncates(self) -> bool:
        return self.kind == KIND_TRANSFER_TRUNCATE

    def to_error(self, message: str) -> ChaosFault:
        """The typed error an aborting fault raises at its injection site."""
        text = f"chaos[{self.seq}] {self.kind} at {self.site or '?'}: {message}"
        if self.transient:
            return TransientFault(text, kind=self.kind, site=self.site)
        return ChaosFault(text, kind=self.kind, site=self.site)


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of a chaos campaign: per-kind firing rates,
    the RNG seed, and an optional total-fault budget."""

    seed: int = 0
    rates: Mapping[str, float] = field(default_factory=dict)
    max_faults: Optional[int] = None
    stall_seconds: float = 250e-6

    @classmethod
    def parse(cls, text: str, seed: int = 0,
              max_faults: Optional[int] = None) -> "FaultSpec":
        """Parse ``"alloc=0.1,transfer.corrupt=0.2,..."`` (point-name
        shorthand allowed; see ``_ALIASES``)."""
        rates: Dict[str, float] = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(f"bad chaos spec entry {chunk!r}: expected KIND=RATE")
            name, value = (part.strip() for part in chunk.split("=", 1))
            kind = _ALIASES.get(name, name)
            if kind not in ALL_KINDS:
                raise ValueError(
                    f"unknown chaos fault kind {name!r}: valid kinds are "
                    f"{', '.join(ALL_KINDS)} (aliases: {', '.join(_ALIASES)})"
                )
            try:
                rate = float(value)
            except ValueError:
                raise ValueError(f"bad chaos rate {value!r} for {name!r}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"chaos rate for {name!r} must be in [0, 1], got {rate}")
            rates[kind] = rate
        return cls(seed=seed, rates=rates, max_faults=max_faults)

    @classmethod
    def default(cls, seed: int = 0,
                max_faults: Optional[int] = None) -> "FaultSpec":
        return cls.parse(DEFAULT_RATES, seed=seed, max_faults=max_faults)


class FaultPlan:
    """Stateful, seed-driven fault source shared by every injection point of
    one execution (or, when budgeted, one whole experiment sweep).

    The plan is attached by :class:`~repro.runtime.accrt.AccRuntime` to the
    device allocator, the transfer paths, the kernel launcher, and the async
    queues; each consults :meth:`draw` at its injection point.  Fired faults
    are counted on the profiler (``fault.injected`` and a per-kind
    ``fault.injected.<kind>``) and recorded in :attr:`injected`.
    """

    def __init__(self, spec: FaultSpec, profiler=None):
        self.spec = spec
        self.profiler = profiler
        self.tracer = NULL_TRACER  # AccRuntime swaps in the live tracer
        self.injected: List[Fault] = []
        self._rng = random.Random(spec.seed)

    @classmethod
    def from_string(cls, text: str, seed: int = 0,
                    max_faults: Optional[int] = None) -> "FaultPlan":
        return cls(FaultSpec.parse(text, seed=seed, max_faults=max_faults))

    @property
    def exhausted(self) -> bool:
        return (self.spec.max_faults is not None
                and len(self.injected) >= self.spec.max_faults)

    def draw(self, point: str, site: str = "") -> Optional[Fault]:
        """Deterministically decide whether a fault fires at ``point``
        (``alloc`` / ``transfer`` / ``queue`` / ``launch``)."""
        if self.exhausted:
            return None
        for kind in KINDS_AT[point]:
            rate = self.spec.rates.get(kind, 0.0)
            if rate <= 0.0:
                continue
            if self._rng.random() < rate:
                fault = Fault(
                    kind, site, len(self.injected),
                    stall_seconds=self.spec.stall_seconds,
                    lane=self._rng.randrange(1 << 30),
                )
                self.injected.append(fault)
                if self.profiler is not None:
                    self.profiler.count(CTR_FAULT_INJECTED)
                    self.profiler.count(f"{CTR_FAULT_INJECTED}.{kind}")
                self.tracer.event("chaos.fault", kind=kind, site=site,
                                  seq=fault.seq)
                return fault
        return None

    def summary(self) -> str:
        if not self.injected:
            return "chaos: no faults injected"
        by_kind: Dict[str, int] = {}
        for fault in self.injected:
            by_kind[fault.kind] = by_kind.get(fault.kind, 0) + 1
        parts = ", ".join(f"{k}={n}" for k, n in sorted(by_kind.items()))
        return f"chaos: {len(self.injected)} fault(s) injected ({parts})"


# ---------------------------------------------------------------------------
# Payload damage helpers (used by repro.device.device after a copy)
# ---------------------------------------------------------------------------

def corrupt_payload(arr: np.ndarray, fault: Fault) -> None:
    """Flip one byte of ``arr`` in place (``transfer.corrupt``)."""
    view = arr.reshape(-1).view(np.uint8)
    if view.size:
        view[fault.lane % view.size] ^= 0xFF


def truncate_payload(arr: np.ndarray, snapshot: np.ndarray, fault: Fault) -> None:
    """Undo the copy for a suffix of ``arr``: only the first ``keep``
    elements "arrived" (``transfer.truncate``)."""
    flat = arr.reshape(-1)
    if flat.size:
        keep = fault.lane % flat.size
        flat[keep:] = snapshot[keep:]
