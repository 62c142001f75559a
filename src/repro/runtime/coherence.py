"""Runtime coherence tracking (§III-B).

Each variable of interest carries one of three states per device —
``notstale`` / ``maystale`` / ``stale`` — tracked at whole-array granularity.
The tracker implements the paper's check calls:

* ``check_read(v, dev)``  — stale ⇒ **missing transfer** error; maystale ⇒
  **may-missing** warning.
* ``check_write(v, dev, full)`` — applies the write transition: the local
  copy becomes notstale on a full overwrite (a stale copy partially written
  becomes maystale, with a **may-missing** warning, since unwritten elements
  may later be read); the remote copy becomes stale.
* ``reset_status(v, dev, status)`` — compiler-directed override used for
  may-dead (→ maystale) and must-dead (→ notstale) remote copies, for
  deallocation (→ stale) and for reduction kernels whose final value only
  the CPU holds (GPU copy → stale).
* ``on_transfer(v, src, dst)`` — stale source ⇒ **incorrect transfer**;
  maystale source ⇒ **may-incorrect**; notstale destination ⇒ **redundant**;
  maystale destination ⇒ **may-redundant**; then the destination inherits
  the source's state (``set_status``).

Findings carry a site label and the enclosing-loop iteration context so the
report reads like the paper's Listing 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import RuntimeFault
from repro.obs.tracer import NULL_TRACER
from repro.runtime.intervals import D2H, H2D, DirtyMap, IntervalSet

NOTSTALE = "notstale"
MAYSTALE = "maystale"
STALE = "stale"
_STATES = (NOTSTALE, MAYSTALE, STALE)

CPU = "cpu"
GPU = "gpu"

# Finding kinds.
MISSING = "missing"
MAY_MISSING = "may-missing"
INCORRECT = "incorrect"
MAY_INCORRECT = "may-incorrect"
REDUNDANT = "redundant"
MAY_REDUNDANT = "may-redundant"

ERROR_KINDS = frozenset({MISSING, INCORRECT})
WARNING_KINDS = frozenset({MAY_MISSING, MAY_INCORRECT, REDUNDANT, MAY_REDUNDANT})


@dataclass(frozen=True)
class Finding:
    """One detected coherence issue."""

    kind: str
    var: str
    site: str
    context: Tuple[Tuple[str, int], ...] = ()  # ((loop_var, iteration), ...)
    # For redundant/may-redundant transfers: bytes the transfer moved beyond
    # what the dirty-interval tracking says was needed (0 when the variable's
    # geometry is unknown; purely informational — never changes the kind).
    nbytes_wasted: int = 0

    @property
    def is_error(self) -> bool:
        return self.kind in (MISSING, INCORRECT)

    def message(self) -> str:
        ctx = ", ".join(f"enclosing loop {v} index = {i}" for v, i in self.context)
        ctx = f" ({ctx})" if ctx else ""
        templates = {
            MISSING: "access of stale '{v}' at {s}{c}: missing memory transfer",
            MAY_MISSING: "access of may-stale '{v}' at {s}{c}: transfer may be missing",
            INCORRECT: "copying stale '{v}' at {s}{c} is incorrect",
            MAY_INCORRECT: "copying may-stale '{v}' at {s}{c} may be incorrect",
            REDUNDANT: "copying '{v}' at {s}{c} is redundant",
            MAY_REDUNDANT: "copying '{v}' at {s}{c} may be redundant",
        }
        text = templates[self.kind].format(v=self.var, s=self.site, c=ctx)
        if self.nbytes_wasted:
            text += f" (~{self.nbytes_wasted} bytes wasted)"
        return text


@dataclass
class _VarState:
    cpu: str = NOTSTALE
    gpu: str = NOTSTALE

    def get(self, side: str) -> str:
        return self.cpu if side == CPU else self.gpu

    def set(self, side: str, status: str) -> None:
        if side == CPU:
            self.cpu = status
        else:
            self.gpu = status


def _other(side: str) -> str:
    return GPU if side == CPU else CPU


class CoherenceTracker:
    """State machine + findings log; enabled only during verification runs.

    Alongside the whole-array state machine the tracker keeps a
    :class:`~repro.runtime.intervals.DirtyMap` of sub-array dirty intervals,
    fed by write footprints (``check_write``/kernel launch write sets, via
    the runtime) and drained by ``on_transfer``.  The interval bookkeeping
    never changes what the state machine reports — it sizes delta transfers
    and prices the bytes wasted by redundant ones."""

    def __init__(self):
        self._states: Dict[str, _VarState] = {}
        self.findings: List[Finding] = []
        self.check_calls = 0
        # Span tracer (repro.obs): state transitions and findings become
        # trace events.  AccRuntime swaps in the live tracer.
        self.tracer = NULL_TRACER
        # Context stack: the interpreter pushes (loop_var, iteration).
        self._context: List[Tuple[str, int]] = []
        # Shared with the runtime when this tracker is attached: the runtime
        # binds geometry and reports alloc/free/launch events, the tracker
        # folds in write checks and transfers.
        self.dirty = DirtyMap()

    # -- registration / context --------------------------------------------
    def register(self, var: str) -> None:
        self._states.setdefault(var, _VarState())

    def tracked(self, var: str) -> bool:
        return var in self._states

    def state(self, var: str, side: str) -> str:
        return self._require(var).get(side)

    def push_context(self, loop_var: str, iteration: int) -> None:
        self._context.append((loop_var, iteration))

    def set_context_iteration(self, iteration: int) -> None:
        loop_var, _ = self._context[-1]
        self._context[-1] = (loop_var, iteration)

    def pop_context(self) -> None:
        self._context.pop()

    # -- check calls ----------------------------------------------------------
    def check_read(self, var: str, side: str, site: str = "") -> None:
        self.check_calls += 1
        status = self._require(var).get(side)
        if status == STALE:
            self._report(MISSING, var, site)
        elif status == MAYSTALE:
            self._report(MAY_MISSING, var, site)

    def check_write(self, var: str, side: str, site: str = "", full: bool = False,
                    footprint: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        """Write transition.  ``footprint`` (element intervals over the
        flattened array) feeds the dirty-interval map; a footprint covering
        the whole array is promoted to a full write — the own-side copy
        becomes notstale exactly as if ``full=True`` had been passed."""
        self.check_calls += 1
        state = self._require(var)
        status = state.get(side)
        footprint = list(footprint) if footprint is not None else None
        if footprint is not None and not full:
            geometry = self.dirty.geometry(var)
            if geometry is not None:
                covered = IntervalSet(footprint)
                full = covered.covers(0, geometry[0])
        if full:
            self._set_state(var, state, side, NOTSTALE, site)
        elif status == STALE:
            # Partial write to stale data: unwritten elements may be read
            # later from the stale copy.
            self._report(MAY_MISSING, var, site)
            self._set_state(var, state, side, MAYSTALE, site)
        self._set_state(var, state, _other(side), STALE, site)
        self.dirty.note_write(var, side, footprint=footprint, full=full)

    def reset_status(self, var: str, side: str, status: str, site: str = "") -> None:
        if status not in _STATES:
            raise RuntimeFault(f"bad coherence status {status!r}")
        self._set_state(var, self._require(var), side, status, site)

    def on_transfer(self, var: str, src: str, dst: str, site: str = "",
                    span: Optional[Tuple[int, int]] = None) -> None:
        """Transfer hook.  ``span=(lo, hi)`` is the transferred element range
        over the flattened array (None = whole array); it prices redundant
        findings in wasted bytes against the dirty-interval map and then
        drains the map — the state machine itself is untouched by intervals.
        """
        self.check_calls += 1
        state = self._require(var)
        src_status = state.get(src)
        dst_status = state.get(dst)
        direction = H2D if src == CPU else D2H
        wasted = self._wasted_bytes(var, direction, span)
        if src_status == STALE:
            self._report(INCORRECT, var, site)
        elif src_status == MAYSTALE:
            self._report(MAY_INCORRECT, var, site)
        if dst_status == NOTSTALE:
            self._report(REDUNDANT, var, site, nbytes_wasted=wasted)
        elif dst_status == MAYSTALE:
            self._report(MAY_REDUNDANT, var, site, nbytes_wasted=wasted)
        # set_status: the destination now holds whatever the source held.
        self._set_state(var, state, dst, src_status, site)
        self.dirty.note_transfer(var, direction, span=span)

    def _wasted_bytes(self, var: str, direction: str,
                      span: Optional[Tuple[int, int]]) -> int:
        """Bytes a transfer moves beyond what the interval tracking says the
        destination lacks (0 when geometry is unknown)."""
        geometry = self.dirty.geometry(var)
        if geometry is None:
            return 0
        size, itemsize = geometry
        lo, hi = span if span is not None else (0, size)
        needed = self.dirty.pending_bytes(var, direction, (lo, hi)) or 0
        return max(0, (hi - lo) * itemsize - needed)

    def on_free(self, var: str, site: str = "") -> None:
        state = self._require(var)
        self._set_state(var, state, GPU, STALE, site)
        self.dirty.note_free(var)

    def on_reduction_kernel(self, var: str, site: str = "") -> None:
        """Kernel reduction whose final value only the CPU receives."""
        self._set_state(var, self._require(var), GPU, STALE, site)

    # -- reporting -----------------------------------------------------------
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.is_error]

    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if not f.is_error]

    def findings_of(self, *kinds: str) -> List[Finding]:
        return [f for f in self.findings if f.kind in kinds]

    def _set_state(self, var: str, state: _VarState, side: str, status: str,
                   site: str = "") -> None:
        """Single mutation point for the state machine, so real transitions
        (old != new) surface as trace events exactly once."""
        old = state.get(side)
        if old != status:
            self.tracer.event("coherence.transition", var=var, side=side,
                              old=old, new=status, site=site)
        state.set(side, status)

    def _report(self, kind: str, var: str, site: str,
                nbytes_wasted: int = 0) -> None:
        self.findings.append(
            Finding(kind, var, site, tuple(self._context),
                    nbytes_wasted=nbytes_wasted)
        )
        self.tracer.event("coherence.finding", kind=kind, var=var, site=site,
                          nbytes_wasted=nbytes_wasted)

    def _require(self, var: str) -> _VarState:
        state = self._states.get(var)
        if state is None:
            raise RuntimeFault(f"coherence check on untracked variable '{var}'")
        return state
