"""Dirty-interval bookkeeping for sub-array coherence (delta transfers).

The whole-array coherence machine of :mod:`repro.runtime.coherence` answers
*whether* a copy is stale; the structures here answer *which bytes*.  An
:class:`IntervalSet` is a sorted, coalescing list of half-open ``[start,
stop)`` element intervals over the flattened array — whole-array dirtiness
is just the degenerate single interval ``[0, size)``.  A :class:`DirtyMap`
keeps two interval sets per variable, one per transfer direction:

* ``h2d`` — elements the *device* copy lacks (host wrote them since the
  last transfer);
* ``d2h`` — elements the *host* copy lacks (a kernel wrote them).

Writers feed it through :meth:`DirtyMap.note_write` (host write checks and
kernel launch footprints), transfers drain it through
:meth:`DirtyMap.note_transfer`.  Tracking is deliberately allowed to
*under*-approximate: the delta-transfer planner in the runtime unions the
tracked intervals with a bitwise host/device diff before any bytes are
skipped, so a missed write can cost accuracy of the *savings estimate* but
never correctness of the transferred data.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["IntervalSet", "DirtyMap", "H2D", "D2H"]

H2D = "h2d"
D2H = "d2h"


class IntervalSet:
    """Sorted, disjoint, coalescing set of half-open element intervals."""

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Optional[Iterable[Tuple[int, int]]] = None):
        self._ivs: List[Tuple[int, int]] = []
        for start, stop in intervals or ():
            self.add(start, stop)

    # -- mutation -----------------------------------------------------------
    def add(self, start: int, stop: int) -> None:
        """Insert ``[start, stop)``, merging overlapping/adjacent intervals."""
        if stop <= start:
            return
        ivs = self._ivs
        merged: List[Tuple[int, int]] = []
        placed = False
        for a, b in ivs:
            if b < start or (placed and a > stop):
                merged.append((a, b))
            elif a > stop:
                if not placed:
                    merged.append((start, stop))
                    placed = True
                merged.append((a, b))
            else:
                # Overlaps or touches the pending interval: absorb it.
                start = min(start, a)
                stop = max(stop, b)
        if not placed:
            merged.append((start, stop))
        merged.sort()
        self._ivs = merged

    def subtract(self, start: int, stop: int) -> None:
        """Remove ``[start, stop)`` from the set."""
        if stop <= start or not self._ivs:
            return
        out: List[Tuple[int, int]] = []
        for a, b in self._ivs:
            if b <= start or a >= stop:
                out.append((a, b))
                continue
            if a < start:
                out.append((a, start))
            if b > stop:
                out.append((stop, b))
        self._ivs = out

    def union(self, other: "IntervalSet") -> "IntervalSet":
        result = self.copy()
        for a, b in other._ivs:
            result.add(a, b)
        return result

    __or__ = union

    def clear(self) -> None:
        self._ivs = []

    # -- queries ------------------------------------------------------------
    def intersect(self, start: int, stop: int) -> "IntervalSet":
        """The subset of this set falling inside ``[start, stop)``."""
        out = IntervalSet()
        out._ivs = [
            (max(a, start), min(b, stop))
            for a, b in self._ivs
            if b > start and a < stop
        ]
        return out

    @property
    def covered(self) -> int:
        """Total number of covered elements."""
        return sum(b - a for a, b in self._ivs)

    def covers(self, start: int, stop: int) -> bool:
        """True when ``[start, stop)`` lies entirely inside one interval
        (the set is normalized, so coverage is never split)."""
        if stop <= start:
            return True
        return any(a <= start and b >= stop for a, b in self._ivs)

    def intervals(self) -> List[Tuple[int, int]]:
        return list(self._ivs)

    def copy(self) -> "IntervalSet":
        out = IntervalSet()
        out._ivs = list(self._ivs)
        return out

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._ivs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntervalSet):
            return self._ivs == other._ivs
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"[{a},{b})" for a, b in self._ivs)
        return f"IntervalSet({body})"


class _VarDirty:
    """Per-variable geometry + one pending-interval set per direction."""

    __slots__ = ("size", "itemsize", "need")

    def __init__(self, size: int, itemsize: int):
        self.size = size
        self.itemsize = itemsize
        self.need: Dict[str, IntervalSet] = {H2D: IntervalSet(), D2H: IntervalSet()}


def _direction_from(side: str) -> str:
    """A write on ``side`` makes the *other* copy pend a transfer toward it."""
    return H2D if side == "cpu" else D2H


class DirtyMap:
    """Per-variable, per-direction dirty-interval bookkeeping.

    Variables are lazily bound to a geometry (flattened element count and
    itemsize) by :meth:`bind`; operations on unbound variables degrade to
    whole-array conservatism (``pending`` returns ``None`` = everything)."""

    def __init__(self):
        self._vars: Dict[str, _VarDirty] = {}

    # -- geometry -----------------------------------------------------------
    def bind(self, var: str, size: int, itemsize: int) -> None:
        entry = self._vars.get(var)
        if entry is None or entry.size != size or entry.itemsize != itemsize:
            self._vars[var] = _VarDirty(size, itemsize)

    def bound(self, var: str) -> bool:
        return var in self._vars

    def geometry(self, var: str) -> Optional[Tuple[int, int]]:
        entry = self._vars.get(var)
        return (entry.size, entry.itemsize) if entry is not None else None

    # -- event hooks --------------------------------------------------------
    def note_alloc(self, var: str) -> None:
        """Fresh device buffer: it lacks everything; the host copy stays
        authoritative, so nothing pends d2h."""
        entry = self._vars.get(var)
        if entry is None:
            return
        entry.need[H2D] = IntervalSet([(0, entry.size)])
        entry.need[D2H].clear()

    def note_free(self, var: str) -> None:
        """Device buffer gone: un-copied-out device writes are lost (the
        coherence machine reports that); a future realloc starts from
        scratch."""
        entry = self._vars.get(var)
        if entry is None:
            return
        entry.need[H2D] = IntervalSet([(0, entry.size)])
        entry.need[D2H].clear()

    def note_write(self, var: str, side: str,
                   footprint: Optional[Iterable[Tuple[int, int]]] = None,
                   full: bool = False) -> None:
        """A write on ``side`` (``"cpu"``/``"gpu"``).

        With a ``footprint`` (element intervals) or ``full=True``, the
        written range pends a transfer toward the other side and stops
        pending a transfer toward this one.  A partial write with unknown
        footprint conservatively pends the whole array outward and leaves
        the inbound set untouched."""
        entry = self._vars.get(var)
        if entry is None:
            return
        outward = _direction_from(side)
        inward = D2H if outward == H2D else H2D
        if full:
            entry.need[outward] = IntervalSet([(0, entry.size)])
            entry.need[inward].clear()
        elif footprint is not None:
            for a, b in footprint:
                entry.need[outward].add(a, b)
                entry.need[inward].subtract(a, b)
        else:
            entry.need[outward] = IntervalSet([(0, entry.size)])

    def note_transfer(self, var: str, direction: str,
                      span: Optional[Tuple[int, int]] = None) -> None:
        """A successful transfer over ``span`` (``None`` = whole array)
        equalizes both copies there: nothing pends in either direction."""
        entry = self._vars.get(var)
        if entry is None:
            return
        lo, hi = span if span is not None else (0, entry.size)
        entry.need[H2D].subtract(lo, hi)
        entry.need[D2H].subtract(lo, hi)

    # -- queries ------------------------------------------------------------
    def pending(self, var: str, direction: str) -> Optional[IntervalSet]:
        """Intervals pending transfer in ``direction``; ``None`` when the
        variable is unbound (conservatively: everything pends)."""
        entry = self._vars.get(var)
        if entry is None:
            return None
        return entry.need[direction]

    def pending_bytes(self, var: str, direction: str,
                      span: Optional[Tuple[int, int]] = None) -> Optional[int]:
        """Bytes pending in ``direction`` within ``span``; ``None`` when
        unbound."""
        entry = self._vars.get(var)
        if entry is None:
            return None
        lo, hi = span if span is not None else (0, entry.size)
        return entry.need[direction].intersect(lo, hi).covered * entry.itemsize
