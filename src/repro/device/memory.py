"""Device memory: a separate address space with an explicit allocator.

Device allocations are numpy arrays living in a handle table — host code can
never reach them except through ``memcpy`` on the :class:`Device` facade,
which is exactly the property (separate address spaces, §II-C) the paper's
memory-management tooling exists to tame.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import DeviceMemoryError


class Allocation:
    """One device-resident buffer."""

    __slots__ = ("handle", "name", "data", "freed")

    def __init__(self, handle: int, name: str, data: np.ndarray):
        self.handle = handle
        self.name = name
        self.data = data
        self.freed = False

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __repr__(self):
        state = "freed" if self.freed else f"{self.data.shape}/{self.data.dtype}"
        return f"Allocation(#{self.handle} {self.name}: {state})"


class DeviceMemory:
    """Handle-table allocator with a capacity limit."""

    def __init__(self, capacity_bytes: int = 6 * 1024**3, chaos=None):
        self.capacity = capacity_bytes
        self.used = 0
        self._table: Dict[int, Allocation] = {}
        self._next_handle = 1
        self.alloc_count = 0
        self.free_count = 0
        # Optional chaos FaultPlan (repro.runtime.chaos), attached by the
        # runtime; consulted before each allocation.
        self.chaos = chaos

    def alloc(self, name: str, shape: Tuple[int, ...], dtype) -> Allocation:
        """Allocate a zero-initialized device buffer."""
        if self.chaos is not None:
            fault = self.chaos.draw("alloc", site=name)
            if fault is not None:
                raise fault.to_error(
                    f"injected device OOM allocating buffer '{name}'"
                )
        data = np.zeros(shape, dtype=dtype)
        if self.used + data.nbytes > self.capacity:
            raise DeviceMemoryError(
                f"device out of memory allocating {data.nbytes} B for '{name}' "
                f"({self.used}/{self.capacity} B in use)"
            )
        allocation = Allocation(self._next_handle, name, data)
        self._next_handle += 1
        self._table[allocation.handle] = allocation
        self.used += data.nbytes
        self.alloc_count += 1
        return allocation

    def free(self, handle: int) -> Allocation:
        allocation = self._table.get(handle)
        if allocation is None:
            raise DeviceMemoryError(f"free of unknown device handle {handle}")
        if allocation.freed:
            raise DeviceMemoryError(f"double free of device buffer '{allocation.name}'")
        allocation.freed = True
        self.used -= allocation.nbytes
        self.free_count += 1
        del self._table[handle]
        return allocation

    def get(self, handle: int) -> Allocation:
        allocation = self._table.get(handle)
        if allocation is None:
            raise DeviceMemoryError(f"access to unknown/freed device handle {handle}")
        return allocation

    def find_by_name(self, name: str) -> Optional[Allocation]:
        """Most recent live allocation with the given name (present-table
        helper; real lookup goes through the runtime's present table)."""
        for allocation in reversed(list(self._table.values())):
            if allocation.name == name:
                return allocation
        return None

    @property
    def live_allocations(self) -> int:
        return len(self._table)

    def reset(self) -> None:
        self._table.clear()
        self.used = 0
