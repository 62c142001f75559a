"""Present table: which host variables currently have device copies.

OpenACC structured data regions nest; the ``present_or_*`` clauses make the
inner region reuse the outer allocation.  Entries are reference-counted: the
region that created the buffer (refcount reaching zero) frees it and runs
its copyout action.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import RuntimeFault


class PresentEntry:
    __slots__ = ("name", "handle", "refcount", "copyout_on_exit")

    def __init__(self, name: str, handle: int):
        self.name = name
        self.handle = handle
        self.refcount = 1
        self.copyout_on_exit: List[bool] = []  # stack, one flag per nesting level

    def __repr__(self):
        return f"PresentEntry({self.name}: handle={self.handle}, rc={self.refcount})"


class PresentTable:
    def __init__(self):
        self._entries: Dict[str, PresentEntry] = {}

    def is_present(self, name: str) -> bool:
        return name in self._entries

    def lookup(self, name: str) -> PresentEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise RuntimeFault(f"variable '{name}' is not present on the device")
        return entry

    def handle_of(self, name: str) -> int:
        return self.lookup(name).handle

    def add(self, name: str, handle: int) -> PresentEntry:
        if name in self._entries:
            raise RuntimeFault(f"variable '{name}' is already present on the device")
        entry = PresentEntry(name, handle)
        self._entries[name] = entry
        return entry

    def retain(self, name: str) -> PresentEntry:
        entry = self.lookup(name)
        entry.refcount += 1
        return entry

    def release(self, name: str) -> Optional[PresentEntry]:
        """Decrement; returns the entry if this release frees the buffer
        (the caller performs copyout/free), else None."""
        entry = self.lookup(name)
        entry.refcount -= 1
        if entry.refcount == 0:
            del self._entries[name]
            return entry
        return None

    def names(self) -> List[str]:
        return list(self._entries)

    def __len__(self):
        return len(self._entries)
