"""Async queues (OpenACC ``async``/``wait``).

Each queue is a timeline: an async operation issued at host time *t* with
modeled duration *d* completes at ``max(ready, t) + d`` and does not advance
the host clock.  ``wait`` advances the host to the queue's ready time,
charging the difference to the Async-Wait category — which is how the
kernel-verification transformation's async overlap shows up in Figure 3.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import RuntimeFault
from repro.runtime.profiler import CAT_ASYNC_WAIT, Profiler

# OpenACC's "async with no argument" sentinel queue.
DEFAULT_ASYNC_QUEUE = -1


class AsyncQueues:
    def __init__(self, profiler: Profiler, chaos=None):
        self.profiler = profiler
        self._ready: Dict[int, float] = {}
        # Ops issued since the last wait, per queue: (category, seconds).
        self._pending: Dict[int, list] = {}
        # Optional chaos FaultPlan (repro.runtime.chaos): queue.stall faults
        # lengthen an async op's modeled duration; the host absorbs the
        # extra time at the next wait.  Always recoverable.
        self.chaos = chaos

    def issue(self, queue: Optional[int], seconds: float,
              category: str = CAT_ASYNC_WAIT) -> float:
        """Issue an operation.  ``queue=None`` means synchronous: the host
        blocks for the duration.  Returns the operation's completion time."""
        if queue is None:
            start = self.profiler.now
            return start + seconds  # caller charges the category itself
        if not isinstance(queue, int):
            raise RuntimeFault(f"bad async queue id {queue!r}")
        if self.chaos is not None:
            fault = self.chaos.draw("queue", site=f"queue{queue}")
            if fault is not None:
                seconds += fault.stall_seconds
        start = max(self._ready.get(queue, 0.0), self.profiler.now)
        done = start + seconds
        self._ready[queue] = done
        self._pending.setdefault(queue, []).append((category, seconds))
        return done

    def ready_time(self, queue: int) -> float:
        return self._ready.get(queue, 0.0)

    def wait(self, queue: int) -> float:
        """Block the host until the queue drains; returns the waited time.

        Waited time is attributed to the categories of the queued operations
        proportionally (a d2h copy the host blocks on is Mem Transfer time;
        a kernel it blocks on is Async-Wait time) — which is how the paper's
        Figure-3 breakdown separates the components."""
        waited = max(0.0, self._ready.get(queue, 0.0) - self.profiler.now)
        pending = self._pending.pop(queue, [])
        if waited <= 0.0:
            return 0.0
        total = sum(seconds for _, seconds in pending)
        if total <= 0.0:
            self.profiler.spend(CAT_ASYNC_WAIT, waited)
            return waited
        for category, seconds in pending:
            self.profiler.spend(category, waited * seconds / total)
        return waited

    def wait_all(self) -> float:
        waited = 0.0
        for queue in list(self._ready):
            waited += self.wait(queue)
        return waited

    @property
    def pending(self) -> bool:
        return any(t > self.profiler.now for t in self._ready.values())
