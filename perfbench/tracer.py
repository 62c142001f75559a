"""Outside-in span tracer: times a layer by wrapping its public functions.

Nothing inside ``src/`` changes.  :meth:`Tracer.install` replaces each
target with a wrapper that opens a span on a per-thread stack (the daemon's
workers are threads); :meth:`Tracer.uninstall` puts the originals back.

* Class methods are wrapped on the class.
* Module functions are wrapped at every name-binding site: the home module
  and every loaded ``repro`` module that bound the same function object
  (``from repro.lang.parser import parse_program`` elsewhere).  Call-time
  imports read the patched home-module attribute.
* A span's self time is its duration minus the time its direct child spans
  cover.  A call counts once per entry into a layer, so a transfer entry
  point that calls another one is one call.
* Aggregates are exact.  Raw spans are kept in memory up to a cap and
  written out as JSON lines when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (layer, owner, function names, tally).  ``owner`` is "module" or
# "module:Class"; ``tally`` maps a call's result to an int summed per layer.
Target = Tuple[str, str, Tuple[str, ...], Optional[Callable[[object], int]]]


class Patches:
    """Attribute swaps made from outside, undone together, last first.
    Every wrapper the benchmark installs goes through one of these."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def swap(self, holder, attr: str, new) -> object:
        """Set ``holder.attr`` to ``new``; returns the value it replaces."""
        original = vars(holder)[attr]
        self._saved.append((holder, attr, original))
        setattr(holder, attr, new)
        return original

    def restore(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)


def import_all(package: str = "repro") -> None:
    """Import every submodule of ``package`` so that every binding site of
    a wrapped function exists before :meth:`Tracer.install` scans them."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.tallies: Dict[str, int] = {}
        self.spans: List[Tuple[str, int, float, float, float]] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = Patches()

    # -- installation ------------------------------------------------------
    def install(self, targets: Sequence[Target]) -> None:
        for layer, owner, names, tally in targets:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            for name in names:
                if class_name:
                    cls = getattr(module, class_name)
                    original = vars(cls)[name]
                    self._patches.swap(cls, name,
                                       self._wrap(layer, original, tally))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(layer, original, tally)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.swap(mod, attr, wrapper)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- spans -------------------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn, tally):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                tracer._finish(layer, parent is None or parent[0] != layer,
                               start, duration, duration - frame[1])
            if tally is not None:
                with tracer._lock:
                    tracer.tallies[layer] = (tracer.tallies.get(layer, 0)
                                             + int(tally(result)))
            return result

        return span

    def _finish(self, layer: str, entry: bool, start: float,
                duration: float, self_time: float) -> None:
        with self._lock:
            if entry:
                self.calls[layer] = self.calls.get(layer, 0) + 1
            self.self_s[layer] = self.self_s.get(layer, 0.0) + self_time
            if len(self.spans) < self.max_spans:
                self.spans.append((layer, threading.get_ident(), start,
                                   duration, self_time))
            else:
                self.dropped += 1

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for layer, thread, start, duration, self_time in self.spans:
                handle.write(json.dumps({
                    "layer": layer, "thread": thread, "start": start,
                    "duration_s": duration, "self_s": self_time}) + "\n")
            handle.write(json.dumps({"dropped": self.dropped}) + "\n")
