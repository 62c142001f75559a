"""Kernel execution engine: many logical threads over shared device arrays.

Each logical thread owns a program counter and a register file and executes
the kernel bytecode for one iteration of the partitioned loop(s).  The
:class:`Schedule` decides interleaving:

* ``sequential``  — each thread runs to completion in order (no interleaving;
  races never manifest — the ablation baseline);
* ``round_robin`` — threads advance ``quantum`` instructions per turn (the
  default; deterministic and race-revealing);
* ``random``      — uniformly random runnable thread each step (seeded).

Recognized reductions execute on thread-private partials and are combined in
tree order (:mod:`repro.device.reduction`) after all threads complete, so
only the CPU ends up with the final value — matching the paper's note that
such kernels leave the GPU copy of the reduction variable stale.
"""

from __future__ import annotations

import itertools
import math
import random as _random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.bytecode import Branch, Dump, Jump, Program, Simple, TmpEval, TmpStore
from repro.device.reduction import identity, tree_reduce
from repro.device import vectorize
from repro.errors import DeviceError, InterpError, WatchdogTimeout
from repro.lang import semantics
from repro.lang.ctypes import Scalar


class Schedule:
    """Thread interleaving policy."""

    SEQUENTIAL = "sequential"
    ROUND_ROBIN = "round_robin"
    RANDOM = "random"

    def __init__(self, kind: str = ROUND_ROBIN, quantum: int = 1, seed: int = 0):
        if kind not in (self.SEQUENTIAL, self.ROUND_ROBIN, self.RANDOM):
            raise ValueError(f"unknown schedule kind {kind!r}")
        self.kind = kind
        self.quantum = max(1, quantum)
        self.seed = seed

    @classmethod
    def sequential(cls) -> "Schedule":
        return cls(cls.SEQUENTIAL)

    @classmethod
    def round_robin(cls, quantum: int = 1) -> "Schedule":
        return cls(cls.ROUND_ROBIN, quantum=quantum)

    @classmethod
    def random(cls, seed: int = 0) -> "Schedule":
        return cls(cls.RANDOM, seed=seed)

    def __repr__(self):
        return f"Schedule({self.kind}, quantum={self.quantum}, seed={self.seed})"


class IndexSpace:
    """The logical threads of one launch, as an index space.

    Built from the per-loop ``range`` objects of the partitioned loops, the
    lanes are their Cartesian product in :func:`itertools.product` order
    (last loop fastest); ``registers`` turns them into one int64 array per
    index variable without listing the points.  A space can also wrap an
    explicit list of index tuples (hand-built specs); then the points are
    exactly that list.  ``points`` — one tuple per thread — is what the
    interleaved stepper iterates, and nothing else needs it.
    """

    __slots__ = ("ranges", "nlanes", "_points")

    def __init__(self, ranges: Sequence[range] = (),
                 points: Optional[Sequence[Tuple]] = None):
        if points is None:
            self.ranges: Optional[Tuple[range, ...]] = tuple(ranges)
            self._points: Optional[List[Tuple]] = None
            self.nlanes = math.prod(len(r) for r in self.ranges)
        else:
            self.ranges = None
            self._points = list(points)
            self.nlanes = len(self._points)

    def points(self) -> Iterable[Tuple]:
        """One tuple of index values per thread, in lane order."""
        if self._points is not None:
            return self._points
        return itertools.product(*self.ranges)

    def registers(self, nvars: int) -> List[np.ndarray]:
        """One int64 lane register per index variable (``nvars`` of them)."""
        if self._points is not None:
            return [
                np.fromiter((values[k] for values in self._points), np.int64,
                            count=self.nlanes)
                for k in range(nvars)
            ]
        axes = [r.start + r.step * np.arange(len(r), dtype=np.int64)
                for r in self.ranges]
        if len(axes) <= 1:
            return axes
        return [grid.ravel() for grid in np.meshgrid(*axes, indexing="ij")]


class LaunchSpec:
    """Everything the engine needs for one kernel launch.

    ``threads`` is the resolved iteration space, an :class:`IndexSpace`
    (a sequence of index tuples is wrapped in one); each thread binds its
    index values to ``index_vars`` in its registers.
    """

    def __init__(
        self,
        name: str,
        instrs: Program,
        index_vars: Sequence[str],
        threads: Union[IndexSpace, Sequence[Tuple]],
        arrays: Dict[str, np.ndarray],
        scalars: Optional[Dict[str, object]] = None,
        private_decls: Optional[Dict[str, object]] = None,
        firstprivate: Optional[Dict[str, object]] = None,
        cached_vars: Optional[Dict[str, object]] = None,
        shared_writable: Optional[set] = None,
        reductions: Optional[Sequence[Tuple[str, str, object]]] = None,
        array_names: Optional[Dict[str, str]] = None,
    ):
        self.name = name
        self.instrs = instrs
        self.index_vars = tuple(index_vars)
        self.threads = (threads if isinstance(threads, IndexSpace)
                        else IndexSpace(points=threads))
        self.arrays = arrays
        self.scalars = dict(scalars or {})
        self.private_decls = dict(private_decls or {})   # name -> dtype|None
        self.firstprivate = dict(firstprivate or {})     # name -> initial value
        self.cached_vars = dict(cached_vars or {})       # name -> initial shared value
        self.shared_writable = set(shared_writable or ())
        self.reductions = list(reductions or [])         # (name, op, dtype|None)
        # Kernel-local array name -> canonical (present-table) name, so the
        # runtime can attribute per-launch write footprints to the dirty map.
        self.array_names = dict(array_names or {})


class LaunchResult:
    def __init__(self, name: str, total_steps: int, max_thread_steps: int,
                 reductions: Dict[str, object], shared_final: Dict[str, object],
                 backend: str = "interleaved",
                 write_sets: Optional[Dict[str, List[Tuple[int, int]]]] = None):
        self.name = name
        self.total_steps = total_steps
        self.max_thread_steps = max_thread_steps
        self.reductions = reductions
        self.shared_final = shared_final
        self.backend = backend  # "vectorized" | "interleaved"
        # Per-array element intervals this launch wrote (kernel-local array
        # name -> [start, stop) intervals over the flattened buffer), when
        # the engine collected them; None = unknown (interleaved stepper),
        # which the runtime treats as a conservative full-array write.
        self.write_sets = write_sets

    def __repr__(self):
        return f"LaunchResult({self.name}: {self.total_steps} steps)"


class _Thread:
    __slots__ = ("pc", "regs", "dtypes", "done", "steps")

    def __init__(self):
        self.pc = 0
        self.regs: Dict[str, object] = {}
        self.dtypes: Dict[str, object] = {}
        self.done = False
        self.steps = 0


class _ThreadEnv:
    """Name resolution for one thread: registers shadow shared state."""

    __slots__ = ("spec", "thread", "shared")

    def __init__(self, spec: LaunchSpec, thread: _Thread, shared: Dict[str, object]):
        self.spec = spec
        self.thread = thread
        self.shared = shared

    def load(self, name: str):
        regs = self.thread.regs
        if name in regs:
            return regs[name]
        arrays = self.spec.arrays
        if name in arrays:
            return arrays[name]
        if name in self.shared:
            return self.shared[name]
        raise InterpError(f"kernel {self.spec.name!r}: unbound name {name!r}")

    def store(self, name: str, value):
        thread = self.thread
        if name in thread.regs:
            thread.regs[name] = self._coerce(name, value)
            return
        if name in self.shared and name in self.spec.shared_writable:
            self.shared[name] = value
            return
        if name in self.spec.arrays:
            raise InterpError(f"kernel {self.spec.name!r}: cannot rebind array {name!r}")
        # A scalar never seen before: treat as thread-local (e.g. helper
        # temporaries introduced by passes).
        thread.regs[name] = value

    def declare(self, name: str, ctype, value):
        dtype = ctype.dtype if isinstance(ctype, Scalar) else None
        self.thread.dtypes[name] = dtype
        if value is None:
            value = 0
        self.thread.regs[name] = self._coerce(name, value)

    def call(self, func: str, args):
        return semantics.Builtins.call(func, args)

    def _coerce(self, name: str, value):
        dtype = self.thread.dtypes.get(name)
        if dtype is None:
            return value
        return np.dtype(dtype).type(value).item()


class KernelEngine:
    """Executes launch specs under a schedule.

    Race-free launches take the vectorized fast path
    (:mod:`repro.device.vectorize`) unless ``vectorize=False`` or the
    schedule is ``random`` (an ablation that explicitly asks for stochastic
    interleaving).  Everything race-revealing — and anything the vector
    backend bails out of at runtime — runs on the interleaved stepper.
    """

    def __init__(self, max_total_steps: int = 50_000_000, vectorize: bool = True):
        self.max_total_steps = max_total_steps
        self.vectorize = vectorize
        # When True, vectorized launches report per-array write footprints
        # (LaunchResult.write_sets) for the runtime's dirty-interval map.
        # Off by default: the footprint diff costs one array comparison per
        # written array, only worth paying when something consumes it.
        self.collect_write_sets = False

    def launch(self, spec: LaunchSpec, schedule: Optional[Schedule] = None,
               backend: Optional[str] = None) -> LaunchResult:
        """``backend='interleaved'`` forces the stepper even for vectorizable
        specs (degradation ladder / diagnostics); None picks automatically."""
        schedule = schedule or Schedule.round_robin()
        if (self.vectorize and backend != "interleaved"
                and schedule.kind != Schedule.RANDOM):
            plan = vectorize.plan_for(spec)
            if plan is not None:
                try:
                    total, max_steps, reductions, write_sets = vectorize.execute(
                        spec, plan, self.max_total_steps,
                        collect_writes=self.collect_write_sets,
                    )
                    return LaunchResult(
                        spec.name, total, max_steps, reductions, {},
                        backend="vectorized", write_sets=write_sets,
                    )
                except DeviceError:
                    raise
                except Exception:
                    # Anything the vector backend cannot reproduce exactly:
                    # scratch copies were discarded, so the interleaved
                    # stepper below sees pristine device memory.
                    pass
        shared: Dict[str, object] = dict(spec.scalars)
        for name, init in spec.cached_vars.items():
            shared.setdefault(name, init)

        threads: List[_Thread] = []
        envs: List[_ThreadEnv] = []
        partials: Dict[str, List] = {name: [] for name, _, _ in spec.reductions}
        red_info = {name: (op, dtype) for name, op, dtype in spec.reductions}

        for values in spec.threads.points():
            t = _Thread()
            for var, val in zip(spec.index_vars, values):
                t.regs[var] = val
            for name, dtype in spec.private_decls.items():
                t.dtypes[name] = dtype
                t.regs[name] = np.dtype(dtype).type(0).item() if dtype is not None else 0
            for name, val in spec.firstprivate.items():
                t.regs[name] = val
            for name in spec.cached_vars:
                t.regs[name] = shared[name]  # register cache starts from shared copy
            for name, (op, dtype) in red_info.items():
                init = identity(op)
                if dtype is not None:
                    init = np.dtype(dtype).type(init).item()
                t.regs[name] = init
                if dtype is not None:
                    t.dtypes[name] = dtype
            threads.append(t)
            envs.append(_ThreadEnv(spec, t, shared))

        total_steps = self._run(spec, threads, envs, shared, schedule)

        for t in threads:
            for name in partials:
                partials[name].append(t.regs.get(name, identity(red_info[name][0])))

        reductions = {
            name: tree_reduce(op, partials[name], dtype)
            for name, (op, dtype) in red_info.items()
        }
        shared_final = {
            k: v for k, v in shared.items()
            if k in spec.shared_writable or k in spec.cached_vars
        }
        max_steps = max((t.steps for t in threads), default=0)
        return LaunchResult(spec.name, total_steps, max_steps, reductions, shared_final)

    # ------------------------------------------------------------------
    def _run(self, spec, threads, envs, shared, schedule) -> int:
        instrs = spec.instrs
        n = len(instrs)
        total = 0
        live = [i for i in range(len(threads)) if n > 0]
        for i, t in enumerate(threads):
            if n == 0:
                t.done = True

        def step(idx: int) -> bool:
            """Execute one instruction of thread idx; False when finished."""
            t = threads[idx]
            if t.pc >= n:
                t.done = True
                return False
            instr = instrs[t.pc]
            env = envs[idx]
            cls = type(instr)
            if cls is Simple:
                semantics.exec_simple(instr.stmt, env)
                t.pc += 1
            elif cls is TmpEval:
                t.regs[instr.reg] = semantics.evaluate(instr.expr, env)
                t.pc += 1
            elif cls is TmpStore:
                semantics.assign(instr.target, t.regs[instr.reg], env)
                t.pc += 1
            elif cls is Branch:
                if instr.cond is None or semantics.evaluate(instr.cond, env):
                    t.pc += 1
                else:
                    t.pc = instr.target
            elif cls is Jump:
                t.pc = instr.target
            elif cls is Dump:
                shared[instr.name] = t.regs.get(instr.name)
                t.pc += 1
            else:
                raise DeviceError(f"unknown instruction {instr!r}")
            t.steps += 1
            if t.pc >= n:
                t.done = True
            return not t.done

        if schedule.kind == Schedule.SEQUENTIAL:
            for i in live:
                while step(i):
                    total += 1
                    self._check_budget(total, spec)
                total += 1
        elif schedule.kind == Schedule.ROUND_ROBIN:
            quantum = schedule.quantum
            while live:
                survivors = []
                for i in live:
                    alive = True
                    for _ in range(quantum):
                        alive = step(i)
                        total += 1
                        self._check_budget(total, spec)
                        if not alive:
                            break
                    if alive:
                        survivors.append(i)
                live = survivors
        else:  # RANDOM
            rng = _random.Random(schedule.seed)
            live_set = list(live)
            while live_set:
                pick = rng.randrange(len(live_set))
                idx = live_set[pick]
                alive = step(idx)
                total += 1
                self._check_budget(total, spec)
                if not alive:
                    live_set[pick] = live_set[-1]
                    live_set.pop()
        return total

    def _check_budget(self, total: int, spec) -> None:
        if total > self.max_total_steps:
            raise WatchdogTimeout(
                f"watchdog: kernel {spec.name!r} exceeded {self.max_total_steps} "
                "steps (possible infinite loop in kernel body)"
            )
