"""The ``paper`` workload: the five paper experiments over all 12 programs.

A pass runs ``fig1``, ``fig3``, ``fig4``, ``table2`` and ``table3`` through
``run(size="small", seed=..., jobs=1)`` from a fresh ``ToolchainContext``.
One operation is one ``compute_row`` call, so a pass is 60 operations.

At ``small`` the per-operation overhead dominates: parsing, passes,
verification rewrites, the interleaved stepper (table2, NW, LUD) and
coherence checks.  The numpy kernel work is negligible.  Measured on the
2-core machine the benchmark was sized on: about 7-12 s per pass (fig1
0.5 s, fig3 1.6 s, fig4 0.5 s, table2 1.3 s, table3 3.5-4 s).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import time
from typing import List, Tuple

import numpy as np

from layers import EXPERIMENTS
from measure import PassResult, Tally, split, time_calls
from tracer import Patches

# Output oracle tolerances: those of the CLI's --compare-sequential.
ABS_MARGIN = 1e-9
REL_MARGIN = 1e-6


class Paper:
    PASS_S = 10.0        # nominal pass seconds, which set the pass count
    MIN_TIMED = 4        # timed passes at least (see DESIGN.md)
    SAME_OPS = True      # every pass makes the same calls in the same order

    def __init__(self, seed: int):
        from repro.bench import all_names

        self.seed = seed
        self.names = all_names()
        self.modules = [importlib.import_module(f"repro.experiments.{name}")
                        for name in EXPERIMENTS]
        self.ops: List[Tuple[float, bool]] = []
        self.tally = Tally()
        # The scheduler looks ``compute_row`` up on the module at call time.
        self.patches = Patches()
        for module in self.modules:
            time_calls(self.patches, module, "compute_row", self.ops)

    def run_pass(self) -> PassResult:
        from repro.toolchain import ToolchainContext

        ctx = ToolchainContext()
        del self.ops[:]
        rows, segments = [], []
        for name, module in zip(EXPERIMENTS, self.modules):
            # The previous experiment's garbage is freed before this one
            # starts, whenever the collector would have got to it.
            gc.collect()
            first, start = len(self.ops), time.perf_counter()
            try:
                rows.append((name, module.run(size="small", seed=self.seed,
                                              jobs=1, ctx=ctx)))
            except Exception as err:  # failed rows are counted in self.ops
                rows.append((name, f"{type(err).__name__}: {err}"))
            segments += split(self.ops, first, time.perf_counter() - start)
        self.tally.add(ctx)
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        return PassResult(list(self.ops), digest, segments=segments)

    def check(self) -> List[str]:
        return self._check_outputs() + self._check_baselines()

    def _check_outputs(self) -> List[str]:
        """Both source variants of every program, at ``small`` with this
        seed, against the sequential interpreter."""
        from repro.bench import get
        from repro.interp import run_compiled, run_sequential
        from repro.toolchain import ToolchainContext
        from repro.verify.comparison import ComparisonPolicy, compare_arrays

        policy = ComparisonPolicy(error_margin=ABS_MARGIN,
                                  relative_margin=REL_MARGIN)
        problems = []
        for name in self.names:
            bench = get(name)
            params = bench.params("small", self.seed)
            ctx = ToolchainContext()
            for variant in ("optimized", "unoptimized"):
                compiled = bench.compile(variant, ctx=ctx)
                want = run_sequential(compiled, params=params, ctx=ctx).env
                got = run_compiled(compiled, params=params, ctx=ctx).env
                for var in bench.outputs:
                    result = compare_arrays(
                        var, np.atleast_1d(want.load(var)),
                        np.atleast_1d(got.load(var)), policy)
                    if not result.passed:
                        problems.append(f"{name}/{variant}: "
                                        f"{result.message()}")
        return problems

    def _check_baselines(self) -> List[str]:
        """Modeled time and bytes of both variants against the single-device
        cells of the committed BENCH_time.json and BENCH_bytes.json (which
        record seed 0 at their own size)."""
        from repro.bench import get
        from repro.interp import run_compiled
        from repro.toolchain import ToolchainContext

        with open("BENCH_time.json") as handle:
            times = json.load(handle)
        with open("BENCH_bytes.json") as handle:
            nbytes = json.load(handle)
        tolerance = float(times["tolerance"])
        problems = []
        for name in self.names:
            bench = get(name)
            params = bench.params(times["size"], 0)
            for variant in ("optimized", "unoptimized"):
                ctx = ToolchainContext()
                run = run_compiled(bench.compile(variant, ctx=ctx),
                                   params=params, ctx=ctx)
                modeled = run.runtime.profiler.total()
                want = times["benchmarks"][name][variant]
                if abs(modeled - want) > tolerance * max(abs(want), 1e-30):
                    problems.append(f"{name}/{variant}: modeled {modeled!r} s"
                                    f" vs BENCH_time.json {want!r} s")
                moved = run.runtime.device.total_transferred_bytes()
                want_bytes = nbytes["benchmarks"][name][variant]["whole"]
                if moved != want_bytes:
                    problems.append(f"{name}/{variant}: {moved} B vs "
                                    f"BENCH_bytes.json {want_bytes} B")
        return problems

    def close(self) -> None:
        self.patches.restore()
