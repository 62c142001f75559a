"""Table III — interactive memory-transfer verification and optimization.

Starting from each benchmark's *unoptimized* variant, the scripted
programmer iterates the Figure-2 loop until the verifier reports nothing
actionable.  Reported per benchmark:

* **total iterations** — verification rounds until convergence (paper: 2-4);
* **incorrect iterations** — rounds whose applied suggestion corrupted the
  program and was reverted (paper: BACKPROP 1, LUD 3, others 0 — wrong
  may-dead verdicts under partial writes/aliasing);
* **uncaught redundancy** — shared variables for which the tool-optimized
  program still transfers more bytes than the manually optimized version
  (paper: CFD 1 — a whole-array transfer whose useful payload is one
  element, invisible to array-granularity coherence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bench import all_names, get
from repro.compiler.driver import CompilerOptions, compile_ast
from repro.experiments import scheduler
from repro.experiments.harness import render_table
from repro.interp import run_compiled
from repro.lang.parser import parse_program
from repro.sampling import require_unsampled
from repro.verify.interactive import InteractiveOptimizer

PAPER = {
    "BACKPROP": (3, 1, 0),
    "BFS": (3, 0, 0),
    "CFD": (4, 0, 1),
    "CG": (2, 0, 0),
    "EP": (2, 0, 0),
    "HOTSPOT": (2, 0, 0),
    "JACOBI": (3, 0, 0),
    "KMEANS": (2, 0, 0),
    "LUD": (4, 3, 0),
    "NW": (2, 0, 0),
    "SPMUL": (3, 0, 0),
    "SRAD": (2, 0, 0),
}

HEADERS = [
    "Benchmark",
    "# total iterations",
    "# incorrect iterations",
    "# uncaught redundancy",
    "tool bytes",
    "manual bytes",
    "(paper T/I/U)",
]


@dataclass
class Table3Row:
    benchmark: str
    total_iterations: int
    incorrect_iterations: int
    uncaught_redundancy: int
    final_bytes: int
    manual_bytes: int


def _bytes_per_var(interp) -> Dict[str, int]:
    """Total transferred bytes per variable for one run."""
    out: Dict[str, int] = {}
    device_events = interp.runtime.device.events
    for event in device_events:
        if event.kind in ("h2d", "d2h"):
            out[event.name] = out.get(event.name, 0) + event.nbytes
    return out


def compute_row(name: str, size: str = "small", seed: int = 0,
                ctx=None, max_rounds: int = 12) -> Table3Row:
    """One benchmark's Table-III row (picklable; scheduler worker entry)."""
    options = CompilerOptions(strict_validation=False)
    bench = get(name)
    params = bench.params(size, seed)
    trace = InteractiveOptimizer(
        parse_program(bench.unoptimized_source),
        params=params,
        max_rounds=max_rounds,
        outputs=bench.outputs,
        ctx=ctx,
    ).run()

    final_run = run_compiled(
        compile_ast(trace.final_program, options, ctx=ctx), params=params,
        ctx=ctx,
    )
    manual_run = run_compiled(
        bench.compile("optimized", options, ctx=ctx), params=params, ctx=ctx
    )
    final_bytes = _bytes_per_var(final_run)
    manual_bytes = _bytes_per_var(manual_run)
    uncaught = sum(
        1 for var, nbytes in final_bytes.items()
        if nbytes > manual_bytes.get(var, 0)
    )
    return Table3Row(
        benchmark=name,
        total_iterations=trace.total_iterations,
        incorrect_iterations=trace.incorrect_iterations,
        uncaught_redundancy=uncaught,
        final_bytes=sum(final_bytes.values()),
        manual_bytes=sum(manual_bytes.values()),
    )


def run(size: str = "small", seed: int = 0, max_rounds: int = 12,
        jobs: int = 1, ctx=None) -> List[Table3Row]:
    require_unsampled(ctx, "Table III")
    grid = scheduler.row_grid(__name__, all_names(), size, seed,
                              max_rounds=max_rounds)
    return scheduler.raise_failures(scheduler.run_jobs(grid, jobs, ctx=ctx))


def table(size: str = "small", seed: int = 0, jobs: int = 1,
          ctx=None) -> Tuple[str, List[str], List[Sequence]]:
    rows = run(size, seed, jobs=jobs, ctx=ctx)
    return (
        f"Table III — interactive memory-transfer optimization (size={size})",
        HEADERS,
        [
            [
                r.benchmark,
                r.total_iterations,
                r.incorrect_iterations,
                r.uncaught_redundancy,
                r.final_bytes,
                r.manual_bytes,
                "/".join(map(str, PAPER[r.benchmark])),
            ]
            for r in rows
        ],
    )


def main(size: str = "small", seed: int = 0, jobs: int = 1,
         ctx=None) -> str:
    title, headers, rows = table(size, seed, jobs=jobs, ctx=ctx)
    rendered = render_table(headers, rows, title=title)
    print(rendered)
    return rendered


if __name__ == "__main__":
    main()
