"""Figure 3 — execution-time breakdown of kernel verification.

Verify *all* kernels of each benchmark (§III-A) and break the modeled
execution time into the paper's categories — GPU Mem Free, GPU Mem Alloc,
Mem Transfer, Async-Wait, Result-Comp, CPU Time — normalized to the
sequential CPU execution time.  The paper's shape: verification costs a few
x the sequential run, dominated by Result-Comp and Mem Transfer (every
kernel re-ships reference data and compares every output element).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bench import all_names, get
from repro.errors import SamplingConflictError
from repro.experiments import scheduler
from repro.experiments.harness import render_table, run_variant
from repro.runtime.profiler import (
    CAT_ASYNC_WAIT,
    CAT_CPU,
    CAT_MEM_ALLOC,
    CAT_MEM_FREE,
    CAT_RESULT_COMP,
    CAT_TRANSFER,
)
from repro.verify.kernelverify import KernelVerifier

CATEGORIES = (
    CAT_MEM_FREE,
    CAT_MEM_ALLOC,
    CAT_TRANSFER,
    CAT_ASYNC_WAIT,
    CAT_RESULT_COMP,
    CAT_CPU,
)


@dataclass
class Fig3Row:
    benchmark: str
    normalized: Dict[str, float]   # category -> time / sequential CPU time
    total_normalized: float
    all_passed: bool


def compute_row(name: str, size: str = "small", seed: int = 0,
                ctx=None) -> Fig3Row:
    """One benchmark's Figure-3 row (picklable; scheduler worker entry)."""
    bench = get(name)
    seq = run_variant(bench, "sequential", size, seed, ctx=ctx)
    baseline = seq.runtime.profiler.total()
    verifier = KernelVerifier(
        bench.compile("optimized", ctx=ctx), params=bench.params(size, seed),
        ctx=ctx,
    )
    report = verifier.run()
    profiler = verifier.runtime.profiler
    normalized = {cat: profiler.totals.get(cat, 0.0) / baseline for cat in CATEGORIES}
    return Fig3Row(
        benchmark=name,
        normalized=normalized,
        total_normalized=profiler.total() / baseline,
        all_passed=report.all_passed,
    )


def run(size: str = "small", seed: int = 0, jobs: int = 1,
        ctx=None) -> List[Fig3Row]:
    if getattr(ctx, "sampling", None) is not None:
        raise SamplingConflictError(
            "Figure 3 cannot run with phase sampling: kernel verification "
            "compares real values, and skipped host iterations leave them "
            "different from a full run's")
    grid = scheduler.row_grid(__name__, all_names(), size, seed)
    return scheduler.raise_failures(scheduler.run_jobs(grid, jobs, ctx=ctx))


def table(size: str = "small", seed: int = 0, jobs: int = 1,
          ctx=None) -> Tuple[str, List[str], List[Sequence]]:
    rows = run(size, seed, jobs=jobs, ctx=ctx)
    return (
        f"Figure 3 — kernel-verification time breakdown, normalized to sequential CPU (size={size})",
        ["Benchmark", *CATEGORIES, "Total"],
        [
            [r.benchmark, *(r.normalized[c] for c in CATEGORIES), r.total_normalized]
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
