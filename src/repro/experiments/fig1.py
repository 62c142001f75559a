"""Figure 1 — OpenACC default memory management vs fully optimized.

For every benchmark, run the *naive* variant (manual memory management
stripped; the default scheme copies everything accessed in before each
kernel and everything modified back after) and the *manually optimized*
variant, and report total modeled execution time and total transferred
bytes, both normalized to the optimized run.  The paper's log-scale bars
span roughly one to five decimal orders; the reproduction's shape claim is
that every benchmark is >= 1x on both axes and the iteration-heavy codes
are one or more orders of magnitude worse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bench import all_names, get
from repro.experiments import scheduler
from repro.experiments.harness import (
    RunOutcome,
    render_table,
    run_variant,
    run_variant_isolated,
)
from repro.runtime.chaos import FaultPlan

HEADERS = [
    "Benchmark",
    "Norm. total execution time",
    "Norm. total transferred data size",
]


@dataclass
class Fig1Row:
    benchmark: str
    norm_time: float          # naive time / optimized time
    norm_bytes: float         # naive bytes / optimized bytes
    naive_bytes: int
    optimized_bytes: int
    naive_time: float
    optimized_time: float


def compute_row(name: str, size: str = "small", seed: int = 0,
                ctx=None) -> Fig1Row:
    """One benchmark's Figure-1 row (picklable; scheduler worker entry)."""
    bench = get(name)
    opt = run_variant(bench, "optimized", size, seed, ctx=ctx)
    naive = run_variant(bench, "naive", size, seed, ctx=ctx)
    opt_time = opt.runtime.profiler.total()
    naive_time = naive.runtime.profiler.total()
    opt_bytes = max(1, opt.runtime.device.total_transferred_bytes())
    naive_bytes = naive.runtime.device.total_transferred_bytes()
    return Fig1Row(
        benchmark=name,
        norm_time=naive_time / opt_time,
        norm_bytes=naive_bytes / opt_bytes,
        naive_bytes=naive_bytes,
        optimized_bytes=opt_bytes,
        naive_time=naive_time,
        optimized_time=opt_time,
    )


def run(size: str = "small", seed: int = 0, jobs: int = 1,
        ctx=None) -> List[Fig1Row]:
    grid = scheduler.row_grid(__name__, all_names(), size, seed)
    return scheduler.raise_failures(scheduler.run_jobs(grid, jobs, ctx=ctx))


def run_isolated(
    size: str = "small",
    seed: int = 0,
    chaos: Optional[FaultPlan] = None,
    timeout_s: Optional[float] = 120.0,
    jobs: int = 1,
    ctx=None,
) -> List[RunOutcome]:
    """Fault-tolerant sweep: every benchmark runs in isolation (crash
    capture + wall-clock timeout).  A failed benchmark is reported and the
    sweep continues.  With a chaos plan the sweep stays sequential — a
    shared plan's fault budget must span the whole figure, which cannot
    cross process boundaries."""
    if chaos is not None:
        outcomes: List[RunOutcome] = []
        for name in all_names():
            bench = get(name)
            for variant in ("optimized", "naive"):
                outcomes.append(
                    run_variant_isolated(bench, variant, size, seed,
                                         chaos=chaos, timeout_s=timeout_s,
                                         ctx=ctx)
                )
        return outcomes
    grid = scheduler.variant_grid(all_names(), ("optimized", "naive"),
                                  size, seed, timeout_s)
    return scheduler.run_jobs(grid, jobs, ctx=ctx)


def table(size: str = "small", seed: int = 0, jobs: int = 1,
          ctx=None) -> Tuple[str, List[str], List[Sequence]]:
    rows = run(size, seed, jobs=jobs, ctx=ctx)
    return (
        f"Figure 1 — default vs optimized memory management (size={size})",
        HEADERS,
        [[r.benchmark, r.norm_time, r.norm_bytes] for r in rows],
    )


def main(size: str = "small", seed: int = 0,
         chaos: Optional[FaultPlan] = None, jobs: int = 1,
         ctx=None) -> str:
    if chaos is not None:
        outcomes = run_isolated(size, seed, chaos=chaos, ctx=ctx)
        failed = [o for o in outcomes if not o.ok]
        rendered = render_table(
            ["Benchmark", "Variant", "Status", "Detail"],
            [[o.bench, o.variant, "ok" if o.ok else "FAILED",
              "" if o.ok else f"[{o.error_stage}] {o.error_type}"]
             for o in outcomes],
            title=(f"Figure 1 under fault injection (size={size}, "
                   f"{len(failed)}/{len(outcomes)} runs failed)"),
        )
        print(rendered)
        print(chaos.summary())
        return rendered
    title, headers, rows = table(size, seed, jobs=jobs, ctx=ctx)
    rendered = render_table(headers, rows, title=title)
    print(rendered)
    return rendered


if __name__ == "__main__":
    main()
