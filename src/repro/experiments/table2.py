"""Table II — kernel-verification coverage of injected races.

Reproduces the §IV-B study: remove every ``private``/``reduction`` clause,
disable the automatic privatization and reduction recognitions, and verify
all kernels.  A kernel whose unrecognized reduction races (shared split
read-modify-write) produces an **active** error the comparison catches; a
kernel whose falsely-shared privatizable scalar is register-cached with a
dump-back races **latently** — the outputs match and verification stays
silent (exactly the paper's account).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.bench import all_names, get
from repro.compiler.driver import CompilerOptions, compile_ast
from repro.experiments import scheduler
from repro.experiments.harness import render_table
from repro.sampling import require_unsampled
from repro.toolchain import default_context


@dataclass
class Table2Result:
    tested_kernels: int = 0
    kernels_with_private: int = 0
    kernels_with_reduction: int = 0
    active_errors_detected: int = 0
    latent_errors_undetected: int = 0
    false_positives: int = 0  # failures in kernels with neither fault class

    def add(self, other: "Table2Result") -> None:
        self.tested_kernels += other.tested_kernels
        self.kernels_with_private += other.kernels_with_private
        self.kernels_with_reduction += other.kernels_with_reduction
        self.active_errors_detected += other.active_errors_detected
        self.latent_errors_undetected += other.latent_errors_undetected
        self.false_positives += other.false_positives


def compute_row(name: str, size: str = "small", seed: int = 0,
                ctx=None) -> Table2Result:
    """One benchmark's Table-II tally (picklable; scheduler worker entry).
    The full table is the element-wise sum over all benchmarks."""
    from repro.verify.kernelverify import KernelVerifier

    ctx = ctx or default_context()
    fault_options = CompilerOptions(
        auto_privatize=False, auto_reduction=False, strict_validation=False
    )
    result = Table2Result()
    bench = get(name)
    clean = bench.compile("optimized", ctx=ctx)
    result.tested_kernels = len(clean.kernels)
    private_kernels = {
        r.name for r in clean.regions.compute
        if r.directive.clause("private") or r.directive.clause("firstprivate")
    }
    reduction_kernels = {
        r.name for r in clean.regions.compute if r.directive.clause("reduction")
    }
    result.kernels_with_private = len(private_kernels)
    result.kernels_with_reduction = len(reduction_kernels)

    faulty_ast = ctx.passes.rewrite(
        "fault.drop_reduction",
        ctx.passes.rewrite("fault.drop_private", clean.program),
    )
    faulty = compile_ast(faulty_ast, fault_options, ctx=ctx)
    report = KernelVerifier(faulty, params=bench.params(size, seed),
                            ctx=ctx).run()
    failed = set(report.failed_kernels())

    result.active_errors_detected = len(failed & reduction_kernels)
    result.latent_errors_undetected = len(private_kernels - failed)
    result.false_positives = len(failed - reduction_kernels - private_kernels)
    return result


def run(size: str = "small", seed: int = 0, jobs: int = 1,
        ctx=None) -> Table2Result:
    require_unsampled(ctx, "Table II")
    grid = scheduler.row_grid(__name__, all_names(), size, seed)
    partials = scheduler.raise_failures(scheduler.run_jobs(grid, jobs, ctx=ctx))
    total = Table2Result()
    for partial in partials:
        total.add(partial)
    return total


def _rows(r: Table2Result) -> List[Sequence]:
    return [
        ["Number of tested kernels", r.tested_kernels, 46],
        ["Number of kernels containing private data", r.kernels_with_private, 16],
        ["Number of kernels containing reduction", r.kernels_with_reduction, 4],
        ["Number of kernels incurring active errors", r.active_errors_detected, 4],
        ["Number of kernels incurring latent errors", r.latent_errors_undetected, 16],
    ]


def table(size: str = "small", seed: int = 0, jobs: int = 1,
          ctx=None) -> Tuple[str, List[str], List[Sequence]]:
    r = run(size, seed, jobs=jobs, ctx=ctx)
    return (
        f"Table II — kernel verification of injected races (size={size})",
        ["Description", "Count", "Paper"],
        _rows(r),
    )


def main(size: str = "small", seed: int = 0, jobs: int = 1,
         ctx=None) -> str:
    r = run(size, seed, jobs=jobs, ctx=ctx)
    rendered = render_table(
        ["Description", "Count", "Paper"],
        _rows(r),
        title=f"Table II — kernel verification of injected races (size={size})",
    )
    print(rendered)
    if r.false_positives:
        print(f"WARNING: {r.false_positives} unexpected kernel failures")
    return rendered


if __name__ == "__main__":
    main()
