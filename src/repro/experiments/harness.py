"""Shared experiment plumbing: run helpers, isolation, and table rendering.

Chaos defaulting is context-based: experiments that build their runtimes
deep inside :func:`run_variant` pick up ``ctx.default_chaos`` from the
:class:`~repro.toolchain.ToolchainContext` they were handed (or the process
default context) without threading a plan through every figure module.  A
shared plan is shared on purpose — a single plan carries its fault budget
across a whole sweep.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.suite import Benchmark
from repro.compiler.driver import CompilerOptions, compile_ast
from repro.errors import ReproError, error_stage
from repro.interp import run_compiled, run_sequential
from repro.interp.interp import Interp
from repro.runtime.accrt import AccRuntime
from repro.runtime.chaos import FaultPlan, FaultSpec
from repro.runtime.profiler import (
    CTR_SAMPLE_SKIPPED_ITERATIONS,
    CTR_SAMPLE_SKIPPED_LAUNCHES,
)
from repro.toolchain import ToolchainContext, default_context

VALID_VARIANTS = ("optimized", "unoptimized", "naive", "sequential")


def run_variant(
    bench: Benchmark,
    variant: str,
    size: str = "small",
    seed: int = 0,
    options: Optional[CompilerOptions] = None,
    chaos: Union[FaultPlan, FaultSpec, None] = None,
    ctx: Optional[ToolchainContext] = None,
) -> Interp:
    """Execute one benchmark variant; returns the interpreter (profiler,
    device, env attached).

    ``variant`` is 'optimized', 'unoptimized', 'naive' (default-scheme), or
    'sequential'.  ``chaos`` is a FaultSpec (fresh plan per run) or a
    FaultPlan (shared budget across runs), defaulting to
    ``ctx.default_chaos``; sequential runs never touch the device, so chaos
    does not apply to them.
    """
    if variant not in VALID_VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; valid variants: "
            + ", ".join(VALID_VARIANTS)
        )
    ctx = ctx or default_context()
    params = bench.params(size, seed)
    if variant == "sequential":
        compiled = bench.compile("optimized", options, ctx=ctx)
        return run_sequential(compiled, params=params, ctx=ctx)
    if variant == "naive":
        compiled = compile_ast(
            bench.naive_program(ctx=ctx),
            (options or CompilerOptions()).copy(strict_validation=False),
            ctx=ctx,
        )
    else:
        compiled = bench.compile(variant, options, ctx=ctx)
    plan = ctx.resolve_chaos(chaos)
    runtime = AccRuntime(chaos=plan, ctx=ctx) if plan is not None else None
    return run_compiled(compiled, params=params, runtime=runtime, ctx=ctx)


@dataclass
class RunOutcome:
    """Structured result of one isolated benchmark run."""

    bench: str
    variant: str
    ok: bool
    interp: Optional[Interp] = None
    error_type: str = ""
    error_stage: str = ""
    error: str = ""
    wall_seconds: float = 0.0
    # Profiler-derived summary, filled on success.  Lives on the outcome
    # (not just the interp) so it survives ``stripped()`` across the
    # scheduler's process boundary — which is what keeps sampled sweeps
    # byte-identical between --jobs 1 and --jobs N.
    modeled_seconds: float = 0.0
    transferred_bytes: int = 0
    skipped_launches: int = 0
    skipped_iterations: int = 0
    sample: Optional[dict] = None

    def describe(self) -> str:
        if self.ok:
            return f"{self.bench}/{self.variant}: ok"
        return (f"{self.bench}/{self.variant}: FAILED "
                f"[{self.error_stage}] {self.error_type}: {self.error}")

    def stripped(self) -> "RunOutcome":
        """A copy without the attached interpreter: picklable, so isolated
        outcomes can cross the scheduler's process boundary."""
        return RunOutcome(
            bench=self.bench, variant=self.variant, ok=self.ok, interp=None,
            error_type=self.error_type, error_stage=self.error_stage,
            error=self.error, wall_seconds=self.wall_seconds,
            modeled_seconds=self.modeled_seconds,
            transferred_bytes=self.transferred_bytes,
            skipped_launches=self.skipped_launches,
            skipped_iterations=self.skipped_iterations,
            sample=self.sample,
        )


def _write_outcome_report(ctx: ToolchainContext, outcome: RunOutcome,
                          error: Optional[BaseException],
                          report_path: str) -> None:
    """Persist a RunReport for this isolated run.  Writes on *every* exit
    path — clean, typed error, crash, and watchdog/SIGALRM timeout — so a
    killed sweep still leaves its failure behind as an artifact."""
    import json

    from repro.obs.report import build_report

    report = build_report(
        ctx,
        command=f"harness:{outcome.bench}/{outcome.variant}",
        program=outcome.bench,
        error=error,
        extra={"outcome": {
            "ok": outcome.ok,
            "error_type": outcome.error_type,
            "error_stage": outcome.error_stage,
        }},
    )
    try:
        with open(report_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True, default=repr)
            handle.write("\n")
    except OSError as err:
        warnings.warn(f"cannot write run report {report_path!r}: {err}",
                      stacklevel=2)


def _guarded_attempt(
    bench: Benchmark,
    variant: str,
    size: str,
    seed: int,
    options: Optional[CompilerOptions],
    chaos: Union[FaultPlan, FaultSpec, None],
    timeout_s: Optional[float],
    ctx: ToolchainContext,
) -> Tuple[RunOutcome, Optional[BaseException]]:
    """One guarded execution; returns (outcome, caught error or None)."""
    use_alarm = (
        timeout_s is not None and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"benchmark {bench.name!r} variant {variant!r} exceeded "
            f"{timeout_s:g}s wall-clock budget"
        )

    old_handler = None
    start = time.perf_counter()
    try:
        if use_alarm:
            old_handler = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
        interp = run_variant(bench, variant, size=size, seed=seed,
                             options=options, chaos=chaos, ctx=ctx)
        profiler = interp.runtime.profiler
        sampler = getattr(interp, "sampler", None)
        return RunOutcome(
            bench.name, variant, True, interp=interp,
            wall_seconds=time.perf_counter() - start,
            modeled_seconds=profiler.total(),
            transferred_bytes=interp.runtime.device.total_transferred_bytes(),
            skipped_launches=int(profiler.counters.get(
                CTR_SAMPLE_SKIPPED_LAUNCHES, 0)),
            skipped_iterations=int(profiler.counters.get(
                CTR_SAMPLE_SKIPPED_ITERATIONS, 0)),
            sample=sampler.report() if sampler is not None else None,
        ), None
    except TimeoutError as err:
        return RunOutcome(bench.name, variant, False,
                          error_type="TimeoutError", error_stage="timeout",
                          error=str(err),
                          wall_seconds=time.perf_counter() - start), err
    except ReproError as err:
        return RunOutcome(bench.name, variant, False,
                          error_type=type(err).__name__,
                          error_stage=error_stage(err), error=str(err),
                          wall_seconds=time.perf_counter() - start), err
    except Exception as err:
        detail = traceback.format_exc(limit=8)
        return RunOutcome(bench.name, variant, False,
                          error_type=type(err).__name__,
                          error_stage="internal",
                          error=f"{err} | {detail.splitlines()[-1].strip()}",
                          wall_seconds=time.perf_counter() - start), err
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)


def run_variant_isolated(
    bench: Benchmark,
    variant: str,
    size: str = "small",
    seed: int = 0,
    options: Optional[CompilerOptions] = None,
    chaos: Union[FaultPlan, FaultSpec, None] = None,
    timeout_s: Optional[float] = None,
    ctx: Optional[ToolchainContext] = None,
    report_path: Optional[str] = None,
) -> RunOutcome:
    """Run one variant, capturing crashes and enforcing a wall-clock timeout.

    Never raises: a failure (typed toolchain error, unexpected crash, or
    timeout) comes back as a ``RunOutcome`` with ``ok=False`` so a sweep can
    keep going.  The timeout uses SIGALRM and is only armed on the main
    thread of a POSIX process; elsewhere the run is simply unguarded.
    ``report_path`` writes a RunReport on every exit path.
    """
    ctx = ctx or default_context()
    outcome, error = _guarded_attempt(bench, variant, size, seed, options,
                                      chaos, timeout_s, ctx)
    if report_path is not None:
        _write_outcome_report(ctx, outcome, error, report_path)
    return outcome


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    floatfmt: str = "{:.3g}",
) -> str:
    """Plain-text table (the experiments print these)."""

    def fmt(value) -> str:
        if isinstance(value, float):
            return floatfmt.format(value)
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in text_rows)) if text_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in text_rows:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def rows_to_dicts(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[Dict]:
    return [dict(zip(headers, row)) for row in rows]
