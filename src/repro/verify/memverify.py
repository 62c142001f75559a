"""Memory-transfer verification (§III-B): one offline profiling run.

Instruments the program (:mod:`repro.compiler.checkinsert`), executes it with
the coherence tracker attached, and reports the three §IV-C suggestion
classes: redundant-transfer information, missing/incorrect-transfer errors,
and may-redundant/may-missing warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.checkinsert import InstrumentationResult
from repro.compiler.driver import CompiledProgram
from repro.device.engine import Schedule
from repro.interp.interp import Interp
from repro.runtime.accrt import AccRuntime
from repro.runtime.coherence import CoherenceTracker, Finding
from repro.verify.suggestions import Suggestion, derive_suggestions, format_report


@dataclass
class MemVerificationReport:
    findings: List[Finding]
    suggestions: List[Suggestion]
    universe: set
    check_calls: int
    transfer_counts: Dict[Tuple[str, str], int]
    site_directions: Dict[Tuple[str, str], str]  # (var, site) -> "h2d"/"d2h"
    instrumented_program: CompiledProgram = field(repr=False, compare=False)
    inserted_checks: int
    # Byte accounting per transfer site: bytes moved across the run, and
    # bytes the coherence findings say were wasted there (redundant /
    # may-redundant transfers priced against the dirty-interval map).
    transfer_bytes: Dict[Tuple[str, str], int] = None
    wasted_bytes: Dict[Tuple[str, str], int] = None

    @property
    def instrumented_source(self) -> str:
        """The instrumented program as source, printed on demand (only
        ``memcheck --show-instrumented`` reads it)."""
        return self.instrumented_program.to_source()

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.is_error]

    @property
    def clean(self) -> bool:
        """No errors and nothing actionable.  (A partial write to a fresh
        device buffer produces a may-missing warning — unwritten elements
        hold no valid data — which is informational, not actionable.)"""
        return not self.errors and not self.suggestions

    def summary(self) -> str:
        return format_report(self.findings, self.suggestions)


class MemVerifier:
    """Runs one instrumented profiling execution."""

    def __init__(
        self,
        compiled: CompiledProgram,
        params: Optional[Dict[str, object]] = None,
        schedule: Optional[Schedule] = None,
        optimize_placement: bool = True,
        ctx=None,
    ):
        from repro.toolchain import default_context

        self.compiled = compiled
        self.params = dict(params or {})
        self.schedule = schedule
        self.optimize_placement = optimize_placement
        self.instrumentation: Optional[InstrumentationResult] = None
        self.runtime: Optional[AccRuntime] = None
        self.ctx = ctx or default_context()

    def run(self) -> MemVerificationReport:
        with self.ctx.tracer.span("verify.mem", category="verify") as sp:
            instr = self.ctx.passes.rewrite(
                "checkinsert", self.compiled,
                optimize_placement=self.optimize_placement, ctx=self.ctx,
            )
            self.instrumentation = instr
            sp.set_attr("inserted_checks", len(instr.checks))
            tracker = CoherenceTracker()
            for var in instr.universe:
                tracker.register(var)
            runtime = AccRuntime(coherence=tracker, ctx=self.ctx)
            self.runtime = runtime
            interp = Interp(
                instr.compiled,
                runtime=runtime,
                params=self.params,
                schedule=self.schedule,
                ctx=self.ctx,
            )
            interp.run()
            sp.set_attr("findings", len(tracker.findings))
            sp.set_attr("check_calls", tracker.check_calls)

        transfer_counts: Dict[Tuple[str, str], int] = {}
        site_directions: Dict[Tuple[str, str], str] = {}
        transfer_bytes: Dict[Tuple[str, str], int] = {}
        for rec in runtime.transfer_log:
            key = (rec.var, rec.site)
            transfer_counts[key] = transfer_counts.get(key, 0) + 1
            site_directions[key] = rec.direction
            transfer_bytes[key] = transfer_bytes.get(key, 0) + rec.nbytes

        wasted_bytes: Dict[Tuple[str, str], int] = {}
        for f in tracker.findings:
            if f.nbytes_wasted:
                key = (f.var, f.site)
                wasted_bytes[key] = wasted_bytes.get(key, 0) + f.nbytes_wasted

        suggestions = derive_suggestions(
            tracker.findings, transfer_counts,
            transfer_bytes=transfer_bytes, wasted_bytes=wasted_bytes,
        )
        return MemVerificationReport(
            findings=list(tracker.findings),
            suggestions=suggestions,
            universe=set(instr.universe),
            check_calls=tracker.check_calls,
            transfer_counts=transfer_counts,
            site_directions=site_directions,
            instrumented_program=instr.compiled,
            inserted_checks=len(instr.checks),
            transfer_bytes=transfer_bytes,
            wasted_bytes=wasted_bytes,
        )
