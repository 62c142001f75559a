"""Chaos-injection framework and hardened-runtime tests.

Covers the determinism contract of FaultPlan, every injection point
(alloc / transfer / queue / launch), the recovery layers (retry-with-backoff,
post-transfer verification, degradation ladder, watchdog), and the
correctness invariants: coherence state and the present table must stay
accurate under injected failures, recovered runs must be bit-identical
to fault-free runs, and a fault past the retry budget ends the run with a
typed error.
"""

import numpy as np
import pytest

from repro.bench import get
from repro.device.compile import compile_body
from repro.device.engine import KernelEngine, LaunchSpec
from repro.device import vectorize
from repro.errors import (
    ChaosFault,
    ReproError,
    TransferCorruptionError,
    TransientFault,
    WatchdogTimeout,
    error_stage,
)
from repro.experiments import fig1
from repro.experiments.harness import run_variant, run_variant_isolated
from repro.lang import parse_program
from repro.runtime.accrt import AccRuntime
from repro.runtime.chaos import FaultPlan, FaultSpec
from repro.runtime.coherence import CPU, GPU, NOTSTALE, STALE, CoherenceTracker
from repro.runtime.profiler import CAT_ASYNC_WAIT
from repro.toolchain import ToolchainContext


def make_plan(text, seed=0, max_faults=None):
    return FaultPlan.from_string(text, seed=seed, max_faults=max_faults)


def make_runtime(text, seed=0, max_faults=None, tracked=()):
    tracker = None
    if tracked:
        tracker = CoherenceTracker()
        for var in tracked:
            tracker.register(var)
    plan = make_plan(text, seed=seed, max_faults=max_faults)
    return AccRuntime(coherence=tracker, chaos=plan), plan, tracker


class TestFaultSpec:
    def test_parse_rates_and_aliases(self):
        spec = FaultSpec.parse("alloc=0.25, transfer.corrupt=0.5", seed=3)
        assert spec.rates == {"alloc.oom": 0.25, "transfer.corrupt": 0.5}
        assert spec.seed == 3

    @pytest.mark.parametrize("bad", [
        "bogus=0.1",          # unknown kind
        "alloc=nope",         # non-numeric rate
        "alloc=1.5",          # out of range
        "alloc",              # missing '='
    ])
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_default_spec_covers_every_point(self):
        spec = FaultSpec.default()
        kinds = set(spec.rates)
        assert {"alloc.oom", "transfer.transient", "queue.stall",
                "launch.transient"} <= kinds


class TestFaultPlanDeterminism:
    SEQUENCE = [("alloc", "a"), ("transfer", "h2d:a"), ("launch", "k"),
                ("queue", "queue1")] * 25

    def drive(self, plan):
        return [
            (f.kind, f.site, f.seq, f.lane) if f is not None else None
            for f in (plan.draw(p, site=s) for p, s in self.SEQUENCE)
        ]

    def test_same_seed_same_faults(self):
        spec = FaultSpec.default(seed=7)
        assert self.drive(FaultPlan(spec)) == self.drive(FaultPlan(spec))

    def test_different_seed_different_faults(self):
        a = self.drive(FaultPlan(FaultSpec.default(seed=7)))
        b = self.drive(FaultPlan(FaultSpec.default(seed=8)))
        assert a != b

    def test_budget_caps_injection(self):
        plan = make_plan("alloc=1.0", max_faults=2)
        faults = [plan.draw("alloc") for _ in range(5)]
        assert [f is not None for f in faults] == [True, True, False, False, False]
        assert plan.exhausted

    def test_faults_counted_on_profiler(self):
        from repro.runtime.profiler import Profiler

        plan = make_plan("alloc=1.0", max_faults=3)
        plan.profiler = Profiler()
        for _ in range(3):
            plan.draw("alloc", site="x")
        assert plan.profiler.counters["fault.injected"] == 3
        assert plan.profiler.counters["fault.injected.alloc.oom"] == 3
        assert "3 fault(s)" in plan.summary()


class TestAllocFaults:
    def test_transient_oom_recovered_by_retry(self):
        rt, plan, _ = make_runtime("alloc=1.0", max_faults=2)
        host = np.arange(8.0)
        assert rt.data_enter("a", host, copyin=True)
        assert rt.present.is_present("a")
        assert np.array_equal(rt.device_array("a"), host)
        assert rt.profiler.counters["alloc.retried"] == 2
        assert len(plan.injected) == 2

    def test_exhausted_retries_surface_typed_error(self):
        rt, _, _ = make_runtime("alloc=1.0")
        with pytest.raises(TransientFault) as exc:
            rt.data_enter("a", np.arange(8.0), copyin=True)
        assert error_stage(exc.value) == "chaos"
        # Clean-state abort: the failed enter left no present-table entry.
        assert not rt.present.is_present("a")


class TestTransferFaults:
    def test_transient_failure_leaves_destination_stale(self):
        rt, _, tracker = make_runtime("transfer=1.0", tracked=("a",))
        host = np.arange(8.0)
        rt.data_enter("a", host, copyin=False)
        assert tracker.state("a", GPU) == STALE
        with pytest.raises(TransientFault):
            rt.copy_to_device("a", host)
        # A transfer that never completed must not mark its destination
        # fresh, nor count as a dynamic transfer.
        assert tracker.state("a", GPU) == STALE
        assert rt.transfer_log == []

    def test_retried_transfer_completes_coherently(self):
        rt, _, tracker = make_runtime("transfer=1.0", max_faults=2,
                                      tracked=("a",))
        host = np.arange(8.0)
        rt.data_enter("a", host, copyin=False)
        rt.copy_to_device("a", host)
        assert tracker.state("a", GPU) == NOTSTALE
        assert len(rt.transfer_log) == 1
        assert rt.profiler.counters["transfer.retried"] == 2
        assert np.array_equal(rt.device_array("a"), host)

    def test_corruption_detected_and_repaired(self):
        rt, plan, _ = make_runtime("transfer.corrupt=1.0", max_faults=1)
        host = np.arange(16.0)
        rt.data_enter("a", host, copyin=True)
        assert np.array_equal(rt.device_array("a"), host)
        assert rt.profiler.counters["transfer.retried"] == 1
        assert rt.profiler.counters["fault.injected"] == 1

    def test_truncation_detected_and_repaired(self):
        rt, _, _ = make_runtime("transfer.truncate=1.0", max_faults=1)
        host = np.arange(16.0)
        rt.data_enter("a", host, copyin=True)
        assert np.array_equal(rt.device_array("a"), host)
        assert rt.profiler.counters["transfer.retried"] == 1

    def test_persistent_corruption_surfaces_typed_error(self):
        rt, _, tracker = make_runtime("transfer.corrupt=1.0", tracked=("a",))
        host = np.arange(8.0)
        rt.data_enter("a", host, copyin=False)
        with pytest.raises(TransferCorruptionError) as exc:
            rt.copy_to_device("a", host)
        assert error_stage(exc.value) == "transfer"
        assert tracker.state("a", GPU) == STALE
        assert rt.transfer_log == []

    def test_d2h_corruption_repaired(self):
        rt, _, _ = make_runtime("transfer.corrupt=1.0", max_faults=1)
        host = np.arange(8.0)
        rt.data_enter("a", host, copyin=False)
        rt.device_array("a")[:] = host  # device-side result, no h2d draw
        out = np.zeros(8)
        rt.copy_to_host("a", out)
        assert np.array_equal(out, host)
        assert rt.profiler.counters["transfer.retried"] == 1


class TestQueueStalls:
    def test_stall_absorbed_as_modeled_wait(self):
        rt, plan, _ = make_runtime("stall=1.0", max_faults=1)
        rt.queues.issue(1, 1e-3, category=CAT_ASYNC_WAIT)
        waited = rt.queues.wait(1)
        assert waited == pytest.approx(1e-3 + plan.spec.stall_seconds)
        assert len(plan.injected) == 1


def body_of(src):
    prog = parse_program(f"void main() {{ {src} }}")
    return prog.func("main").body.body[0].body.body


def make_spec(body_src, n=16, **kw):
    stmts = body_of(f"for (int i = 0; i < {n}; i++) {{ {body_src} }}")
    return LaunchSpec("k", compile_body(stmts), ("i",),
                      [(i,) for i in range(n)], **kw)


class TestWatchdog:
    def test_interleaved_backend_watchdog(self):
        spec = make_spec("while (1) { int z = 0; }", n=1, arrays={})
        engine = KernelEngine(max_total_steps=500)
        with pytest.raises(WatchdogTimeout) as exc:
            engine.launch(spec)
        assert "watchdog" in str(exc.value)

    def test_vectorized_backend_watchdog(self):
        a, b = np.zeros(64), np.arange(64.0)
        spec = make_spec("a[i] = b[i] * 2.0;", n=64, arrays={"a": a, "b": b})
        assert vectorize.plan_for(spec) is not None
        engine = KernelEngine(max_total_steps=3)
        with pytest.raises(WatchdogTimeout):
            engine.launch(spec)

    def test_watchdog_not_retried_or_degraded(self):
        # An infinite loop is infinite on every backend: the ladder must
        # propagate the timeout rather than burn the other rungs.
        rt = AccRuntime()
        rt.device.engine.max_total_steps = 500
        spec = make_spec("while (1) { int z = 0; }", n=1, arrays={})
        with pytest.raises(WatchdogTimeout):
            rt.launch(spec)
        assert "launch.retried" not in rt.profiler.counters


class TestDegradationLadder:
    def test_launch_fail_degrades_to_interleaved(self):
        bench = get("JACOBI")
        baseline = run_variant(bench, "optimized", "tiny")
        plan = make_plan("launch.fail=1.0", max_faults=1)
        run = run_variant(bench, "optimized", "tiny", chaos=plan)
        prof = run.runtime.profiler
        assert prof.counters["launch.degraded"] == 1
        assert prof.counters.get("launch.interleaved", 0) >= 1
        for out in bench.outputs:
            assert np.array_equal(
                np.asarray(run.env.load(out)),
                np.asarray(baseline.env.load(out)),
            )

    def test_transient_launch_retried_without_degrading(self):
        bench = get("JACOBI")
        plan = make_plan("launch=1.0", max_faults=1)
        run = run_variant(bench, "optimized", "tiny", chaos=plan)
        prof = run.runtime.profiler
        assert prof.counters["launch.retried"] == 1
        assert "launch.degraded" not in prof.counters


class TestChaosDisabledIsInert:
    def test_no_recovery_counters_without_chaos(self):
        run = run_variant(get("JACOBI"), "optimized", "tiny")
        counters = run.runtime.profiler.counters
        for name in ("fault.injected", "transfer.retried", "alloc.retried",
                     "launch.retried", "launch.degraded"):
            assert name not in counters
        assert run.runtime.chaos is None


class TestChaosProperty:
    """Seed sweep: every injected fault is either recovered — with the run's
    outputs bit-identical to the fault-free baseline and the recovery visible
    in the counters — or surfaces as a typed ReproError.  Never a hang, never
    silent corruption."""

    RATES = ("alloc=0.3,transfer=0.25,transfer.corrupt=0.25,"
             "transfer.truncate=0.2,stall=0.3,launch=0.25,launch.fail=0.15")

    def test_seed_sweep(self):
        bench = get("JACOBI")
        baseline = run_variant(bench, "optimized", "tiny")
        expect = {
            out: np.copy(np.asarray(baseline.env.load(out)))
            for out in bench.outputs
        }
        recovered = failed = 0
        for seed in range(10):
            plan = make_plan(self.RATES, seed=seed)
            try:
                run = run_variant(bench, "optimized", "tiny", chaos=plan)
            except ReproError as err:
                assert error_stage(err) != "internal"
                failed += 1
                continue
            recovered += 1
            prof = run.runtime.profiler
            assert prof.counters.get("fault.injected", 0) == len(plan.injected)
            retries = sum(
                prof.counters.get(name, 0)
                for name in ("transfer.retried", "alloc.retried",
                             "launch.retried", "launch.degraded")
            )
            aborted = sum(1 for f in plan.injected if f.aborts)
            damaged = sum(1 for f in plan.injected if f.corrupts or f.truncates)
            assert retries >= min(1, aborted + damaged)
            for out, want in expect.items():
                got = np.asarray(run.env.load(out))
                assert np.array_equal(got, want), (seed, out)
        # The rates are chosen so the sweep exercises both paths.
        assert recovered > 0


class TestIsolatedSweep:
    def test_fig1_with_fault_budget_captures_one_failure(self):
        # alloc always faults until the shared 4-fault budget (1 attempt + 3
        # retries) is exhausted on the very first allocation; the remaining
        # 23 runs of the sweep proceed fault-free.
        plan = FaultPlan(FaultSpec.parse("alloc=1.0", seed=0, max_faults=4))
        outcomes = fig1.run_isolated("tiny", chaos=plan, timeout_s=120.0)
        assert len(outcomes) == 24
        assert len({o.bench for o in outcomes}) == 12
        failed = [o for o in outcomes if not o.ok]
        assert len(failed) == 1
        assert failed[0].error_type == "TransientFault"
        assert failed[0].error_stage == "chaos"
        assert "FAILED" in failed[0].describe()
        for outcome in outcomes:
            if outcome.ok:
                assert outcome.interp is not None

    def test_isolated_run_captures_crash(self):
        outcome = run_variant_isolated(
            get("JACOBI"), "optimized", "tiny",
            chaos=FaultSpec.parse("alloc=1.0"),
        )
        assert not outcome.ok
        assert outcome.error_type == "TransientFault"
        assert outcome.error_stage == "chaos"
        assert outcome.interp is None

    def test_isolated_run_enforces_wall_timeout(self):
        outcome = run_variant_isolated(get("JACOBI"), "optimized", "tiny",
                                       timeout_s=1e-4)
        assert not outcome.ok
        assert outcome.error_type == "TimeoutError"
        assert outcome.error_stage == "timeout"


class TestRetryKnobs:
    def test_max_retries_knob_reaches_runtime(self):
        ctx = ToolchainContext()
        ctx.max_retries = 7
        assert AccRuntime(ctx=ctx).max_retries == 7
        assert AccRuntime(ctx=ctx, max_retries=1).max_retries == 1  # explicit wins
        assert AccRuntime().max_retries == AccRuntime.DEFAULT_MAX_RETRIES

    def test_backoff_base_knob(self):
        ctx = ToolchainContext()
        ctx.backoff_base = 0.5
        rt = AccRuntime(ctx=ctx)
        assert rt.backoff_time(0) == 0.5
        assert rt.backoff_time(2) == 2.0
        # Unset: defers to the cost model (bit-identical to the old path).
        default_rt = AccRuntime()
        base = default_rt.device.config.costs.retry_backoff_s
        assert default_rt.backoff_time(1) == base * 2


class TestSweepProperty:
    """No silent divergence with retries disabled: under a chaos seed sweep
    a run either completes bit-identical to fault-free or raises a typed
    error.  Seed-parametrized so a failing seed is named in the test id."""

    RATES = "transfer=0.25,transfer.corrupt=0.15"

    @staticmethod
    def run_jacobi(ctx=None, chaos=None):
        return run_variant(get("JACOBI"), "unoptimized", size="tiny", seed=1,
                           chaos=chaos, ctx=ctx or ToolchainContext())

    @staticmethod
    def outputs_of(interp):
        return {k: v.copy() for k, v in interp.env.scopes[0].items()
                if isinstance(v, np.ndarray)}

    @pytest.fixture(scope="class")
    def baseline(self):
        return self.outputs_of(self.run_jacobi())

    @pytest.mark.parametrize("chaos_seed", range(15))
    def test_completed_or_typed_never_divergent(self, baseline, chaos_seed):
        ctx = ToolchainContext()
        ctx.max_retries = 0
        chaos = FaultSpec.parse(self.RATES, seed=chaos_seed)
        try:
            interp = self.run_jacobi(ctx=ctx, chaos=chaos)
        except ReproError as err:
            assert error_stage(err) != "internal"
            return
        got = self.outputs_of(interp)
        assert set(got) == set(baseline)
        for name in baseline:
            np.testing.assert_array_equal(baseline[name], got[name])
