"""PassManager behaviour: per-pass caching/invalidation, timing coverage,
dump hooks, and the retirement of module-global toolchain state."""

import contextlib
import io

import pytest

from repro.compiler import CompilerOptions, compile_ast, compile_source
from repro.compiler.passes import all_passes, pass_names
from repro.toolchain import ToolchainContext

SOURCE = """
void main() {
    double a[8];
    double b[8];
    #pragma acc kernels loop
    for (int i = 0; i < 8; i++) {
        a[i] = b[i] * 2.0;
    }
}
"""


class TestRegistry:
    def test_pipeline_and_rewrite_passes_registered(self):
        names = pass_names()
        for expected in ("parse", "validate", "regions", "symbols", "alias",
                         "kernelgen", "memgen", "demotion", "resultcomp",
                         "checkinsert", "fault.strip_acc"):
            assert expected in names

    def test_every_pass_has_kind_and_description(self):
        for info in all_passes():
            assert info.kind in ("frontend", "analysis", "codegen", "rewrite")
            assert info.description


class TestPassLevelCaching:
    def test_identical_source_and_options_hit_at_pipeline_level(self):
        ctx = ToolchainContext()
        first = compile_source(SOURCE, ctx=ctx)
        second = compile_source(SOURCE, ctx=ctx)
        assert first is second
        record = ctx.pass_stats.records["pipeline"]
        assert record.cache_hits == 1 and record.cache_misses == 1

    def test_changed_options_miss_pipeline_but_share_option_free_passes(self):
        ctx = ToolchainContext()
        base = compile_source(SOURCE, CompilerOptions(), ctx=ctx)
        other = compile_source(
            SOURCE, CompilerOptions(auto_privatize=False), ctx=ctx
        )
        assert base is not other
        # One parse: the tree is shared across options.
        assert base.program is other.program
        records = ctx.pass_stats.records
        assert records["parse"].cache_hits == 1
        # Option-independent analyses hit on the second compile...
        for name in ("regions", "symbols", "alias"):
            assert records[name].cache_hits == 1, name
            assert records[name].invocations == 1, name
        # ...while the passes that read auto_privatize re-ran.
        for name in ("kernelgen", "memgen"):
            assert records[name].cache_hits == 0, name
            assert records[name].invocations == 2, name

    def test_changed_default_data_management_reruns_only_memgen(self):
        ctx = ToolchainContext()
        compile_source(SOURCE, CompilerOptions(), ctx=ctx)
        compile_source(
            SOURCE, CompilerOptions(default_data_management=False), ctx=ctx
        )
        records = ctx.pass_stats.records
        assert records["kernelgen"].cache_hits == 1
        assert records["kernelgen"].invocations == 1
        assert records["memgen"].cache_hits == 0
        assert records["memgen"].invocations == 2

    def test_mutated_clone_never_hits_analysis_cache(self):
        """A cloned tree carries no fingerprint, so compiling it after a
        mutation cannot return the pristine tree's cached analyses."""
        from repro.lang.visitor import clone_tree

        ctx = ToolchainContext()
        pristine = compile_source(SOURCE, ctx=ctx)
        assert len(pristine.kernels) == 1
        cloned = clone_tree(pristine.program)
        compiled_clone = compile_ast(
            cloned, pristine.options.copy(strict_validation=False), ctx=ctx
        )
        # Mutate the clone: strip the compute directive, recompile the SAME
        # object.  A stale cache would still report one kernel.
        for node in cloned.func("main").body.walk():
            if getattr(node, "pragmas", None):
                node.pragmas = []
        recompiled = compile_ast(
            cloned, pristine.options.copy(strict_validation=False), ctx=ctx
        )
        assert len(compiled_clone.kernels) == 1
        assert len(recompiled.kernels) == 0

    def test_contexts_do_not_share_caches(self):
        a, b = ToolchainContext(), ToolchainContext()
        first = compile_source(SOURCE, ctx=a)
        second = compile_source(SOURCE, ctx=b)
        assert first is not second


class TestTimingAndCoverage:
    def test_time_passes_covers_at_least_95_percent_on_real_benchmark(self):
        from repro.bench import get

        ctx = ToolchainContext()
        get("JACOBI").compile("optimized", ctx=ctx)
        get("SRAD").compile("optimized", ctx=ctx)
        assert ctx.pass_stats.coverage() >= 0.95
        report = ctx.pass_stats.report()
        assert "pass timing" in report
        assert "parse" in report

    def test_rewrite_passes_are_timed(self):
        ctx = ToolchainContext()
        compiled = compile_source(SOURCE, ctx=ctx)
        ctx.passes.rewrite("fault.strip_acc", compiled.program)
        assert ctx.pass_stats.records["fault.strip_acc"].invocations == 1
        assert ctx.pass_stats.records["fault.strip_acc"].seconds >= 0.0

    def test_unknown_rewrite_pass_rejected(self):
        ctx = ToolchainContext()
        with pytest.raises(KeyError):
            ctx.passes.rewrite("kernelgen")  # not a rewrite pass
        with pytest.raises(KeyError):
            ctx.passes.rewrite("nonsense")


class TestDumpAfter:
    def test_dump_after_fires_for_named_pass_only(self):
        ctx = ToolchainContext()
        ctx.dump_after = "kernelgen"
        ctx.out = io.StringIO()
        compile_source(SOURCE, ctx=ctx)
        text = ctx.out.getvalue()
        assert text.count("=== after pass") == 1
        assert "after pass 'kernelgen'" in text
        assert "main_kernel0" in text

    def test_dump_after_rewrite_pass_prints_source(self):
        ctx = ToolchainContext()
        ctx.dump_after = "fault.strip_acc"
        ctx.out = io.StringIO()
        compiled = compile_source(SOURCE, ctx=ctx)
        ctx.passes.rewrite("fault.strip_acc", compiled.program)
        text = ctx.out.getvalue()
        assert text.count("=== after pass") == 1
        assert "after pass 'fault.strip_acc'" in text
        assert "pragma" not in text

    def test_out_defaults_to_stdout_at_write_time(self, capsys):
        ctx = ToolchainContext()
        ctx.dump_after = "kernelgen"
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            compile_source(SOURCE, ctx=ctx)
        assert "after pass 'kernelgen'" in buffer.getvalue()
        assert capsys.readouterr().out == ""


class TestNoModuleGlobalChaos:
    def test_harness_has_no_default_chaos_global(self):
        from repro.experiments import harness

        assert not hasattr(harness, "_DEFAULT_CHAOS")

    def test_context_resolve_chaos_prefers_explicit(self):
        from repro.runtime.chaos import FaultPlan, FaultSpec

        ctx = ToolchainContext(
            default_chaos=FaultPlan(FaultSpec.default(seed=1))
        )
        explicit = FaultPlan(FaultSpec.default(seed=2))
        assert ctx.resolve_chaos(explicit) is explicit
        assert ctx.resolve_chaos(None) is ctx.default_chaos
        spec = FaultSpec.default(seed=3)
        promoted = ctx.resolve_chaos(spec)
        assert isinstance(promoted, FaultPlan) and promoted.spec is spec
