"""Explicit pass pipeline: every compilation stage is a named, timed pass.

The source → :class:`CompiledProgram` pipeline and the AST-rewriting
transforms (demotion, result comparison, check insertion, fault injection)
all run through one :class:`PassManager`:

* **observability** — each pass records self wall-clock time, invocation
  and cache counters into the context's :class:`~repro.toolchain.PassStats`
  (``repro ... --time-passes``), and any pass's output can be dumped after
  it runs (``--dump-after=<pass>``);
* **caching** — results are cached per pass in the context's cache
  registry.  The whole-pipeline cache (pass ``pipeline``) subsumes the old
  ``compile_source`` memo; the ``parse`` cache shares one AST across
  differing :class:`CompilerOptions`; analysis passes (regions, symbols,
  alias, kernelgen, memgen) cache keyed by (AST fingerprint, the subset of
  options they read), so recompiling the same source with different knobs
  reruns only the passes those knobs feed.

Cache-soundness rules:

* a fingerprint (source hash) is attached — in an identity-keyed side
  table, *not* on the node — only to trees owned by the parse cache, which
  are immutable by the long-standing invariant that transforms clone
  before editing.  ``clone_tree`` (deepcopy) products are new objects with
  no side-table entry, so a cloned-then-mutated tree (check insertion
  mutates its clone between two compiles) can never hit a stale analysis;
* rewrite passes return freshly cloned, caller-mutable trees, so their
  results are never cached.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.toolchain import ToolchainContext, default_context

__all__ = ["PassInfo", "PassManager", "all_passes", "pass_names"]


@dataclass(frozen=True)
class PassInfo:
    """Registry entry: one named pass."""

    name: str
    kind: str          # "frontend" | "analysis" | "codegen" | "rewrite"
    description: str


# Pipeline passes in execution order, then the rewrite passes.
_REGISTRY: Dict[str, PassInfo] = {}


def _register(name: str, kind: str, description: str) -> None:
    _REGISTRY[name] = PassInfo(name, kind, description)


_register("parse", "frontend", "source text -> AST")
_register("validate", "frontend", "directive legality checks")
_register("regions", "analysis", "compute/data region extraction")
_register("symbols", "analysis", "declared-name/type table")
_register("alias", "analysis", "conservative may-alias analysis")
_register("kernelgen", "codegen", "compute region -> KernelPlan")
_register("memgen", "codegen", "region entry/exit memory actions")
_register("demotion", "rewrite", "§III-A memory-transfer demotion")
_register("resultcomp", "rewrite", "§III-A result-comparison insertion")
_register("checkinsert", "rewrite", "§III-B coherence-check insertion")
_register("fault.drop_private", "rewrite", "drop private/firstprivate clauses")
_register("fault.drop_reduction", "rewrite", "drop reduction clauses")
_register("fault.strip_data", "rewrite", "strip manual memory management")
_register("fault.strip_acc", "rewrite", "strip every acc directive")


def all_passes() -> List[PassInfo]:
    return list(_REGISTRY.values())


def pass_names() -> List[str]:
    return list(_REGISTRY)


def _rewrite_fn(name: str) -> Callable:
    """Implementation lookup for a rewrite pass (imported lazily: the
    transform modules import driver, which imports this module)."""
    if name == "demotion":
        from repro.compiler.demotion import demote_for_verification

        return demote_for_verification
    if name == "resultcomp":
        from repro.compiler.resultcomp import insert_result_comparison

        return insert_result_comparison
    if name == "checkinsert":
        from repro.compiler.checkinsert import instrument_for_memverify

        return instrument_for_memverify
    from repro.compiler import faults

    return {
        "fault.drop_private": faults.drop_private_clauses,
        "fault.drop_reduction": faults.drop_reduction_clauses,
        "fault.strip_data": faults.strip_data_management,
        "fault.strip_acc": faults.strip_all_acc,
    }[name]


class _Frame:
    __slots__ = ("start", "child_seconds")

    def __init__(self, start: float):
        self.start = start
        self.child_seconds = 0.0


def _source_fingerprint(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def _options_key(options) -> Tuple:
    return tuple(sorted(options.__dict__.items()))


class PassManager:
    """Runs registered passes against one :class:`ToolchainContext`."""

    def __init__(self, ctx: Optional[ToolchainContext] = None):
        self.ctx = ctx or default_context()
        # Pass frames for self-time accounting (nested pass time is
        # charged to the nested pass, not its caller).
        self._stack: List[_Frame] = []
        self._entry_depth = 0
        # AST -> fingerprint, identity-keyed and weak: only parse-cache
        # trees appear here; clones (deepcopy) never do.  The table lives on
        # the cache registry so contexts sharing a registry (daemon request
        # contexts) share fingerprint knowledge along with the parse cache.
        self._fingerprints = self.ctx.caches.fingerprints

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def compile_source(self, source: str, options=None):
        """Parse and compile source text (pipeline-cached)."""
        from repro.compiler.driver import CompilerOptions

        options = options or CompilerOptions()
        start = time.perf_counter()
        self._entry_depth += 1
        try:
            with self.ctx.tracer.span("compile", category="compiler",
                                      source_bytes=len(source)) as sp:
                fingerprint = _source_fingerprint(source)
                cache = self.ctx.caches.get("compile")
                key = (fingerprint, _options_key(options))
                cached = cache.get(key)
                self.ctx.pass_stats.record_cache("pipeline", cached is not None)
                sp.set_attr("cache", "hit" if cached is not None else "miss")
                if cached is not None:
                    return cached
                program = self._parse(source, fingerprint)
                compiled = self._pipeline(program, options, fingerprint)
                cache.put(key, compiled)
                return compiled
        finally:
            self._leave_entry(start)

    def compile_ast(self, program, options=None):
        """Run the pipeline over an already-parsed (possibly transformed)
        AST.  Analysis caching applies only when the tree is a known
        parse-cache resident (see module docstring)."""
        start = time.perf_counter()
        self._entry_depth += 1
        try:
            return self._pipeline(
                program, options, self._fingerprints.get(program)
            )
        finally:
            self._leave_entry(start)

    def rewrite(self, name: str, *args, **kwargs):
        """Run a registered rewrite pass (demotion, resultcomp,
        checkinsert, fault.*) with timing and dump support."""
        info = _REGISTRY.get(name)
        if info is None or info.kind != "rewrite":
            raise KeyError(f"unknown rewrite pass {name!r}")
        fn = _rewrite_fn(name)
        start = time.perf_counter()
        self._entry_depth += 1
        try:
            result = self._run_pass(name, lambda: fn(*args, **kwargs))
            self._maybe_dump(name, result)
            return result
        finally:
            self._leave_entry(start)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def _parse(self, source: str, fingerprint: str):
        """Parse pass, cached by source hash so equal sources compiled
        under different options share one (immutable) tree."""
        from repro.lang.parser import parse_program

        cache = self.ctx.caches.get("parse")
        program = cache.get(fingerprint)
        self.ctx.pass_stats.record_cache("parse", program is not None)
        if program is not None:
            self.ctx.tracer.event("pass.cache_hit", name="parse")
        if program is None:
            program = self._run_pass("parse", lambda: parse_program(source))
            cache.put(fingerprint, program)
            self._fingerprints[program] = fingerprint
        self._maybe_dump("parse", program)
        return program

    def _pipeline(self, program, options, fingerprint: Optional[str]):
        from repro.acc.regions import collect_regions
        from repro.acc.validate import declared_names, validate_program
        from repro.compiler.driver import CompiledProgram, CompilerOptions
        from repro.compiler.kernelgen import generate_kernel
        from repro.compiler.memgen import plan_compute_region, plan_data_region
        from repro.errors import CompileError
        from repro.ir.alias import analyze_aliases

        options = options or CompilerOptions()
        try:
            main = program.func(options.main_function)
        except KeyError:
            raise CompileError(
                f"program has no '{options.main_function}' function"
            )

        if options.strict_validation:
            self._analysis_pass(
                "validate", fingerprint, (options.main_function,),
                lambda: (validate_program(program).raise_if_errors(), True)[1],
            )

        regions = self._analysis_pass(
            "regions", fingerprint, (options.main_function,),
            lambda: collect_regions(main),
        )
        symbols = self._analysis_pass(
            "symbols", fingerprint, (options.main_function,),
            lambda: declared_names(main, program),
        )
        aliases = self._analysis_pass(
            "alias", fingerprint, (options.main_function,),
            lambda: analyze_aliases(program, main),
        )
        compiled = CompiledProgram(
            program, options, regions=regions, symbols=symbols, aliases=aliases
        )

        def _kernelgen():
            kernels = {}
            warnings: List[str] = []
            for region in regions.compute:
                plan = generate_kernel(
                    region,
                    symbols,
                    auto_privatize=options.auto_privatize,
                    auto_reduction=options.auto_reduction,
                )
                kernels[region.name] = plan
                warnings.extend(plan.warnings)
            return kernels, tuple(warnings)

        kernels, warnings = self._analysis_pass(
            "kernelgen", fingerprint,
            (options.main_function, options.auto_privatize, options.auto_reduction),
            _kernelgen,
        )
        compiled.kernels.update(kernels)
        compiled.warnings.extend(warnings)

        def _memgen():
            # Variables with an unstructured device lifetime (`enter
            # data`) opt out of the naive default scheme like data-region
            # coverage does.
            unstructured = set()
            for node in main.body.walk():
                for directive in getattr(node, "pragmas", []):
                    if directive.namespace == "acc" and directive.name == "enter data":
                        for _, var in directive.data_clause_vars():
                            unstructured.add(var)
            kernel_mem = {
                name: plan_compute_region(
                    region, kernels[name],
                    default_data_management=options.default_data_management,
                    unstructured_covered=unstructured,
                )
                for name, region in ((r.name, r) for r in regions.compute)
            }
            data_mem = {
                id(r.directive): plan_data_region(
                    r.directive, region_label=f"data@{r.directive.line}"
                )
                for r in regions.data
            }
            return kernel_mem, data_mem

        kernel_mem, data_mem = self._analysis_pass(
            "memgen", fingerprint,
            (options.main_function, options.auto_privatize,
             options.auto_reduction, options.default_data_management),
            _memgen,
        )
        compiled.kernel_mem.update(kernel_mem)
        compiled.data_mem.update(data_mem)
        return compiled

    # ------------------------------------------------------------------
    # Pass execution plumbing
    # ------------------------------------------------------------------
    def _analysis_pass(self, name: str, fingerprint: Optional[str],
                       config_key: Tuple, thunk: Callable):
        """Run (or fetch) one pipeline pass.  Cached only for fingerprinted
        (parse-cache-resident, therefore immutable) trees."""
        if fingerprint is None:
            result = self._run_pass(name, thunk)
        else:
            cache = self.ctx.caches.get("passes")
            key = (fingerprint, name, config_key)
            result = cache.get(key)
            self.ctx.pass_stats.record_cache(name, result is not None)
            if result is None:
                result = self._run_pass(name, thunk)
                cache.put(key, result)
            else:
                self.ctx.tracer.event("pass.cache_hit", name=name)
        self._maybe_dump(name, result)
        return result

    def _run_pass(self, name: str, thunk: Callable):
        frame = _Frame(time.perf_counter())
        self._stack.append(frame)
        try:
            with self.ctx.tracer.span(f"pass.{name}", category="compiler"):
                return thunk()
        finally:
            self._stack.pop()
            elapsed = time.perf_counter() - frame.start
            self.ctx.pass_stats.record(name, max(0.0, elapsed - frame.child_seconds))
            if self._stack:
                self._stack[-1].child_seconds += elapsed

    def _leave_entry(self, start: float) -> None:
        self._entry_depth -= 1
        if self._entry_depth == 0:
            self.ctx.pass_stats.record_total(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # --dump-after support
    # ------------------------------------------------------------------
    def _maybe_dump(self, name: str, result) -> None:
        if self.ctx.dump_after != name:
            return
        print(f"=== after pass '{name}' ===\n"
              f"{describe_pass_output(name, result)}", file=self.ctx.out)

    def describe(self, name: str, result) -> str:
        return describe_pass_output(name, result)


def describe_pass_output(name: str, result) -> str:
    """Human-readable dump of one pass's output: printed source for
    tree-shaped results, a plan/summary rendering otherwise."""
    from repro.lang import ast

    if name == "validate":
        return "(validation passed)"
    if name == "regions":
        lines = [
            f"compute {r.name} @ line {r.directive.line}" for r in result.compute
        ] + [
            f"data    @ line {r.directive.line}" for r in result.data
        ]
        return "\n".join(lines) or "(no regions)"
    if name == "symbols":
        return "\n".join(f"{n}: {t}" for n, t in sorted(result.items()))
    if name == "alias":
        return repr(result)
    if name == "kernelgen":
        kernels, warnings = result
        lines = [summarize_kernel(name_, plan) for name_, plan in kernels.items()]
        lines.extend(f"warning: {w}" for w in warnings)
        return "\n".join(lines) or "(no kernels)"
    if name == "memgen":
        kernel_mem, data_mem = result
        lines = []
        for kname, plan in kernel_mem.items():
            ins = [a.var for a in plan.entries if a.copyin]
            outs = [a.var for a in plan.exits if a.copyout]
            lines.append(f"{kname}: copyin={ins} copyout={outs}")
        lines.extend(
            f"data region: {len(plan.entries)} entry / {len(plan.exits)} exit actions"
            for plan in data_mem.values()
        )
        return "\n".join(lines) or "(no memory plans)"
    if name == "checkinsert":
        return result.compiled.to_source()
    if isinstance(result, ast.Node):
        from repro.lang.printer import to_source

        return to_source(result)
    return repr(result)


def summarize_kernel(name: str, plan) -> str:
    """One-line kernel summary (shared by ``repro compile`` and
    ``--dump-after=kernelgen``)."""
    bits = [f"arrays={plan.arrays}", f"scalars={plan.scalars}"]
    if plan.private_decls:
        bits.append(f"private={sorted(plan.private_decls)}")
    if plan.firstprivate:
        bits.append(f"firstprivate={plan.firstprivate}")
    if plan.reductions:
        bits.append(f"reduction={[(v, op) for v, op, _ in plan.reductions]}")
    if plan.cached_vars or plan.split_vars:
        bits.append(f"RACY shared={plan.cached_vars + plan.split_vars}")
    return f"{name}: {' '.join(bits)}"
