"""Host interpreter.

Executes the host portion of a compiled program, dispatching OpenACC
constructs to the runtime:

* ``data`` regions run their memory plans around the wrapped statement;
* compute regions run their :class:`KernelPlan` on the simulated device
  (the region's statements never execute on the host unless OpenACC is
  disabled — the sequential reference mode);
* ``update``/``wait`` carriers hit the runtime directly;
* instrumentation calls inserted by the check-insertion pass
  (``__check_read`` etc.) route to the coherence tracker;
* verification markers (``__verify_*``) route to the attached
  :class:`VerifySession` hooks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.compiler.driver import CompiledProgram, compile_ast
from repro.compiler.kernelgen import KernelPlan
from repro.device.engine import Schedule
from repro.device.reduction import combine
from repro.errors import (
    ChaosFault,
    InterpError,
    WatchdogTimeout,
)
from repro.interp.values import HostEnv
from repro.lang import ast, semantics
from repro.runtime.accrt import AccRuntime
from repro.runtime.profiler import CTR_LAUNCH_DEGRADED


class VerifySession:
    """Hook interface the kernel-verification harness implements."""

    def begin(self, kernel: str) -> None:  # pragma: no cover - interface
        pass

    def redirect(self, kernel: str, var: str, host: np.ndarray) -> np.ndarray:
        return host  # pragma: no cover - interface

    def redirect_scalar(self, kernel: str, var: str, value) -> None:
        pass  # pragma: no cover - interface

    def compare(self, kernel: str, var: str) -> None:  # pragma: no cover
        pass

    def end(self, kernel: str) -> None:  # pragma: no cover - interface
        pass


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


# Flush CPU-step accounting to the profiler in batches of this many.
_FLUSH_EVERY = 4096


class Interp:
    """One program execution."""

    def __init__(
        self,
        compiled: CompiledProgram,
        runtime: Optional[AccRuntime] = None,
        params: Optional[Dict[str, object]] = None,
        acc_enabled: bool = True,
        schedule: Optional[Schedule] = None,
        verify: Optional[VerifySession] = None,
        ctx=None,
    ):
        self.compiled = compiled
        self.ctx = ctx
        self.runtime = runtime or AccRuntime(ctx=ctx)
        self.params = dict(params or {})
        self.acc_enabled = acc_enabled
        self.schedule = schedule
        self.verify = verify
        self.env = HostEnv(self.params, call_handler=self._handle_call)
        self._cpu_steps = 0
        self._verify_kernel: Optional[str] = None
        # Phase-sampled execution: attach a sampler when the context asks
        # for one.  ``None`` (the default) leaves every loop untouched.
        self.sampler = None
        sampling = getattr(ctx, "sampling", None) if ctx is not None else None
        if sampling is not None:
            from repro.errors import SamplingConflictError
            from repro.sampling import PhaseSampler

            if self.runtime.chaos is not None:
                raise SamplingConflictError(
                    "phase sampling cannot run under chaos fault injection: "
                    "skipped iterations would starve the stochastic draw "
                    "sequence")
            if getattr(self.runtime.device.config, "delta_transfers", False):
                raise SamplingConflictError(
                    "phase sampling cannot run with delta transfers: "
                    "skipped kernel launches leave the dirty-interval map "
                    "(and host data) behind the modeled execution, so "
                    "delta-planned byte counts would diverge")
            self.sampler = PhaseSampler(sampling, self.runtime)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> HostEnv:
        for decl in self.compiled.program.decls:
            value = semantics.evaluate(decl.init, self.env) if decl.init is not None else None
            self.env.declare(decl.name, decl.ctype, value)
        try:
            self.exec_stmt(self.compiled.main.body)
        except _Return:
            pass
        self._flush_cpu()
        return self.env

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def exec_stmt(self, stmt: ast.Stmt) -> None:
        if self.acc_enabled and stmt.pragmas:
            acc = [p for p in stmt.pragmas if p.namespace == "acc"]
            if acc:
                self._exec_with_pragmas(stmt, acc)
                return
        self._exec_plain(stmt)

    def _exec_with_pragmas(self, stmt: ast.Stmt, pragmas: List) -> None:
        if not pragmas:
            self._exec_plain(stmt)
            return
        directive, rest = pragmas[0], pragmas[1:]
        if not self._if_clause_true(directive):
            # OpenACC `if(cond)` false: the construct's device behaviour is
            # suppressed — data regions move nothing, compute regions run
            # sequentially on the host.
            if directive.is_compute:
                self._exec_plain(stmt)
            else:
                self._exec_with_pragmas(stmt, rest)
            return
        if directive.is_data:
            self._exec_data_region(stmt, directive, rest)
        elif directive.is_compute:
            self._exec_kernel(stmt)
        elif directive.name == "update":
            self._exec_update(directive)
            self._exec_with_pragmas(stmt, rest)
        elif directive.name in ("enter data", "exit data"):
            self._exec_unstructured_data(directive)
            self._exec_with_pragmas(stmt, rest)
        elif directive.name == "wait":
            self._flush_cpu()
            clause = directive.clause("wait")
            queue = int(semantics.evaluate(clause.args[0], self.env)) if clause else None
            self.runtime.wait(queue)
            self._exec_with_pragmas(stmt, rest)
        else:
            # declare/cache/host_data: no runtime behaviour in this model.
            self._exec_with_pragmas(stmt, rest)

    def _exec_plain(self, stmt: ast.Stmt) -> None:
        kind = type(stmt)
        if kind is ast.Block:
            self.env.push_scope()
            try:
                for inner in stmt.body:
                    self.exec_stmt(inner)
            finally:
                self.env.pop_scope()
        elif kind in (ast.Assign, ast.ExprStmt, ast.VarDecl):
            semantics.exec_simple(stmt, self.env)
            self._tick()
        elif kind is ast.If:
            self._tick()
            if semantics.evaluate(stmt.cond, self.env):
                self.exec_stmt(stmt.then)
            elif stmt.orelse is not None:
                self.exec_stmt(stmt.orelse)
        elif kind is ast.For:
            self._exec_for(stmt)
        elif kind is ast.While:
            self._exec_while(stmt)
        elif kind is ast.Return:
            value = semantics.evaluate(stmt.value, self.env) if stmt.value is not None else None
            raise _Return(value)
        elif kind is ast.Break:
            raise _Break()
        elif kind is ast.Continue:
            raise _Continue()
        else:
            raise InterpError(f"cannot execute {kind.__name__}")

    def _exec_for(self, stmt: ast.For) -> None:
        self.env.push_scope()
        tracker = self.runtime.coherence
        loop_var = None
        ctl = None
        try:
            if stmt.init is not None:
                semantics_stmt = stmt.init
                if isinstance(semantics_stmt, (ast.Assign, ast.VarDecl, ast.ExprStmt)):
                    semantics.exec_simple(semantics_stmt, self.env)
                    self._tick()
                else:
                    self._exec_plain(semantics_stmt)
                loop_var = _loop_var_name(stmt)
            if tracker is not None and loop_var is not None:
                tracker.push_context(loop_var, 0)
            # Phase sampling: counted loops get a controller that records
            # one phase per iteration and, once stable, extrapolates the
            # remaining trips instead of executing them.
            if self.sampler is not None:
                ctl = self.sampler.controller_for(
                    stmt, loop_var, semantics.compile_expr)
                if ctl is not None:
                    ctl.enter()
            # Hoist the per-iteration closures out of the hot loop (one
            # cache lookup per loop instead of one per iteration).
            env = self.env
            cond_fn = semantics.compile_expr(stmt.cond) if stmt.cond is not None else None
            step_fn = semantics.compile_stmt(stmt.step) if stmt.step is not None else None
            iteration = 0
            while True:
                self._tick()
                if cond_fn is not None and not cond_fn(env):
                    break
                if ctl is not None:
                    # Iteration boundary: flush CPU accounting so the phase
                    # just finished owns its ticks, close it, and either
                    # extrapolate the rest of the loop or open the next
                    # phase.  The trailing tick + failed condition of a
                    # full run belongs to its last phase, so after
                    # extrapolating we leave the loop directly.
                    self._flush_cpu()
                    ctl.finish_phase()
                    if ctl.should_skip():
                        n_rem = ctl.remaining(env)
                        if n_rem is not None and n_rem > 0:
                            ctl.charge_skip(n_rem)
                            ctl.fast_forward(env, n_rem)
                            break
                    ctl.open_phase()
                if tracker is not None and loop_var is not None:
                    tracker.set_context_iteration(iteration)
                try:
                    self.exec_stmt(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if step_fn is not None:
                    step_fn(env)
                    self._tick()
                iteration += 1
        finally:
            if ctl is not None:
                self._flush_cpu()
                ctl.exit()
            if tracker is not None and loop_var is not None:
                tracker.pop_context()
            self.env.pop_scope()

    def _exec_while(self, stmt: ast.While) -> None:
        cond_fn = semantics.compile_expr(stmt.cond)
        while True:
            self._tick()
            if not cond_fn(self.env):
                break
            try:
                self.exec_stmt(stmt.body)
            except _Break:
                break
            except _Continue:
                continue

    # ------------------------------------------------------------------
    # OpenACC constructs
    # ------------------------------------------------------------------
    def _if_clause_true(self, directive) -> bool:
        clause = directive.clause("if") if directive.namespace == "acc" else None
        if clause is None or not clause.args:
            return True
        return bool(semantics.evaluate(clause.args[0], self.env))

    def _exec_data_region(self, stmt: ast.Stmt, directive, rest: List) -> None:
        plan = self.compiled.data_mem.get(id(directive))
        if plan is None:
            from repro.compiler.memgen import plan_data_region

            plan = plan_data_region(directive, region_label=f"data@{directive.line}")
        self._flush_cpu()
        for action in plan.entries:
            cname = self.env.canonical_name(action.var)
            self.runtime.data_enter(cname, self.env.array(action.var),
                                    copyin=action.copyin, site=action.site)
        self._exec_with_pragmas(stmt, rest)
        self._flush_cpu()
        for action in plan.exits:
            cname = self.env.canonical_name(action.var)
            self.runtime.data_exit(cname, self.env.array(action.var),
                                   copyout=action.copyout, site=action.site)

    def _exec_unstructured_data(self, directive) -> None:
        """OpenACC 2.0 unstructured data lifetimes (`enter data`/`exit data`).

        `enter data` acquires a device-lifetime reference (allocating and
        optionally copying in); `exit data` optionally copies out and
        releases it (`delete` releases without a transfer)."""
        from repro.acc.directives import CLAUSE_COPIES_IN, CLAUSE_COPIES_OUT, DATA_CLAUSES

        self._flush_cpu()
        site = f"{directive.name.replace(' ', '')}@{directive.line}"
        entering = directive.name == "enter data"
        for clause in directive.clauses:
            if clause.name not in DATA_CLAUSES:
                continue
            for var in clause.var_names():
                cname = self.env.canonical_name(var)
                host = self.env.array(var)
                if entering:
                    self.runtime.data_enter(
                        cname, host,
                        copyin=clause.name in CLAUSE_COPIES_IN,
                        site=f"{site}.enter({var})",
                    )
                else:
                    self.runtime.data_exit(
                        cname, host,
                        copyout=clause.name in CLAUSE_COPIES_OUT,
                        site=f"{site}.exit({var})",
                    )

    def _exec_update(self, directive) -> None:
        self._flush_cpu()
        point = next(
            (p for p in self.compiled.regions.updates if p.directive is directive), None
        )
        label = point.name if point is not None else f"update@{directive.line}"
        async_clause = directive.clause("async")
        queue = None
        if async_clause is not None:
            queue = (
                int(semantics.evaluate(async_clause.args[0], self.env))
                if async_clause.args
                else 0
            )
        from repro.acc.directives import VarRef

        def section_of(ref) -> object:
            if not isinstance(ref, VarRef) or ref.section is None:
                return None
            start = int(semantics.evaluate(ref.section[0], self.env))
            length = int(semantics.evaluate(ref.section[1], self.env))
            return (start, length)

        for clause in directive.clauses_named("host", "self"):
            for ref in clause.args:
                if not isinstance(ref, VarRef):
                    continue
                cname = self.env.canonical_name(ref.name)
                self.runtime.update_host(
                    cname, self.env.array(ref.name),
                    queue=queue, site=label, section=section_of(ref),
                )
        for clause in directive.clauses_named("device"):
            for ref in clause.args:
                if not isinstance(ref, VarRef):
                    continue
                cname = self.env.canonical_name(ref.name)
                self.runtime.update_device(
                    cname, self.env.array(ref.name),
                    queue=queue, site=label, section=section_of(ref),
                )

    def _launch_resilient(self, spec, queue):
        """Kernel launch with graceful backend degradation.

        Ladder: vectorized fast path -> interleaved stepper -> sequential
        schedule on the stepper.  Only non-transient chaos faults degrade
        (accrt already retried transient ones, and a chaos fault is raised
        before any device state moved, so re-launching is safe).  A watchdog
        timeout always propagates: an infinite loop is infinite on every
        backend.
        """
        try:
            return self.runtime.launch(spec, queue=queue, schedule=self.schedule)
        except WatchdogTimeout:
            raise
        except ChaosFault:
            pass
        self.runtime.profiler.count(CTR_LAUNCH_DEGRADED)
        self.runtime.tracer.event("launch.degraded", kernel=spec.name,
                                  to="interleaved")
        try:
            return self.runtime.launch(spec, queue=queue, schedule=self.schedule,
                                       backend="interleaved")
        except WatchdogTimeout:
            raise
        except ChaosFault:
            pass
        self.runtime.profiler.count(CTR_LAUNCH_DEGRADED)
        self.runtime.tracer.event("launch.degraded", kernel=spec.name,
                                  to="interleaved-sequential")
        return self.runtime.launch(spec, queue=queue,
                                   schedule=Schedule.sequential(),
                                   backend="interleaved")

    def _exec_kernel(self, stmt: ast.Stmt) -> None:
        plan = self.compiled.kernel_for_stmt(stmt)
        if plan is None:
            raise InterpError("compute region has no kernel plan (recompile needed)")
        memplan = self.compiled.kernel_mem[plan.name]
        self._flush_cpu()
        env = self.env
        queue = (
            int(semantics.evaluate(plan.async_queue, env))
            if plan.async_queue is not None
            else None
        )

        for action in memplan.entries:
            cname = env.canonical_name(action.var)
            self.runtime.data_enter(cname, env.array(action.var),
                                    copyin=action.copyin, site=action.site, queue=queue)

        spec = self._build_launch_spec(plan)
        result = self._launch_resilient(spec, queue)

        verifying = self._verify_kernel is not None and self.verify is not None
        for var, op, _dtype in plan.reductions:
            current = env.load(var)
            merged = combine(op, current, result.reductions[var])
            if verifying:
                # The sequential reference runs next and must start from the
                # untouched host value; the GPU result goes to temp space.
                self.verify.redirect_scalar(self._verify_kernel, var, merged)
            else:
                env.store(var, merged)
            self.runtime.note_reduction(env.canonical_name(var), site=plan.name)
        for var in plan.split_vars:
            if var in result.shared_final:
                if verifying:
                    self.verify.redirect_scalar(
                        self._verify_kernel, var, result.shared_final[var]
                    )
                else:
                    env.store(var, result.shared_final[var])
        for var in plan.cached_vars:
            # Register-cached falsely-shared scalars: the dump-back value is
            # schedule-dependent, and — matching the paper's latent-error
            # account — it is *not* part of the kernel's compared outputs.
            if var in result.shared_final and not verifying:
                env.store(var, result.shared_final[var])

        for action in memplan.exits:
            cname = env.canonical_name(action.var)
            host_target = env.array(action.var)
            if self._verify_kernel is not None and action.copyout and self.verify is not None:
                host_target = self.verify.redirect(self._verify_kernel, cname, host_target)
            self.runtime.data_exit(cname, host_target,
                                   copyout=action.copyout, site=action.site, queue=queue)

    def _build_launch_spec(self, plan: KernelPlan):
        from repro.device.engine import IndexSpace, LaunchSpec

        env = self.env

        def ev(expr):
            return semantics.evaluate(expr, env)

        threads = IndexSpace([loop.iteration_values(ev) for loop in plan.loops])
        arrays = {}
        array_names = {}
        for var in plan.arrays:
            cname = env.canonical_name(var)
            arrays[var] = self.runtime.device_array(cname)
            array_names[var] = cname
        scalars = {name: env.load(name) for name in plan.scalars}
        for var in plan.split_vars:
            scalars[var] = _safe_load(env, var)
        cached = {var: _safe_load(env, var) for var in plan.cached_vars}
        firstprivate = {var: env.load(var) for var in plan.firstprivate}
        return LaunchSpec(
            name=plan.name,
            instrs=plan.instrs,
            index_vars=plan.index_vars,
            threads=threads,
            arrays=arrays,
            scalars=scalars,
            private_decls=plan.private_decls,
            firstprivate=firstprivate,
            cached_vars=cached,
            shared_writable=set(plan.split_vars) | set(plan.cached_vars),
            reductions=plan.reductions,
            array_names=array_names,
        )

    # ------------------------------------------------------------------
    # Intercepted calls
    # ------------------------------------------------------------------
    def _handle_call(self, func: str, args):
        if not func.startswith("__"):
            user = self._user_function(func)
            if user is not None:
                return True, self._call_user_function(user, args)
            return False, None
        runtime = self.runtime
        if func == "__check_read":
            var, side, site = args[0], args[1], args[2]
            runtime.check_read(self.env.canonical_name(var), side, site=site)
        elif func == "__check_write":
            var, side, site = args[0], args[1], args[2]
            full = len(args) > 3 and args[3] == "full"
            runtime.check_write(self.env.canonical_name(var), side, site=site, full=full)
        elif func == "__reset_status":
            var, side, status, site = args[0], args[1], args[2], args[3]
            runtime.reset_status(self.env.canonical_name(var), side, status, site=site)
        elif func == "__pin_after_alloc":
            var, side, status, site = args[0], args[1], args[2], args[3]
            runtime.pin_after_alloc(self.env.canonical_name(var), side, status, site=site)
        elif func == "__verify_begin":
            self._verify_kernel = args[0]
            if self.verify is not None:
                self.verify.begin(args[0])
        elif func == "__verify_compare":
            if self.verify is not None:
                self.verify.compare(args[0], args[1])
        elif func == "__verify_end":
            if self.verify is not None:
                self.verify.end(args[0])
            self._verify_kernel = None
        else:
            raise InterpError(f"unknown intrinsic {func!r}")
        return True, 0

    def _user_function(self, name: str):
        for func in self.compiled.program.funcs:
            if func.name == name:
                return func
        return None

    def _call_user_function(self, func: ast.FuncDef, args):
        if len(args) != len(func.params):
            raise InterpError(
                f"{func.name}() takes {len(func.params)} arguments, got {len(args)}"
            )
        self.env.push_scope()
        try:
            for param, value in zip(func.params, args):
                if isinstance(value, np.ndarray):
                    self.env.scopes[-1][param.name] = value
                else:
                    self.env.declare(param.name, param.ctype, value)
            try:
                self._exec_plain(func.body)
            except _Return as ret:
                return ret.value
            return None
        finally:
            self.env.pop_scope()

    # ------------------------------------------------------------------
    # CPU-step accounting
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._cpu_steps += 1
        if self._cpu_steps >= _FLUSH_EVERY:
            self._flush_cpu()

    def _flush_cpu(self) -> None:
        if self._cpu_steps:
            self.runtime.charge_cpu(self._cpu_steps)
            self._cpu_steps = 0


def _loop_var_name(stmt: ast.For) -> Optional[str]:
    if isinstance(stmt.init, ast.VarDecl):
        return stmt.init.name
    if isinstance(stmt.init, ast.Assign):
        return ast.base_name(stmt.init.target)
    return None


def _safe_load(env: HostEnv, name: str):
    try:
        return env.load(name)
    except InterpError:
        return 0


def run_compiled(
    compiled: CompiledProgram,
    params: Optional[Dict[str, object]] = None,
    runtime: Optional[AccRuntime] = None,
    schedule: Optional[Schedule] = None,
    acc_enabled: bool = True,
    verify: Optional[VerifySession] = None,
    ctx=None,
) -> Interp:
    """Run a compiled program; returns the interpreter (env + runtime)."""
    interp = Interp(
        compiled,
        runtime=runtime,
        params=params,
        acc_enabled=acc_enabled,
        schedule=schedule,
        verify=verify,
        ctx=ctx,
    )
    interp.run()
    return interp


def run_sequential(
    compiled: CompiledProgram,
    params: Optional[Dict[str, object]] = None,
    ctx=None,
) -> Interp:
    """Run the sequential reference version (all acc directives stripped)."""
    from repro.toolchain import default_context

    ctx = ctx or default_context()
    stripped = compile_ast(
        ctx.passes.rewrite("fault.strip_acc", compiled.program),
        compiled.options.copy(strict_validation=False),
        ctx=ctx,
    )
    return run_compiled(stripped, params=params, acc_enabled=False, ctx=ctx)
