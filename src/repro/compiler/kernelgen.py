"""Kernel generation: compute region -> executable kernel plan.

Decides the partitioned iteration space, classifies every scalar the body
touches (local / private / firstprivate / reduction / falsely-shared), and
lowers the body to device bytecode.  The classification encodes the paper's
translation-bug taxonomy:

* a privatizable scalar with auto-privatization disabled and no ``private``
  clause becomes a *cached* shared scalar (register + dump-back → latent
  race);
* a reduction-shaped scalar with recognition disabled and no ``reduction``
  clause becomes a *split* shared scalar (read-modify-write in two
  instructions → active race).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.acc.directives import Directive
from repro.acc.regions import ComputeRegion
from repro.compiler.privatize import privatizable_scalars, written_scalars
from repro.compiler.reduction import recognize_reductions
from repro.device.compile import compile_body
from repro.errors import CompileError
from repro.ir.defuse import region_access
from repro.lang import ast
from repro.lang.ctypes import Array, CType, Pointer, Scalar


class PartitionedLoop:
    """One partitioned loop level: ``for (var = init; var OP bound; var += step)``."""

    __slots__ = ("var", "init", "cond_op", "bound", "step")

    def __init__(self, var: str, init: ast.Expr, cond_op: str, bound: ast.Expr, step: int):
        self.var = var
        self.init = init
        self.cond_op = cond_op
        self.bound = bound
        self.step = step

    def iteration_values(self, evaluate) -> range:
        """Resolve to a concrete ``range``; ``evaluate(expr) -> int``.

        Always a ``range`` (never a list): the launch's
        :class:`~repro.device.engine.IndexSpace` builds lane registers from
        its ``start``/``step``/``len`` without enumerating it."""
        start = int(evaluate(self.init))
        bound = int(evaluate(self.bound))
        step = self.step
        if self.cond_op in ("<", ">"):
            return range(start, bound, step)
        if self.cond_op == "<=":
            return range(start, bound + 1, step)
        if self.cond_op == ">=":
            return range(start, bound - 1, step)
        raise CompileError(f"bad loop condition operator {self.cond_op!r}")

    def __repr__(self):
        return f"PartitionedLoop({self.var})"


class KernelPlan:
    """Everything needed to launch one translated kernel."""

    def __init__(self, name: str, region: ComputeRegion):
        self.name = name
        self.region = region
        self.loops: List[PartitionedLoop] = []
        self.body: List[ast.Stmt] = []
        self.instrs = []
        self.private_decls: Dict[str, object] = {}   # name -> numpy dtype|None
        self.firstprivate: List[str] = []
        self.cached_vars: List[str] = []
        self.split_vars: List[str] = []
        self.reductions: List[Tuple[str, str, object]] = []  # (var, op, dtype)
        self.arrays: List[str] = []
        self.scalars: List[str] = []
        self.async_queue: Optional[ast.Expr] = None   # None = synchronous
        self.warnings: List[str] = []

    @property
    def index_vars(self) -> Tuple[str, ...]:
        return tuple(l.var for l in self.loops)

    @property
    def written_arrays(self) -> List[str]:
        acc = region_access(self.region.stmt)
        return [a for a in self.arrays if a in acc.defs]

    @property
    def read_arrays(self) -> List[str]:
        acc = region_access(self.region.stmt)
        return [a for a in self.arrays if a in acc.use]

    def __repr__(self):
        return f"KernelPlan({self.name}, loops={[l.var for l in self.loops]})"


def canonicalize_loop(loop: ast.For) -> PartitionedLoop:
    """Extract the canonical form of a partitionable loop."""
    # init
    if isinstance(loop.init, ast.VarDecl) and loop.init.init is not None:
        var, init = loop.init.name, loop.init.init
    elif isinstance(loop.init, ast.Assign) and isinstance(loop.init.target, ast.Name) and not loop.init.op:
        var, init = loop.init.target.id, loop.init.value
    else:
        raise CompileError(f"line {loop.line}: cannot canonicalize loop init")
    # cond
    cond = loop.cond
    if not (isinstance(cond, ast.Binary) and cond.op in ("<", "<=", ">", ">=")):
        raise CompileError(f"line {loop.line}: cannot canonicalize loop condition")
    if isinstance(cond.left, ast.Name) and cond.left.id == var:
        cond_op, bound = cond.op, cond.right
    elif isinstance(cond.right, ast.Name) and cond.right.id == var:
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        cond_op, bound = flip[cond.op], cond.left
    else:
        raise CompileError(f"line {loop.line}: loop condition does not test the index")
    # step
    step = _canonical_step(loop.step, var, loop.line)
    if (step > 0) != (cond_op in ("<", "<=")):
        raise CompileError(f"line {loop.line}: loop step direction conflicts with condition")
    return PartitionedLoop(var, init, cond_op, bound, step)


def _canonical_step(step: Optional[ast.Stmt], var: str, line: int) -> int:
    if isinstance(step, ast.ExprStmt) and isinstance(step.expr, ast.Unary):
        unary = step.expr
        if ast.base_name(unary.operand) == var:
            if unary.op in ("++", "p++"):
                return 1
            if unary.op in ("--", "p--"):
                return -1
    if isinstance(step, ast.Assign) and isinstance(step.target, ast.Name) and step.target.id == var:
        if step.op in ("+", "-") and isinstance(step.value, ast.IntLit):
            return step.value.value if step.op == "+" else -step.value.value
        value = step.value
        if (
            not step.op
            and isinstance(value, ast.Binary)
            and value.op in ("+", "-")
            and isinstance(value.left, ast.Name)
            and value.left.id == var
            and isinstance(value.right, ast.IntLit)
        ):
            return value.right.value if value.op == "+" else -value.right.value
    raise CompileError(f"line {line}: cannot canonicalize loop step for '{var}'")


def _partitioned_nest(region: ComputeRegion) -> Tuple[List[ast.For], ast.Block]:
    """The loops to partition and the body block one thread executes."""
    directive = region.directive
    stmt = region.stmt
    if directive.name.endswith("loop"):
        if not isinstance(stmt, ast.For):
            raise CompileError(
                f"line {directive.line}: combined '{directive.name}' must annotate a for loop"
            )
        first = stmt
    else:
        # Bare kernels/parallel: require a single annotated top-level loop.
        body = stmt.body if isinstance(stmt, ast.Block) else None
        loops = [
            s for s in (body or [])
            if isinstance(s, ast.For) and any(p.is_loop for p in s.pragmas)
        ]
        if body is None or len(body) != 1 or len(loops) != 1:
            raise CompileError(
                f"line {directive.line}: a bare '{directive.name}' region must contain "
                "exactly one '#pragma acc loop' for statement"
            )
        first = loops[0]

    nest = [first]
    collapse = directive.clause("collapse")
    depth = 1
    if collapse is not None:
        if not isinstance(collapse.args[0], ast.IntLit):
            raise CompileError("collapse argument must be an integer literal")
        depth = collapse.args[0].value
    current = first
    while True:
        inner = _sole_inner_loop(current)
        if len(nest) < depth:
            if inner is None:
                raise CompileError(
                    f"line {directive.line}: collapse({depth}) needs {depth} perfectly nested loops"
                )
            nest.append(inner)
            current = inner
            continue
        # Beyond collapse: also partition a directly nested `#pragma acc loop`.
        if inner is not None and any(
            p.is_loop and not p.is_compute and not p.has_clause("seq")
            for p in inner.pragmas
        ):
            nest.append(inner)
            current = inner
            continue
        break
    body = current.body if isinstance(current.body, ast.Block) else ast.Block([current.body])
    return nest, body


def _sole_inner_loop(loop: ast.For) -> Optional[ast.For]:
    body = loop.body
    stmts = body.body if isinstance(body, ast.Block) else [body]
    if len(stmts) == 1 and isinstance(stmts[0], ast.For):
        return stmts[0]
    return None


def generate_kernel(
    region: ComputeRegion,
    symbols: Dict[str, CType],
    auto_privatize: bool = True,
    auto_reduction: bool = True,
) -> KernelPlan:
    """Translate one compute region into a :class:`KernelPlan`."""
    plan = KernelPlan(region.name, region)
    nest, body = _partitioned_nest(region)
    plan.loops = [canonicalize_loop(loop) for loop in nest]
    plan.body = list(body.body)

    directives = _region_directives(region)
    array_names = {
        name for name, ctype in symbols.items() if isinstance(ctype, (Array, Pointer))
    }
    indices = set(plan.index_vars)
    acc = region_access(region.stmt)

    # Inner (non-partitioned) loop indices are locals when declared, else
    # implicitly private.
    inner_indices = _inner_loop_indices(plan.body) - indices

    explicit_private: Set[str] = set()
    explicit_firstprivate: Set[str] = set()
    explicit_reduction: Dict[str, str] = {}
    for directive in directives:
        for clause in directive.clauses_named("private"):
            explicit_private |= set(clause.var_names())
        for clause in directive.clauses_named("firstprivate"):
            explicit_firstprivate |= set(clause.var_names())
        for clause in directive.clauses_named("reduction"):
            for var in clause.var_names():
                explicit_reduction[var] = clause.op

    written = written_scalars(plan.body, array_names) - indices
    handled = explicit_private | explicit_firstprivate | set(explicit_reduction)
    remaining = written - handled - inner_indices

    auto_private: Set[str] = set()
    auto_red: Dict[str, str] = {}
    if remaining:
        privatizable = privatizable_scalars(plan.body, array_names, indices)
        if auto_privatize:
            auto_private = remaining & privatizable
            remaining -= auto_private
        if auto_reduction and remaining:
            auto_red = recognize_reductions(plan.body, remaining)
            remaining -= set(auto_red)
        # Falsely shared: privatizable scalars get register-cached (latent
        # race); accumulator-shaped ones stay shared with split RMW (active).
        for var in sorted(remaining):
            if var in privatizable:
                plan.cached_vars.append(var)
                plan.warnings.append(
                    f"{plan.name}: scalar '{var}' is shared across threads "
                    "(missing privatization?); register-cached with dump-back"
                )
            else:
                plan.split_vars.append(var)
                plan.warnings.append(
                    f"{plan.name}: scalar '{var}' is updated concurrently "
                    "(missing reduction?); executing with shared read-modify-write"
                )

    def dtype_of(name: str):
        ctype = symbols.get(name)
        return ctype.dtype if isinstance(ctype, Scalar) else None

    for var in sorted(explicit_private | auto_private | inner_indices):
        plan.private_decls[var] = dtype_of(var)
    plan.firstprivate = sorted(explicit_firstprivate)
    for var, op in sorted({**explicit_reduction, **auto_red}.items()):
        plan.reductions.append((var, op, dtype_of(var)))

    locals_ = {
        node.name for stmt in plan.body for node in stmt.walk()
        if isinstance(node, ast.VarDecl)
    }
    touched = acc.use | acc.defs
    plan.arrays = sorted(touched & array_names)
    plan.scalars = sorted(
        v for v in touched
        if v in symbols
        and not isinstance(symbols[v], (Array, Pointer))
        and v not in indices
        and v not in locals_
        and v not in plan.private_decls
        and v not in plan.firstprivate
        and v not in {r[0] for r in plan.reductions}
        and v not in plan.cached_vars
        and v not in plan.split_vars
    )

    async_clause = region.directive.clause("async")
    if async_clause is not None:
        plan.async_queue = async_clause.args[0] if async_clause.args else ast.IntLit(0)

    plan.instrs = compile_body(plan.body, split_vars=plan.split_vars, dump_vars=plan.cached_vars)
    return plan


def _region_directives(region: ComputeRegion) -> List[Directive]:
    out = [region.directive]
    for sub in region.stmt.walk():
        if isinstance(sub, ast.Stmt):
            out.extend(p for p in sub.pragmas if p.namespace == "acc" and p is not region.directive)
    return out


def _inner_loop_indices(stmts: Sequence[ast.Stmt]) -> Set[str]:
    out: Set[str] = set()
    for stmt in stmts:
        for node in stmt.walk():
            if isinstance(node, ast.For):
                if isinstance(node.init, ast.Assign) and isinstance(node.init.target, ast.Name):
                    out.add(node.init.target.id)
    return out
