"""Vectorized fast-path backend for the kernel engine.

The interleaved stepper in :mod:`repro.device.engine` is *semantically*
required only when races can manifest: fault-injected kernels carry split
read-modify-writes (``TmpEval``/``TmpStore``), register-cached dump-backs
(``Dump``), or truly shared scalars, and the ``random`` schedule is an
explicit ablation asking for stochastic interleaving.  Every other launch is
race-free by construction — each logical thread owns its registers and every
array element is written by at most one thread — so the whole iteration
space can execute as numpy operations with one lane per logical thread.

The backend has three pieces:

* :func:`plan_for` — a static, cached analysis that classifies a
  :class:`~repro.device.engine.LaunchSpec` as vectorizable.  It rejects any
  spec with race-revealing state (``shared_writable``, ``cached_vars``, the
  split-RMW / dump-back instructions) and any construct whose whole-lane
  semantics could diverge from per-thread stepping (pointer ops, unknown
  builtins, arrays written through non-injective index tuples, ...).
* a compiled *vector expression* layer — each AST node compiles once into a
  closure ``fn(ctx, sel) -> value`` operating on the lanes selected by
  ``sel`` (compressed execution: untaken ``&&``/``?:``/branch sides are
  never evaluated on lanes that do not take them, preserving short-circuit
  side effects and fault behaviour).
* :func:`execute` — a min-PC SIMT executor: every lane has a program
  counter; each step picks the smallest live pc, runs that one instruction
  for every lane sitting at it, and bumps those lanes' step counters.  Step
  accounting is therefore *identical to the interleaved stepper by
  construction* (``total_steps`` is the number of executed instructions
  summed over lanes in every schedule), so modeled kernel times — and the
  Figure 1/3/4 and Table II/III outputs derived from them — are bit-equal.

Bit-exactness rules worth knowing when editing:

* scalar evaluation happens in Python doubles / unbounded ints, so gathers
  upcast ``float32 -> float64`` and integer kinds to ``int64``;
* ``exp``/``log``/``pow``/``sin``/``cos`` loop over ``math.*`` per element —
  numpy's transcendentals are *not* bitwise equal to libm here (``sqrt``
  is, and is vectorized);
* register stores mirror ``_ThreadEnv._coerce``: round-trip through the
  declared dtype, then back to the float64/int64 working dtype.

Anything the closures cannot reproduce exactly raises :class:`VectorBailout`
at runtime; the engine then re-runs the launch on the interleaved stepper.
Writes land in scratch copies that are only committed on success, so a
bailed-out launch leaves device memory untouched for the re-run.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.device.bytecode import Branch, Dump, Jump, Program, Simple, TmpEval, TmpStore
from repro.device.reduction import identity, tree_reduce
from repro.errors import WatchdogTimeout
from repro.lang import ast
from repro.lang.ctypes import Scalar
from repro.lang.printer import expr_to_source

_INT = np.int64
_FLT = np.float64


class VectorBailout(Exception):
    """Raised when the vector backend cannot reproduce scalar semantics
    exactly at runtime; the engine falls back to the interleaved stepper."""


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------

class VectorPlan:
    """A positive vectorizability verdict for one kernel program."""

    __slots__ = ("written_arrays",)

    def __init__(self, written_arrays: frozenset):
        self.written_arrays = written_arrays


class _Reject(Exception):
    """The analysis found a construct with no exact vector form."""


# Analysis results keyed by instruction-list identity.  The instruction list
# is held strongly so the id can never be recycled; the cache is bounded by
# the number of distinct compiled kernels in the process (small).
_PLAN_CACHE: Dict[int, Tuple[Program, Optional[VectorPlan]]] = {}
_PLAN_CACHE_MAX = 1024


def plan_for(spec) -> Optional[VectorPlan]:
    """Return a :class:`VectorPlan` if ``spec`` is vectorizable, else None."""
    # Launch-level state (varies per launch even for one program).
    if spec.shared_writable or spec.cached_vars:
        return None
    key = id(spec.instrs)
    cached = _PLAN_CACHE.get(key)
    if cached is not None and cached[0] is spec.instrs:
        return cached[1]
    try:
        plan: Optional[VectorPlan] = _analyze(spec)
    except _Reject:
        plan = None
    if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[key] = (spec.instrs, plan)
    return plan


def _analyze(spec) -> VectorPlan:
    index_vars = set(spec.index_vars)
    arrays = spec.arrays
    ndims = {name: arr.ndim for name, arr in arrays.items()}

    # Pass 1: collect in-body declarations; they define the writable
    # register set together with private/firstprivate/reduction names.
    decl_names = set()
    for instr in spec.instrs:
        if type(instr) is Simple and isinstance(instr.stmt, ast.VarDecl):
            name = instr.stmt.name
            if name in arrays or name in spec.scalars:
                raise _Reject(f"declaration shadows shared name {name!r}")
            decl_names.add(name)
    writable_regs = (
        decl_names
        | set(spec.private_decls)
        | set(spec.firstprivate)
        | {name for name, _, _ in spec.reductions}
    )

    # (root, index-tuple-source) accesses, split by read/write.
    reads: Dict[str, set] = {}
    writes: Dict[str, set] = {}
    # For each write tuple, which components are bare partition index vars.
    bare_vars: Dict[Tuple[str, Tuple[str, ...]], set] = {}

    def subscript_parts(expr: ast.Subscript):
        comps: List[ast.Expr] = []
        node: ast.Expr = expr
        while isinstance(node, ast.Subscript):
            comps.append(node.index)
            node = node.base
        comps.reverse()
        if not isinstance(node, ast.Name):
            raise _Reject("subscript base is not a plain array name")
        root = node.id
        if root not in arrays:
            raise _Reject(f"subscript of non-device-array {root!r}")
        if len(comps) != ndims[root]:
            raise _Reject(f"partial indexing of array {root!r}")
        return root, comps

    def record(expr: ast.Subscript, is_write: bool):
        root, comps = subscript_parts(expr)
        key = tuple(expr_to_source(c) for c in comps)
        (writes if is_write else reads).setdefault(root, set()).add(key)
        if is_write:
            bare = {c.id for c in comps if isinstance(c, ast.Name) and c.id in index_vars}
            bare_vars[(root, key)] = bare
        for comp in comps:
            check_expr(comp)

    def check_store_target(target: ast.Expr):
        if isinstance(target, ast.Name):
            if target.id in arrays:
                raise _Reject(f"store rebinds array {target.id!r}")
            if target.id in index_vars:
                raise _Reject(f"store to partition index {target.id!r}")
            if target.id not in writable_regs:
                raise _Reject(f"store to non-register name {target.id!r}")
            return
        if isinstance(target, ast.Subscript):
            record(target, is_write=True)
            return
        raise _Reject(f"unsupported store target {type(target).__name__}")

    def check_expr(expr: ast.Expr):
        kind = type(expr)
        if kind in (ast.IntLit, ast.FloatLit):
            return
        if kind is ast.StrLit:
            raise _Reject("string literal in kernel body")
        if kind is ast.Name:
            if expr.id in arrays:
                raise _Reject(f"array {expr.id!r} used as a scalar value")
            return
        if kind is ast.Subscript:
            record(expr, is_write=False)
            return
        if kind is ast.Call:
            if expr.func not in _VBUILTINS:
                raise _Reject(f"builtin {expr.func!r} has no vector form")
            for arg in expr.args:
                check_expr(arg)
            return
        if kind is ast.Unary:
            op = expr.op
            if op in ("++", "--", "p++", "p--"):
                if not isinstance(expr.operand, ast.Name):
                    raise _Reject("increment of non-scalar lvalue")
                check_store_target(expr.operand)
                return
            if op in ("-", "!", "~"):
                check_expr(expr.operand)
                return
            raise _Reject(f"unary {op!r} (pointer op) in kernel body")
        if kind is ast.Binary:
            if expr.op not in ("&&", "||") and expr.op not in _SCALAR_BINOPS:
                raise _Reject(f"operator {expr.op!r} has no vector form")
            check_expr(expr.left)
            check_expr(expr.right)
            return
        if kind is ast.Ternary:
            check_expr(expr.cond)
            check_expr(expr.then)
            check_expr(expr.other)
            return
        if kind is ast.Cast:
            check_expr(expr.operand)
            return
        raise _Reject(f"cannot vectorize {kind.__name__}")

    for instr in spec.instrs:
        cls = type(instr)
        if cls is Simple:
            stmt = instr.stmt
            if isinstance(stmt, ast.Assign):
                check_expr(stmt.value)
                if stmt.op:
                    # Compound assignment reads the target too.
                    if isinstance(stmt.target, ast.Subscript):
                        record(stmt.target, is_write=False)
                    else:
                        check_expr(stmt.target)
                check_store_target(stmt.target)
            elif isinstance(stmt, ast.VarDecl):
                if stmt.init is not None:
                    check_expr(stmt.init)
            elif isinstance(stmt, ast.ExprStmt):
                check_expr(stmt.expr)
            else:
                raise _Reject(f"unsupported statement {type(stmt).__name__}")
        elif cls is Branch:
            if instr.cond is not None:
                check_expr(instr.cond)
        elif cls is Jump:
            pass
        elif cls in (TmpEval, TmpStore, Dump):
            # Split read-modify-writes and register dump-backs exist to
            # *expose* races; they must run on the interleaved stepper.
            raise _Reject(f"race-revealing instruction {cls.__name__}")
        else:
            raise _Reject(f"unknown instruction {cls.__name__}")

    # Written arrays: one syntactic index tuple per array, containing every
    # partition index var as a bare component (distinct lanes -> distinct
    # elements, so scatters never collide and lane order cannot matter), and
    # identical to every read tuple of the same array (a lane reads exactly
    # the element it owns, so gather-after-scatter is race-free).
    for root, wset in writes.items():
        if len(wset) != 1:
            raise _Reject(f"array {root!r} written through multiple index tuples")
        (wkey,) = wset
        if bare_vars[(root, wkey)] != index_vars:
            raise _Reject(
                f"write to {root!r} not provably one-element-per-thread"
            )
        extra_reads = reads.get(root, set()) - {wkey}
        if extra_reads:
            raise _Reject(
                f"array {root!r} read through a different index tuple than written"
            )

    return VectorPlan(frozenset(writes))


# ---------------------------------------------------------------------------
# Vector value helpers
# ---------------------------------------------------------------------------
#
# A "value" is either a numpy array with one element per selected lane
# (dtype float64 or int64) or a uniform Python scalar.  Two-uniform
# operations reuse the exact scalar semantics from repro.lang.semantics.

from repro.lang.semantics import _BINOPS as _SCALAR_BINOPS  # noqa: E402
from repro.lang.semantics import c_div as _scalar_div  # noqa: E402
from repro.lang.semantics import c_mod as _scalar_mod  # noqa: E402


def _is_arr(v) -> bool:
    return isinstance(v, np.ndarray)


def _kind(v) -> str:
    if _is_arr(v):
        return "f" if v.dtype.kind == "f" else "i"
    return "f" if isinstance(v, float) else "i"


def _as_int(v):
    if _is_arr(v):
        return v if v.dtype.kind in "iu" else v.astype(_INT)
    return int(v)


def _vdiv(a, b):
    if not _is_arr(a) and not _is_arr(b):
        return _scalar_div(a, b)
    if _kind(a) == "i" and _kind(b) == "i":
        a64, b64 = _as_int(a), _as_int(b)
        if np.any(b64 == 0):
            raise VectorBailout("integer division by zero")
        q = np.abs(a64) // np.abs(b64)
        return np.where((a64 >= 0) == (b64 >= 0), q, -q)
    if np.any(np.asarray(b) == 0):
        raise VectorBailout("float division by zero")
    return np.asarray(a) / np.asarray(b)


def _vmod(a, b):
    if not _is_arr(a) and not _is_arr(b):
        return _scalar_mod(a, b)
    if np.any(np.asarray(b) == 0):
        raise VectorBailout("modulo by zero")
    if _kind(a) == "i" and _kind(b) == "i":
        a64, b64 = _as_int(a), _as_int(b)
        return a64 - _vdiv(a64, b64) * b64
    return np.fmod(np.asarray(a, dtype=_FLT), np.asarray(b, dtype=_FLT))


def _cmp(op):
    def fn(a, b):
        return op(a, b).astype(_INT)
    return fn


def _bit(op):
    def fn(a, b):
        return op(_as_int(a), _as_int(b))
    return fn


# Array-capable versions of _BINOPS; two-uniform inputs never reach these.
_VECTOR_BINOPS: Dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _vdiv,
    "%": _vmod,
    "<": _cmp(lambda a, b: np.less(a, b)),
    ">": _cmp(lambda a, b: np.greater(a, b)),
    "<=": _cmp(lambda a, b: np.less_equal(a, b)),
    ">=": _cmp(lambda a, b: np.greater_equal(a, b)),
    "==": _cmp(lambda a, b: np.equal(a, b)),
    "!=": _cmp(lambda a, b: np.not_equal(a, b)),
    "&": _bit(lambda a, b: a & b),
    "|": _bit(lambda a, b: a | b),
    "^": _bit(lambda a, b: a ^ b),
    "<<": _bit(lambda a, b: a << b),
    ">>": _bit(lambda a, b: a >> b),
}


# -- builtins ---------------------------------------------------------------

def _lift_libm(fn):
    """Elementwise loop over libm: numpy's transcendentals are not bitwise
    equal to math.* here, so exactness costs a per-element call."""

    def g(x):
        if _is_arr(x):
            return np.fromiter((fn(v) for v in x.tolist()), _FLT, count=x.size)
        return fn(x)
    return g


def _vsqrt(x):
    if _is_arr(x):
        if np.any(np.asarray(x) < 0):
            raise VectorBailout("sqrt of negative")
        return np.sqrt(x.astype(_FLT) if x.dtype.kind != "f" else x)
    return math.sqrt(x)


def _vfabs(x):
    return np.abs(x) if _is_arr(x) else abs(x)


def _viabs(x):
    return np.abs(_as_int(x)) if _is_arr(x) else abs(int(x))


def _vfloor(x):
    if _is_arr(x):
        return x if x.dtype.kind in "iu" else np.floor(x).astype(_INT)
    return math.floor(x)


def _vceil(x):
    if _is_arr(x):
        return x if x.dtype.kind in "iu" else np.ceil(x).astype(_INT)
    return math.ceil(x)


def _vmax(a, b):
    if not _is_arr(a) and not _is_arr(b):
        return max(a, b)
    if _kind(a) != _kind(b):
        raise VectorBailout("max of mixed int/float")
    # Python max(a, b) is `b if b > a else a`; np.where mirrors it exactly
    # (signed zeros and NaNs included), unlike np.maximum.
    return np.where(np.greater(b, a), b, a)


def _vmin(a, b):
    if not _is_arr(a) and not _is_arr(b):
        return min(a, b)
    if _kind(a) != _kind(b):
        raise VectorBailout("min of mixed int/float")
    return np.where(np.less(b, a), b, a)


def _vpow(a, b):
    if not _is_arr(a) and not _is_arr(b):
        return math.pow(a, b)
    av, bv = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    return np.fromiter(
        (math.pow(x, y) for x, y in zip(av.tolist(), bv.tolist())),
        _FLT, count=av.size,
    )


def _f32(x):
    return x.astype(np.float32) if _is_arr(x) else np.float32(x)


def _vsqrtf(x):
    # Scalar path: sqrt in double of the float32 input, rounded to float32.
    if _is_arr(x):
        x32 = _f32(x)
        return np.fromiter(
            (np.float32(math.sqrt(v)) for v in x32.tolist()), np.float32,
            count=x32.size,
        ).astype(_FLT)
    return np.float32(math.sqrt(np.float32(x))).item()


def _vexpf(x):
    if _is_arr(x):
        x32 = _f32(x)
        return np.fromiter(
            (np.float32(math.exp(v)) for v in x32.tolist()), np.float32,
            count=x32.size,
        ).astype(_FLT)
    return np.float32(math.exp(np.float32(x))).item()


def _vfabsf(x):
    if _is_arr(x):
        return np.abs(_f32(x)).astype(_FLT)
    return np.float32(abs(np.float32(x))).item()


_VBUILTINS: Dict[str, Callable] = {
    "sqrt": _vsqrt,
    "fabs": _vfabs,
    "abs": _viabs,
    "exp": _lift_libm(math.exp),
    "log": _lift_libm(math.log),
    "pow": _vpow,
    "sin": _lift_libm(math.sin),
    "cos": _lift_libm(math.cos),
    "floor": _vfloor,
    "ceil": _vceil,
    "fmax": _vmax,
    "fmin": _vmin,
    "max": _vmax,
    "min": _vmin,
    "sqrtf": _vsqrtf,
    "expf": _vexpf,
    "fabsf": _vfabsf,
}


# ---------------------------------------------------------------------------
# Vector expression compilation
# ---------------------------------------------------------------------------

class _Ctx:
    """Per-launch lane state for the vector closures."""

    __slots__ = ("regs", "dtypes", "arrays", "scalars", "nlanes")

    def __init__(self, nlanes: int, arrays, scalars):
        self.regs: Dict[str, np.ndarray] = {}
        self.dtypes: Dict[str, Optional[np.dtype]] = {}
        self.arrays = arrays
        self.scalars = scalars
        self.nlanes = nlanes


_VEXPR_CACHE: "weakref.WeakKeyDictionary[ast.Expr, Callable]" = weakref.WeakKeyDictionary()
_VSTORE_CACHE: "weakref.WeakKeyDictionary[ast.Expr, Callable]" = weakref.WeakKeyDictionary()
_VSTMT_CACHE: "weakref.WeakKeyDictionary[ast.Stmt, Callable]" = weakref.WeakKeyDictionary()


def _vec_expr(expr: ast.Expr) -> Callable:
    fn = _VEXPR_CACHE.get(expr)
    if fn is None:
        fn = _compile_vexpr(expr)
        _VEXPR_CACHE[expr] = fn
    return fn


def _vec_store(target: ast.Expr) -> Callable:
    fn = _VSTORE_CACHE.get(target)
    if fn is None:
        fn = _compile_vstore(target)
        _VSTORE_CACHE[target] = fn
    return fn


def _vec_stmt(stmt: ast.Stmt) -> Callable:
    fn = _VSTMT_CACHE.get(stmt)
    if fn is None:
        fn = _compile_vstmt(stmt)
        _VSTMT_CACHE[stmt] = fn
    return fn


def _gather_upcast(out):
    if _is_arr(out):
        if out.dtype == _FLT or out.dtype == _INT:
            return out
        return out.astype(_FLT) if out.dtype.kind == "f" else out.astype(_INT)
    return out.item() if isinstance(out, np.generic) else out


def _compile_vexpr(expr: ast.Expr) -> Callable:
    kind = type(expr)
    if kind in (ast.IntLit, ast.FloatLit):
        value = expr.value
        return lambda ctx, sel: value
    if kind is ast.Name:
        name = expr.id

        def load(ctx, sel):
            reg = ctx.regs.get(name)
            if reg is not None:
                return reg[sel]
            return ctx.scalars[name]
        return load
    if kind is ast.Subscript:
        root, index_fns = _vsubscript_parts(expr)

        def gather(ctx, sel):
            idxs = [fn(ctx, sel) for fn in index_fns]
            idxs.reverse()
            return _gather_upcast(ctx.arrays[root][tuple(idxs)])
        return gather
    if kind is ast.Call:
        fn = _VBUILTINS[expr.func]
        arg_fns = [_vec_expr(a) for a in expr.args]
        if len(arg_fns) == 1:
            a0 = arg_fns[0]
            return lambda ctx, sel: fn(a0(ctx, sel))
        return lambda ctx, sel: fn(*[f(ctx, sel) for f in arg_fns])
    if kind is ast.Unary:
        return _compile_vunary(expr)
    if kind is ast.Binary:
        return _compile_vbinary(expr)
    if kind is ast.Ternary:
        return _compile_vternary(expr)
    if kind is ast.Cast:
        operand = _vec_expr(expr.operand)
        ctype = expr.ctype
        if isinstance(ctype, Scalar):
            if ctype.is_integer:
                def icast(ctx, sel):
                    v = operand(ctx, sel)
                    return _as_int(v)
                return icast
            dtype = ctype.dtype

            def fcast(ctx, sel):
                v = operand(ctx, sel)
                if _is_arr(v):
                    return v.astype(dtype).astype(_FLT)
                return np.dtype(dtype).type(v).item()
            return fcast
        return operand
    raise VectorBailout(f"cannot vectorize {kind.__name__}")


def _vsubscript_parts(expr: ast.Subscript):
    index_fns: List[Callable] = []
    node: ast.Expr = expr
    while isinstance(node, ast.Subscript):
        index_fns.append(_vec_expr(node.index))
        node = node.base
    assert isinstance(node, ast.Name)
    return node.id, index_fns


def _compile_vunary(expr: ast.Unary) -> Callable:
    op = expr.op
    if op in ("++", "--", "p++", "p--"):
        operand = _vec_expr(expr.operand)
        store = _vec_store(expr.operand)
        delta = 1 if "+" in op else -1
        if op in ("++", "--"):
            def post(ctx, sel):
                old = operand(ctx, sel)
                store(old + delta, ctx, sel)
                return old
            return post

        def pre(ctx, sel):
            new = operand(ctx, sel) + delta
            store(new, ctx, sel)
            return new
        return pre
    operand = _vec_expr(expr.operand)
    if op == "-":
        return lambda ctx, sel: -operand(ctx, sel)
    if op == "!":
        def vnot(ctx, sel):
            v = operand(ctx, sel)
            if _is_arr(v):
                return (v == 0).astype(_INT)
            return int(not v)
        return vnot
    if op == "~":
        def vinv(ctx, sel):
            return ~_as_int(operand(ctx, sel))
        return vinv
    raise VectorBailout(f"unary {op!r}")


def _compile_vbinary(expr: ast.Binary) -> Callable:
    op = expr.op
    left = _vec_expr(expr.left)
    right = _vec_expr(expr.right)
    if op == "&&":
        def vand(ctx, sel):
            lv = left(ctx, sel)
            if not _is_arr(lv):
                if not lv:
                    return 0
                rv = right(ctx, sel)
                if _is_arr(rv):
                    return (rv != 0).astype(_INT)
                return int(bool(rv))
            taken = lv != 0
            out = np.zeros(len(sel), _INT)
            if taken.any():
                rv = right(ctx, sel[taken])
                if _is_arr(rv):
                    out[taken] = (rv != 0).astype(_INT)
                else:
                    out[taken] = int(bool(rv))
            return out
        return vand
    if op == "||":
        def vor(ctx, sel):
            lv = left(ctx, sel)
            if not _is_arr(lv):
                if lv:
                    return 1
                rv = right(ctx, sel)
                if _is_arr(rv):
                    return (rv != 0).astype(_INT)
                return int(bool(rv))
            taken = lv != 0
            out = np.ones(len(sel), _INT)
            falls = ~taken
            if falls.any():
                rv = right(ctx, sel[falls])
                if _is_arr(rv):
                    out[falls] = (rv != 0).astype(_INT)
                else:
                    out[falls] = int(bool(rv))
            return out
        return vor
    scalar_fn = _SCALAR_BINOPS[op]
    vector_fn = _VECTOR_BINOPS[op]

    def vbin(ctx, sel):
        a = left(ctx, sel)
        b = right(ctx, sel)
        if _is_arr(a) or _is_arr(b):
            return vector_fn(a, b)
        return scalar_fn(a, b)
    return vbin


def _compile_vternary(expr: ast.Ternary) -> Callable:
    cond = _vec_expr(expr.cond)
    then = _vec_expr(expr.then)
    other = _vec_expr(expr.other)

    def vtern(ctx, sel):
        cv = cond(ctx, sel)
        if not _is_arr(cv):
            return then(ctx, sel) if cv else other(ctx, sel)
        taken = cv != 0
        if taken.all():
            return then(ctx, sel)
        if not taken.any():
            return other(ctx, sel)
        tv = then(ctx, sel[taken])
        ov = other(ctx, sel[~taken])
        tk, ok = _kind(tv), _kind(ov)
        if tk != ok:
            raise VectorBailout("mixed int/float ternary arms")
        out = np.empty(len(sel), _FLT if tk == "f" else _INT)
        out[taken] = tv
        out[~taken] = ov
        return out
    return vtern


# -- stores -----------------------------------------------------------------

def _reg_store(ctx: _Ctx, name: str, vals, sel):
    """Mirror of _ThreadEnv.store + _coerce for register targets."""
    decl = ctx.dtypes.get(name)
    reg = ctx.regs.get(name)
    if _is_arr(vals):
        if decl is not None:
            vals = vals.astype(decl)
        vkind = "f" if vals.dtype.kind == "f" else "i"
        vals = vals.astype(_FLT if vkind == "f" else _INT)
    else:
        if decl is not None:
            vals = np.dtype(decl).type(vals).item()
        vkind = _kind(vals)
    if reg is None:
        reg = np.zeros(ctx.nlanes, _FLT if vkind == "f" else _INT)
        ctx.regs[name] = reg
    elif ("f" if reg.dtype.kind == "f" else "i") != vkind:
        if len(sel) == ctx.nlanes:
            # Uniform-flow retype: every lane transitions together, exactly
            # as each scalar thread would.
            reg = np.zeros(ctx.nlanes, _FLT if vkind == "f" else _INT)
            ctx.regs[name] = reg
        else:
            raise VectorBailout(f"divergent retype of register {name!r}")
    reg[sel] = vals


def _compile_vstore(target: ast.Expr) -> Callable:
    if isinstance(target, ast.Name):
        name = target.id
        return lambda vals, ctx, sel: _reg_store(ctx, name, vals, sel)
    if isinstance(target, ast.Subscript):
        root, index_fns = _vsubscript_parts(target)

        def scatter(vals, ctx, sel):
            idxs = [fn(ctx, sel) for fn in index_fns]
            idxs.reverse()
            # The plan proved one-element-per-lane, so no dedup is needed.
            ctx.arrays[root][tuple(idxs)] = vals
        return scatter
    raise VectorBailout(f"store target {type(target).__name__}")


def _compile_vstmt(stmt: ast.Stmt) -> Callable:
    if isinstance(stmt, ast.Assign):
        value_fn = _vec_expr(stmt.value)
        store = _vec_store(stmt.target)
        if stmt.op:
            old_fn = _vec_expr(stmt.target)
            scalar_fn = _SCALAR_BINOPS[stmt.op]
            vector_fn = _VECTOR_BINOPS[stmt.op]

            def aug(ctx, sel):
                value = value_fn(ctx, sel)
                old = old_fn(ctx, sel)
                if _is_arr(old) or _is_arr(value):
                    store(vector_fn(old, value), ctx, sel)
                else:
                    store(scalar_fn(old, value), ctx, sel)
            return aug

        def plain(ctx, sel):
            store(value_fn(ctx, sel), ctx, sel)
        return plain
    if isinstance(stmt, ast.VarDecl):
        name = stmt.name
        ctype = stmt.ctype
        dtype = ctype.dtype if isinstance(ctype, Scalar) else None
        init_fn = _vec_expr(stmt.init) if stmt.init is not None else None

        def decl(ctx, sel):
            ctx.dtypes[name] = dtype
            vals = init_fn(ctx, sel) if init_fn is not None else 0
            _reg_store(ctx, name, vals, sel)
        return decl
    if isinstance(stmt, ast.ExprStmt):
        expr_fn = _vec_expr(stmt.expr)

        def run(ctx, sel):
            expr_fn(ctx, sel)
        return run
    raise VectorBailout(f"statement {type(stmt).__name__}")


# ---------------------------------------------------------------------------
# SIMT executor
# ---------------------------------------------------------------------------

def execute(spec, plan: VectorPlan, max_total_steps: int,
            collect_writes: bool = False):
    """Run ``spec`` vectorized.  Returns (total_steps, max_thread_steps,
    reductions, write_sets) and commits array writes; raises
    :class:`VectorBailout` (device memory untouched) when exact semantics
    cannot be guaranteed.

    With ``collect_writes``, ``write_sets`` maps each written array to the
    element intervals whose bytes changed (scratch copy vs. pre-launch
    contents) — an under-approximation of the true store footprint (a store
    of an identical value is invisible), which is exactly the safe direction
    for the runtime's dirty-interval tracking; otherwise it is None."""
    nlanes = spec.threads.nlanes
    instrs = spec.instrs
    n = len(instrs)

    # Writes land in scratch copies, committed only on success.
    arrays = {
        name: (arr.copy() if name in plan.written_arrays else arr)
        for name, arr in spec.arrays.items()
    }
    ctx = _Ctx(nlanes, arrays, dict(spec.scalars))

    # Lane registers, mirroring KernelEngine.launch's per-thread setup.
    index_regs = spec.threads.registers(len(spec.index_vars))
    ctx.regs.update(zip(spec.index_vars, index_regs))
    for name, dtype in spec.private_decls.items():
        ctx.dtypes[name] = dtype
        if dtype is not None:
            zero = np.dtype(dtype).type(0).item()
            work = _FLT if isinstance(zero, float) else _INT
            ctx.regs[name] = np.full(nlanes, zero, work)
        else:
            ctx.regs[name] = np.zeros(nlanes, _INT)
    for name, val in spec.firstprivate.items():
        if not isinstance(val, (int, float, np.integer, np.floating)):
            raise VectorBailout(f"non-scalar firstprivate {name!r}")
        val = val.item() if isinstance(val, np.generic) else val
        ctx.regs[name] = np.full(nlanes, val, _FLT if isinstance(val, float) else _INT)
    red_info = {name: (op, dtype) for name, op, dtype in spec.reductions}
    for name, (op, dtype) in red_info.items():
        init = identity(op)
        if dtype is not None:
            init = np.dtype(dtype).type(init).item()
            ctx.dtypes[name] = dtype
        ctx.regs[name] = np.full(nlanes, init, _FLT if isinstance(init, float) else _INT)

    pc = np.zeros(nlanes, _INT)
    steps = np.zeros(nlanes, _INT)
    total = 0
    if n == 0:
        pc += 1  # no instructions: every lane is born finished

    while True:
        active = pc < n
        if not active.any():
            break
        p = int(pc[active].min())
        m = active & (pc == p)
        sel = np.flatnonzero(m)
        instr = instrs[p]
        cls = type(instr)
        if cls is Simple:
            _vec_stmt(instr.stmt)(ctx, sel)
            pc[m] = p + 1
        elif cls is Branch:
            if instr.cond is None:
                pc[m] = p + 1
            else:
                cv = _vec_expr(instr.cond)(ctx, sel)
                if _is_arr(cv):
                    pc[sel] = np.where(cv != 0, p + 1, instr.target)
                else:
                    pc[m] = p + 1 if cv else instr.target
        elif cls is Jump:
            pc[m] = instr.target
        else:
            raise VectorBailout(f"instruction {cls.__name__}")
        steps[m] += 1
        total += len(sel)
        if total > max_total_steps:
            raise WatchdogTimeout(
                f"watchdog: kernel {spec.name!r} exceeded {max_total_steps} "
                "steps (possible infinite loop in kernel body)"
            )

    # Diff scratch against the pristine buffers (write footprints), then
    # commit scratch copies into the real device buffers.
    write_sets = None
    if collect_writes:
        from repro.device.transfer import diff_intervals

        write_sets = {
            name: diff_intervals(arrays[name], spec.arrays[name])
            for name in plan.written_arrays
        }
    for name in plan.written_arrays:
        spec.arrays[name][...] = arrays[name]

    reductions = {}
    for name, (op, dtype) in red_info.items():
        reductions[name] = tree_reduce(op, ctx.regs[name], dtype)

    return total, int(steps.max()) if nlanes else 0, reductions, write_sets
