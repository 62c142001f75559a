"""AST node definitions for the mini-C language.

Nodes are small mutable classes (compiler passes rewrite trees in place or
produce edited clones via :mod:`repro.lang.visitor`).  Every node carries a
``line`` for diagnostics.  Structural equality ignores ``line`` so tests can
compare shapes without pinning positions.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple


class Node:
    """Base class for all AST nodes.

    ``__weakref__`` lets the compiled-expression cache in
    :mod:`repro.lang.semantics` key closures by node without pinning trees
    in memory (entries die with the AST, so caches never leak across
    programs).
    """

    __slots__ = ("line", "__weakref__")
    _fields: Tuple[str, ...] = ()

    def __init__(self, line: int = 0):
        self.line = line

    # -- generic traversal ------------------------------------------------
    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (flattening lists of nodes)."""
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, preorder."""
        yield self
        for child in self.children():
            yield from child.walk()

    # -- equality / repr ---------------------------------------------------
    def _state(self):
        return tuple(
            tuple(v) if isinstance(v, list) else v
            for v in (getattr(self, name) for name in self._fields)
        )

    def __eq__(self, other):
        if self is other:
            return True
        return type(self) is type(other) and self._state() == other._state()

    def __hash__(self):  # identity hash: nodes are mutable
        return id(self)

    def __repr__(self):
        parts = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({parts})"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    """Base class for expressions."""
    __slots__ = ()


class IntLit(Expr):
    """Integer literal."""
    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: int, line: int = 0):
        super().__init__(line)
        self.value = value


class FloatLit(Expr):
    """Floating-point literal.  ``text`` preserves the written form."""
    __slots__ = ("value", "text")
    _fields = ("value",)

    def __init__(self, value: float, text: Optional[str] = None, line: int = 0):
        super().__init__(line)
        self.value = value
        self.text = text if text is not None else repr(value)


class StrLit(Expr):
    """String literal (only used as arguments to builtins like printf)."""
    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: str, line: int = 0):
        super().__init__(line)
        self.value = value


class Name(Expr):
    """Identifier reference."""
    __slots__ = ("id",)
    _fields = ("id",)

    def __init__(self, id: str, line: int = 0):
        super().__init__(line)
        self.id = id


class Subscript(Expr):
    """Array subscript ``base[index]``; multi-dim appears nested."""
    __slots__ = ("base", "index")
    _fields = ("base", "index")

    def __init__(self, base: Expr, index: Expr, line: int = 0):
        super().__init__(line)
        self.base = base
        self.index = index


class Call(Expr):
    """Function call ``func(args...)``."""
    __slots__ = ("func", "args")
    _fields = ("func", "args")

    def __init__(self, func: str, args: Sequence[Expr], line: int = 0):
        super().__init__(line)
        self.func = func
        self.args = list(args)


class Unary(Expr):
    """Unary operator: ``-``, ``+``, ``!``, ``~``, ``*`` (deref), ``&``."""
    __slots__ = ("op", "operand")
    _fields = ("op", "operand")

    def __init__(self, op: str, operand: Expr, line: int = 0):
        super().__init__(line)
        self.op = op
        self.operand = operand


class Binary(Expr):
    """Binary operator expression."""
    __slots__ = ("op", "left", "right")
    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, line: int = 0):
        super().__init__(line)
        self.op = op
        self.left = left
        self.right = right


class Ternary(Expr):
    """Conditional expression ``cond ? then : other``."""
    __slots__ = ("cond", "then", "other")
    _fields = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr, line: int = 0):
        super().__init__(line)
        self.cond = cond
        self.then = then
        self.other = other


class Cast(Expr):
    """C-style cast ``(type) expr``; ``ctype`` is a :class:`repro.lang.ctypes.CType`."""
    __slots__ = ("ctype", "operand")
    _fields = ("ctype", "operand")

    def __init__(self, ctype, operand: Expr, line: int = 0):
        super().__init__(line)
        self.ctype = ctype
        self.operand = operand


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt(Node):
    """Base class for statements.  ``pragmas`` holds directives written on
    the lines immediately above the statement."""

    __slots__ = ("pragmas",)

    def __init__(self, line: int = 0):
        super().__init__(line)
        self.pragmas = []  # list[repro.acc.directives.Directive]


class VarDecl(Stmt):
    """Declaration of one variable: ``ctype name [= init];``."""
    __slots__ = ("name", "ctype", "init")
    _fields = ("name", "init")

    def __init__(self, name: str, ctype, init: Optional[Expr] = None, line: int = 0):
        super().__init__(line)
        self.name = name
        self.ctype = ctype
        self.init = init

    def _state(self):
        return (self.name, self.ctype, self.init)


class Assign(Stmt):
    """Assignment ``target op= value`` where op in {'', '+', '-', '*', '/'}."""
    __slots__ = ("target", "op", "value")
    _fields = ("target", "op", "value")

    def __init__(self, target: Expr, value: Expr, op: str = "", line: int = 0):
        super().__init__(line)
        self.target = target
        self.op = op
        self.value = value


class ExprStmt(Stmt):
    """Expression evaluated for side effects (a call, ``i++``)."""
    __slots__ = ("expr",)
    _fields = ("expr",)

    def __init__(self, expr: Expr, line: int = 0):
        super().__init__(line)
        self.expr = expr


class Block(Stmt):
    """Compound statement ``{ ... }``."""
    __slots__ = ("body",)
    _fields = ("body",)

    def __init__(self, body: Sequence[Stmt], line: int = 0):
        super().__init__(line)
        self.body = list(body)


class If(Stmt):
    __slots__ = ("cond", "then", "orelse")
    _fields = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: Stmt, orelse: Optional[Stmt] = None, line: int = 0):
        super().__init__(line)
        self.cond = cond
        self.then = then
        self.orelse = orelse


class For(Stmt):
    """``for (init; cond; step) body``.

    ``init`` is a statement (Assign or VarDecl) or None; ``step`` is a
    statement (Assign or ExprStmt) or None.
    """
    __slots__ = ("init", "cond", "step", "body")
    _fields = ("init", "cond", "step", "body")

    def __init__(self, init, cond, step, body: Stmt, line: int = 0):
        super().__init__(line)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class While(Stmt):
    __slots__ = ("cond", "body")
    _fields = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, line: int = 0):
        super().__init__(line)
        self.cond = cond
        self.body = body


class Return(Stmt):
    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: Optional[Expr] = None, line: int = 0):
        super().__init__(line)
        self.value = value


class Break(Stmt):
    __slots__ = ()
    _fields = ()


class Continue(Stmt):
    __slots__ = ()
    _fields = ()


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

class Param(Node):
    """Function parameter."""
    __slots__ = ("name", "ctype")
    _fields = ("name",)

    def __init__(self, name: str, ctype, line: int = 0):
        super().__init__(line)
        self.name = name
        self.ctype = ctype

    def _state(self):
        return (self.name, self.ctype)


class FuncDef(Node):
    """Function definition."""
    __slots__ = ("name", "ret_type", "params", "body")
    _fields = ("params", "body")

    def __init__(self, name: str, ret_type, params: Sequence[Param], body: Block, line: int = 0):
        super().__init__(line)
        self.name = name
        self.ret_type = ret_type
        self.params = list(params)
        self.body = body

    def _state(self):
        return (self.name, self.ret_type, tuple(self.params), self.body)


class Program(Node):
    """A whole translation unit: globals + functions."""
    __slots__ = ("decls", "funcs")
    _fields = ("decls", "funcs")

    def __init__(self, decls: Sequence[VarDecl], funcs: Sequence[FuncDef], line: int = 0):
        super().__init__(line)
        self.decls = list(decls)
        self.funcs = list(funcs)

    def func(self, name: str) -> FuncDef:
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def base_name(expr: Expr) -> Optional[str]:
    """Return the root variable name of an lvalue expression, or None.

    ``a`` -> ``a``; ``a[i][j]`` -> ``a``; ``*p`` -> ``p``; ``(x)`` cases are
    not produced by the parser (parens don't create nodes).
    """
    while True:
        if isinstance(expr, Name):
            return expr.id
        if isinstance(expr, Subscript):
            expr = expr.base
        elif isinstance(expr, Unary) and expr.op == "*":
            expr = expr.operand
        elif isinstance(expr, Cast):
            expr = expr.operand
        else:
            return None


def is_lvalue(expr: Expr) -> bool:
    """True if the expression can appear on the left of an assignment."""
    return (
        isinstance(expr, Name)
        or isinstance(expr, Subscript)
        or (isinstance(expr, Unary) and expr.op == "*")
    )
