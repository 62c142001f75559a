"""Host memory environment.

Scalars live in a scope stack; arrays are numpy buffers allocated when their
declaration executes (symbolic dimensions resolve against program parameters
and already-bound scalars).  Pointers are bindings to arrays; the
environment can map any value back to its *canonical* array name, which is
what the runtime's whole-array coherence tracking is keyed on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import InterpError
from repro.lang import semantics
from repro.lang.ctypes import Array, CType, Pointer, Scalar


class HostEnv:
    """Name resolution + storage for one function activation."""

    def __init__(self, params: Optional[Dict[str, object]] = None,
                 call_handler: Optional[Callable] = None):
        self.params = dict(params or {})
        self.scopes: List[Dict[str, object]] = [{}]
        self.dtypes: Dict[str, object] = {}
        self.canonical: Dict[int, str] = {}   # id(ndarray) -> declared name
        self.stdout: List[str] = []
        self._call_handler = call_handler

    # -- scope management ----------------------------------------------------
    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def _find_scope(self, name: str) -> Optional[Dict[str, object]]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope
        return None

    # -- declaration ---------------------------------------------------------
    def declare(self, name: str, ctype: Optional[CType], value=None) -> None:
        scope = self.scopes[-1]
        if isinstance(ctype, Array):
            shape = self._resolve_shape(ctype, name)
            preset = self.params.get(name)
            if isinstance(preset, np.ndarray):
                if preset.shape != shape:
                    raise InterpError(
                        f"parameter array '{name}' has shape {preset.shape}, "
                        f"declaration wants {shape}"
                    )
                # Always copy: program runs must never mutate caller-owned
                # parameter arrays (re-runs depend on pristine inputs).
                array = np.array(preset, dtype=ctype.elem.dtype, copy=True)
            else:
                array = np.zeros(shape, dtype=ctype.elem.dtype)
            scope[name] = array
            self.canonical.setdefault(id(array), name)
            return
        if isinstance(ctype, Pointer):
            scope[name] = value  # None until bound
            return
        # Scalar: parameter overrides take precedence over the initializer.
        if name in self.params and not isinstance(self.params[name], np.ndarray):
            value = self.params[name]
        if value is None:
            value = 0
        if isinstance(ctype, Scalar):
            self.dtypes[name] = ctype.dtype
            value = np.dtype(ctype.dtype).type(value).item()
        scope[name] = value

    def _resolve_shape(self, ctype: Array, name: str):
        dims = []
        for d in ctype.dims:
            if isinstance(d, int):
                dims.append(d)
                continue
            try:
                dims.append(int(self.load(d)))
            except InterpError:
                if d in self.params:
                    dims.append(int(self.params[d]))
                else:
                    raise InterpError(
                        f"array '{name}': dimension '{d}' is unbound "
                        "(pass it as a program parameter)"
                    )
        return tuple(dims)

    # -- evaluator protocol ----------------------------------------------------
    def load(self, name: str):
        scope = self._find_scope(name)
        if scope is None:
            if name in self.params and not isinstance(self.params[name], np.ndarray):
                return self.params[name]
            raise InterpError(f"unbound name {name!r}")
        value = scope[name]
        if value is None:
            raise InterpError(f"use of unbound pointer {name!r}")
        return value

    def store(self, name: str, value) -> None:
        scope = self._find_scope(name)
        if scope is None:
            # Assignment to an undeclared name: C would reject it; we create
            # a function-scope binding to keep harness-generated code simple.
            scope = self.scopes[0]
        dtype = self.dtypes.get(name)
        if dtype is not None and not isinstance(value, np.ndarray):
            value = np.dtype(dtype).type(value).item()
        scope[name] = value

    def call(self, func: str, args):
        if self._call_handler is not None:
            handled, result = self._call_handler(func, args)
            if handled:
                return result
        if func == "printf":
            self.stdout.append(_format_printf(args))
            return 0
        return semantics.Builtins.call(func, args)

    # -- canonical array names -------------------------------------------------
    def canonical_name(self, name: str) -> str:
        """Resolve a (possibly pointer) name to the underlying array's
        declared name; scalars resolve to themselves."""
        scope = self._find_scope(name)
        if scope is None:
            return name
        value = scope[name]
        if isinstance(value, np.ndarray):
            return self.canonical.get(id(value), name)
        return name

    def array(self, name: str) -> np.ndarray:
        value = self.load(name)
        if not isinstance(value, np.ndarray):
            raise InterpError(f"{name!r} is not an array")
        return value


def _format_printf(args) -> str:
    if not args:
        return ""
    fmt, rest = args[0], args[1:]
    if not isinstance(fmt, str):
        return " ".join(str(a) for a in args)
    # C format -> Python %-format (good enough for benchmark output).
    pyfmt = fmt.replace("%lf", "%f").replace("%le", "%e").replace("%lld", "%d")
    try:
        return pyfmt % tuple(rest)
    except (TypeError, ValueError):
        return fmt + " " + " ".join(str(a) for a in rest)
