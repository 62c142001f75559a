"""Device-side reductions.

Recognized reductions give each thread a private partial which the engine
combines *pairwise, tree-shaped* — the order real GPU reductions use, and
deliberately different from the CPU's left-to-right order, so float results
differ by rounding.  That mismatch is precisely what §III-A's configurable
error margin exists for.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

IDENTITY = {
    "+": 0.0,
    "*": 1.0,
    "max": -math.inf,
    "min": math.inf,
    "&": ~0,
    "|": 0,
    "^": 0,
    "&&": 1,
    "||": 0,
}

_COMBINE = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "max": max,
    "min": min,
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


def identity(op: str):
    return IDENTITY[op]


def combine(op: str, a, b):
    return _COMBINE[op](a, b)


# One tree level of an arithmetic op: combine ``a[k]`` with ``b[k]``
# elementwise, with the per-element semantics of :data:`_COMBINE`
# (``max``/``min`` keep Python's NaN and tie behaviour: the first operand
# wins unless the second compares strictly greater/less).
_ARITH_LEVEL = {
    "+": np.add,
    "*": np.multiply,
    "max": lambda a, b: np.where(b > a, b, a),
    "min": lambda a, b: np.where(b < a, b, a),
}


def _level_op(op: str, dtype):
    """The elementwise combine for one tree level.  The integer/logical ops
    apply :data:`_COMBINE` (and the per-combine rounding) pair by pair as a
    ufunc, so their ``int()``/``bool()`` conversions — and any error they
    raise — happen in the scalar order."""
    level = _ARITH_LEVEL.get(op)
    if level is not None:
        return level
    fn = _COMBINE[op]
    if dtype is not None:
        cast = np.dtype(dtype).type
        return np.frompyfunc(lambda a, b: cast(fn(a, b)), 2, 1)
    return np.frompyfunc(fn, 2, 1)


def _leaves(partials, dtype) -> np.ndarray:
    """The partials as the tree's bottom level.

    With ``dtype`` every partial is rounded to it, as ``dtype(v)`` would.
    Without, values keep Python semantics: float64 lanes stay float64 (the
    same IEEE doubles as Python floats) and anything else becomes an object
    array of Python values, so integers stay unbounded."""
    float_lanes = isinstance(partials, np.ndarray) and partials.dtype == np.float64
    if dtype is None:
        if float_lanes:
            return partials
        leaves = np.empty(len(partials), dtype=object)
        leaves[:] = partials
        return leaves
    if float_lanes and np.dtype(dtype).kind == "f":
        return partials.astype(dtype)
    if isinstance(partials, np.ndarray):
        partials = partials.tolist()
    cast = np.dtype(dtype).type
    return np.array([cast(v) for v in partials], dtype=dtype)


def tree_reduce(op: str, partials: Sequence, dtype=None) -> object:
    """Pairwise tree reduction (GPU order), one numpy operation per level.

    Each level combines adjacent pairs ``(0,1), (2,3), ...`` and carries an
    odd last element up unchanged.  With ``dtype`` (e.g. float32) every
    combine rounds to it, like a real in-register reduction.  ``partials``
    may be a list or a lane register (ndarray).
    """
    if len(partials) == 0:
        return identity(op)
    level = _level_op(op, dtype)
    values = _leaves(partials, dtype)
    with np.errstate(all="ignore"):
        while len(values) > 1:
            even = len(values) & ~1
            nxt = level(values[0:even:2], values[1:even:2])
            if dtype is not None:
                nxt = nxt.astype(dtype, copy=False)
            if len(values) % 2:
                nxt = np.concatenate((nxt, values[-1:]))
            values = nxt
    result = values[0]
    return result.item() if isinstance(result, np.generic) else result


def sequential_reduce(op: str, partials: Sequence, dtype=None) -> object:
    """Left-to-right reduction (CPU order) — the reference the tree order is
    compared against in tests."""
    fn = _COMBINE[op]
    acc = identity(op)
    if dtype is not None:
        acc = np.dtype(dtype).type(acc)
    for v in partials:
        acc = fn(acc, v)
        if dtype is not None:
            acc = np.dtype(dtype).type(acc)
    return acc.item() if isinstance(acc, np.generic) else acc
