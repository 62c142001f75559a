"""Properties of lane-space launches: index-space lane registers and the
numpy tree reduction, each checked against the scalar algorithm it replaces."""

import itertools
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.kernelgen import PartitionedLoop
from repro.device.engine import IndexSpace
from repro.device.reduction import _COMBINE, IDENTITY, identity, tree_reduce
from repro.lang import ast

# ---------------------------------------------------------------------------
# Index space vs itertools.product
# ---------------------------------------------------------------------------

loop_bounds = st.tuples(
    st.integers(min_value=-7, max_value=7),                   # init
    st.sampled_from(["<", "<=", ">", ">="]),                  # condition
    st.integers(min_value=-7, max_value=7),                   # bound
    st.sampled_from([-3, -2, -1, 1, 2, 3]),                   # step
)


def _ranges(loops):
    return [
        PartitionedLoop(f"i{k}", ast.IntLit(init), op, ast.IntLit(bound), step)
        .iteration_values(lambda expr: expr.value)
        for k, (init, op, bound, step) in enumerate(loops)
    ]


@given(st.lists(loop_bounds, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_index_space_registers_follow_product_order(loops):
    ranges = _ranges(loops)
    assert all(isinstance(r, range) for r in ranges)
    expected = list(itertools.product(*ranges))
    space = IndexSpace(ranges)
    assert space.nlanes == len(expected)
    assert list(space.points()) == expected
    registers = space.registers(len(ranges))
    assert len(registers) == len(ranges)
    for k, reg in enumerate(registers):
        assert reg.dtype == np.int64
        assert reg.shape == (len(expected),)
        assert reg.tolist() == [point[k] for point in expected]
    # A space wrapping the same tuples gives the same registers.
    listed = IndexSpace(points=expected).registers(len(ranges))
    for reg, other in zip(registers, listed):
        assert np.array_equal(reg, other)


def test_empty_loop_nest_is_one_lane():
    space = IndexSpace(())
    assert space.nlanes == 1
    assert list(space.points()) == [()]
    assert space.registers(0) == []


# ---------------------------------------------------------------------------
# tree_reduce vs the scalar algorithm it replaced
# ---------------------------------------------------------------------------

def scalar_tree_reduce(op, partials, dtype=None):
    """The reference: pairwise tree reduction one Python combine at a time."""
    fn = _COMBINE[op]
    if not partials:
        return identity(op)
    values = list(partials)
    if dtype is not None:
        values = [np.dtype(dtype).type(v) for v in values]
    while len(values) > 1:
        nxt = []
        for i in range(0, len(values) - 1, 2):
            v = fn(values[i], values[i + 1])
            if dtype is not None:
                v = np.dtype(dtype).type(v)
            nxt.append(v)
        if len(values) % 2:
            nxt.append(values[-1])
        values = nxt
    result = values[0]
    return result.item() if isinstance(result, np.generic) else result


def _outcome(fn, *args):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return ("value", fn(*args))
        except Exception as exc:  # the exception type is part of the contract
            return ("raises", type(exc))


def _bits(value):
    """A key equal only for bit-identical results of the same type.

    Every NaN counts as one value: when both operands of a combine are NaN,
    IEEE 754 leaves open whose sign and payload propagate, and numpy's
    scalar and SIMD loops pick differently."""
    if isinstance(value, float):
        if math.isnan(value):
            return (float, "nan")
        return (float, struct.pack("<d", value))
    return (type(value), value)


def assert_same(op, partials, dtype, reference=None):
    got = _outcome(tree_reduce, op, partials, dtype)
    if reference is None:
        reference = partials.tolist() if isinstance(partials, np.ndarray) else partials
    want = _outcome(scalar_tree_reduce, op, reference, dtype)
    if want[0] == "raises":
        assert got == want, (op, dtype, len(reference))
    else:
        assert got[0] == "value", (op, dtype, got)
        assert _bits(got[1]) == _bits(want[1]), (op, dtype, got[1], want[1])


special_floats = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.25, 1e-45, 3.4e38]
)
floats = st.one_of(st.floats(), special_floats)
ints = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-2**70, max_value=2**70),
    st.sampled_from([2**31 - 1, -2**31, 2**31, 2**53 + 1, 2**63 - 1, -2**63]),
)
DTYPES = [None, np.float64, np.float32, np.int32]
OPS = list(IDENTITY)
lengths = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(min_value=4, max_value=41))


@st.composite
def partial_lists(draw):
    n = draw(lengths)
    kind = draw(st.sampled_from(["float", "int", "mixed"]))
    element = {"float": floats, "int": ints, "mixed": st.one_of(floats, ints)}[kind]
    return draw(st.lists(element, min_size=n, max_size=n))


@given(st.sampled_from(OPS), st.sampled_from(DTYPES + [np.dtype(np.float32)]),
       partial_lists())
@settings(max_examples=400, deadline=None)
def test_tree_reduce_matches_scalar_algorithm_on_lists(op, dtype, values):
    assert_same(op, values, dtype)


@given(st.sampled_from(OPS), st.sampled_from(DTYPES + [np.dtype(np.float32)]),
       partial_lists())
@settings(max_examples=300, deadline=None)
def test_tree_reduce_matches_scalar_algorithm_on_lane_registers(op, dtype, values):
    """Vectorized launches pass their float64/int64 lane register; the
    reference sees the Python values the register holds."""
    if all(isinstance(v, float) for v in values):
        register = np.array(values, dtype=np.float64)
    elif all(isinstance(v, int) and -2**63 <= v < 2**63 for v in values):
        register = np.array(values, dtype=np.int64)
    else:
        return
    assert_same(op, register, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", OPS)
def test_tree_reduce_matches_scalar_algorithm_at_scale(op, dtype):
    rng = np.random.default_rng(7)
    n = 100_001
    if op in ("&", "|", "^", "&&", "||"):
        register = rng.integers(-2**31, 2**31, size=n, dtype=np.int64)
        register[rng.integers(0, n, size=50)] = 0
    else:
        register = rng.standard_normal(n) * 1e3
        register[rng.integers(0, n, size=20)] = math.nan
        register[rng.integers(0, n, size=20)] = -0.0
        register[rng.integers(0, n, size=5)] = math.inf
    assert_same(op, register, dtype)
