"""Lane-space launches: the vectorized backend builds its lane registers from
the launch's index space and never lists per-thread index tuples; only the
interleaved stepper iterates them."""

import numpy as np
import pytest

from repro.bench import suite
from repro.device.compile import compile_body
from repro.device.device import Device, DeviceConfig
from repro.device.engine import IndexSpace, KernelEngine, LaunchSpec
from repro.interp import run_compiled
from repro.lang.parser import parse_program
from repro.runtime.accrt import AccRuntime
from repro.runtime.profiler import CTR_LAUNCH_INTERLEAVED, Profiler


@pytest.fixture
def no_points(monkeypatch):
    """Fail any attempt to enumerate an index space's per-thread tuples."""
    def points(self):
        raise AssertionError("per-thread index tuples were built")
    monkeypatch.setattr(IndexSpace, "points", points)


def _spec(arrays):
    prog = parse_program(
        "void main() { for (int i = 0; i < 1; i++) { for (int j = 0; j < 1; j++) {"
        " a[i][j] = b[i][j] * 2.0 + (double)(i - j); s = s + b[i][j]; } } }"
    )
    body = prog.func("main").body.body[0].body.body[0].body.body
    return LaunchSpec(
        "k2d", compile_body(body), ("i", "j"),
        IndexSpace([range(1, 6), range(7, -1, -2)]),
        arrays=arrays, reductions=[("s", "+", np.float32)],
    )


def _arrays():
    return {"a": np.zeros((6, 8)),
            "b": np.arange(48.0).reshape(6, 8) / 7.0}


def test_vectorized_launch_never_lists_threads(no_points):
    result = KernelEngine().launch(_spec(_arrays()))
    assert result.backend == "vectorized"


def test_interleaved_launch_of_same_space_gives_same_result():
    fast_arrays, slow_arrays = _arrays(), _arrays()
    fast = KernelEngine().launch(_spec(fast_arrays))
    slow = KernelEngine().launch(_spec(slow_arrays), backend="interleaved")
    assert (fast.backend, slow.backend) == ("vectorized", "interleaved")
    assert fast.total_steps == slow.total_steps
    assert fast.max_thread_steps == slow.max_thread_steps
    assert fast.reductions == slow.reductions
    assert fast.shared_final == slow.shared_final
    for name in fast_arrays:
        np.testing.assert_array_equal(fast_arrays[name], slow_arrays[name])


def test_whole_program_runs_without_listing_threads(no_points):
    """Every JACOBI launch vectorizes, so none may enumerate its threads."""
    bench = suite.get("JACOBI")
    runtime = AccRuntime(Device(DeviceConfig(vectorize=True)), Profiler())
    interp = run_compiled(bench.compile("optimized"), params=bench.params("tiny"),
                          runtime=runtime)
    assert interp.runtime.profiler.counters.get(CTR_LAUNCH_INTERLEAVED, 0) == 0
    assert interp.runtime.launch_log
