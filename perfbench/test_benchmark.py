"""Self-test of the benchmark's tracer, run once per workload.

    python3 -m pytest perfbench/test_benchmark.py

1. Every layer records work on the workload that should exercise it.
2. Traced and untraced passes give identical outputs, modeled time and
   bytes: a traced run alternates the two, and any difference makes it
   report ``"correct": false``.
"""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# Per-layer metric -> the workloads on which it must be above zero.
EXERCISED = {
    "lang.parse.calls": ("paper", "scale", "service"),
    "compiler.compile.calls": ("paper", "scale", "service"),
    "compiler.rewrite.calls": ("paper", "service"),
    "interp.run.calls": ("paper", "scale", "service"),
    "runtime.launch.calls": ("paper", "scale", "service"),
    "runtime.transfer.calls": ("paper", "scale", "service"),
    "runtime.coherence.calls": ("paper", "service"),
    "device.engine.calls": ("paper", "scale", "service"),
    "device.vector.calls": ("paper", "scale", "service"),
    "device.vector.share": ("paper", "scale", "service"),
    "compiler.cache.hit_ratio": ("paper", "service"),
    "verify.kernel.self_s": ("paper", "service"),
    "verify.mem.self_s": ("paper", "service"),
    "verify.optimize.self_s": ("paper", "service"),
    "verify.optimize.rounds": ("paper", "service"),
    "verify.compare.self_s": ("paper", "service"),
    "sampling.skipped_launch_ratio": ("scale",),
    "service.wait_ms": ("service",),
    "service.worker_util": ("service",),
    "service.cache.mem_hit_ratio": ("service",),
    "service.cache.disk_hit_ratio": ("service",),
    "service.cache.disk_writes": ("service",),
    **{f"experiments.{name}.self_s": ("paper",)
       for name in ("fig1", "fig3", "fig4", "table2", "table3")},
    **{f"program.{name}.wall_s": ("scale",)
       for name in ("JACOBI", "CG", "SRAD", "JACOBI_sampled", "CG_sampled")},
}


@pytest.fixture(scope="module", params=["paper", "scale", "service"])
def traced(request):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", request.param, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=175)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return request.param, proc.returncode, result


def value(result, name):
    return result["metrics"][name]["value"]


def test_every_layer_is_exercised(traced):
    workload, _, result = traced
    for name, workloads in EXERCISED.items():
        if workload in workloads:
            assert value(result, name) > 0, (workload, name)
        elif name == "service.cache.disk_writes":
            assert value(result, name) == 0, (workload, name)


def test_tracing_changes_no_output(traced):
    workload, code, result = traced
    assert result["correct"], workload
    assert code == 0


def test_layers_dominate_where_expected(traced):
    workload, _, result = traced
    self_s = {name[:-len(".self_s")]: entry["value"]
              for name, entry in result["metrics"].items()
              if name.endswith(".self_s")}
    if workload == "scale":
        array_work = self_s.pop("interp.run") + self_s.pop("device.vector")
        assert array_work > max(self_s.values())
    if workload == "paper":
        overhead = sum(v for k, v in self_s.items()
                       if k.startswith(("compiler.", "verify."))
                       or k == "device.engine")
        assert overhead > self_s["device.vector"]
