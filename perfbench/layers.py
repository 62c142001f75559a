"""The layers of ``src/repro`` the benchmark times.

Each row wraps one layer's public functions from outside (see tracer.py).
Which end-to-end metric and workload a change to each layer should move is
mapped in DESIGN.md.  ``obs``, the program's own tracer, stays off and is
not measured.
"""

from __future__ import annotations

from typing import Dict, List

from tracer import Target, Tracer

EXPERIMENTS = ("fig1", "fig3", "fig4", "table2", "table3")

# (layer, owner, wrapped functions, tally)
TARGETS: List[Target] = [
    ("lang.parse", "repro.lang.parser", ("parse_program",), None),
    ("compiler.compile", "repro.compiler.passes:PassManager",
     ("compile_source", "compile_ast"), None),
    ("compiler.rewrite", "repro.compiler.passes:PassManager", ("rewrite",),
     None),
    ("interp.run", "repro.interp.interp:Interp", ("run",), None),
    ("runtime.launch", "repro.runtime.accrt:AccRuntime", ("launch",), None),
    ("runtime.transfer", "repro.runtime.accrt:AccRuntime",
     ("data_enter", "data_exit", "copy_to_device", "copy_to_host",
      "update_host", "update_device"), None),
    ("runtime.coherence", "repro.runtime.accrt:AccRuntime",
     ("check_read", "check_write", "reset_status"), None),
    ("device.engine", "repro.device.engine:KernelEngine", ("launch",), None),
    ("device.vector", "repro.device.vectorize", ("execute",), None),
    ("verify.kernel", "repro.verify.kernelverify:KernelVerifier", ("run",),
     None),
    ("verify.mem", "repro.verify.memverify:MemVerifier", ("run",), None),
    ("verify.optimize", "repro.verify.interactive:InteractiveOptimizer",
     ("run",), lambda trace: trace.total_iterations),
    ("verify.compare", "repro.verify.comparison",
     ("compare_arrays", "compare_scalars"), None),
    ("service.disk_write", "repro.service.cache:DiskTier", ("put",), None),
] + [
    (f"experiments.{name}", f"repro.experiments.{name}", ("compute_row",),
     None)
    for name in EXPERIMENTS
]

# Measured by the workload that exercises them; 0 on the other workloads.
WORKLOAD_METRICS = (
    "service.wait_ms", "service.worker_util", "service.cache.mem_hit_ratio",
    "service.cache.disk_hit_ratio",
) + tuple(f"program.{name}.wall_s" for name in (
    "JACOBI", "CG", "SRAD", "JACOBI_sampled", "CG_sampled"))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, traced_passes: int,
                  counters: Dict[str, int]) -> Dict[str, float]:
    """Per-traced-pass calls and self seconds of every layer, plus the
    ratios read from the program's own counters."""
    out: Dict[str, float] = dict.fromkeys(WORKLOAD_METRICS, 0.0)
    for layer, *_ in TARGETS:
        out[f"{layer}.calls"] = tracer.calls.get(layer, 0) / traced_passes
        out[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0) / traced_passes
    out["verify.optimize.rounds"] = (
        tracer.tallies.get("verify.optimize", 0) / traced_passes)
    out["service.cache.disk_writes"] = out["service.disk_write.calls"]
    vectorized = counters.get("launch.vectorized", 0)
    launched = vectorized + counters.get("launch.interleaved", 0)
    skipped = counters.get("sample.skipped_launches", 0)
    out["device.vector.share"] = ratio(vectorized, launched)
    # The sampler replays the counters of the launches it skips, so
    # ``launched`` already counts them.
    out["sampling.skipped_launch_ratio"] = ratio(skipped, launched)
    return out
