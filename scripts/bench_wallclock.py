"""Wall-clock benchmark of ``run_compiled`` across the benchmark suite.

Times real (not modeled) execution of every benchmark's optimized variant
and writes ``BENCH_wallclock.json`` next to the repo root, so perf PRs have
before/after numbers.  Also reports the vectorized/interleaved launch split
from the profiler counters — the whole point of the fast path is moving
launches into the ``vectorized`` column without changing any modeled output.

Usage:
    PYTHONPATH=src python scripts/bench_wallclock.py [--quick] [--size SIZE]
        [--repeat N] [--output PATH] [--sweep EXP] [--sweep-jobs N]
        [--sample] [--json]

``--quick`` runs a single repetition on the tiny inputs (CI smoke test).
``--sweep fig1`` additionally times that experiment's full benchmark sweep
at ``--jobs 1`` vs ``--jobs N`` (the parallel scheduler's wall-clock win on
multi-core machines) and records both in the report.
``--sample`` additionally times each benchmark under phase-sampled
execution (repro.sampling) and records sampled-vs-full wall/modeled-time
ratios.  ``--json`` prints one machine-readable JSON row per benchmark to
stdout instead of the human table, so CI artifacts are diffable without
screen-scraping (the report file is written either way).
"""

import argparse
import importlib
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.bench import suite
from repro.compiler import clear_compile_cache
from repro.device.device import DeviceConfig
from repro.interp import run_compiled
from repro.runtime.profiler import CTR_LAUNCH_INTERLEAVED, CTR_LAUNCH_VECTORIZED
from repro.toolchain import ToolchainContext


def time_benchmark(name: str, size: str, repeat: int,
                   sampled: bool = False) -> dict:
    bench = suite.get(name)
    params = bench.params(size)
    best = float("inf")
    counters = {}
    modeled = 0.0
    transferred = 0
    for _ in range(repeat):
        # Fresh compile each repetition so the timing includes the (memoized)
        # front-end, exactly what experiment harnesses pay.
        ctx = ToolchainContext()
        if sampled:
            from repro.sampling import SamplingConfig

            ctx.sampling = SamplingConfig()
        compiled = bench.compile("optimized", ctx=ctx)
        start = time.perf_counter()
        interp = run_compiled(compiled, params=params, ctx=ctx)
        best = min(best, time.perf_counter() - start)
        profiler = interp.runtime.profiler
        counters = dict(profiler.counters)
        modeled = profiler.total()
        transferred = interp.runtime.device.total_transferred_bytes()
    return {
        "seconds": best,
        "modeled_seconds": modeled,
        "transferred_bytes": transferred,
        "launches_vectorized": counters.get(CTR_LAUNCH_VECTORIZED, 0),
        "launches_interleaved": counters.get(CTR_LAUNCH_INTERLEAVED, 0),
        "skipped_launches": counters.get("sample.skipped_launches", 0),
        "skipped_iterations": counters.get("sample.skipped_iterations", 0),
    }


def measure_transfer_bytes(name: str, size: str) -> dict:
    """Modeled transfer bytes for both source variants under whole-array and
    delta (dirty-interval) transfer modes.  Deterministic: modeled byte
    counts depend only on the program, inputs and transfer mode."""
    bench = suite.get(name)
    params = bench.params(size)
    out = {}
    for variant in ("optimized", "unoptimized"):
        entry = {}
        for mode, config in (
            ("whole", None),
            ("delta", DeviceConfig(delta_transfers=True)),
        ):
            ctx = ToolchainContext(device_config=config)
            compiled = bench.compile(variant, ctx=ctx)
            interp = run_compiled(compiled, params=params, ctx=ctx)
            entry[mode] = interp.runtime.device.total_transferred_bytes()
        whole = entry["whole"]
        entry["saved_pct"] = (
            100.0 * (whole - entry["delta"]) / whole if whole else 0.0
        )
        out[variant] = entry
    return out


def time_sweep(experiment: str, size: str, jobs_levels) -> dict:
    """Wall-clock one experiment's full sweep at each scheduler width."""
    module = importlib.import_module(f"repro.experiments.{experiment}")
    timings = {}
    for jobs in jobs_levels:
        start = time.perf_counter()
        module.run(size, jobs=jobs)
        timings[f"jobs{jobs}"] = time.perf_counter() - start
    return timings


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one repetition (CI smoke test)")
    parser.add_argument("--size", default=None, choices=["tiny", "small", "large"],
                        help="input size (default: small, or tiny with --quick)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="repetitions per benchmark; best time wins")
    parser.add_argument("--output", default="BENCH_wallclock.json")
    parser.add_argument("--sweep", default=None,
                        choices=["fig1", "fig3", "fig4", "table2", "table3"],
                        help="also time this experiment's sweep at --jobs 1 "
                             "vs --sweep-jobs N")
    parser.add_argument("--sweep-jobs", type=int,
                        default=max(2, min(4, os.cpu_count() or 1)),
                        help="parallel width for the --sweep comparison")
    parser.add_argument("--sample", action="store_true",
                        help="also time each benchmark under phase-sampled "
                             "execution and record sampled-vs-full ratios")
    parser.add_argument("--json", action="store_true", dest="json_rows",
                        help="print one machine-readable JSON row per "
                             "benchmark instead of the human table")
    args = parser.parse_args()

    size = args.size or ("tiny" if args.quick else "small")
    repeat = args.repeat or (1 if args.quick else 3)
    clear_compile_cache()

    results = {}
    total = 0.0
    best_savings = (0.0, None)   # (saved_pct, "BENCH variant")
    for name in suite.all_names():
        entry = time_benchmark(name, size, repeat)
        entry["transfer_bytes"] = measure_transfer_bytes(name, size)
        if args.sample:
            sampled = time_benchmark(name, size, repeat, sampled=True)
            full_wall = entry["seconds"]
            full_modeled = entry["modeled_seconds"]
            sampled["wall_ratio"] = (
                sampled["seconds"] / full_wall if full_wall else 1.0)
            sampled["modeled_rel_error"] = (
                abs(sampled["modeled_seconds"] - full_modeled)
                / full_modeled if full_modeled else 0.0)
            entry["sampled"] = sampled
        results[name] = entry
        total += entry["seconds"]
        xfer = entry["transfer_bytes"]
        for variant, modes in xfer.items():
            if modes["saved_pct"] > best_savings[0]:
                best_savings = (modes["saved_pct"], f"{name} {variant}")
        if args.json_rows:
            print(json.dumps({"benchmark": name, "size": size, **entry},
                             sort_keys=True))
        else:
            line = (f"{name:10s} {entry['seconds']:8.4f}s  "
                    f"vec={entry['launches_vectorized']:5d} "
                    f"interleaved={entry['launches_interleaved']:4d}  "
                    f"bytes opt={xfer['optimized']['whole']}/"
                    f"{xfer['optimized']['delta']} "
                    f"unopt={xfer['unoptimized']['whole']}/"
                    f"{xfer['unoptimized']['delta']} (whole/delta)")
            if args.sample:
                line += (f"  sampled={entry['sampled']['seconds']:.4f}s "
                         f"({entry['sampled']['wall_ratio']:.0%} wall, "
                         f"rel_err={entry['sampled']['modeled_rel_error']:.1e})")
            print(line)
    if not args.json_rows:
        print(f"{'TOTAL':10s} {total:8.4f}s")
        if best_savings[1] is not None:
            print(f"max delta-transfer savings: {best_savings[0]:.1f}% "
                  f"({best_savings[1]})")

    report = {
        "size": size,
        "repeat": repeat,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "total_seconds": total,
        "max_transfer_saved_pct": best_savings[0],
        "max_transfer_saved_at": best_savings[1],
        "benchmarks": results,
    }
    if args.sweep:
        levels = [1]
        if args.sweep_jobs > 1:
            levels.append(args.sweep_jobs)
        sweep = time_sweep(args.sweep, size, levels)
        report["sweep"] = {"experiment": args.sweep, **sweep}
        line = "  ".join(f"{k}={v:.3f}s" for k, v in sweep.items())
        print(f"{args.sweep} sweep: {line}")
        if len(levels) == 2:
            speedup = sweep["jobs1"] / max(sweep[f"jobs{args.sweep_jobs}"], 1e-9)
            report["sweep"]["speedup"] = speedup
            print(f"{args.sweep} sweep speedup: {speedup:.2f}x "
                  f"({os.cpu_count()} cores)")
    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    # Keep stdout pure JSONL under --json.
    print(f"wrote {out_path}",
          file=sys.stderr if args.json_rows else sys.stdout)


if __name__ == "__main__":
    main()
