"""Development helper: validate benchmark modules end to end.

Usage:
    python scripts/check_bench.py <module-name> [size]
    python scripts/check_bench.py --guard BENCH_bytes.json [--update] [size]
    python scripts/check_bench.py --guard-time BENCH_time.json [--update]
        [--tolerance R] [size]
    python scripts/check_bench.py --guard-service BENCH_service.json
        [--results bench_out.json] [--update]
    python scripts/check_bench.py --compare-reports A.json B.json

The first form runs one module's variants against the sequential reference
and prints launch/transfer stats.  The ``--guard`` form measures every
benchmark's modeled transfer bytes (both variants, whole-array and delta
transfer modes) and compares them against a committed baseline with exact
equality — modeled byte counts are deterministic, so any drift is a real
behavior change that must be explained (and the baseline regenerated with
``--update``).

The ``--guard-time`` form does the same for modeled execution time (both
variants, seconds from the cost-model profiler).  Modeled time is
deterministic too, but floating-point accumulation order can shift by ulps
across refactors, so the comparison uses a relative tolerance band
(default 1e-6) instead of exact equality.  Anything outside the band is a
real cost-model change: explain it and regenerate with ``--update``.

The ``--compare-reports`` form diffs two RunReport artifacts (``repro run
--report``) structurally: modeled time, byte/transfer/launch totals,
counters, span-name counts, and finding kinds — wall-clock noise excluded —
so CI can flag behavioral drift between a baseline and a candidate run.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.compiler import CompilerOptions, compile_source
from repro.device.device import DeviceConfig
from repro.interp import run_compiled, run_sequential
from repro.runtime.profiler import CTR_LAUNCH_INTERLEAVED, CTR_LAUNCH_VECTORIZED
from repro.toolchain import ToolchainContext

MODES = (("whole", None), ("delta", DeviceConfig(delta_transfers=True)))


def check(mod_name: str, size: str = "tiny") -> None:
    mod = importlib.import_module(f"repro.bench.programs.{mod_name}")
    params = mod.make_params(size)
    for variant in ("OPTIMIZED", "UNOPTIMIZED"):
        src = getattr(mod, variant)
        compiled = compile_source(src)
        seq = run_sequential(compiled, params=params)
        acc = run_compiled(compiled, params=params)
        for out in mod.OUTPUTS:
            ref = seq.env.load(out)
            got = acc.env.load(out)
            if isinstance(ref, np.ndarray):
                ok = np.allclose(ref, got, rtol=1e-6, atol=1e-9)
            else:
                ok = np.isclose(float(ref), float(got), rtol=1e-6, atol=1e-9)
            status = "OK " if ok else "FAIL"
            print(f"  [{status}] {variant:12s} {out}")
            if not ok:
                print("    ref:", np.asarray(ref).ravel()[:8])
                print("    got:", np.asarray(got).ravel()[:8])
        kplans = compiled.kernels
        priv = sum(1 for p in kplans.values() if p.private_decls)
        red = sum(1 for p in kplans.values() if p.reductions)
        if variant == "OPTIMIZED":
            print(f"  kernels={len(kplans)} with-private={priv} "
                  f"with-private-clause="
                  f"{sum(1 for r in compiled.regions.compute if r.directive.clause('private'))} "
                  f"with-reduction={red} warnings={compiled.warnings}")
        counters = acc.runtime.profiler.counters
        xfer = acc.runtime.device.total_transferred_bytes()
        print(f"  {variant}: transferred {xfer} bytes, "
              f"{len(acc.runtime.transfer_log)} transfers, "
              f"launches vec={counters.get(CTR_LAUNCH_VECTORIZED, 0)} "
              f"interleaved={counters.get(CTR_LAUNCH_INTERLEAVED, 0)}")


def measure_all(size: str = "tiny") -> dict:
    """Per-benchmark modeled transfer bytes (variant x transfer mode)."""
    from repro.bench import suite

    out = {}
    for name in suite.all_names():
        bench = suite.get(name)
        params = bench.params(size)
        entry = {}
        for variant in ("optimized", "unoptimized"):
            modes = {}
            for mode, config in MODES:
                ctx = ToolchainContext(device_config=config)
                compiled = bench.compile(variant, ctx=ctx)
                interp = run_compiled(compiled, params=params, ctx=ctx)
                modes[mode] = interp.runtime.device.total_transferred_bytes()
            entry[variant] = modes
        out[name] = entry
    return out


def measure_all_time(size: str = "tiny") -> dict:
    """Per-benchmark modeled execution seconds (both source variants)."""
    from repro.bench import suite

    out = {}
    for name in suite.all_names():
        bench = suite.get(name)
        params = bench.params(size)
        entry = {}
        for variant in ("optimized", "unoptimized"):
            ctx = ToolchainContext()
            compiled = bench.compile(variant, ctx=ctx)
            interp = run_compiled(compiled, params=params, ctx=ctx)
            entry[variant] = interp.runtime.profiler.total()
        out[name] = entry
    return out


def guard_time(baseline_path: str, size: str = "tiny", update: bool = False,
               tolerance: float = 1e-6) -> int:
    path = Path(baseline_path)
    current = {"size": size, "tolerance": tolerance,
               "benchmarks": measure_all_time(size)}
    if update or not path.exists():
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0
    baseline = json.loads(path.read_text())
    tol = float(baseline.get("tolerance", tolerance))
    failures = []
    for name, entry in current["benchmarks"].items():
        expect = baseline.get("benchmarks", {}).get(name)
        if expect is None:
            failures.append(f"{name}: missing from baseline")
            continue
        for variant, seconds in entry.items():
            want = expect.get(variant)
            if want is None:
                failures.append(f"{name}/{variant}: missing from baseline")
                continue
            scale = max(abs(want), abs(seconds), 1e-30)
            rel = abs(seconds - want) / scale
            if rel > tol:
                failures.append(
                    f"{name}/{variant}: modeled {seconds:.9g}s vs baseline "
                    f"{want:.9g}s (rel err {rel:.3g} > tol {tol:g})"
                )
    missing = set(baseline.get("benchmarks", {})) - set(current["benchmarks"])
    failures.extend(f"{name}: benchmark disappeared" for name in sorted(missing))
    if failures:
        print("modeled-time guard FAILED:")
        for line in failures:
            print(f"  {line}")
        print(f"(regenerate with: python scripts/check_bench.py --guard-time "
              f"{baseline_path} --update {size})")
        return 1
    print(f"modeled-time guard OK: {len(current['benchmarks'])} benchmarks "
          f"within rel tol {tol:g} of {path}")
    return 0


def guard(baseline_path: str, size: str = "tiny", update: bool = False) -> int:
    path = Path(baseline_path)
    current = {"size": size, "benchmarks": measure_all(size)}
    if update or not path.exists():
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0
    baseline = json.loads(path.read_text())
    failures = []
    for name, entry in current["benchmarks"].items():
        expect = baseline.get("benchmarks", {}).get(name)
        if expect != entry:
            failures.append(f"{name}: expected {expect}, got {entry}")
    missing = set(baseline.get("benchmarks", {})) - set(current["benchmarks"])
    failures.extend(f"{name}: benchmark disappeared" for name in sorted(missing))
    if failures:
        print("transfer-byte guard FAILED:")
        for line in failures:
            print(f"  {line}")
        print(f"(regenerate with: python scripts/check_bench.py --guard "
              f"{baseline_path} --update {size})")
        return 1
    print(f"transfer-byte guard OK: {len(current['benchmarks'])} benchmarks "
          f"match {path}")
    return 0


def guard_service(baseline_path: str, results_path: str = None,
                  update: bool = False) -> int:
    """Guard the toolchain service's deterministic outputs.

    Wall-clock latency is machine noise, so the guard pins what *is*
    deterministic about the service: the per-program sha256 of each compile
    response's stdout (byte-identity with the offline CLI), the workload
    size, and the result schema.  Any digest drift means served responses
    changed — explain it and regenerate with ``--update``.

    With ``--results FILE`` an existing ``bench_service.py --output``
    document is checked (the CI flow); without it a private in-process
    daemon is measured on the spot.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_service

    path = Path(baseline_path)
    if results_path:
        doc = json.loads(Path(results_path).read_text())
    else:
        import os
        import tempfile

        from repro.service import ServiceConfig, ToolchainDaemon

        tmp = tempfile.mkdtemp(prefix="repro-guard-service-")
        daemon = ToolchainDaemon(ServiceConfig(
            socket=os.path.join(tmp, "repro.sock"), workers=4,
            cache_dir=os.path.join(tmp, "cache"),
            spool_dir=os.path.join(tmp, "spool")))
        daemon.start_in_thread()
        try:
            doc = bench_service.run_bench(os.path.join(tmp, "repro.sock"),
                                          concurrency=4)
        finally:
            daemon.request_shutdown()
            daemon.join()
    current = {"schema": doc["schema"], "programs": doc["programs"],
               "digests": doc["digests"]}
    if update or not path.exists():
        snapshot = {**current,
                    "informational": {"concurrency": doc["concurrency"],
                                      "phases": doc["phases"],
                                      "speedup": doc["speedup"]}}
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0
    baseline = json.loads(path.read_text())
    failures = []
    for field in ("schema", "programs"):
        if baseline.get(field) != current[field]:
            failures.append(f"{field}: {current[field]!r} vs baseline "
                            f"{baseline.get(field)!r}")
    want = baseline.get("digests", {})
    for label in sorted(set(want) | set(current["digests"])):
        a, b = want.get(label), current["digests"].get(label)
        if a != b:
            failures.append(f"{label}: response digest {b} vs baseline {a}")
    if not doc.get("digests_stable", True):
        failures.append("digests varied across cache tiers within the run")
    if doc.get("errors"):
        failures.append(f"{len(doc['errors'])} request(s) failed")
    if failures:
        print("service guard FAILED:")
        for line in failures:
            print(f"  {line}")
        print(f"(regenerate with: python scripts/check_bench.py "
              f"--guard-service {baseline_path} --update)")
        return 1
    print(f"service guard OK: {len(current['digests'])} program responses "
          f"match {path}")
    return 0


def compare_reports(path_a: str, path_b: str) -> int:
    from repro.obs.report import diff_reports, validate_report

    reports = []
    for path in (path_a, path_b):
        obj = json.loads(Path(path).read_text())
        problems = validate_report(obj)
        if problems:
            print(f"report {path} is invalid:")
            for p in problems:
                print(f"  - {p}")
            return 2
        reports.append(obj)
    diffs = diff_reports(reports[0], reports[1])
    if diffs:
        print(f"report comparison FAILED ({path_a} vs {path_b}):")
        for line in diffs:
            print(f"  {line}")
        return 1
    print(f"report comparison OK: {path_a} and {path_b} are "
          f"structurally identical")
    return 0


def main(argv) -> int:
    if argv and argv[0] == "--compare-reports":
        return compare_reports(argv[1], argv[2])
    if argv and argv[0] == "--guard":
        baseline = argv[1]
        rest = argv[2:]
        update = "--update" in rest
        rest = [a for a in rest if a != "--update"]
        size = rest[0] if rest else "tiny"
        return guard(baseline, size=size, update=update)
    if argv and argv[0] == "--guard-service":
        baseline = argv[1]
        rest = argv[2:]
        update = "--update" in rest
        rest = [a for a in rest if a != "--update"]
        results = None
        if "--results" in rest:
            idx = rest.index("--results")
            results = rest[idx + 1]
        return guard_service(baseline, results_path=results, update=update)
    if argv and argv[0] == "--guard-time":
        baseline = argv[1]
        rest = argv[2:]
        update = "--update" in rest
        rest = [a for a in rest if a != "--update"]
        tolerance = 1e-6
        if "--tolerance" in rest:
            idx = rest.index("--tolerance")
            tolerance = float(rest[idx + 1])
            del rest[idx:idx + 2]
        size = rest[0] if rest else "tiny"
        return guard_time(baseline, size=size, update=update,
                          tolerance=tolerance)
    check(argv[0], argv[1] if len(argv) > 1 else "tiny")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
