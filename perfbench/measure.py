"""One workload run in the current process: set up, measure, check, report.

``run.py`` starts one fresh process per workload run (``run.py --child``):
the closure caches in ``lang/semantics.py`` are process-wide, so a second
run in one process would start warm, and a fresh process makes
``peak_rss_mb`` belong to one workload.  After each timed pass it starts
one fresh set-up-only process, so that ``setup_s``, the median set-up time of
this process and those, samples the whole run rather than one moment of it.

The measured phase is a warm-up pass, which fills the process-wide caches
and is not timed, then as many passes as fill ``--seconds`` at the
workload's nominal pass time ``PASS_S``, and at least its ``MIN_TIMED``.  With
``--trace 1`` the later passes alternate untraced and traced, so one
process yields both the per-layer numbers and the tracer's overhead, and
every traced pass is checked against the untraced ones.
"""

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from tracer import Patches

OUT_DIR = ".perfbench"
SETUP_TIMEOUT_S = 30    # a set-up-only process that runs longer is killed


@dataclass
class PassResult:
    """What a workload pass hands back: per-op (seconds, ok), a digest of
    its outputs, which must be identical on every pass, and the wall seconds
    of the parts of the pass that every pass repeats in the same order (the
    rest of the pass is one more part)."""

    ops: List[Tuple[float, bool]]
    digest: str
    extra: Dict[str, float] = field(default_factory=dict)
    segments: List[float] = field(default_factory=list)


def split(ops: List[Tuple[float, bool]], first: int, wall: float) -> List[float]:
    """The parts of a stretch of a pass that took ``wall`` seconds and made
    ``ops[first:]``: each of those ops, then the time between them."""
    times = [s for s, _ in ops[first:]]
    return times + [wall - math.fsum(times)]


class Ledger:
    """Sums the cost-model clock and host<->device bytes over every program
    run (``Interp.run``), whichever layer started it.  Daemon workers finish
    runs in any order, so the clock is summed exactly (``math.fsum``)."""

    def __init__(self):
        self.modeled_s: List[float] = []
        self.bytes = 0
        self._lock = threading.Lock()
        self.patches = Patches()

    def install(self) -> None:
        from repro.interp.interp import Interp

        ledger = self
        original = vars(Interp)["run"]

        def run(interp):
            env = original(interp)
            runtime = interp.runtime
            with ledger._lock:
                ledger.modeled_s.append(runtime.profiler.total())
                ledger.bytes += runtime.device.total_transferred_bytes()
            return env

        self.patches.swap(Interp, "run", run)

    def take(self) -> Tuple[float, int]:
        with self._lock:
            taken = (math.fsum(self.modeled_s), self.bytes)
            self.modeled_s, self.bytes = [], 0
        return taken


def time_calls(patches: Patches, holder, name: str,
               ops: List[Tuple[float, bool]]) -> None:
    """Make every call of ``holder.name`` one operation of the workload:
    append its (seconds, ok) to ``ops``.  ``patches.restore()`` undoes it."""
    original = vars(holder)[name]

    def timed(*args, **kwargs):
        start = time.perf_counter()
        ok = False
        try:
            result = original(*args, **kwargs)
            ok = True
            return result
        finally:
            ops.append((time.perf_counter() - start, ok))

    patches.swap(holder, name, timed)


class Tally:
    """Program counters and compile-cache hits and misses, summed over the
    contexts a workload creates."""

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    def add(self, ctx) -> None:
        from repro.compiler.driver import compile_cache_stats

        for name, value in ctx.metrics.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        stats = compile_cache_stats(ctx)
        self.hits += stats["hits"]
        self.misses += stats["misses"]


@dataclass
class PassRecord:
    wall_s: float
    warmup: bool
    traced: bool
    result: PassResult
    modeled_s: float
    bytes: int


def measure(workload, seconds: float, trace: bool,
            between: Callable[[], None]) -> Tuple[List[PassRecord], object]:
    """Run a warm-up pass, then as many passes as fill ``seconds`` at the
    workload's nominal pass time (at least its MIN_TIMED), calling ``between``
    after each of these.  A
    fixed count, not a deadline, keeps the work of a run, and so its
    memory peak, the same on a slow or contended machine.
    The warm-up fills the process-wide caches and is checked but not timed;
    with ``trace`` the timed passes alternate untraced and traced."""
    from layers import TARGETS
    from tracer import Tracer

    timed = max(workload.MIN_TIMED, round(seconds / workload.PASS_S))
    ledger = Ledger()
    ledger.install()
    tracer = Tracer()
    passes: List[PassRecord] = []
    try:
        for index in range(1 + timed):
            traced = trace and index > 0 and index % 2 == 0
            gc.collect()    # no pass pays for the garbage of the one before
            if traced:
                tracer.install(TARGETS)
            began = time.perf_counter()
            try:
                result = workload.run_pass()
            finally:
                wall = time.perf_counter() - began
                if traced:
                    tracer.uninstall()
            modeled, nbytes = ledger.take()
            passes.append(PassRecord(wall, index == 0, traced, result,
                                     modeled, nbytes))
            if index > 0:
                between()
    finally:
        ledger.patches.restore()
    return passes, tracer


def consistency_problems(passes: List[PassRecord]) -> List[str]:
    """Every pass runs the same inputs, so outputs, modeled time and bytes
    must repeat exactly, traced or not."""
    first = passes[0]
    problems = []
    for i, rec in enumerate(passes[1:], start=1):
        kind = "traced" if rec.traced else "untraced"
        if rec.result.digest != first.result.digest:
            problems.append(f"pass {i} ({kind}): outputs differ from pass 0")
        if rec.modeled_s != first.modeled_s or rec.bytes != first.bytes:
            problems.append(
                f"pass {i} ({kind}): modeled {rec.modeled_s!r} s / "
                f"{rec.bytes} B differ from pass 0 "
                f"({first.modeled_s!r} s / {first.bytes} B)")
    return problems


def fastest(runs: List[List[float]]) -> List[float]:
    """Element-wise, the fastest of the timed passes: the slow stretches of
    a shared machine only ever add time, so the minimum of each part is the
    repeatable figure."""
    return [min(times) for times in zip(*runs, strict=True)]


def pass_parts(rec: PassRecord) -> List[float]:
    segments = rec.result.segments
    return segments + [rec.wall_s - math.fsum(segments)]


def end_to_end(passes: List[PassRecord],
               same_ops: bool) -> Tuple[Dict[str, float], int, int]:
    """The end-to-end metrics, timed over the untraced passes after the
    warm-up, plus the number of operations attempted and failed in all.
    Where every pass makes the same ops in the same order (``same_ops``),
    each op and each stretch between ops counts with its fastest timed pass,
    and ``wall_s`` is their sum.  Otherwise the passes run their requests
    concurrently in a new order each time, so the fastest pass is a lucky
    one: ``wall_s`` is the median pass and the percentiles are over every
    request."""
    timed = [rec for rec in passes if not rec.traced and not rec.warmup]
    runs = [[s for s, _ in rec.result.ops] for rec in timed]
    if same_ops:
        latencies = fastest(runs)
        wall = math.fsum(fastest([pass_parts(rec) for rec in timed]))
    else:
        latencies = [s for times in runs for s in times]
        wall = statistics.median(rec.wall_s for rec in timed)
    attempted = sum(len(rec.result.ops) for rec in passes)
    failed = sum(1 for rec in passes for _, ok in rec.result.ops if not ok)
    return {
        "wall_s": wall,
        "ops_per_s": len(runs[0]) / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "success_rate": 1.0 - failed / attempted,
        "modeled_ms": statistics.median_low(rec.modeled_s
                                            for rec in timed) * 1e3,
        "transfer_bytes": statistics.median_low(rec.bytes for rec in timed),
    }, attempted, failed


def per_layer(workload, passes: List[PassRecord], tracer) -> Dict[str, float]:
    from layers import layer_metrics, ratio

    traced = [rec for rec in passes if rec.traced]
    untraced = [rec for rec in passes if not rec.traced and not rec.warmup]
    tally = workload.tally
    out = layer_metrics(tracer, len(traced), tally.counters)
    out["compiler.cache.hit_ratio"] = ratio(tally.hits,
                                            tally.hits + tally.misses)
    traced_wall = sum(rec.wall_s for rec in traced)
    out["trace.overhead"] = (
        statistics.median(rec.wall_s for rec in traced)
        / statistics.median(rec.wall_s for rec in untraced) - 1.0)
    out["trace.coverage"] = ratio(sum(tracer.self_s.values()), traced_wall)
    out["op.samples"] = sum(len(rec.result.ops) for rec in untraced)
    for name in untraced[0].result.extra:
        out[name] = statistics.median(rec.result.extra[name]
                                      for rec in untraced)
    return out


def load(name: str, seed: int):
    if name == "paper":
        from paper import Paper as cls
    elif name == "scale":
        from scale import Scale as cls
    elif name == "service":
        from service import Service as cls
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return cls(seed)


def time_setup(command: List[str]) -> float:
    """The set-up time of one fresh set-up-only process."""
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=SETUP_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def child_main(args, start: float, setup_command: List[str]) -> int:
    """Run one workload in this process; ``start`` is the process start and
    ``setup_command`` starts a set-up-only process of the same workload."""
    from tracer import import_all

    import_all()
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = load(args.workload, args.seed)
    setups = [time.perf_counter() - start]

    def between() -> None:
        if not args.trace:      # a traced run reports no set-up time
            setups.append(time_setup(setup_command))

    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        passes, tracer = measure(workload, args.seconds, bool(args.trace),
                                 between)
        problems = consistency_problems(passes) + workload.check()
    finally:
        workload.close()
    metrics, attempted, failed = end_to_end(passes, workload.SAME_OPS)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.trace:
        metrics.update(per_layer(workload, passes, tracer))
        tracer.write_spans(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "problems": problems,
                      "passes": len(passes), "metrics": metrics}))
    return 0
