"""Command-line interface.

The tools a downstream user would actually run, mirroring the paper's
workflow (Figure 2):

    python -m repro compile prog.c               # kernel summary + warnings
    python -m repro run prog.c -p N=64           # execute, show device stats
    python -m repro verify prog.c -p N=64 \\
        --options "errorMargin=1e-6,kernels=main_kernel0"   # §III-A
    python -m repro memcheck prog.c -p N=64      # §III-B findings/suggestions
    python -m repro optimize prog.c -p N=64 --outputs a,r -o prog_opt.c
    python -m repro experiments table3 --size small --jobs 4 --json out.json

Program parameters (`-p NAME=VALUE`) bind symbolic array dimensions and
scalar inputs; arrays must be initialized by the program itself when run
from the CLI.

Every invocation builds one fresh :class:`~repro.toolchain.ToolchainContext`
and threads it through the whole pipeline; ``--time-passes`` prints its
per-pass timing table and ``--dump-after=<pass>`` dumps that pass's output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.compiler import CompilerOptions, compile_source
from repro.errors import ReproError, error_stage
from repro.interp import run_compiled, run_sequential
from repro.lang import parse_program, to_source
from repro.toolchain import ToolchainContext


def _context(args) -> ToolchainContext:
    """One fresh context per CLI invocation, configured from the common
    observability flags."""
    ctx = ToolchainContext(device_config=_device_config(args))
    if (getattr(args, "trace", None) or getattr(args, "trace_jsonl", None)
            or getattr(args, "report", None)
            or getattr(args, "trace_enabled", False)):
        from repro.obs import TraceContext, Tracer

        ctx.tracer = Tracer()
        # A traced CLI run mints its own identity, so its exports and
        # RunReport carry the same trace_id a service request would.
        ctx.trace_context = TraceContext.mint()
        ctx.tracer.trace_context = ctx.trace_context
    if getattr(args, "sample", False):
        from repro.sampling import SamplingConfig

        tolerance = getattr(args, "sample_tolerance", None)
        ctx.sampling = (SamplingConfig(tolerance=tolerance)
                        if tolerance is not None else SamplingConfig())
    max_retries = getattr(args, "max_retries", None)
    if max_retries is not None:
        if max_retries < 0:
            raise SystemExit("bad --max-retries: must be >= 0")
        ctx.max_retries = max_retries
    backoff_base = getattr(args, "backoff_base", None)
    if backoff_base is not None:
        if backoff_base < 0:
            raise SystemExit("bad --backoff-base: must be >= 0 seconds")
        ctx.backoff_base = backoff_base
    dump_after = getattr(args, "dump_after", None)
    if dump_after is not None:
        from repro.compiler.passes import pass_names

        if dump_after not in pass_names():
            raise SystemExit(
                f"bad --dump-after: unknown pass {dump_after!r} "
                f"(choose from: {', '.join(pass_names())})"
            )
        ctx.dump_after = dump_after
    return ctx


def _device_config(args):
    """Build a DeviceConfig from --delta-transfers/--merge-gap (None when
    neither flag was given: the stock whole-array device)."""
    delta = getattr(args, "delta_transfers", False)
    gap = getattr(args, "merge_gap", None)
    if not delta and gap is None:
        return None
    from repro.device.device import DeviceConfig

    return DeviceConfig(delta_transfers=delta, transfer_merge_gap_bytes=gap)


def _chaos_plan(args):
    """Build a FaultPlan from --chaos-seed/--chaos-spec (None when neither
    flag was given)."""
    seed = getattr(args, "chaos_seed", None)
    spec_text = getattr(args, "chaos_spec", None)
    if seed is None and spec_text is None:
        return None
    from repro.runtime.chaos import FaultPlan, FaultSpec

    seed = 0 if seed is None else seed
    try:
        spec = (FaultSpec.parse(spec_text, seed=seed) if spec_text
                else FaultSpec.default(seed=seed))
    except ValueError as err:
        raise SystemExit(f"bad --chaos-spec: {err}")
    return FaultPlan(spec)


def _write_observability(args, ctx: ToolchainContext, error=None) -> None:
    """Write the --trace/--trace-jsonl/--report artifacts (also on the
    error path, so a failed run's report carries its typed error — and,
    for ConvergenceError, the per-iteration convergence history)."""
    trace_path = getattr(args, "trace", None)
    jsonl_path = getattr(args, "trace_jsonl", None)
    report_path = getattr(args, "report", None)
    if not (trace_path or jsonl_path or report_path):
        return
    if trace_path:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(ctx.tracer, trace_path)
        sys.stderr.write(f"-- chrome trace written to {trace_path}\n")
    if jsonl_path:
        from repro.obs.export import write_jsonl

        write_jsonl(ctx.tracer, jsonl_path)
        sys.stderr.write(f"-- jsonl trace written to {jsonl_path}\n")
    if report_path:
        import json

        from repro.obs.report import build_report

        report = build_report(
            ctx,
            command=getattr(args, "command", None),
            program=getattr(args, "file", None),
            params=_parse_params(getattr(args, "param", None)),
            error=error,
        )
        with open(report_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True, default=repr)
            handle.write("\n")
        sys.stderr.write(f"-- run report written to {report_path}\n")


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"bad -p value {pair!r}: expected NAME=VALUE")
        name, value = pair.split("=", 1)
        try:
            params[name] = int(value)
        except ValueError:
            try:
                params[name] = float(value)
            except ValueError:
                raise SystemExit(f"bad -p value {pair!r}: VALUE must be numeric")
    return params


def _load(path: str, args, ctx: ToolchainContext) -> "CompiledProgram":
    with open(path) as handle:
        source = handle.read()
    options = CompilerOptions(
        auto_privatize=not getattr(args, "no_auto_privatize", False),
        auto_reduction=not getattr(args, "no_auto_reduction", False),
    )
    return compile_source(source, options, ctx=ctx)


def cmd_compile(args, ctx: ToolchainContext) -> int:
    from repro.compiler.passes import summarize_kernel

    compiled = _load(args.file, args, ctx)
    out = ctx.out
    print(f"{len(compiled.kernels)} kernel(s):", file=out)
    for name, plan in compiled.kernels.items():
        print(f"  {summarize_kernel(name, plan)}", file=out)
    for warning in compiled.warnings:
        print(f"warning: {warning}", file=out)
    if args.show_source:
        print(f"\n{compiled.to_source()}", file=out)
    if args.cache_stats:
        from repro.compiler import compile_cache_stats
        from repro.lang.semantics import expr_cache_stats

        print("\n-- compile caches", file=out)
        for key, value in compile_cache_stats(ctx).items():
            print(f"   {key:15s} {value}", file=out)
        print("-- semantics closure caches", file=out)
        for key, value in expr_cache_stats().items():
            print(f"   {key:15s} {value}", file=out)
    return 0


def cmd_run(args, ctx: ToolchainContext) -> int:
    if getattr(args, "sample", False) and args.compare_sequential:
        raise SystemExit(
            "--sample is incompatible with --compare-sequential: sampled "
            "runs extrapolate skipped iterations, so program outputs are "
            "not faithful")
    compiled = _load(args.file, args, ctx)
    params = _parse_params(args.param)
    plan = _chaos_plan(args)
    runtime = None
    if plan is not None:
        from repro.runtime.accrt import AccRuntime

        runtime = AccRuntime(chaos=plan, ctx=ctx)
    run = run_compiled(compiled, params=params, runtime=runtime, ctx=ctx)
    out = ctx.out
    out.writelines(run.env.stdout)
    profiler = run.runtime.profiler
    device = run.runtime.device
    if plan is not None:
        print(f"\n-- {plan.summary()}", file=out)
    print(f"\n-- modeled time: {profiler.total() * 1e3:.3f} ms", file=out)
    print(f"-- transfers: {len(run.runtime.transfer_log)} "
          f"({device.total_transferred_bytes()} bytes)", file=out)
    for cat, seconds in profiler.breakdown().items():
        if seconds:
            print(f"   {cat:15s} {seconds * 1e6:12.1f} us", file=out)
    sampler = getattr(run, "sampler", None)
    if sampler is not None:
        report = sampler.report()
        print(f"-- sampling: {report['skipped_iterations']} iterations / "
              f"{report['skipped_launches']} launches extrapolated "
              f"({report['extrapolated_seconds'] * 1e3:.3f} ms modeled), "
              f"error bound {report['error_bound']:g}", file=out)
        for loop in report["loops"]:
            if not loop["skipped"]:
                continue
            print(f"   loop {loop['loop']}: measured {loop['measured']}, "
                  f"skipped {loop['skipped']}, "
                  f"{len(loop['groups'])} cluster(s)", file=out)
    if args.compare_sequential:
        seq = run_sequential(compiled, params=params, ctx=ctx)
        # The report should describe the accelerated run, not the
        # sequential reference that just registered itself.
        ctx.last_runtime = run.runtime
        import numpy as np

        bad = []
        for decl in compiled.program.decls:
            a, b = seq.env.load(decl.name), run.env.load(decl.name)
            same = (
                np.allclose(a, b, rtol=1e-6, atol=1e-9)
                if isinstance(a, np.ndarray)
                else np.isclose(float(a), float(b), rtol=1e-6, atol=1e-9)
            )
            if not same:
                bad.append(decl.name)
        print("-- sequential comparison: "
              f"{'MISMATCH in ' + str(bad) if bad else 'OK'}", file=out)
        return 1 if bad else 0
    return 0


def cmd_profile(args, ctx: ToolchainContext) -> int:
    from repro.runtime.profiler import CTR_BYTES_D2H, CTR_BYTES_H2D, CTR_BYTES_SAVED

    compiled = _load(args.file, args, ctx)
    run = run_compiled(compiled, params=_parse_params(args.param), ctx=ctx)
    runtime = run.runtime
    profiler = runtime.profiler
    counters = profiler.counters

    # Aggregate the transfer log per (var, site, direction).
    sites: Dict[tuple, Dict[str, int]] = {}
    for rec in runtime.transfer_log:
        entry = sites.setdefault(
            (rec.var, rec.site, rec.direction),
            {"count": 0, "bytes": 0, "saved": 0, "batches": 0},
        )
        entry["count"] += 1
        entry["bytes"] += rec.nbytes
        entry["saved"] += rec.nbytes_saved
        entry["batches"] += rec.batches

    out = ctx.out
    if args.format == "json":
        # Machine-readable profile: the RunReport schema plus the per-site
        # transfer aggregation.
        import json

        from repro.obs.report import build_report

        report = build_report(
            ctx, command="profile", program=args.file,
            params=_parse_params(args.param),
            extra={"transfer_sites": [
                {"var": var, "site": site, "direction": direction, **entry}
                for (var, site, direction), entry in sorted(sites.items())
            ]},
        )
        print(json.dumps(report, indent=2, sort_keys=True, default=repr),
              file=out)
        return 0

    print(f"-- modeled time: {profiler.total() * 1e3:.3f} ms", file=out)
    print(f"-- transfers: {len(runtime.transfer_log)} "
          f"({runtime.device.total_transferred_bytes()} bytes)", file=out)
    print(f"   h2d bytes  {counters.get(CTR_BYTES_H2D, 0):12d}", file=out)
    print(f"   d2h bytes  {counters.get(CTR_BYTES_D2H, 0):12d}", file=out)
    print(f"   saved      {counters.get(CTR_BYTES_SAVED, 0):12d}", file=out)
    for cat, seconds in profiler.breakdown().items():
        if seconds:
            print(f"   {cat:15s} {seconds * 1e6:12.1f} us", file=out)

    top = sorted(sites.items(), key=lambda kv: (-kv[1]["bytes"], kv[0]))
    top = top[: args.top_transfers]
    if top:
        print(f"\n-- top {len(top)} transfer sites by bytes moved", file=out)
        header = (f"   {'var':12s} {'site':20s} {'dir':4s} {'count':>6s} "
                  f"{'batches':>8s} {'bytes':>10s} {'saved':>10s}")
        print(header, file=out)
        print("   " + "-" * (len(header) - 3), file=out)
        for (var, site, direction), entry in top:
            print(f"   {var:12s} {site:20s} {direction:4s} {entry['count']:6d} "
                  f"{entry['batches']:8d} {entry['bytes']:10d} {entry['saved']:10d}",
                  file=out)
    return 0


def cmd_trace(args, ctx: ToolchainContext) -> int:
    """Execute one program with tracing on and render the span timeline."""
    import json

    from repro.obs.export import chrome_trace_events, render_tree, to_jsonl_lines

    compiled = _load(args.file, args, ctx)
    plan = _chaos_plan(args)
    runtime = None
    if plan is not None:
        from repro.runtime.accrt import AccRuntime

        runtime = AccRuntime(chaos=plan, ctx=ctx)
    run = run_compiled(compiled, params=_parse_params(args.param),
                       runtime=runtime, ctx=ctx)
    ctx.last_runtime = run.runtime
    tracer = ctx.tracer
    if args.format == "tree":
        text = render_tree(tracer)
    elif args.format == "chrome":
        text = json.dumps(
            {"traceEvents": chrome_trace_events(tracer),
             "displayTimeUnit": "ms"},
            indent=None, separators=(",", ":"),
        )
    else:
        text = "\n".join(to_jsonl_lines(tracer))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"{args.format} trace written to {args.output}")
    else:
        print(text)
    return 0


def cmd_verify(args, ctx: ToolchainContext) -> int:
    from repro.verify.kernelverify import KernelVerifier, VerificationOptions

    compiled = _load(args.file, args, ctx)
    options = (
        VerificationOptions.from_string(args.options)
        if args.options
        else VerificationOptions()
    )
    report = KernelVerifier(
        compiled, params=_parse_params(args.param), options=options, ctx=ctx
    ).run()
    print(report.summary(), file=ctx.out)
    return 0 if report.all_passed else 1


def cmd_memcheck(args, ctx: ToolchainContext) -> int:
    from repro.verify.memverify import MemVerifier

    compiled = _load(args.file, args, ctx)
    report = MemVerifier(compiled, params=_parse_params(args.param), ctx=ctx).run()
    out = ctx.out
    print(report.summary(), file=out)
    print(f"\n{report.inserted_checks} check sites, "
          f"{report.check_calls} dynamic coherence checks", file=out)
    if args.show_instrumented:
        print(f"\n{report.instrumented_source}", file=out)
    return 0 if not report.errors else 1


def cmd_optimize(args, ctx: ToolchainContext) -> int:
    from repro.verify.interactive import InteractiveOptimizer

    with open(args.file) as handle:
        program = parse_program(handle.read())
    outputs = args.outputs.split(",") if args.outputs else None
    trace = InteractiveOptimizer(
        program, params=_parse_params(args.param), outputs=outputs, ctx=ctx
    ).run()
    out = ctx.out
    print(trace.summary(), file=out)
    optimized = to_source(trace.final_program)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(optimized)
        print(f"optimized program written to {args.output}", file=out)
    else:
        print(f"\n{optimized}", file=out)
    print(f"final transfers: {trace.final_transfer_count} "
          f"({trace.final_transfer_bytes} bytes)", file=out)
    return 0


def cmd_chaos(args, ctx: ToolchainContext) -> int:
    """Dry-run a FaultSpec: walk the deterministic draw sequence over a
    synthetic probe pattern and print which draws would fire.  No program
    runs — this answers "what would --chaos-seed S --chaos-spec X inject?"
    before committing to a sweep."""
    from repro.runtime.chaos import KINDS_AT, FaultPlan, FaultSpec

    try:
        spec = (FaultSpec.parse(args.spec, seed=args.seed,
                                max_faults=args.max_faults)
                if args.spec
                else FaultSpec.default(seed=args.seed,
                                       max_faults=args.max_faults))
    except ValueError as err:
        raise SystemExit(f"bad --spec: {err}")
    points = [p.strip() for p in args.points.split(",") if p.strip()]
    bad = [p for p in points if p not in KINDS_AT]
    if not points or bad:
        raise SystemExit(
            f"bad --points: unknown injection point(s) "
            f"{', '.join(bad) or '(empty)'}; valid points: "
            + ", ".join(KINDS_AT))

    plan = FaultPlan(spec)
    rates = ", ".join(f"{k}={r:g}" for k, r in sorted(spec.rates.items()))
    print(f"-- chaos dry-run: seed={spec.seed} rates=[{rates}]"
          + (f" max_faults={spec.max_faults}" if spec.max_faults is not None
             else ""))
    print(f"-- probing {args.draws} draw(s) over pattern: {', '.join(points)}")
    for i in range(args.draws):
        point = points[i % len(points)]
        fault = plan.draw(point, site=f"dryrun[{i}]")
        if fault is not None:
            extra = ""
            if fault.kind == "queue.stall":
                extra = f" stall={fault.stall_seconds * 1e6:.0f}us"
            print(f"   draw {i:4d} {point:8s} -> FIRES {fault.kind}"
                  f" (seq {fault.seq}){extra}")
        elif args.verbose:
            print(f"   draw {i:4d} {point:8s} -> clean")
        if plan.exhausted:
            print(f"   draw {i:4d} -- fault budget exhausted")
            break
    print(f"-- {plan.summary()}")
    return 0


def cmd_experiments(args, ctx: ToolchainContext) -> int:
    import importlib

    from repro.experiments.harness import render_table, rows_to_dicts

    names = (
        ["fig1", "fig3", "fig4", "table2", "table3"]
        if args.which == "all"
        else [args.which]
    )
    plan = _chaos_plan(args)
    jobs = args.jobs
    if plan is not None and jobs > 1:
        # A shared plan's fault budget cannot span worker processes.
        print("note: chaos sweeps run sequentially; ignoring --jobs")
        jobs = 1
    if plan is not None and args.json:
        raise SystemExit("--json is not supported together with fault injection")

    if plan is None:
        collected: Dict[str, List[Dict]] = {}
        for name in names:
            module = importlib.import_module(f"repro.experiments.{name}")
            title, headers, rows = module.table(size=args.size, jobs=jobs, ctx=ctx)
            print(render_table(headers, rows, title=title))
            print()
            collected[name] = rows_to_dicts(headers, rows)
        if args.json:
            import json

            with open(args.json, "w") as handle:
                json.dump(collected, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"rows written to {args.json}")
        return 0
    # One shared plan on this invocation's context: the fault budget spans
    # every experiment in the list.  fig1 takes it directly (isolated
    # sweep); the rest pick it up through ctx.default_chaos.
    ctx.default_chaos = plan
    for name in names:
        module = importlib.import_module(f"repro.experiments.{name}")
        if name == "fig1":
            module.main(size=args.size, chaos=plan, ctx=ctx)
        else:
            module.main(size=args.size, ctx=ctx)
        print()
    print(plan.summary())
    return 0


def _parse_address(text: str):
    """``host:port`` → tuple, anything else → unix-socket path.  An
    existing path wins even if it contains a colon."""
    if ":" in text and not os.path.exists(text):
        host, _, port = text.rpartition(":")
        try:
            return (host or "127.0.0.1", int(port))
        except ValueError:
            pass
    return text


def cmd_serve(args, ctx: ToolchainContext) -> int:
    from repro.service import ServiceConfig, ToolchainDaemon

    if not args.socket and args.port is None:
        raise SystemExit("repro serve needs --socket PATH or --port N")
    config = ServiceConfig(socket=args.socket, host=args.host, port=args.port,
                           workers=args.workers, cache_dir=args.cache_dir,
                           cache_disk_bytes=args.cache_disk_bytes,
                           report_dir=args.report_dir,
                           spool_dir=args.spool_dir,
                           metrics_addr=args.metrics_addr,
                           chaos_seed=getattr(args, "chaos_seed", None),
                           chaos_spec=getattr(args, "chaos_spec", None))
    if args.cache_mem_entries is not None:
        config.cache_mem_entries = args.cache_mem_entries
    if args.cache_mem_bytes is not None:
        config.cache_mem_bytes = args.cache_mem_bytes
    daemon = ToolchainDaemon(config)
    # Announce on stderr: stdout carries command output only.
    sys.stderr.write(f"repro-serve: listening on {config.address()} "
                     f"({config.workers} workers, disk cache "
                     f"{config.cache_dir or 'off'})\n")
    if config.metrics_addr:
        sys.stderr.write(f"repro-serve: Prometheus metrics on "
                         f"http://{config.metrics_addr}/metrics\n")
    if config.chaos_seed is not None or config.chaos_spec:
        sys.stderr.write("repro-serve: operator fault injection armed "
                         f"(seed={config.chaos_seed or 0}, "
                         f"spec={config.chaos_spec or 'default'})\n")
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        stats = daemon.stats()
        sys.stderr.write(f"repro-serve: exiting after {stats['requests']} "
                         f"request(s), {stats['errors']} error(s)\n")
    return 0


def _render_top(snap: Dict) -> str:
    """The ``repro top`` table: one telemetry snapshot rendered for humans."""
    lines: List[str] = []
    util = snap.get("utilization", 0.0) or 0.0
    lines.append(
        f"repro top — uptime {snap.get('uptime_s', 0.0):8.1f}s   "
        f"workers {snap.get('workers', 0)}   util {100.0 * util:5.1f}%   "
        f"inflight {snap.get('inflight', 0)}   queue {snap.get('queue_depth', 0)}"
    )
    lines.append(
        f"requests {snap.get('requests', 0)} "
        f"({snap.get('errors', 0)} error(s))   "
        f"window {snap.get('window_s', 0.0):g}s"
    )
    verbs = snap.get("verbs") or {}
    if verbs:
        lines.append("")
        header = (f"  {'verb':10s} {'count':>6s} {'rate/s':>8s} "
                  f"{'p50 ms':>9s} {'p95 ms':>9s} {'p99 ms':>9s} {'max ms':>9s}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for verb, stats in sorted(verbs.items()):
            lines.append(
                f"  {verb:10s} {stats.get('count', 0):6d} "
                f"{stats.get('rate_rps', 0.0):8.2f} "
                f"{stats.get('p50_ms', 0.0):9.3f} "
                f"{stats.get('p95_ms', 0.0):9.3f} "
                f"{stats.get('p99_ms', 0.0):9.3f} "
                f"{stats.get('max_ms', 0.0):9.3f}"
            )
    cache = snap.get("cache") or {}
    if cache:
        lines.append("")
        lines.append(f"  {'cache':10s} {'hits':>8s} {'misses':>8s} {'ratio':>8s}")
        for tier in ("mem", "disk"):
            stats = cache.get(tier)
            if stats is None:
                continue
            ratio = stats.get("hit_ratio")
            lines.append(
                f"  {tier:10s} {stats.get('hits', 0):8d} "
                f"{stats.get('misses', 0):8d} "
                + (f"{ratio:8.1%}" if ratio is not None else f"{'--':>8s}")
            )
    flight = snap.get("flight") or {}
    if flight:
        lines.append("")
        lines.append(f"  flight recorder: {flight.get('entries', 0)}"
                     f"/{flight.get('capacity', 0)} entries "
                     f"({flight.get('dropped', 0)} dropped)")
    return "\n".join(lines)


def cmd_stats(args, ctx: ToolchainContext) -> int:
    """One-shot daemon statistics: JSON telemetry or Prometheus text."""
    import json

    from repro.service.client import connect

    with connect(_parse_address(args.connect)) as client:
        if args.prom:
            sys.stdout.write(client.prometheus())
            return 0
        response = client.request("stats", flight=bool(args.flight))
    if not response.get("ok"):
        print(json.dumps(response, indent=2, sort_keys=True, default=repr))
        return 2
    doc = {"telemetry": response.get("telemetry")}
    if args.flight:
        doc["flight"] = response.get("flight")
    print(json.dumps(doc, indent=2, sort_keys=True, default=repr))
    return 0


def cmd_top(args, ctx: ToolchainContext) -> int:
    """Attach to a running daemon and refresh a live statistics table."""
    import time

    from repro.service.client import connect

    address = _parse_address(args.connect)
    try:
        while True:
            with connect(address) as client:
                snap = client.telemetry()
            text = _render_top(snap)
            if args.once:
                print(text)
                return 0
            # Clear + home keeps the table in place between refreshes.
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_cache(args, ctx: ToolchainContext) -> int:
    import json

    action = args.action
    if args.connect:
        from repro.service.client import connect

        with connect(_parse_address(args.connect)) as client:
            if action == "stats":
                response = client.request("cache.stats")
            elif action == "clear":
                response = client.request("cache.clear", tier=args.tier)
            else:
                if not args.files:
                    raise SystemExit("repro cache warm needs program files")
                response = client.request(
                    "cache.warm",
                    files=[os.path.abspath(f) for f in args.files])
        print(json.dumps(response, indent=2, sort_keys=True, default=repr))
        return 0 if response.get("ok") else 2
    if not args.cache_dir:
        raise SystemExit("repro cache needs --connect ADDR (live daemon) "
                         "or --cache-dir DIR (on-disk tier)")
    from repro.service.cache import DiskTier, ServiceCache

    disk = DiskTier(args.cache_dir)
    if action == "stats":
        print(json.dumps({"disk": disk.stats()}, indent=2, sort_keys=True))
        return 0
    if action == "clear":
        if args.tier == "mem":
            raise SystemExit("offline mode has no memory tier; use --connect")
        removed = disk.clear()
        print(f"removed {removed} disk entrie(s) from {args.cache_dir}")
        return 0
    if not args.files:
        raise SystemExit("repro cache warm needs program files")
    cache = ServiceCache(ctx.caches, disk)
    for path in args.files:
        with open(path) as handle:
            source = handle.read()
        tier = cache.warm(source, CompilerOptions(), ctx)
        print(f"{path}: {tier}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OpenARC-reproduction toolchain (Lee, Li & Vetter, IPDPS 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_observability(p):
        p.add_argument("--time-passes", action="store_true",
                       help="print the per-pass timing/cache table on exit")
        p.add_argument("--dump-after", metavar="PASS",
                       help="dump the named pass's output each time it runs")
        p.add_argument("--trace", metavar="FILE",
                       help="record a span trace and write it as Chrome-trace "
                            "JSON (load in chrome://tracing or Perfetto)")
        p.add_argument("--trace-jsonl", metavar="FILE",
                       help="record a span trace and write it as a JSONL "
                            "event stream")
        p.add_argument("--report", metavar="FILE",
                       help="write a structured RunReport JSON (spans, "
                            "metrics, findings, byte totals; written even "
                            "when the run fails)")

    def add_common(p, params=True):
        p.add_argument("file", help="mini-C source file with #pragma acc")
        if params:
            p.add_argument("-p", "--param", action="append", metavar="NAME=VALUE",
                           help="program parameter (repeatable)")
        p.add_argument("--no-auto-privatize", action="store_true")
        p.add_argument("--no-auto-reduction", action="store_true")
        add_observability(p)

    p = sub.add_parser("compile", help="compile and show the kernel summary")
    add_common(p, params=False)
    p.add_argument("--show-source", action="store_true")
    p.add_argument("--cache-stats", action="store_true",
                   help="print compile-cache and semantics closure-cache counters")
    p.set_defaults(func=cmd_compile)

    def add_chaos(p):
        p.add_argument("--chaos-seed", type=int, metavar="N",
                       help="enable deterministic fault injection with this seed")
        p.add_argument("--chaos-spec", metavar="KIND=RATE,...",
                       help='fault kinds and rates, e.g. "alloc=0.05,transfer.corrupt=0.1" '
                            "(implies --chaos-seed 0 when the seed is omitted)")

    def add_transfer(p):
        p.add_argument("--delta-transfers", action="store_true",
                       help="move only dirty intervals across the modeled "
                            "PCIe link instead of whole arrays")
        p.add_argument("--merge-gap", type=int, metavar="BYTES",
                       help="coalesce dirty intervals closer than this many "
                            "bytes into one batch (default: the cost model's "
                            "latency/bandwidth break-even)")

    def add_sampling(p):
        p.add_argument("--sample", action="store_true",
                       help="phase-sampled execution: measure a few "
                            "iterations of each stable host loop and "
                            "extrapolate the rest (modeled time/bytes stay "
                            "within the declared error bound; program "
                            "outputs are not faithful)")
        p.add_argument("--sample-tolerance", type=float, metavar="R",
                       help="relative near-cluster tolerance / declared "
                            "error bound (default 0.05)")

    def add_retries(p):
        p.add_argument("--max-retries", type=int, metavar="N",
                       help="transient-fault retry ceiling per operation "
                            "(default: 3)")
        p.add_argument("--backoff-base", type=float, metavar="SECONDS",
                       help="modeled exponential-backoff base between "
                            "retries (default: the cost model's)")

    p = sub.add_parser("run", help="execute on the simulated GPU")
    add_common(p)
    p.add_argument("--compare-sequential", action="store_true",
                   help="also run sequentially and compare all globals "
                        "(device-scratch arrays never copied out will "
                        "legitimately differ)")
    add_chaos(p)
    add_transfer(p)
    add_sampling(p)
    add_retries(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("profile", help="transfer-byte profile of one run")
    add_common(p)
    p.add_argument("--top-transfers", type=int, default=5, metavar="N",
                   help="list the N largest transfer sites by bytes moved "
                        "(default: 5)")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="output format: human text (default) or the "
                        "RunReport JSON schema plus per-site aggregation")
    add_transfer(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("trace", help="execute with tracing on and render the "
                                     "span timeline")
    add_common(p)
    p.add_argument("--format", default="tree",
                   choices=["tree", "chrome", "jsonl"],
                   help="rendering: human tree (default), Chrome-trace "
                        "JSON, or JSONL event stream")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the rendering here instead of stdout")
    add_chaos(p)
    add_transfer(p)
    p.set_defaults(func=cmd_trace, trace_enabled=True)

    p = sub.add_parser("verify", help="kernel verification (paper §III-A)")
    add_common(p)
    p.add_argument("--options", metavar="STRING",
                   help='e.g. "complement=0,kernels=main_kernel0,errorMargin=1e-6"')
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("memcheck", help="memory-transfer verification (paper §III-B)")
    add_common(p)
    p.add_argument("--show-instrumented", action="store_true")
    # Sampling preserves the distinct finding set (CI-enforced), so sampled
    # memcheck reaches the same conclusions faster on iterative programs.
    add_sampling(p)
    p.set_defaults(func=cmd_memcheck)

    p = sub.add_parser("optimize", help="interactive transfer optimization (Figure 2)")
    add_common(p)
    p.add_argument("--outputs", metavar="A,B,...",
                   help="observable output variables the edits must preserve")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the optimized program here")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("chaos", help="dry-run a fault-injection spec (no "
                                     "program executes)")
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="rng seed for the draw sequence (default: 0)")
    p.add_argument("--spec", metavar="KIND=RATE,...",
                   help="fault kinds and rates (default: the built-in "
                        "default campaign)")
    p.add_argument("--max-faults", type=int, metavar="N",
                   help="total fault budget for the plan")
    p.add_argument("--draws", type=int, default=50, metavar="N",
                   help="how many injection-point draws to probe (default: 50)")
    p.add_argument("--points", default="alloc,transfer,transfer,launch,queue",
                   metavar="P1,P2,...",
                   help="cyclic probe pattern of injection points "
                        "(default: alloc,transfer,transfer,launch,queue — "
                        "roughly one data region + kernel per cycle)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print draws that do not fire")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("serve", help="long-lived toolchain daemon serving "
                                     "NDJSON requests over a socket")
    p.add_argument("--socket", metavar="PATH",
                   help="listen on this unix-domain socket")
    p.add_argument("--host", default="127.0.0.1", metavar="HOST",
                   help="TCP bind host (with --port; default: 127.0.0.1)")
    p.add_argument("--port", type=int, metavar="N", help="TCP bind port")
    p.add_argument("--workers", type=int, default=4, metavar="N",
                   help="request-handler thread pool size (default: 4)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persistent pass-cache directory (off when omitted: "
                        "memory tier only)")
    p.add_argument("--cache-mem-entries", type=int, metavar="N",
                   help="per-cache entry cap for the shared memory tier "
                        "(default: 512)")
    p.add_argument("--cache-mem-bytes", type=int, metavar="BYTES",
                   help="per-cache byte budget for the shared memory tier "
                        "(default: 256 MiB)")
    p.add_argument("--cache-disk-bytes", type=int, metavar="BYTES",
                   help="byte budget for the disk tier (oldest entries "
                        "evicted; default: unbounded)")
    p.add_argument("--report-dir", metavar="DIR",
                   help="write one RunReport JSON per request here "
                        "(crash paths included)")
    p.add_argument("--spool-dir", metavar="DIR",
                   help="where inline 'source' programs are spooled "
                        "(default: a fresh temp dir)")
    p.add_argument("--metrics-addr", metavar="HOST:PORT",
                   help="also serve the Prometheus text exposition over "
                        "HTTP at this address (e.g. 127.0.0.1:9100)")
    add_chaos(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("stats", help="one-shot statistics of a running daemon")
    p.add_argument("--connect", required=True, metavar="ADDR",
                   help="daemon address (unix-socket path or host:port)")
    p.add_argument("--prom", action="store_true",
                   help="print the Prometheus text exposition instead of JSON")
    p.add_argument("--flight", action="store_true",
                   help="include the daemon-lifetime flight-recorder tail")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("top", help="live statistics table of a running daemon")
    p.add_argument("--connect", required=True, metavar="ADDR",
                   help="daemon address (unix-socket path or host:port)")
    p.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                   help="refresh period (default: 2.0)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit (no screen clearing)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("cache", help="inspect, clear, or warm the service "
                                     "pass cache")
    p.add_argument("action", choices=["stats", "clear", "warm"])
    p.add_argument("files", nargs="*",
                   help="programs to warm (action warm)")
    p.add_argument("--connect", metavar="ADDR",
                   help="operate on a live daemon (unix-socket path or "
                        "host:port)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="operate on an on-disk tier directly (no daemon)")
    p.add_argument("--tier", default="all", choices=["mem", "disk", "all"],
                   help="which tier to clear (default: all)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("experiments", help="regenerate the paper's tables/figures")
    p.add_argument("which", choices=["fig1", "fig3", "fig4", "table2", "table3", "all"])
    p.add_argument("--size", default="small", choices=["tiny", "small", "large"])
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="run benchmarks across N worker processes "
                        "(rows are identical to --jobs 1)")
    p.add_argument("--json", metavar="FILE",
                   help="also write every experiment's rows as JSON")
    add_chaos(p)
    add_sampling(p)
    add_observability(p)
    p.set_defaults(func=cmd_experiments)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    ctx = _context(args)
    try:
        code = args.func(args, ctx)
    except ReproError as err:
        # One structured line instead of a traceback: the failing stage and
        # the message (source errors already carry their line:col).
        sys.stderr.write(f"repro: error [{error_stage(err)}]: {err}\n")
        # The trace/report artifacts are written for failed runs too: the
        # report embeds the typed error (and ConvergenceError's history).
        _write_observability(args, ctx, error=err)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    _write_observability(args, ctx)
    if getattr(args, "time_passes", False):
        print(f"\n{ctx.pass_stats.report()}", file=ctx.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
