"""The repo benchmark: ``paper``, ``scale`` and ``service`` workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload run happens in a fresh process, which starts a fresh
set-up-only process after each of its timed passes; ``setup_s`` is the median
set-up time over all of them.  With
``--trace 0`` the last line of output is one JSON object carrying every
end-to-end metric of BENCHMARK.json, with ``--trace 1`` every per-layer
metric.  A wrong output fails the run (exit 1, ``"correct": false``).
Without ``--workload`` every workload runs in turn and the last line maps
each workload to its result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CHILD_TIMEOUT_S = 170   # a workload process that runs longer is stopped
STOP_TIMEOUT_S = 10     # a stopped one that takes longer to exit is killed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def command(args, workload: str, *extra: str) -> list:
    return [sys.executable, os.path.abspath(__file__), "--child",
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *extra]


def spawn(args, workload: str) -> dict:
    """One fresh workload process; returns its JSON result.  If this
    process stops first, the workload process is terminated, which stops
    the set-up-only process it may be running, and waited for."""
    proc = subprocess.Popen(command(args, workload), stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"workload {workload!r} process exited with "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(args, spec: dict, workload: str) -> dict:
    child = spawn(args, workload)
    measured = child["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise SystemExit(f"workload {workload!r} did not measure "
                         f"{', '.join(missing)}")
    for problem in child["problems"]:
        print(f"{workload}: WRONG OUTPUT: {problem}", file=sys.stderr)
    return {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Termination unwinds through spawn and subprocess.run, which stop and
    # wait for the processes they started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.child:
        os.chdir(ROOT)
        sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
        from measure import child_main

        return child_main(args, _START,
                          command(args, args.workload, "--setup-only"))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r} "
                             f"(choose from {', '.join(names)})")
        result = run_workload(args, spec, args.workload)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = {}
    for name in names:
        result = results[name] = run_workload(args, spec, name)
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
