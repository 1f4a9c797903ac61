#!/usr/bin/env python3
"""End-to-end benchmark of the JanusAQP engine.

Builds the benchmark (perfbench/CMakeLists.txt compiles the engine from
src/ together with the benchmark program) and runs one workload:

    python3 perfbench/run.py --workload slide --seed 1 --seconds 30 --trace 0

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced runs
write their spans as CSV under its traces/ directory. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics for --trace 0, the per-layer metrics for
--trace 1 (see BENCHMARK.json). Exits 0 when every correctness check
passed; nonzero when a check failed (that process's result line reads
"correct": false and stderr names the check), the build failed or the run
timed out.

perfbench/spread.py runs a workload over several seeds and prints each
metric's quartile spread next to its bound.

The helper tests build and run with:

    cmake --build .bench_build/perfbench --target perfbench_test
    .bench_build/perfbench/perfbench_test
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run (set-up, measurement, checks) must end well inside 180 s.
RUN_TIMEOUT_S = 170
# serve's tail latencies are the most sensitive to other tenants of the
# host, so it is split finer; slide needs ~11 s per process for the three
# episodes whose accuracy it reports.
SUBRUNS = {"slide": 3, "serve": 5}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configure and build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def trimmed_mean(values):
    """Mean without the lowest and the highest value (all of 1 or 2)."""
    values = sorted(values)
    if len(values) > 2:
        values = values[1:-1]
    return statistics.fmean(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["slide", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # An untraced run is several processes of equal share of --seconds and
    # reports every metric as the mean over them without the lowest and the
    # highest value: same-seed repeats of one process moved by ~8% (thread
    # placement, memory layout), a slow spell of the shared host hits only
    # some of them, and serve's tail latencies flip between two levels from
    # process to process, which a median of a few would follow. A traced
    # run is one process.
    subruns = 1 if args.trace else SUBRUNS[args.workload]
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds",
           str(args.seconds / subruns), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-dir", traces]
    sys.stdout.flush()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for i in range(subruns):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            # Pass the failing process's report (and its result line, which
            # names correct=false) through unchanged.
            sys.stdout.write(proc.stdout)
            return proc.returncode or 4
        print("\n".join(lines[:-1]))
        if subruns > 1:
            print(f"subrun {i}: {lines[-1]}")
        results.append(json.loads(lines[-1]))

    metrics = {
        name: {"value": trimmed_mean([r["metrics"][name]["value"]
                                      for r in results]),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
