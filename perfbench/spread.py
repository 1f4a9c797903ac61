#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed and prints, for every metric of the result
line, the median and the interquartile distance as a share of the median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json sets:

    python3 perfbench/spread.py --workload serve --seeds 1-10 --seconds 20
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in
                  json.load(f)["end_to_end"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: done", file=sys.stderr)

    worst = 0.0
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = " OVER" if spread > bound / 3 else ""
        print(f"{name:32s} median={med:<14.6g} spread={spread:7.4f} "
              f"bound={bound}{flag}  "
              + " ".join(f"{x:.4g}" for x in v))
    print(f"worst spread / bound = {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
