#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload churn --seeds 1-10 [--out runs.jsonl]

Runs the command from BENCHMARK.json once per seed with --trace 0 and
prints, per end-to-end metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the spread (third minus
first quartile, over the median) and the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    rows = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        if run.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(run.stdout + run.stderr)
            sys.exit(f"seed {seed}: exit {run.returncode}")
        rows.append(json.loads(last))
        if args.out:
            with open(args.out, "a") as f:
                f.write(last + "\n")
        print(f"seed {seed}: correct={rows[-1]['correct']}", file=sys.stderr)

    print(f"{'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread <= bound else "  OVER"
        print(f"{name:22} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} "
              f"{bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
