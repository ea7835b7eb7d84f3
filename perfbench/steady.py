"""Steadiness mode: repeat benchmark runs and report each metric's spread.

From the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--seed 1] [--trace 0|1] [--workload NAME ...]

Runs run.py --runs times per workload (default: all five), with seeds seed,
seed + 1, ..., and prints, for every metric, the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.  A
spread above a third of the metric's bound in BENCHMARK.json is flagged.
With --runs 1 it is the one command that runs every workload and prints
every end-to-end metric by name with its unit.  The summary is also written
as JSON to perfbench/out/steady-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    summary = {}
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        units = {}
        failed = 0
        for i in range(args.runs):
            cmd = [*bench["command"], "--workload", name, "--seed", str(args.seed + i),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} seed {args.seed + i}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
        print(f"== {name}: {args.runs} runs, {failed} failed operations")
        summary[name] = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            flag = "  <-- above bound/3" if bound and spread > bound / 3 else ""
            print(f"  {metric:38s} {med:12.6g} {units[metric]:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}{flag}")
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                     "values": vals, "unit": units[metric]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
