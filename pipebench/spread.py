#!/usr/bin/env python3
"""Run-to-run spread of the pipeline benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload named, then prints, per end-to-end metric, the median and the
quartile spread ((q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them) next to the metric's bound.
A spread at or above a third of its bound is flagged: the benchmark is
tuned to stay below that.

Run from the repository root:

    python3 pipebench/spread.py --workload sharded-lin --runs 5
    python3 pipebench/spread.py --runs 10 --first-seed 100   # every workload
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    worst_ok = True
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not line:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(line)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
                worst_ok = False
            results.append(result["metrics"])
        print(f"{workload} ({args.runs} runs)")
        bounds = {m["name"]: m for m in spec["end_to_end"]}
        for name in results[0]:
            values = [r[name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
            else:
                spread = 0.0
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                worst_ok = False
            bound_text = f"bound {bound:.3f}" if bound is not None else ""
            print(f"  {name:<30} median {med:>16.4f}  spread {spread:.4f}  {bound_text}{flag}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
