#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload hw-sweep --seconds 20 --seeds 1-10

Prints, per end-to-end metric, the median of the runs and the distance
between the first and third quartile as a share of that median (the
quartiles of Python's statistics.quantiles(values, n=4)). Runs go one
at a time, so they never compete for the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault((name, m["unit"]), []).append(m["value"])
    for (name, unit), v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:36s} median {med:14.4f} {unit:10s} spread {100 * spread:6.2f}%  n={len(v)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
