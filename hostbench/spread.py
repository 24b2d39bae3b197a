"""Run one workload over several seeds and report each metric's spread.

    python3 hostbench/spread.py --workload fig3-radram --runs 10 --seconds 15

Run from the repository root.  For every end-to-end metric it prints
the median and the distance between the first and third quartiles as
a share of the median, the figure the benchmark's bounds are set
against.  ``--first-seed`` picks the seeds ``first .. first+runs-1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", help="append each run's result line here")
    args = parser.parse_args()
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for line in proc.stderr.splitlines():
            if line.startswith(("note:", "error:")):
                print(f"  {line}")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:24s} median {statistics.median(vals):.5g}  "
              f"IQR/median {(q3 - q1) / statistics.median(vals):.4f}  "
              f"range/median {(max(vals) - min(vals)) / statistics.median(vals):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
