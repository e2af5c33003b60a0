"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload desk --seeds 1-10 [--seconds 10] [--trace 0]

For every metric it prints the median over the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, which is how the bounds in BENCHMARK.json were chosen.
Each run's last stdout line is appended to perfbench/runs/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    os.makedirs(os.path.join(HERE, "runs"), exist_ok=True)
    log = os.path.join(HERE, "runs", f"spread-{args.workload}.jsonl")
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        last = proc.stdout.strip().splitlines()[-1]
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "result": json.loads(last)}) + "\n")
        result = json.loads(last)
        results.append(result)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':<28} {'median':>12} {'iqr/median':>11}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<28} {med:>12.4f} {share:>11.2%}")
    failed = {(r["failed"], r["attempted"]) for r in results}
    print(f"failed/attempted per run: {sorted(failed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
