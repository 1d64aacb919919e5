#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's median and quartiles.

This regenerates the reference figures in perfbench/README.md. Run from the
root of a checkout:

    python3 perfbench/spread.py --workloads verify_mix,testing_mid,audit_mid,linear_large \
        --seeds 1-10 --seconds 25

Runs go one after another, each in its own process. The spread is the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a percentage of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="verify_mix,testing_mid,audit_mid,linear_large")
    ap.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    ap.add_argument("--seconds", default="25")
    args = ap.parse_args(argv)
    code = 0
    for workload in args.workloads.split(","):
        values: dict = {}
        shares = set()
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                code = 1
            shares.add((result["failed"], result["attempted"]))
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(json.dumps({"workload": workload, "seed": seed, "exit": proc.returncode, **result}))
        print(f"{workload}: failed/attempted {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = 100.0 * (q3 - q1) / med if med else float("nan")
            print(f"{workload:13s} {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.2f}%")
    return code


if __name__ == "__main__":
    sys.exit(main())
