#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload sim [--seeds 1-10] [--trace 0]
        [--json out.json]

Runs perfbench/run.py once per seed (from the root of a checkout) and
prints, for every metric, its median and the distance between its first
and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median, next to the bound BENCHMARK.json gives it.  Exits 1 if a run
fails or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's metrics here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stdout.write(done.stdout)
            print("seed %d failed with code %d" % (seed, done.returncode))
            return 1
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "metrics": values})
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % kv for kv in values.items())), flush=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f, indent=1)
    worst = 0
    print("%-34s %14s %9s %7s" % ("metric", "median", "IQR/med", "bound"))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if share > bound:
                flag, worst = " OVER", 1
            elif share > bound / 3:
                flag = " >1/3"
        print("%-34s %14.6g %9.4f %7s%s" % (
            name, med, share, "-" if bound is None else bound, flag))
    return worst


if __name__ == "__main__":
    sys.exit(main())
