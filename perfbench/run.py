#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim|predict --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench.exe and mppmd.exe
from source with dune into .bench_build/dune, runs one workload, and
relays its report; the last line of standard output is the JSON result.
The result is checked against BENCHMARK.json: with --trace 0 it must
carry exactly the end-to-end metrics, with --trace 1 exactly the
per-layer metrics, each with its declared unit.  Exits nonzero, without
a result line, when the build fails or the result does not match, and
with the benchmark's own nonzero code when an output check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
MPPMD = os.path.join(BUILD_DIR, "default", "bin", "mppmd.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".",
           "--build-dir", os.path.abspath(BUILD_DIR),
           "./perfbench/perfbench.exe", "./bin/mppmd.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(e, file=sys.stderr)
        return False
    return done.returncode == 0


def run(cmd):
    """Runs the benchmark in its own process group, so a timeout also
    stops the mppmd daemons it started."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out after %d s" % RUN_TIMEOUT_S
    return (proc.returncode, out), None


def check_result(line, spec, traced):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    declared = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want != got:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(want.items()) ^ set(got.items()))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return "metric %s has no value" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        return fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload %r" % args.workload)
    if not build():
        return fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--mppmd", MPPMD]
    outcome, err = run(cmd)
    if err:
        return fail(err)
    code, out = outcome
    lines = out.rstrip("\n").split("\n")
    problem = None
    if code == 0:
        try:
            problem = check_result(lines[-1], spec, args.trace == 1)
        except (ValueError, AttributeError) as e:
            problem = "unreadable result line: %s" % e
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail(problem)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
