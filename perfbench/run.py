#!/usr/bin/env python3
"""The repository benchmark: Protocol P end to end and the million-agent spread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/ (the library
sources under src/ plus perfbench.cpp, Release, into .bench_build/), runs
one workload in a fresh process, and passes that process's output through:
the digest and exact-count lines first, then, as the last line, one JSON
object with "correct", "attempted", "failed" and "metrics".  --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones (spans go to
.bench_build/spans-NAME.tsv).  --workload all runs every workload, each in
its own process so that peak RSS belongs to one workload, and ends with one
combined JSON line.

Workloads, and why each was chosen, are listed in BENCHMARK.json; which
layer each per-layer metric measures, and on which workload it should move,
is in perfbench/LAYERS.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("p-sync-16k", "p-async-4k", "p-cluster-tcp-4k", "rumor-1m")
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")
# One workload process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds perfbench; exits nonzero on failure."""
    if not (os.path.isdir("src")
            and os.path.isfile("perfbench/CMakeLists.txt")):
        sys.exit("run.py: run from the repository root (src/ and perfbench/ "
                 "must both be present)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--parallel", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")


def run_workload(name, seed, seconds, trace, tiny=False):
    """Runs one workload process; returns (stdout lines, parsed result)."""
    cmd = [BINARY, f"--workload={name}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if trace:
        cmd.append(f"--spans={os.path.join(BUILD_DIR, f'spans-{name}.tsv')}")
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {name} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, file=sys.stderr)
        sys.exit(f"run.py: {name} exited with code {proc.returncode}")
    return lines, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    build()
    if args.workload != "all":
        lines, _ = run_workload(args.workload, args.seed, args.seconds,
                                args.trace)
        print("\n".join(lines), flush=True)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines, result = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
