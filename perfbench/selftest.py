#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  Every workload runs at a tiny n with
tracing on: twice at one seed, which must give identical digests and exact
counts, and once at another seed, which must change the digest.  Every run
must be correct with no failed execution, which for p-cluster-tcp-4k means
the TCP cluster passed its cross-check against the in-memory engine.  The
metric names and units printed must be the ones BENCHMARK.json declares.
Exits nonzero on the first failure.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build and launch code)


def fingerprint(lines):
    """The digest and exact-count lines of one run."""
    return [line for line in lines if line.startswith(("digest ", "counts "))]


def digest(lines):
    return next(line.split()[-1] for line in lines
                if line.startswith("digest "))


def declared(kind):
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def check(condition, message):
    if not condition:
        sys.exit(f"selftest: FAIL: {message}")


def check_result(name, trace, result):
    check(result["correct"], f"{name}: run not correct")
    check(result["failed"] == 0 and result["attempted"] >= 1,
          f"{name}: {result['failed']} of {result['attempted']} failed")
    want = declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want,
          f"{name}: metrics {sorted(got)} != declared {sorted(want)}")


def main():
    run.build()
    for name in run.WORKLOADS:
        first, r1 = run.run_workload(name, 11, 0, 1, tiny=True)
        again, r2 = run.run_workload(name, 11, 0, 1, tiny=True)
        other, r3 = run.run_workload(name, 12, 0, 1, tiny=True)
        for result in (r1, r2, r3):
            check_result(name, 1, result)
        check(fingerprint(first) and fingerprint(first) == fingerprint(again),
              f"{name}: seed 11 not reproduced:\n{first}\n{again}")
        check(digest(first) != digest(other),
              f"{name}: seeds 11 and 12 gave the same digest")
        _, untraced = run.run_workload(name, 11, 0, 0, tiny=True)
        check_result(name, 0, untraced)
        print(f"selftest: {name} ok ({digest(first)})", flush=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
