#!/usr/bin/env python3
"""Build the Phloem tree from source and run one perfbench workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep|autotune|serve --seed N \
        --seconds S --trace 0|1 [--holdout-seed M]

The build goes to .bench_build (dune's shared cache is disabled, so nothing
is written outside the checkout). The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; the line before
it carries the detail (machine fingerprint, digest of simulated statistics,
timings with sample counts). Exit status: 0 on success, 1 when an output
does not match its reference, 2 when the tree cannot be built or run.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "autotune", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--holdout-seed", type=int)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")
            and os.path.isfile("BENCHMARK.json")):
        return fail("run me from the root of a Phloem checkout (no dune-project, lib/, bin/ or BENCHMARK.json here)")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
         "./perfbench/bench.exe", "./bin/phloemd.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")
    os.makedirs(OUT_DIR, exist_ok=True)

    cmd = [
        os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT_DIR,
        "--phloemd", os.path.join(BUILD_DIR, "default", "bin", "phloemd.exe"),
        "--spec", "BENCHMARK.json",
    ]
    if args.holdout_seed is not None:
        cmd += ["--holdout-seed", str(args.holdout_seed)]
    sys.stdout.flush()
    # Own process group, so the daemon the serve workload spawns is
    # reaped with it whatever happens.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
