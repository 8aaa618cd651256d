#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 20 --trace 0

The OCaml benchmark (perfbench/perfbench.ml) is built with dune into the
checkout's own _build directory, with dune's shared cache disabled so that
nothing is written outside the checkout.  Build output goes to standard
error; standard output carries only the benchmark's report, whose last line
is the JSON result.  Any build or correctness failure exits non-zero.

The benchmark process is pinned to one CPU (the first it may use).  Left
free, the scheduler sometimes places the wire client and the server worker
on the same CPU and sometimes not, and a cross-CPU wake-up on a virtual
machine costs as much as the whole probe: wire_probe's median then moved
by 2x from run to run.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("scan_cold", "wire_probe", "drain_spill")
TARGET = "./perfbench/perfbench.exe"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            stdout=sys.stderr,
            env=env,
            check=False,
        )
    except FileNotFoundError:
        print("perfbench: dune is not installed", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.stdout.flush()
    run = subprocess.run(
        [
            exe,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        check=False,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
