#!/usr/bin/env python3
"""Build the benchmark from source and run its workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is reach_random, closure_chain or serve_mixed.  The script builds
perfbench/perfbench.exe with dune, then runs it once in a process of its
own with the same arguments.  That process prints its metrics and, as the
last line of standard output, one JSON result object.  Without
--workload, every workload runs in turn, each in a process of its own.
Working files (the service's write-ahead logs, the traced run's spans) go
to .perfbench_work/ in the checkout.  The exit code is the benchmark's: 0
when every answer matched its oracle; anything else means no result (for
some workload).
"""

import os
import subprocess
import sys

WORKLOADS = ["reach_random", "closure_chain", "serve_mixed"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORK_DIR = ".perfbench_work"
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:]
    if "--workload" in args:
        return run(args)
    codes = [run(["--workload", name, *args]) for name in WORKLOADS]
    return next((code for code in codes if code != 0), 0)


def run(args):
    """One workload in a process of its own; its exit code."""
    try:
        proc = subprocess.run([EXE, *args, "--work-dir", WORK_DIR],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
