#!/usr/bin/env python3
"""Build the wall-clock benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is tune-des, campaign-mva, service-closed or service-wal.  The
benchmark executable is built with dune (into _build/) and run with the
same arguments; its last line of standard output is the JSON result.
Build output goes to standard error, so standard output carries only
the benchmark's report.  Exits non-zero, printing no result, when the
sources are missing, the build fails, or the run fails a check.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# The benchmark must finish well inside a three-minute limit per run.
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        print("perfbench: run from the root of a harmony checkout "
              "(dune-project, lib/ and perfbench/dune are required)",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
