#!/usr/bin/env python3
"""Build the promoter's benchmark from source and run one workload.

    python3 perfbench/run.py --workload promote-seeds|optimise-gen|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The executable is built with dune from
the sources next to this directory; the last line of standard output
is the result as one JSON object (see perfbench/README.md).  Exits
non-zero without a result when the sources or the toolchain are
missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for need in ("dune-project", os.path.join("lib", "core", "pipeline.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from a checkout of the repository" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
