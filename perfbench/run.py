#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments go to perfbench/main.exe unchanged (see perfbench/README.md).
The last line of standard output is the JSON result. Exits non-zero, with
no result, when the tree holds no buildable system.
"""

import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "perfbench/main.exe"


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return candidates[-1] if candidates else None


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: not a checkout of the repository" % needed)
    dune = find_dune()
    if dune is None:
        fail("dune not found on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--display", "quiet", "--cache", "disabled", TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", 3)
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
