#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig8|kv-hot|kv-large|crash-fuzz \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/bench.exe with dune (no
shared dune cache, so nothing is written outside the checkout), then runs
it with the given arguments. The benchmark's own output, whose last line
is the JSON result, goes to stdout; build output goes to stderr. The exit
code is the benchmark's, or non-zero when the build fails or the run
exceeds its time limit.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_LIMIT_S = 170


def main():
    for var in ("CAPRI_ENGINE", "CAPRI_JOBS"):
        if var in os.environ:
            print(f"refusing to run: {var} is set; unset it", file=sys.stderr)
            return 2
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("no dune-project at the repository root: nothing to build",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("DUNE_BUILD_DIR", None)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
