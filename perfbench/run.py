#!/usr/bin/env python3
"""Build and run the lattice-qcd-dd benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <dd-solve|dd-dist|krylov|serve-wave> \\
        --seed <n> --seconds <s> --trace <0|1>

The script builds the benchmark binary (a cargo package of its own that
links the library crates by path) in release mode, runs the workload in a
child process, and relays its output. The last line of standard output is
the run's JSON result. Build output goes to standard error. The build
directory is `$CARGO_TARGET_DIR`, or `.bench_build` at the repository root.
Without the library sources next to this directory the build fails and
the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end well within 180 s; a hung child is killed before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def main() -> int:
    env = dict(os.environ)
    # QDD_WORKERS overrides every worker count inside the library; pin the
    # benchmark's own counts by running the child without it.
    pinned = env.pop("QDD_WORKERS", None)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = os.path.join(target, "release", "perfbench")
    if pinned is not None:
        print(f"QDD_WORKERS={pinned} was set in the environment; removed for this run")
        sys.stdout.flush()
    try:
        child = subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
