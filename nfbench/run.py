#!/usr/bin/env python3
"""Builds and runs the end-to-end NF benchmark.

    python3 nfbench/run.py --workload fwd64|mbox_ckpt|trie_ckpt \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
nfbench/ (its own CMake package, compiling the library from src/) into
$CARGO_TARGET_DIR/nfbench, default .bench_build/nfbench; later runs only
re-check the build. Build output goes to stderr. The benchmark's self-tests
run before every measurement. The last line of stdout is the benchmark's
JSON result; the exit code is non-zero when the build, a self-test or an
output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)


def git_rev():
    try:
        out = subprocess.run(["git", "--git-dir=.git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build_dir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                             "nfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"nfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        subprocess.run([os.path.join(build_dir, "nfbench_selftest")],
                       stdout=sys.stderr, check=True, timeout=60)
        bench = subprocess.run([os.path.join(build_dir, "nfbench")] + sys.argv[1:],
                               env=dict(os.environ, NFBENCH_GIT_REV=git_rev()),
                               timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"nfbench: {e}", file=sys.stderr)
        return 1
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
