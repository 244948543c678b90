#!/usr/bin/env python3
"""Build and run the end-to-end solve benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload svm-sync-p2 --seed 1 --seconds 20 --trace 0

The library and the driver are built from source into $CARGO_TARGET_DIR
(default .bench_build) on first use.  Every argument is passed through to
the driver; see e2e_bench/README.md for the workloads and metrics.  The
driver's last line of standard output is the JSON result.  Build output goes
to standard error.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench",
                    "-j", "4"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "e2e_bench")


def main():
    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2e_bench: build failed: {err}", file=sys.stderr)
        return 1
    env = dict(os.environ, OMP_NUM_THREADS="1")
    args = [binary] + sys.argv[1:]
    if "--git-sha" not in args:
        args += ["--git-sha", git_sha(root)]
    sys.stdout.flush()
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
