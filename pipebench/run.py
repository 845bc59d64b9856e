#!/usr/bin/env python3
"""Build pipebench from this checkout's sources, then run one workload.

    python3 pipebench/run.py --workload dense_sybil --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/pipebench
(default .bench_build/pipebench); build output goes to stderr so the last
stdout line stays the benchmark's JSON result. Exits non-zero, printing
nothing on stdout, when the sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configured = any(os.path.exists(os.path.join(build_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        command = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", build_dir, "--target", "pipebench",
               "-j", "4"]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "pipebench")
    if not build(build_dir):
        print("pipebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "pipebench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
