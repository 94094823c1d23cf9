#!/usr/bin/env python3
"""Builds the wire-level serving benchmark from this source tree and runs it.

    python3 wirebench/run.py --workload cruise --seed 1 --seconds 15 --trace 0

The build (CMake, Release) lands in $CARGO_TARGET_DIR/wirebench, or
.bench_build/wirebench when the variable is unset, both relative to the
root of the tree. Build output goes to stderr, so the last line of stdout
is the benchmark's result object. Every argument is passed through to the
`wirebench` binary; see wirebench/README.md.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "wirebench")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "net_server.h")):
        sys.stderr.write("wirebench: library sources not found under "
                         f"{ROOT}/src; nothing to build\n")
        return False
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "wirebench")
    if not build(build_dir):
        sys.stderr.write("wirebench: build failed\n")
        return 2
    binary = os.path.join(build_dir, "wirebench")
    work_dir = os.path.join(build_dir, "runs")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
