#!/usr/bin/env python3
"""Builds the benchmark from source (Release) and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental after the first run. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero without a
result when the source tree is missing or the build fails.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr):
            return False
    return subprocess.call(
        ["cmake", "--build", build_dir, "--target", "l3bench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: the l3 source tree is not next to perfbench/",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    proc = subprocess.Popen([os.path.join(build_dir, "l3bench")] + sys.argv[1:])
    signal.signal(signal.SIGTERM, lambda *_: proc.terminate())
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
