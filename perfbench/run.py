#!/usr/bin/env python3
"""Build pdc and run one workload of its benchmark.

    python3 perfbench/run.py --workload heat_hybrid|life_threads|dht_serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a pdc checkout. The first call configures and builds
the benchmark (perfbench/CMakeLists.txt, which builds the pdc modules it
drives from ../src) at a fixed build type into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset; later calls only check that
the build is current. The last line of standard output is the benchmark's
JSON result. --self-test runs the benchmark's own tests of its checks.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent
BUILD_TYPE = "RelWithDebInfo"  # -O2 -g -DNDEBUG, the repository's default
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (SOURCE / "CMakeLists.txt").is_file() or not (SOURCE / "src").is_dir():
        fail(f"no pdc sources next to {HERE.name}/ (looked in {SOURCE})")
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"
    out = out.resolve()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, **quiet)
    subprocess.run(["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, **quiet)
    return out


def main(argv):
    if argv == ["--self-test"]:
        out = build()
        sys.exit(subprocess.run([str(out / "perfbench_checks")]).returncode)
    if len(argv) != 8:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")
    try:
        proc = subprocess.run([str(out / "perfbench"), *argv], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not end within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
