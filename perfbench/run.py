#!/usr/bin/env python3
"""Wall-clock benchmark of the DLA service (metric dictionary: METRICS.md).

Run from the repository root:

    python3 perfbench/run.py --workload ingest_durable --seed 1 \
        --seconds 10 --trace 0

On first use this configures and builds perfbench/ (which compiles the
repository's libraries from src/) into .bench_build/perfbench, then runs
dla_perfbench. Its last line on stdout is the result JSON; build output
goes to stderr. Extra flags (--scale, --tamper) pass through to
dla_perfbench. Exits non-zero, printing no result, when the sources are missing,
the build fails or a result is wrong.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dla_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: repository sources (src/) not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "dla_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest_durable", "audit_read"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work] + extra
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
