#!/usr/bin/env python3
"""Builds the rdmasem benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The benchmark program (perfbench/*.cpp)
is compiled together with the library in src/ into the build directory
named by CARGO_TARGET_DIR, or .bench_build when that is unset. Build output
goes to stderr; stdout carries only the program's output, whose last line
is the result JSON. The exit code is the program's: 0 when every output
check passed, 1 when one failed, 2 or 3 when the run was refused.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "rdmasem_perfbench"


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", BINARY,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, BINARY)


def run(cmd):
    """Runs the program to completion, killing it if this script stops."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["shuffle16", "randseq_sweep", "kv_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one output byte; the output check must fail")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: the rdmasem sources (src/) are missing", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        cmd.append("--corrupt")
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
