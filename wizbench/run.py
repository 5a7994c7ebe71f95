#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 wizbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
engine library and the driver under $CARGO_TARGET_DIR (default
.bench_build); later runs only rebuild what changed. The driver's
output is passed through: its last line is the JSON result. With
--trace 1 the recorded spans are written to
<build>/spans-<workload>-<seed>.json
(Chrome trace-event JSON).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kernels", "analysis", "cold-start", "fleet")
EXPECTED = os.path.join(HERE, "expected.txt")


def build_dir():
    return os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "wizbench"))


def build(target="wizbench"):
    """Configures (once) and builds @target; returns the binary path."""
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target,
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"wizbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", EXPECTED]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir(), f"spans-{args.workload}-{args.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
