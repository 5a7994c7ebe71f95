#!/usr/bin/env python3
"""The benchmark's self-tests.

    python3 wizbench/selftest.py

1. Builds and runs stats_test (percentiles, open-loop latency and
   lateness, backlog growth and the max-rate ladder, span self time).
2. Runs the kernels workload briefly against the committed oracle: it
   must report correct with no failed operation.
3. Runs it again against a copy of the oracle with one entry corrupted
   (richards' interpreter checksum): it must report the run as
   incorrect with failed operations.
4. Does the same for cold-start, whose timed run(0) computes nothing:
   the corrupted entry is the small-n checksum of the first program
   its untimed output check brings up.
Exits 0 only if all of these hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def corrupted_oracle(prog, field):
    """Writes the oracle with one bit of @prog's checksum at the n in
    column @field of its prog line flipped; returns its path."""
    lines = open(run.EXPECTED).read().splitlines(keepends=True)
    n = next(ln.split()[field] for ln in lines if ln.startswith(f"prog {prog} "))
    key = f"sum {prog} {n} "
    i = next(i for i, ln in enumerate(lines) if ln.startswith(key))
    bits = int(lines[i].split()[3], 16) ^ 1
    lines[i] = f"{key}{bits:016x}\n"
    path = os.path.join(run.build_dir(), "expected-corrupted.txt")
    with open(path, "w") as f:
        f.writelines(lines)
    return path


def workload(binary, name, expected):
    """Runs @name for one second; returns its stdout lines."""
    cmd = [binary, "--workload", name, "--seed", "1", "--seconds", "1",
           "--trace", "0", "--expected", expected]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return p.stdout.strip().splitlines()


def verdict(what, lines, want_correct):
    r = json.loads(lines[-1])
    ok = (r["correct"] and r["failed"] == 0) if want_correct else \
        (not r["correct"] and r["failed"] > 0)
    print(f"{what}: correct={r['correct']} "
          f"failed={r['failed']}/{r['attempted']} -> "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def main():
    ok = True
    test = run.build("wizbench_stats_test")
    ok &= subprocess.run([test]).returncode == 0
    binary = run.build()

    ok &= verdict("kernels, clean oracle",
                  workload(binary, "kernels", run.EXPECTED), True)
    # Column 3 of a prog line is the interpreter's kernels n.
    ok &= verdict("kernels, corrupted oracle",
                  workload(binary, "kernels", corrupted_oracle("richards", 3)),
                  False)

    clean = workload(binary, "cold-start", run.EXPECTED)
    ok &= verdict("cold-start, clean oracle", clean, True)
    first = next(ln.split()[-1] for ln in clean
                 if ln.startswith("programs: "))
    # Column 6 is the small n, which the output check runs.
    ok &= verdict("cold-start, corrupted oracle",
                  workload(binary, "cold-start", corrupted_oracle(first, 6)),
                  False)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
