#!/usr/bin/env python3
"""Steadiness check: runs one workload over several seeds and prints,
per metric, the median, the quartiles, the quartile spread and the
min/max spread relative to the median.

    python3 wizbench/steady.py --workload kernels --seeds 1-10 --seconds 15

The bounds in BENCHMARK.json are set from this output: each end-to-end
metric's quartile spread must stay below its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1]), elapsed


def summarize(name, unit, xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    rel = (lambda d: d / med) if med else (lambda d: float("nan"))
    return (f"{name:32s} {unit:6s} median={med:<12.6g} q1={q1:<12.6g} "
            f"q3={q3:<12.6g} iqr/med={rel(q3 - q1):.4f} "
            f"range/med={rel(max(xs) - min(xs)):.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 11-15")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    values, units, failed = {}, {}, 0
    for s in seeds(args.seeds):
        r, elapsed = run_once(args.workload, s, args.seconds, args.trace)
        failed += r["failed"]
        if not r["correct"]:
            print(f"seed {s}: incorrect ({r['failed']}/{r['attempted']})")
        for k, m in r["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]
        print(f"seed {s} ({elapsed:.1f} s): " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in r["metrics"].items()),
            flush=True)
    print(f"== {args.workload}: {len(seeds(args.seeds))} runs, "
          f"{failed} failed operations")
    for k, xs in values.items():
        print(summarize(k, units[k], xs))


if __name__ == "__main__":
    main()
