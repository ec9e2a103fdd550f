#!/usr/bin/env python3
"""Build the program and run one benchmark workload, or repeat them all.

One run (the contract BENCHMARK.json describes):

    python3 perfbench/run.py --workload chaos-II --seed 1 --seconds 30 --trace 0

builds perfbench/ (the program's libraries plus the sentbench binary) into
.bench_build/ at the checkout root, runs the workload and passes its output
through; the last stdout line is the result JSON. Build output goes to
stderr. Exits non-zero, printing no result, when the build fails.

Repeat mode, the evidence behind the bounds in BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 [--workloads a,b] [--seconds 30]

runs every workload --repeat times with a new seed each round, alternating
the workload order between rounds, keeps every raw result under
.bench_build/repeat/, and prints each metric's median, quartiles and spread
(quartile distance over median) next to its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sentbench")
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 175


def build():
    """Configure and build sentbench (a no-op when up to date, well under
    a second); returns False on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "sentbench", "-j", jobs]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def sentbench_args(workload, seed, seconds, trace):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", os.path.join(BUILD, "out")]


def run_one(args):
    try:
        proc = subprocess.run(
            sentbench_args(args.workload, args.seed, args.seconds, args.trace),
            timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return proc.returncode


def summarize(values):
    """Median, first and third quartile (statistics.quantiles, n=4) and the
    spread: quartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def repeat(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    raw_dir = os.path.join(BUILD, "repeat", time.strftime("%Y%m%d-%H%M%S"))
    os.makedirs(raw_dir, exist_ok=True)
    results = {name: [] for name in names}
    with open(os.path.join(raw_dir, "raw.jsonl"), "w", encoding="utf-8") as raw:
        for rnd in range(args.repeat):
            order = names if rnd % 2 == 0 else list(reversed(names))
            seed = args.seed + rnd
            for name in order:
                proc = subprocess.run(
                    sentbench_args(name, seed, seconds, args.trace),
                    capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                    check=False)
                log = os.path.join(raw_dir, f"{name}-round{rnd}.txt")
                with open(log, "w", encoding="utf-8") as f:
                    f.write(proc.stdout + proc.stderr)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"run.py: {name} seed {seed} failed "
                          f"(exit {proc.returncode}), see {log}",
                          file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                raw.write(json.dumps({"workload": name, "round": rnd,
                                      "seed": seed, "result": result}) + "\n")
                raw.flush()
                results[name].append(result)
                print(f"round {rnd} {name} seed {seed} done", file=sys.stderr)

    print(f"raw runs kept in {raw_dir}")
    print(f"{'workload':<10} {'metric':<30} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for name in names:
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results[name]]
            s = summarize(values)
            bound = m.get("bound")
            if bound is None:
                verdict = "within a tenth" if s["spread"] <= 0.1 else ""
            else:
                verdict = ("steady" if s["spread"] < bound / 3 else
                           "within bound" if s["spread"] <= bound else
                           "TOO NOISY")
            print(f"{name:<10} {m['name']:<30} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>7.3f} "
                  f"{'' if bound is None else bound:>6}  {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="rounds of every workload (repeat mode)")
    parser.add_argument("--workloads", help="comma-separated subset")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.repeat and args.repeat < 10:
        parser.error("--repeat needs at least 10 rounds")
    if not args.repeat and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.repeat:
        return repeat(args)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
