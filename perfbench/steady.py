#!/usr/bin/env python3
"""Steadiness check: run one workload of the benchmark in two sets of runs,
each run with another seed, and print each end-to-end metric's median and
quartiles against its bound.

    python3 perfbench/steady.py --workload fresh-64k [--runs 10] [--seed 1]

Runs the command of BENCHMARK.json from the repository root with
`--seconds` set to `run_seconds`, `--runs` times with seeds `seed`,
`seed + 1`, ..., and then `--runs` times more with the seeds that follow.
The spread of a metric is the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median.
The workload is steady when, for every end-to-end metric, the spread of
each set is within the metric's bound and the second set's median differs
from the first's by no more than the bound, and when the share of failed
operations is identical in every run.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host_facts():
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return f"nproc {os.cpu_count()} | {rustc} | {platform.machine()} | {time.strftime('%Y-%m-%d %H:%M UTC', time.gmtime())}"


def run_set(bench, workload, seeds):
    results = []
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        started = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        took = time.time() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
        result = json.loads(lines[-1])
        results.append(result)
        stolen = [l for l in proc.stderr.splitlines() if "stolen" in l]
        print(f"seed {seed}: {took:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}"
              + (f" | {stolen[-1]}" if stolen else ""), flush=True)
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs in each of the two sets")
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed + i")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    print(f"host: {host_facts()}")
    print(f"workload {args.workload}, 2 sets of {args.runs} runs of {bench['run_seconds']} s")

    ok = True
    sets = []
    for k in range(2):
        first = args.seed + k * args.runs
        print(f"set {k + 1}: seeds {first}-{first + args.runs - 1}")
        sets.append(run_set(bench, args.workload, range(first, first + args.runs)))
    results = sets[0] + sets[1]
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    if len({f / a for f, a in shares}) != 1 or not all(r["correct"] for r in results):
        ok = False
        print(f"failed shares {shares}, correct {[r['correct'] for r in results]}")
    else:
        print(f"all correct; failed/attempted {shares}")

    print(f"{'metric':22} {'unit':>6} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'change':>7} {'bound':>5}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for k, rs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in rs]
            if {r["metrics"][name]["unit"] for r in rs} != {m["unit"]}:
                ok = False
                print(f"{name}: printed unit differs from declared {m['unit']}")
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med)
            medians.append(med)
            change = medians[1] / medians[0] - 1 if k else None
            flags = []
            if spread > bound:
                flags.append("SPREAD > BOUND")
            if change is not None and abs(change) > bound:
                flags.append("CHANGE > BOUND")
            ok = ok and not flags
            print(f"{name:22} {m['unit']:>6} {k + 1:>3} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.4f} {'' if change is None else f'{change:+.4f}':>7} {bound:>5}"
                  + "".join("  " + f for f in flags))
    print("steady" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
