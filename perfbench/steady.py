#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady across seeds.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and prints, per metric, the median and the spread (distance
between the first and third quartile as a share of the median, as
statistics.quantiles(values, n=4) gives them) against the metric's
bound. It exits non-zero if a run fails, a result is not correct, a
deterministic metric differs between runs, or a spread (setup_s
excepted) reaches its bound.

    python3 perfbench/steady.py                      # 10 seeds, all workloads
    python3 perfbench/steady.py --runs 5 --workload rank-queued
    python3 perfbench/steady.py --heldout            # seeds never used in tuning

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys

HELDOUT_BASE = 1000

# End-to-end metrics that must read the same on every run: `quality` is
# computed on the reference input, which no seed changes.
DETERMINISTIC = {"ok_ratio", "quality"}


def run_once(cmd, workload, seed, seconds, trace):
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["steal"] = next((float(l.split()[1]) for l in lines if l.startswith("steal ")), None)
    host = next((json.loads(l[len("host "):]) for l in lines if l.startswith("host ")), {})
    result["calib"] = host.get("calib_ns_per_op")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--heldout", action="store_true",
                    help=f"use seeds from {HELDOUT_BASE} on instead of 1..runs")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    base = HELDOUT_BASE if args.heldout else 1
    ok = True
    for w in names:
        results = [run_once(cmd, w, base + i, bench["run_seconds"], args.trace)
                   for i in range(args.runs)]
        for r in results:
            if not r["correct"] or r["failed"]:
                print(f"{w}: incorrect run {r}")
                ok = False
            if set(r["metrics"]) != {m["name"] for m in specs}:
                print(f"{w}: metric names {sorted(r['metrics'])} differ from BENCHMARK.json")
                ok = False
        for m in specs:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if args.trace == 0 and m["name"] in DETERMINISTIC and len(set(vals)) > 1:
                flag = "  NOT DETERMINISTIC"
                ok = False
            if bound is not None and m["name"] != "setup_s":
                if spread >= bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread >= bound / 3:
                    flag = "  over bound/3"
            print(f"{w:12s} {m['name']:32s} median {med:12.6g} spread {spread:7.4f}"
                  f" bound {bound}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{v:.5g}" for v in vals))
        if args.verbose and args.trace == 0:
            print(f"{w:12s} {'host steal share':32s} " + " ".join(f"{r['steal']:.3f}" for r in results))
            print(f"{w:12s} {'host calib ns/op':32s} " + " ".join(f"{r['calib']:.3f}" for r in results))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
