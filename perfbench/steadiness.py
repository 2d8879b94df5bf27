#!/usr/bin/env python3
"""Steadiness report for the mica benchmark.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs N] [--first-seed S]
        [--workloads a,b] [--seconds T]

Runs every workload N times (default 10), each run with its own seed,
interleaving workloads so slow drifts of the host spread over all of
them. For every end-to-end metric of BENCHMARK.json and every workload
it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
IQR / median, and flags any spread above the metric's bound, setup_s
included. Each run's line shows the host's steal share during it (from
the provenance line), so a spread caused by other guests on the host
can be told from one the program causes. Exits 1 when a run fails or
a metric is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, seconds):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    steal = float("nan")
    for line in lines:
        if line.startswith("provenance "):
            steal = json.loads(line[len("provenance "):])["host"]["steal_frac"]
    return json.loads(lines[-1]), steal


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="override run_seconds")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    failures = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            res, steal = run_once(bench, w, seed, seconds)
            if not res["correct"] or res["failed"]:
                failures += 1
            for m in metrics:
                values[w][m["name"]].append(res["metrics"][m["name"]]["value"])
            print(f"# {w} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"steal={steal:.3f}",
                  flush=True)

    flagged = 0
    print(f"{'workload':16} {'metric':22} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for w in workloads:
        for m in metrics:
            med, q1, q3, s = spread(values[w][m["name"]])
            flag = s > m["bound"]
            flagged += flag
            note = "FLAG" if flag else ""
            print(f"{w:16} {m['name']:22} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {s:8.4f} {m['bound']:6.3f} {note}")
    if failures:
        print(f"{failures} run(s) reported failed ops")
    return 1 if flagged or failures else 0


if __name__ == "__main__":
    sys.exit(main())
