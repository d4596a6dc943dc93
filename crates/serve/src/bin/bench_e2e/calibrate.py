#!/usr/bin/env python3
"""Calibrates the end-to-end bounds of BENCHMARK.json.

Runs the benchmark command from BENCHMARK.json (from the repository root)
ten times per workload with --trace 0, seeds 1..5 as set A and 6..10 as
set B, and appends the session to calibration.json beside this file. A
session records, for every end-to-end and informational metric, each set's
median, quartiles and relative spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives the quartiles), the same over all
ten runs, and the shift of B's median against A's.

The file's "worst" table holds, per gated metric and workload, the widest
ten-run spread, the largest shift between a session's two sets, and the
largest shift between two sessions' ten-run medians, next to the metric's
bound. A bound below any of them would have failed an unchanged commit.

Usage, from the repository root:  python3 crates/serve/src/bin/bench_e2e/calibrate.py
"""

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "calibration.json")
SETS = {"A": [1, 2, 3, 4, 5], "B": [6, 7, 8, 9, 10]}


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "runs": values,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_session(bench, out_dir):
    """Ten runs per workload; returns the session's per-metric statistics."""
    workloads = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        values = {}
        for name, seeds in SETS.items():
            for seed in seeds:
                args = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0", "--out", out_dir,
                ]
                done = subprocess.run(args, capture_output=True, text=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if done.returncode != 0 or not result["correct"] or result["failed"]:
                    sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
                with open(os.path.join(out_dir, "bench_e2e.json")) as f:
                    report = json.load(f)["workloads"][workload]
                for group in ("end_to_end", "informational"):
                    for metric, entry in report[group].items():
                        values.setdefault(metric, {}).setdefault(name, []).append(entry["value"])
                print(workload, seed, {m: v["value"] for m, v in report["end_to_end"].items()}, flush=True)
        entry = {}
        for metric, by_set in values.items():
            if any(len(v) != len(SETS[s]) for s, v in by_set.items()):
                continue  # a tail some runs did not support
            stats = {s: summary(v) for s, v in by_set.items()}
            stats["all"] = summary(by_set["A"] + by_set["B"])
            a, b = stats["A"]["median"], stats["B"]["median"]
            stats["median_shift"] = b / a - 1 if a else None
            entry[metric] = stats
        workloads[workload] = entry
    return workloads


def worst(sessions, bounds):
    """Per gated metric and workload, the widest ten-run spread, the largest
    shift between a session's two sets, and the largest shift between two
    sessions' ten-run medians."""
    table = {}
    for metric, bound in bounds.items():
        per_workload = {}
        for workload in sessions[0]["workloads"]:
            stats = [s["workloads"][workload][metric] for s in sessions]
            medians = [st["all"]["median"] for st in stats]
            per_workload[workload] = {
                "spread": max(st["all"]["spread"] for st in stats),
                "median_shift": max(abs(st["median_shift"]) for st in stats),
                "session_shift": max(medians) / min(medians) - 1,
            }
        table[metric] = {"bound": bound, "workloads": per_workload}
    return table


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"how": __doc__.strip().splitlines()[0], "sessions": []}
    if os.path.exists(RECORD):
        with open(RECORD) as f:
            record = json.load(f)
    started = datetime.datetime.now(datetime.timezone.utc)
    workloads = run_session(bench, os.path.join("target", "bench_e2e_calibration"))
    record["sessions"].append({
        "started_utc": started.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "hardware": {"nproc": os.cpu_count(), "cpu": cpu_model()},
        "run_seconds": bench["run_seconds"],
        "sets": SETS,
        "workloads": workloads,
    })
    record["worst"] = worst(record["sessions"], bounds)
    with open(RECORD, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
