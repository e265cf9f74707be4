#!/usr/bin/env python3
"""Record a point of the wall-clock trajectory: medians and quartiles.

Usage, from the root of a checkout:

    python3 perfbench/record.py [--runs N] [--first-seed S] [--out FILE]

Runs every workload of BENCHMARK.json N times untraced (--trace 0) and N
times traced (--trace 1), each run with its own seed, and writes, for
every workload and metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread (the
distance between the quartiles as a share of the median), together with
the hardware the runs saw.  Default: 10 runs, seeds from 1000, written to
perfbench/baseline.json.  Exits non-zero if any run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--out", default=os.path.join("perfbench", "baseline.json"))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    result = {
        "hardware": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                     "machine": platform.machine()},
        "run_seconds": bench["run_seconds"],
        "runs": args.runs,
        "workloads": {},
    }
    for w in [w["name"] for w in bench["workloads"]]:
        per_metric = {}
        for trace in (0, 1):
            for i in range(args.runs):
                seed = args.first_seed + i
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", str(trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                if proc.returncode != 0:
                    print("record: %s seed %d trace %d failed:\n%s%s"
                          % (w, seed, trace, proc.stdout[-2000:], proc.stderr[-2000:]))
                    return 1
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                for name, m in res["metrics"].items():
                    per_metric.setdefault(name, {"unit": m["unit"], "values": []})
                    per_metric[name]["values"].append(m["value"])
                print("record: %s seed %d trace %d ok" % (w, seed, trace), flush=True)
        result["workloads"][w] = {
            name: dict(unit=m["unit"], **summary(m["values"]))
            for name, m in per_metric.items()
        }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    for w, metrics in result["workloads"].items():
        for name in [m["name"] for m in bench["end_to_end"]]:
            s = metrics[name]
            print("%-15s %-14s median %-12.6g spread %.3f" % (w, name, s["median"], s["spread"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
