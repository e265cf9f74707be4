#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Checks that
  * every workload, untraced and traced, exits 0 and prints as its last
    line a result whose metrics are exactly the end-to-end (untraced) or
    per-layer (traced) metrics BENCHMARK.json names, with their units;
  * a deliberately falsified output (--corrupt: a wrong best value on
    the tuning workloads, a corrupted reply on the service workloads)
    makes the run exit non-zero with failed > 0, i.e. error_rate > 0;
  * run.py, started in a directory holding only BENCHMARK.json and the
    benchmark's own files, exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = os.path.join("perfbench", "_out")


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [EXE, "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--tiny"] + list(extra),
        capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing (stderr: %s)" % (workload, proc.stderr[-500:]))
    return proc.returncode, json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"]).returncode:
        fail("build")
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, res = run(w, trace)
            if code != 0 or not res["correct"] or res["failed"] != 0:
                fail("%s --trace %d: exit %d, %s" % (w, trace, code, res))
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: result keys %s" % (w, sorted(res)))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                fail("%s --trace %d: metrics %s, expected %s" % (w, trace, got, expected[trace]))
            if trace == 0 and any(v["value"] <= 0 for v in res["metrics"].values()):
                fail("%s: an end-to-end metric reads 0: %s" % (w, res["metrics"]))
        code, res = run(w, 0, "--corrupt")
        if code == 0 or res["correct"] or res["failed"] < 1:
            fail("%s --corrupt was not caught: exit %d, %s" % (w, code, res))
        print("smoke: %s ok (corrupted output caught: %d of %d checks failed)"
              % (w, res["failed"], res["attempted"]))
    # Without the repository's sources the benchmark must refuse to run.
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("_out"))
    proc = subprocess.run(bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout))
    print("smoke: bare directory refused (exit %d)" % proc.returncode)
    print("smoke: all ok")


if __name__ == "__main__":
    main()
