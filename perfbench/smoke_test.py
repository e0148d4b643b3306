#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (about a minute after the build).

Run from the repository root:  python3 perfbench/smoke_test.py

Checks that
  * every workload in BENCHMARK.json emits every end-to-end metric (trace 0)
    and every per-layer metric (trace 1) with its declared unit, and reports
    a correct run with no failed op;
  * the oracle's negative self-test fires: with --tamper one query result
    is corrupted, the run reports correct=false with a failed op, and exits
    non-zero;
  * in a tree holding only BENCHMARK.json and the benchmark's own files the
    benchmark exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "0", "--trace", str(trace),
                             "--scale", "0.02", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    return cond


def main():
    good = True
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, proc = run(w["name"], trace)
            name = f"{w['name']} trace={trace}"
            if not check(code == 0 and result is not None,
                         f"{name}: exit 0 with a result"):
                sys.stderr.write(proc.stderr[-2000:])
                good = False
                continue
            good &= check(result["correct"] and result["failed"] == 0 and
                          result["attempted"] > 0,
                          f"{name}: correct, nothing failed")
            got = result["metrics"]
            for metric in SPEC[key]:
                m = got.get(metric["name"])
                good &= check(m is not None and m["unit"] == metric["unit"],
                              f"{name}: {metric['name']} [{metric['unit']}]")
            extra = set(got) - {m["name"] for m in SPEC[key]}
            good &= check(not extra, f"{name}: no undeclared metrics {extra or ''}")

    code, result, _ = run(SPEC["workloads"][0]["name"], 0, "--tamper")
    good &= check(code != 0 and result is not None and not result["correct"]
                  and result["failed"] >= 1,
                  "tampered result is counted as failed and fails the run")

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    code, result, _ = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    good &= check(code != 0 and result is None,
                  "without the sources: non-zero exit, no result")
    print("PASS" if good else "FAIL")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
