#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at a tiny size.

    python3 bench/selftest.py

Checks that BENCHMARK.json is well formed; runs bench.py on tiny-ring (three
rooms, sigma 0.03) and tiny-step (one room served over STEP) with and without
tracing, and checks that each run prints every metric BENCHMARK.json names,
with its unit and a number, and passes its output checks; then checks that
bench.py exits non-zero without printing a result in a directory that holds
only BENCHMARK.json and the benchmark's own files.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def spec_problems(spec: dict) -> list:
    """Ways BENCHMARK.json breaks the format bench.py is run under."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return problems
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be 1..32 strings of <= 200 characters")
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16 or not all(
            PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
            for p in paths):
        problems.append(f"bad paths {paths}")
    for c in cmd[1:]:
        if os.path.exists(os.path.join(ROOT, c)) and not any(
                c == p or c.startswith(p.rstrip("/") + "/") for p in paths):
            problems.append(f"command names {c}, outside paths")
    secs = spec["run_seconds"]
    if not (isinstance(secs, int) and 1 <= secs <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2..8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: name and one-line why")
    names = [w["name"] for w in spec["workloads"]]
    for group, keys, most in (("end_to_end", {"name", "unit", "better", "bound"}, 16),
                              ("per_layer", {"name", "unit", "better"}, 128)):
        if not 1 <= len(spec[group]) <= most:
            problems.append(f"{group} needs 1..{most} metrics")
        for m in spec[group]:
            if set(m) != keys or not UNIT.match(m["unit"]) \
                    or m["better"] not in ("lower", "higher"):
                problems.append(f"{group} entry {m}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound must be in (0, 0.25]")
            names.append(m["name"])
    problems += [f"bad name {n}" for n in names if not NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should have the largest bound")
    return problems


def run_bench(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, os.path.join(cwd, "bench", "bench.py"),
           "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result_problems(done, expected: list) -> list:
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr[-500:]}"]
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line is not a JSON result"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("output checks failed")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed must be whole numbers, attempted >= 1")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        if not isinstance(got.get("value"), (int, float)) or isinstance(
                got.get("value"), bool):
            problems.append(f"{m['name']}: value is not a number")
        elif "bound" in m and not got["value"] > 0:
            problems.append(f"{m['name']}: end-to-end values must be positive")
        # printed for people too
        if not re.search(rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s",
                         done.stdout, re.M):
            problems.append(f"{m['name']} not printed with its unit")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = [f"BENCHMARK.json: {p}" for p in spec_problems(spec)]

    for workload in ("tiny-ring", "tiny-step"):
        for trace in (0, 1):
            expected = spec["per_layer" if trace else "end_to_end"]
            problems = result_problems(run_bench(ROOT, workload, trace), expected)
            print(f"{workload} trace={trace}: "
                  + ("ok" if not problems else "; ".join(problems)), flush=True)
            failures += [f"{workload} trace={trace}: {p}" for p in problems]

    bare = os.path.join(BENCH_DIR, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run_bench(bare, spec["workloads"][0]["name"], 0)
        lines = done.stdout.strip().splitlines()
        printed = bool(lines) and lines[-1].startswith("{")
        ok = done.returncode != 0 and not printed
        print(f"bare directory: {'ok' if ok else 'FAILED'} "
              f"(exit {done.returncode}, result printed: {printed})")
        if not ok:
            failures.append("bench.py must fail without a result when src/ is absent")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"FAILED {f}")
    print("selftest " + ("passed" if not failures else "failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
