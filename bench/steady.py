#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady each metric is.

    python3 bench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 bench/steady.py --workloads room-step --seeds 1 2 3 4 5 --trace 1

Each run is a fresh bench.py process, one after another.  For every metric it
prints the median, the quartiles (statistics.quantiles, n=4), the spread
(third minus first quartile, as a share of the median), the number of runs
and, for end-to-end metrics, the bound from BENCHMARK.json.  With one seed it
is the one command that prints every end-to-end metric of every workload
with its unit and sample count.  The raw results go to bench/out/steady-*.json.
Exit status 1 when a run fails, its output checks fail, or an end-to-end
spread other than setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "bench.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stderr[-2000:])
    return {"workload": workload, "seed": seed, "returncode": done.returncode,
            "wall_s": wall, "result": result}


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / |median|)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, bad = [], False
    for workload in args.workloads:
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            res = run["result"]
            ok = run["returncode"] == 0 and res is not None and res["correct"]
            bad = bad or not ok
            print(f"# {workload} seed={seed} wall={run['wall_s']:.1f}s "
                  f"rc={run['returncode']} "
                  + (f"correct={res['correct']} failed={res['failed']}/"
                     f"{res['attempted']}" if res else "no result"), flush=True)

    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(BENCH_DIR, "out", f"steady-{stamp}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)

    print(f"{'workload':11s} {'metric':32s} {'unit':6s} {'n':>3s} {'median':>14s} "
          f"{'q1':>14s} {'q3':>14s} {'spread':>7s} {'bound':>6s}")
    for workload in args.workloads:
        results = [r["result"] for r in runs
                   if r["workload"] == workload and r["result"]]
        names = list(results[0]["metrics"]) if results else []
        for name in names:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            med, q1, q3, share = spread(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                if share > bound and name != "setup_s":
                    mark, bad = " OVER", True
                elif share >= bound / 3:
                    mark = " wide"
            unit = results[0]["metrics"][name]["unit"]
            print(f"{workload:11s} {name:32s} {unit:6s} {len(values):3d} "
                  f"{med:14.6g} {q1:14.6g} {q3:14.6g} {share:7.3f} "
                  f"{'' if bound is None else bound:>6}{mark}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
