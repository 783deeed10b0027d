#!/usr/bin/env python3
"""Benchmark of the seven-stage symabs pipeline.

    python3 bench/bench.py --workload ring30 --seed 1 --seconds 30 --trace 0

One run is one fresh process (so peak RSS is per run), single-client and
closed-loop: it runs whole casestudy passes (build the systems, then sample,
certify, compose, abstract, synthesize, simulate and report through the public
`symabs.pipeline.stage_*` functions) one after another until the next pass
would end after --seconds, and always at least one.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it runs one pass with spans
around the calls into each layer and prints the per-layer metrics.  Every run
checks the outputs.  The last line of standard output is the JSON result;
the run's machine record and spans go under bench/out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

import tracing
from tracing import STAGES

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
RUN_LOG = os.path.join(OUT, "runs.jsonl")

SETUP_PROBES = 5
SHORT_WINDOW_S = 10.0
TIMED_STAGES = ("certify", "simulate")  # end-to-end metrics
STEP_PROBE_QUERIES = 256
PINNED = ("certificates.json", "trajectories.csv")

# name -> (unit, better)
END_TO_END = {
    "casestudy_s": ("s", "lower"),
    "certify_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "eps_tilde": ("state", "lower"),
    "cert_slack": ("score", "higher"),
    "winning_cells": ("count", "higher"),
}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest() -> str:
    """Digest of the package sources; runs of other code are never compared."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "symabs", "*.py"))):
        h.update(os.path.basename(path).encode())
        h.update(_sha256(path).encode())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def blas_record() -> dict:
    """BLAS name, version and thread count as numpy's OpenBLAS reports them."""
    import ctypes

    import numpy
    record = {"name": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                record["threads"] = int(func())
                return record
    return record


def machine_record(args, workload, config) -> dict:
    import workloads
    import numpy
    from symabs.pipeline import computed_sample_size
    from symabs.quantize import make_grid
    cert = config.certify
    q, _ = computed_sample_size(config, 1)
    # Every room has a 1-D state and two disturbance coordinates on the same
    # interval, wired or served over STEP.
    n_s = make_grid([workloads.STATE_BOX[0]], cert.sigma).total_cells
    n_d = n_s * n_s
    n_u = len(workloads.INPUT_LEVELS)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_record(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {
            "sigma": cert.sigma, "rooms": workload.rooms,
            "external": workload.external, "samples": q,
            "state_cells": n_s, "dist_cells": n_d, "inputs": n_u,
            "sop_rows": q * (n_s + n_u * n_s * n_d),
            "abstraction_queries": n_s * n_u * n_d,
        },
    }


# ----------------------------------------------------------------------------
# One casestudy pass and its checks
# ----------------------------------------------------------------------------

def run_pass(config, out_dir: str, span, repeat_short: bool) -> dict:
    """Build the systems, run the seven stages, close.  A failing stage is
    recorded and the later stages still run, as far as their inputs exist.

    With repeat_short, a call of a TIMED_STAGES stage that takes under
    SHORT_WINDOW_S is timed again right after it until its calls add up to
    SHORT_WINDOW_S, and its time is the fastest call, as with timeit.  A call
    that short sits inside one or two of the machine's speed swings, which
    last a second or more and only ever add time.  Only the first call's
    outcome counts, and casestudy excludes the repeats."""
    from symabs import pipeline

    def call(stage):
        t = time.perf_counter()
        try:
            with span(f"stage.{stage}"):
                if stage == "report":
                    pipeline.stage_report(config, out_dir)
                else:
                    getattr(pipeline, f"stage_{stage}")(config, out_dir, bundle)
        except Exception as exc:  # a failed stage is a counted outcome
            return time.perf_counter() - t, exc
        return time.perf_counter() - t, None

    times, failures = {}, []
    repeated = 0.0
    t0 = time.perf_counter()
    with span("casestudy"):
        os.makedirs(out_dir, exist_ok=True)
        config.to_yaml(os.path.join(out_dir, "resolved_config.yaml"))
        bundle = pipeline.build_systems(config)
        try:
            for stage in STAGES:
                elapsed, exc = call(stage)
                if exc is not None:
                    failures.append({"stage": stage, "error": type(exc).__name__,
                                     "message": str(exc)})
                    print(f"# stage {stage} failed:", file=sys.stderr)
                    traceback.print_exception(exc, file=sys.stderr)
                samples = [elapsed]
                while repeat_short and stage in TIMED_STAGES \
                        and sum(samples) < SHORT_WINDOW_S:
                    t = time.perf_counter()
                    samples.append(call(stage)[0])
                    repeated += time.perf_counter() - t
                times[stage] = min(samples)
        finally:
            if bundle.cleanup is not None:
                bundle.cleanup.close()
    times["casestudy"] = time.perf_counter() - t0 - repeated
    return {"times": times, "failures": failures}


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(out_dir: str) -> tuple[list, dict, dict]:
    """(checks, outcome, digests) of one pass's artifacts.  Each check is
    (name, ok, detail)."""
    checks, outcome, digests = [], {}, {}
    path = os.path.join(out_dir, "certificates.json")
    if os.path.exists(path):
        certs = _read_json(path)["certificates"]
        bad = [i for i, c in enumerate(certs) if not c["certified"]]
        checks.append(("certified", not bad, f"uncertified subsystems {bad}"))
        outcome["cert_slack"] = -max(c["margin"] for c in certs)
    else:
        checks.append(("certified", False, "no certificates.json"))
    path = os.path.join(out_dir, "composed.json")
    composed = _read_json(path) if os.path.exists(path) else {}
    checks.append(("circularity_ok", bool(composed.get("circularity_ok")),
                   "circularity violated or composed.json missing"))
    if "eps_tilde" in composed:
        outcome["eps_tilde"] = composed["eps_tilde"]
    path = os.path.join(out_dir, "synthesis.json")
    if os.path.exists(path):
        outcome["winning_cells"] = _read_json(path)["winning"][0]
    path = os.path.join(out_dir, "simulation.json")
    if os.path.exists(path):  # simulate completed
        sim = _read_json(path)
        checks.append(("trajectories_safe", bool(sim["all_safe"]) and sim["runs"] > 0,
                       f"all_safe={sim['all_safe']} runs={sim['runs']}"))
    for name in PINNED:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            digests[name] = _sha256(path)
    return checks, outcome, digests


def step_probe(workload, seed: int, span) -> tuple:
    """Compare a seeded sample of STEP replies from `oracle-server` with the
    in-process BlackBoxSystem.step of the same room, bit for bit."""
    import numpy as np
    from symabs.extoracle import ExternalOracle
    room = workload.room()
    sig = room.signature
    rng = np.random.default_rng([seed, 7])
    xs = rng.uniform(sig.state_box[:, 0], sig.state_box[:, 1],
                     size=(STEP_PROBE_QUERIES, sig.state_dim))
    ds = rng.uniform(sig.disturbance_box[:, 0], sig.disturbance_box[:, 1],
                     size=(STEP_PROBE_QUERIES, sig.disturbance_dim))
    us = rng.integers(sig.n_inputs, size=STEP_PROBE_QUERIES)
    want = [room.step(xs[k], sig.input(us[k]), ds[k]).tobytes()
            for k in range(STEP_PROBE_QUERIES)]
    with span("check.step_probe"), \
            ExternalOracle(workload.server_command(), sig) as oracle:
        got = [oracle.step(xs[k], sig.input(us[k]), ds[k]).tobytes()
               for k in range(STEP_PROBE_QUERIES)]
    mismatches = sum(g != w for g, w in zip(got, want))
    return ("step_replies_exact", mismatches == 0,
            f"{mismatches} of {STEP_PROBE_QUERIES} STEP replies differ")


def setup_seconds(workload_name: str, seed: int) -> list:
    """Set-up times of SETUP_PROBES fresh interpreters, one after another."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload_name, str(seed)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


def load_run_log() -> list:
    if not os.path.exists(RUN_LOG):
        return []
    records = []
    with open(RUN_LOG, "r", encoding="utf-8") as fh:
        for line in fh:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # a run cut off mid-write
    return records


def append_run_log(record: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(RUN_LOG, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _null_span(name):
    return nullcontext()


# ----------------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------------

def parse_args(argv):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "symabs")):
        print(f"error: no symabs package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    # One CPU for this thread and every oracle server it starts (they inherit
    # it), so a STEP round trip never waits for the other vCPU to wake up.
    # BLAS threads, started at import, keep every CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    config = workload.config(args.seed)
    record = machine_record(args, workload, config)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work = os.path.join(OUT, "work", tag)
    key = {"workload": args.workload, "seed": args.seed,
           "config": hashlib.sha256(json.dumps(
               config.to_mapping(), sort_keys=True).encode()).hexdigest(),
           "source": record["source_sha256"]}
    earlier = [r for r in load_run_log()
               if all(r.get(k) == v for k, v in key.items())]

    checks, digests, passes = [], [], []
    try:
        untraced = None
        tracer = None
        span = _null_span
        if args.trace:
            plain = [r["casestudy_s"] for r in earlier if r["trace"] == 0]
            if plain:
                untraced = statistics.median(plain)
            else:  # no untraced pass of this code and seed yet: make one
                result = run_pass(config, os.path.join(work, "untraced"), span,
                                  repeat_short=False)
                untraced = result["times"]["casestudy"]
                shutil.rmtree(os.path.join(work, "untraced"), ignore_errors=True)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            span = tracer.span

        try:
            checks.append(step_probe(workload, args.seed, span))
            begin = time.perf_counter()
            while True:
                out_dir = os.path.join(work, f"pass{len(passes)}")
                passes.append(run_pass(config, out_dir, span,
                                       repeat_short=not args.trace))
                pass_checks, outcome, pass_digests = check_pass(out_dir)
                checks.extend(pass_checks)
                passes[-1]["outcome"] = outcome
                digests.append(pass_digests)
                shutil.rmtree(out_dir, ignore_errors=True)
                typical = statistics.median(p["times"]["casestudy"] for p in passes)
                if args.trace or time.perf_counter() - begin + typical > args.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    seen = digests + [r["digests"] for r in earlier]
    same = all(d == seen[0] for d in seen)
    checks.append(("artifacts_identical", same,
                   f"{len(seen)} passes of this code and seed disagree"))

    failures = [f for p in passes for f in p["failures"]]
    failed_checks = [c for c in checks if not c[1]]
    attempted = len(STAGES) * len(passes) + len(checks)
    failed = len(failures) + len(failed_checks)
    median_time = {name: statistics.median(p["times"][name] for p in passes)
                   for name in STAGES + ("casestudy",)}

    metrics, counts = {}, {}
    if args.trace:
        values = tracing.layer_metrics(tracer, median_time["casestudy"], untraced)
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            counts[name] = 1
        tracer.save(os.path.join(OUT, "traces", f"{tag}.npz"))
    else:
        values = {"casestudy_s": median_time["casestudy"],
                  "certify_s": median_time["certify"],
                  "simulate_s": median_time["simulate"],
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        values.update(passes[0]["outcome"])
        for name, (unit, _) in END_TO_END.items():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
                counts[name] = len(setup) if name == "setup_s" else len(passes)

    correct = not failed_checks and len(metrics) == len(
        tracing.LAYER_METRICS if args.trace else END_TO_END)
    record.update(passes=len(passes), checks=checks, failures=failures,
                  stage_s=median_time, setup_s=setup, digests=digests[0],
                  casestudy_s=median_time["casestudy"])
    append_run_log({**key, "trace": args.trace, "digests": digests[0],
                    "casestudy_s": median_time["casestudy"]})
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}")
    print("# run " + json.dumps({k: record[k] for k in (
        "nproc", "python", "numpy", "blas", "git_commit", "source_sha256",
        "sizes")}, sort_keys=True))
    for name, ok, detail in checks:
        print(f"# check {name}: {'ok' if ok else 'FAILED ' + detail}")
    for f in failures:
        print(f"# stage {f['stage']} failed: {f['error']}: {f['message']}")
    print(f"# operations: {failed} failed of {attempted} attempted")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:16.6f} {m['unit']:6s} n={counts[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
