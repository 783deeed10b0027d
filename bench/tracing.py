"""Spans around calls into the symabs modules, and the layer metrics from them.

A span has a name, a start, an end and a parent span.  Spans are kept in
memory (four flat arrays) and written out once the run ends.  The tracer
wraps public functions and methods of the package from outside, by replacing
the module or class attribute the callers look up, and puts every attribute
back on `restore`.  A layer's self time is its spans' time minus the time of
their child spans.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

STAGES = ("sample", "certify", "compose", "abstract", "synthesize", "simulate",
          "report")
WRITERS = ("write_abstraction", "write_controller", "write_trajectories")
READERS = ("read_abstraction", "read_controller")

# name -> (unit, better); README.md maps each layer to the end-to-end
# metric it should move.
LAYER_METRICS = {
    "scenario.sop_rows": ("count", "lower"),
    "scenario.sop_bytes": ("B", "lower"),
    "scenario.sopdata_s": ("s", "lower"),
    "scenario.instance_s": ("s", "lower"),
    "scenario.lipschitz_s": ("s", "lower"),
    "scenario.solve_lp_s": ("s", "lower"),
    "simplex.rounds": ("count", "lower"),
    "simplex.pivots": ("count", "lower"),
    "simplex.master_rows_max": ("count", "lower"),
    "simplex.master_s": ("s", "lower"),
    "simplex.scans": ("count", "lower"),
    "simplex.scan_s": ("s", "lower"),
    "simplex.gather_s": ("s", "lower"),
    "simplex.select_s": ("s", "lower"),
    "model.step_calls": ("count", "lower"),
    "model.step_us_p50": ("us", "lower"),
    "model.step_us_p99": ("us", "lower"),
    "model.step_s": ("s", "lower"),
    "extoracle.step_calls": ("count", "lower"),
    "extoracle.roundtrip_us_p50": ("us", "lower"),
    "extoracle.roundtrip_us_p99": ("us", "lower"),
    "extoracle.step_s": ("s", "lower"),
    "quantize.transition_calls": ("count", "lower"),
    "quantize.transition_s": ("s", "lower"),
    "quantize.transition_dup_ratio": ("ratio", "lower"),
    "synthesize.enumerate_s": ("s", "lower"),
    "synthesize.game_s": ("s", "lower"),
    "synthesize.select_calls": ("count", "lower"),
    "synthesize.select_us_p50": ("us", "lower"),
    "synthesize.select_us_p99": ("us", "lower"),
    "synthesize.select_s": ("s", "lower"),
    "synthesize.loop_s": ("s", "lower"),
    "pipeline.abstraction_writes": ("count", "lower"),
    "pipeline.abstraction_reads": ("count", "lower"),
    "pipeline.artifact_write_s": ("s", "lower"),
    "pipeline.artifact_read_s": ("s", "lower"),
    "pipeline.artifact_bytes": ("B", "lower"),
    "pipeline.sample_s": ("s", "lower"),
    "pipeline.abstract_s": ("s", "lower"),
    "pipeline.compose_s": ("s", "lower"),
    "pipeline.synthesize_s": ("s", "lower"),
    "pipeline.report_s": ("s", "lower"),
    **{f"unattributed.{stage}_s": ("s", "lower") for stage in STAGES},
    "trace.casestudy_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


class Tracer:
    """Records spans in memory; `patch` wraps a function in a span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self._patches = []
        # Counts taken where the work happens, beside the spans.
        self.sop_rows = 0
        self.sop_bytes = 0
        self.master_rows_max = 0
        self.pivots = 0
        self.artifact_bytes = 0
        self.transition_keys = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        idx = len(self.start)
        self.name.append(self._id(name))
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1])
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.start[idx] = t0
            self._stack.pop()

    def wrap(self, name: str, func, after=None):
        """func in a span; after(args, kwargs, result) runs once it returns."""
        nid = self._id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            starts.append(0)
            ends.append(0)
            parents.append(stack[-1])
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """(name ids, durations in s, parent index) of all closed spans."""
        names = np.frombuffer(self.name, dtype=np.int32) if len(self.name) \
            else np.zeros(0, dtype=np.int32)
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        return names, (end - start) / 1e9, parent

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.asarray(self.names),
                 name=np.asarray(self.name, dtype=np.int32),
                 start_ns=np.asarray(self.start, dtype=np.int64),
                 end_ns=np.asarray(self.end, dtype=np.int64),
                 parent=np.asarray(self.parent, dtype=np.int64))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the symabs package in spans."""
    from symabs import extoracle, model, pipeline, scenario, simplex, synthesize

    def note_rows(args, kwargs, result):
        st = args[0].structure
        tracer.sop_rows += st.h1_rows + st.h2_rows

    def note_instance(args, kwargs, inst):
        data = args[0]
        cached = (data.x_plus, data.successor_reps, data.g_cur,
                  data.dist2_state, data.dist2_dist)
        rows = (inst.coef_gamma, inst.coef_eta, inst.coef_theta, inst.coef_phi,
                inst.const)
        tracer.sop_bytes = max(tracer.sop_bytes,
                               sum(a.nbytes for a in cached + rows))

    def note_master(args, kwargs, result):
        a_ub = args[1] if len(args) > 1 else kwargs.get("a_ub")
        rows = 0 if a_ub is None else np.asarray(a_ub).shape[0]
        tracer.master_rows_max = max(tracer.master_rows_max, rows)
        tracer.pivots += result.iterations

    def note_transition(args, kwargs, result):
        sys_, _, _, xhat, nu, dhat = args
        tracer.transition_keys.add(hash((
            id(sys_), xhat.index, np.asarray(nu, dtype=float).tobytes(),
            -1 if dhat is None else dhat.index)))

    def note_written(args, kwargs, result):
        tracer.artifact_bytes += os.path.getsize(args[0])

    patch = tracer.patch
    patch(scenario.SopData, "__init__", "scenario.sopdata", note_rows)
    patch(scenario.SopData, "instance", "scenario.instance", note_instance)
    patch(scenario.DataLipschitz, "bound", "scenario.lipschitz")
    patch(scenario, "solve_lp", "scenario.solve_lp")
    patch(scenario, "solve_with_rows", "simplex.rows")
    patch(simplex, "solve_simplex", "simplex.master", note_master)
    patch(scenario.SopInstance, "residuals", "simplex.scan")
    patch(scenario.SopInstance, "gather", "simplex.gather")
    patch(model.BlackBoxSystem, "step", "model.step")
    patch(extoracle.ExternalOracle, "step", "extoracle.step")
    patch(scenario, "abstract_transition", "quantize.transition", note_transition)
    patch(synthesize, "abstract_transition", "quantize.transition",
          note_transition)
    patch(pipeline, "enumerate_abstraction", "synthesize.enumerate")
    patch(pipeline, "safety_synthesis", "synthesize.game")
    patch(synthesize.RefinedController, "select", "synthesize.select")
    patch(pipeline, "simulate_closed_loop", "synthesize.loop")
    for fn in WRITERS:
        patch(pipeline, fn, f"pipeline.{fn}", note_written)
    for fn in READERS:
        patch(pipeline, fn, f"pipeline.{fn}")


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced run.

    A layer's `*_s` metric is its self time; pipeline.<stage>_s are whole
    stage times."""
    names, dur, parent = tracer.arrays()
    n = dur.shape[0]
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner], minlength=n)
    own = dur - child
    width = len(tracer.names)
    count = np.bincount(names, minlength=width)
    total = np.bincount(names, weights=dur, minlength=width)
    self_s = np.bincount(names, weights=own, minlength=width)

    def idx(name):
        return tracer._ids.get(name)

    def calls(name):
        i = idx(name)
        return 0 if i is None else int(count[i])

    def selft(*span_names):
        return sum(float(self_s[idx(s)]) for s in span_names
                   if idx(s) is not None)

    def whole(name):
        i = idx(name)
        return 0.0 if i is None else float(total[i])

    def micros(name, q):
        i = idx(name)
        if i is None or count[i] == 0:
            return 0.0
        return float(np.percentile(dur[names == i], q)) * 1e6

    transitions = calls("quantize.transition")
    distinct = len(tracer.transition_keys)
    values = {
        "scenario.sop_rows": tracer.sop_rows,
        "scenario.sop_bytes": tracer.sop_bytes,
        "scenario.sopdata_s": selft("scenario.sopdata"),
        "scenario.instance_s": selft("scenario.instance"),
        "scenario.lipschitz_s": selft("scenario.lipschitz"),
        "scenario.solve_lp_s": selft("scenario.solve_lp"),
        "simplex.rounds": calls("simplex.master"),
        "simplex.pivots": tracer.pivots,
        "simplex.master_rows_max": tracer.master_rows_max,
        "simplex.master_s": selft("simplex.master"),
        "simplex.scans": calls("simplex.scan"),
        "simplex.scan_s": selft("simplex.scan"),
        "simplex.gather_s": selft("simplex.gather"),
        "simplex.select_s": selft("simplex.rows"),
        "model.step_calls": calls("model.step"),
        "model.step_us_p50": micros("model.step", 50),
        "model.step_us_p99": micros("model.step", 99),
        "model.step_s": selft("model.step"),
        "extoracle.step_calls": calls("extoracle.step"),
        "extoracle.roundtrip_us_p50": micros("extoracle.step", 50),
        "extoracle.roundtrip_us_p99": micros("extoracle.step", 99),
        "extoracle.step_s": selft("extoracle.step"),
        "quantize.transition_calls": transitions,
        "quantize.transition_s": selft("quantize.transition"),
        "quantize.transition_dup_ratio": transitions / distinct if distinct else 0.0,
        "synthesize.enumerate_s": selft("synthesize.enumerate"),
        "synthesize.game_s": selft("synthesize.game"),
        "synthesize.select_calls": calls("synthesize.select"),
        "synthesize.select_us_p50": micros("synthesize.select", 50),
        "synthesize.select_us_p99": micros("synthesize.select", 99),
        "synthesize.select_s": selft("synthesize.select"),
        "synthesize.loop_s": selft("synthesize.loop"),
        "pipeline.abstraction_writes": calls("pipeline.write_abstraction"),
        "pipeline.abstraction_reads": calls("pipeline.read_abstraction"),
        "pipeline.artifact_write_s": selft(*(f"pipeline.{f}" for f in WRITERS)),
        "pipeline.artifact_read_s": selft(*(f"pipeline.{f}" for f in READERS)),
        "pipeline.artifact_bytes": tracer.artifact_bytes,
        "pipeline.sample_s": whole("stage.sample"),
        "pipeline.abstract_s": whole("stage.abstract"),
        "pipeline.compose_s": whole("stage.compose"),
        "pipeline.synthesize_s": whole("stage.synthesize"),
        "pipeline.report_s": whole("stage.report"),
        "trace.casestudy_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": n,
    }
    for stage in STAGES:
        values[f"unattributed.{stage}_s"] = selft(f"stage.{stage}")
    return values
