"""Finite abstractions, safety games, refinement, closed-loop simulation.

The abstraction of a subsystem is a finite transition system over the grid
cells plus one absorbing sink for out-of-box excursions.  Safety controllers
come from the maximal fixed point of the safety game (some input keeps every
disturbance successor winning).  The abstract controller is refined to the
concrete system through the relation V(x, xhat) <= theta: a concrete state
picks the V-minimizing winning cell and plays its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError, RefinementError
from .model import BlackBoxSystem, InterconnectionTopology
# abstract_transition is no longer called here; the import is kept because
# bench/tracing.py wraps it by this module attribute.
from .quantize import (UniformGrid, abstract_transition,
                       transition_table, trivial_grid)

Array = np.ndarray

DEFAULT_QUERY_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class FiniteTransitionSystem:
    """Dense transition table over n_states grid cells plus the sink.

    table[s, u, d] is the successor index; row `sink` is absorbing.  Inputs
    are stored as an (n_inputs, input_dim) array in declared order.
    """

    table: Array
    state_grid: UniformGrid
    dist_grid: UniformGrid
    inputs: Array

    def __post_init__(self):
        tab = np.asarray(self.table)
        if tab.ndim != 3:
            raise ValueError("table must be (states+1, inputs, disturbances)")
        if tab.shape[0] != self.state_grid.total_cells + 1:
            raise ValueError("table must have one row per cell plus the sink")
        if np.any(tab < 0) or np.any(tab >= tab.shape[0]):
            raise ValueError("successor indices out of range")
        if not np.all(tab[-1] == tab.shape[0] - 1):
            raise ValueError("sink row must be absorbing")

    @property
    def n_states(self) -> int:
        return self.table.shape[0] - 1

    @property
    def sink(self) -> int:
        return self.n_states

    @property
    def n_inputs(self) -> int:
        return self.table.shape[1]

    @property
    def n_dists(self) -> int:
        return self.table.shape[2]

    def successor(self, state: int, inp: int, dist: int) -> int:
        return int(self.table[state, inp, dist])


def enumerate_abstraction(sys: BlackBoxSystem, state_grid: UniformGrid,
                          dist_grid: UniformGrid | None = None, inputs=None,
                          query_cap: int = DEFAULT_QUERY_CAP) -> FiniteTransitionSystem:
    """Tabulate the abstract transition map with exactly one oracle query per
    (cell, input, disturbance cell)."""
    sig = sys.signature
    if dist_grid is None:
        if sig.disturbance_dim != 0:
            raise ValueError("disturbance grid required when disturbance_dim > 0")
        dist_grid = trivial_grid()
    if dist_grid.dim != sig.disturbance_dim:
        raise ValueError("disturbance grid does not match the signature")
    if state_grid.dim != sig.state_dim:
        raise ValueError("state grid does not match the signature")
    if inputs is None:
        inputs = sig.input_array()
    else:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    n_s = state_grid.total_cells
    n_u = inputs.shape[0]
    n_d = dist_grid.total_cells
    if n_s * n_u * n_d > query_cap:
        raise CapacityError(
            f"{n_s * n_u * n_d} abstraction queries exceed the cap {query_cap}")

    successor, _ = transition_table(sys, state_grid, dist_grid, inputs)
    table = np.empty((n_s + 1, n_u, n_d), dtype=np.int64)
    table[:n_s] = successor
    table[n_s] = n_s
    return FiniteTransitionSystem(table=table, state_grid=state_grid,
                                  dist_grid=dist_grid, inputs=inputs)


@dataclass(frozen=True, eq=False)
class ControllerTable:
    """Winning set of the safety game and the chosen input index per winning
    state (-1 elsewhere)."""

    winning: Array
    chosen: Array
    fts: FiniteTransitionSystem

    @property
    def winning_states(self) -> Array:
        return np.flatnonzero(self.winning)

    def input_index(self, state: int) -> int:
        if not self.winning[state]:
            raise ValueError(f"state {state} is not winning")
        return int(self.chosen[state])


def safety_synthesis(fts: FiniteTransitionSystem, safe) -> ControllerTable:
    """Maximal fixed point of W -> {s in W : exists u, all d: tau(s,u,d) in W},
    started from the safe set.  The chosen input is the first qualifying one
    in declared order; the sink is never winning."""
    n_total = fts.n_states + 1
    mask = np.zeros(n_total, dtype=bool)
    for s in safe:
        s = int(s)
        if s == fts.sink:
            raise ValueError("safe set must exclude the sink")
        if not 0 <= s < fts.n_states:
            raise ValueError(f"safe state {s} out of range")
        mask[s] = True

    win = mask.copy()
    while True:
        ok = win[fts.table].all(axis=2)  # (states+1, inputs)
        nxt = win & ok.any(axis=1)
        if np.array_equal(nxt, win):
            break
        win = nxt
    chosen = np.full(n_total, -1, dtype=np.int64)
    if win.any():
        ok = win[fts.table].all(axis=2)
        first = np.argmax(ok, axis=1)
        chosen[win] = first[win]
    return ControllerTable(winning=win, chosen=chosen, fts=fts)


@dataclass(frozen=True, eq=False)
class RefinedController:
    """Concrete feedback from an abstract controller through the relation.

    `relation` needs value(x, xhat) and a theta threshold; value must
    broadcast over a stack of representatives, shape (n, dim) -> (n,).
    Winning cells are ranked by V(x, center), ties to the lower index.
    """

    table: ControllerTable
    relation: object
    state_grid: UniformGrid
    _winning: Array = field(init=False, repr=False)
    _centers: Array = field(init=False, repr=False)

    def __post_init__(self):
        win = self.table.winning_states
        object.__setattr__(self, "_winning", win)
        object.__setattr__(self, "_centers",
                           self.state_grid.all_representatives()[win])

    def select(self, x) -> tuple[int, int]:
        """(winning cell index, input index) for the concrete state x."""
        x = np.asarray(x, dtype=float).reshape(self.state_grid.dim)
        if self._winning.size == 0:
            raise RefinementError("controller has an empty winning set", state=x)
        vals = self.relation.value(x, self._centers)
        k = int(np.argmin(vals))
        best_val = float(vals[k])
        if not best_val <= self.relation.theta:  # NaN is never related
            raise RefinementError(
                f"no winning cell is related to the state (min V = {best_val:.6g} "
                f"> theta = {self.relation.theta:.6g})", state=x)
        best_cell = int(self._winning[k])
        return best_cell, self.table.input_index(best_cell)

    def __call__(self, x) -> Array:
        _, u = self.select(x)
        return np.asarray(self.table.fts.inputs[u], dtype=float)


def refine_controller(ctrl: ControllerTable, relation, state_grid: UniformGrid
                      ) -> RefinedController:
    if not ctrl.winning.any():
        raise ValueError("cannot refine a controller with an empty winning set")
    return RefinedController(table=ctrl, relation=relation, state_grid=state_grid)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop log of one subsystem: states (T+1 rows), inputs and their
    indices (T rows), per-state safety flags, and an optional truncation
    marker with diagnostic."""

    subsystem: int
    states: Array
    inputs: Array
    input_indices: Array
    safe: Array
    truncated_at: int | None = None
    diagnostic: str | None = None

    def __post_init__(self):
        t = self.inputs.shape[0]
        if self.states.shape[0] != t + 1 or self.safe.shape[0] != t + 1 \
                or self.input_indices.shape[0] != t:
            raise ValueError("trajectory lengths are inconsistent")

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]


def simulate_closed_loop(subsystems, topology: InterconnectionTopology,
                         controllers, x0, horizon: int, safe_boxes=None):
    """Run the wired network under per-subsystem refined controllers.

    Each step reads neighbor states as disturbances (d_ij = x_j), asks every
    controller for its input, then advances all subsystem oracles at once.  A
    refinement failure truncates all trajectories at that step; the failing
    subsystem carries the diagnostic.  Safety flags record membership of each
    state in its safe box (default: the subsystem's declared state box).
    """
    subsystems = list(subsystems)
    controllers = list(controllers)
    m = topology.num_subsystems
    if len(subsystems) != m or len(controllers) != m:
        raise ValueError("need one subsystem and one controller per topology node")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    dims = [s.signature.state_dim for s in subsystems]
    for i, sub in enumerate(subsystems):
        wired = sum(dims[j] for j in topology.wiring[i])
        if wired != sub.signature.disturbance_dim:
            raise ConfigError(
                f"subsystem {i} has disturbance_dim "
                f"{sub.signature.disturbance_dim}, but its wired neighbours "
                f"supply {wired} state coordinates")
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    x = np.asarray(x0, dtype=float).reshape(offsets[-1])
    if safe_boxes is None:
        safe_boxes = [s.signature.state_box for s in subsystems]
    safe_boxes = [np.asarray(b, dtype=float).reshape(dims[i], 2)
                  for i, b in enumerate(safe_boxes)]

    def block(vec: Array, i: int) -> Array:
        return vec[offsets[i]:offsets[i + 1]]

    def in_box(vec: Array, box: Array) -> bool:
        return bool(np.all(vec >= box[:, 0]) and np.all(vec <= box[:, 1]))

    states = [[block(x, i).copy()] for i in range(m)]
    flags = [[in_box(block(x, i), safe_boxes[i])] for i in range(m)]
    inputs = [[] for _ in range(m)]
    input_idx = [[] for _ in range(m)]
    truncated_at = None
    diagnostics = [None] * m

    for k in range(horizon):
        chosen = []
        failed = False
        for i in range(m):
            try:
                _, u = controllers[i].select(block(x, i))
            except RefinementError as err:
                diagnostics[i] = str(err)
                failed = True
                break
            chosen.append(u)
        if failed:
            truncated_at = k
            break
        nxt = np.empty_like(x)
        for i in range(m):
            d = np.concatenate([block(x, j) for j in topology.wiring[i]]) \
                if topology.wiring[i] else np.empty(0)
            nu = np.asarray(controllers[i].table.fts.inputs[chosen[i]], dtype=float)
            nxt[offsets[i]:offsets[i + 1]] = subsystems[i].step(block(x, i), nu, d)
            inputs[i].append(nu)
            input_idx[i].append(chosen[i])
        x = nxt
        for i in range(m):
            states[i].append(block(x, i).copy())
            flags[i].append(in_box(block(x, i), safe_boxes[i]))

    out = []
    for i in range(m):
        in_dim = subsystems[i].signature.input_dim
        out.append(Trajectory(
            subsystem=i,
            states=np.asarray(states[i]),
            inputs=np.asarray(inputs[i], dtype=float).reshape(len(inputs[i]), in_dim),
            input_indices=np.asarray(input_idx[i], dtype=np.int64),
            safe=np.asarray(flags[i], dtype=bool),
            truncated_at=truncated_at,
            diagnostic=diagnostics[i]))
    return out
