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
class AbstractionHeader:
    """An abstraction without its transitions: the state and disturbance
    grids and the inputs, an (n_inputs, input_dim) array in declared order.
    They fix the counts.  Refinement and the closed loop need no more than
    this."""

    state_grid: UniformGrid
    dist_grid: UniformGrid
    inputs: Array

    @property
    def n_states(self) -> int:
        return self.state_grid.total_cells

    @property
    def sink(self) -> int:
        return self.n_states

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_dists(self) -> int:
        return self.dist_grid.total_cells


@dataclass(frozen=True, eq=False)
class FiniteTransitionSystem(AbstractionHeader):
    """The header plus the dense transition table over its cells and the
    sink: table[s, u, d] is the successor index, shape (n_states + 1,
    n_inputs, n_dists); row `sink` is absorbing."""

    table: Array

    def __post_init__(self):
        tab = np.asarray(self.table)
        shape = (self.n_states + 1, self.n_inputs, self.n_dists)
        if tab.shape != shape:
            raise ValueError(f"table has shape {tab.shape}, expected {shape} "
                             f"(states + sink, inputs, disturbances)")
        if np.any(tab < 0) or np.any(tab > self.sink):
            raise ValueError("successor indices out of range")
        if not np.all(tab[-1] == self.sink):
            raise ValueError("sink row must be absorbing")

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
    """The chosen input index per state of the safety game's winning set
    (-1 elsewhere, and at the sink).  `fts` is the abstraction the game was
    solved on, or only its header when the table is read back for
    refinement."""

    chosen: Array
    fts: AbstractionHeader

    @property
    def winning(self) -> Array:
        return self.chosen >= 0

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
    return ControllerTable(chosen=chosen, fts=fts)


@dataclass(frozen=True, eq=False)
class RefinedController:
    """Concrete feedback from an abstract controller through the relation.

    `relation` needs value(x, xhat) and a theta threshold; value must
    broadcast over a stack of representatives, shape (n, dim) -> (n,).
    Winning cells, of which there must be at least one, are ranked by
    V(x, center) on the table's state grid, ties to the lower index.
    """

    table: ControllerTable
    relation: object
    _winning: Array = field(init=False, repr=False)
    _centers: Array = field(init=False, repr=False)

    def __post_init__(self):
        win = self.table.winning_states
        if win.size == 0:
            raise ValueError("cannot refine a controller with an empty "
                             "winning set")
        object.__setattr__(self, "_winning", win)
        object.__setattr__(self, "_centers",
                           self.table.fts.state_grid.all_representatives()[win])

    def select_rows(self, xs) -> tuple[Array, Array, Array]:
        """Row form of select for states xs (k, dim): the winning cell, its
        input index and the least V of each row.  A row with no related
        winning cell (least V above theta, or NaN) gets cell and input -1;
        `miss` gives the error select raises for it."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self._centers.shape[1])
        vals = self.relation.value(xs[:, None, :], self._centers[None, :, :])
        k = np.argmin(vals, axis=1)
        least = vals[np.arange(xs.shape[0]), k]
        related = least <= self.relation.theta  # NaN is never related
        cells = np.where(related, self._winning[k], -1)
        return cells, np.where(related, self.table.chosen[cells], -1), least

    def miss(self, x, least: float) -> RefinementError:
        """The refinement error for state x, whose least V is `least`."""
        return RefinementError(
            f"no winning cell is related to the state (min V = {least:.6g} "
            f"> theta = {self.relation.theta:.6g})", state=x)

    def select(self, x) -> tuple[int, int]:
        """(winning cell index, input index) for the concrete state x."""
        x = np.asarray(x, dtype=float).reshape(self._centers.shape[1])
        cells, inputs, least = self.select_rows(x[None, :])
        if cells[0] < 0:
            raise self.miss(x, float(least[0]))
        return int(cells[0]), int(inputs[0])


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


def _groups(objects) -> list:
    """Indices of each distinct object (by identity), in first-seen order."""
    out = {}
    for i, obj in enumerate(objects):
        out.setdefault(id(obj), []).append(i)
    return list(out.values())


def simulate_closed_loop(subsystems, topology: InterconnectionTopology,
                         controllers, x0, horizon: int):
    """Run the wired network from a stack of starts under per-subsystem
    refined controllers; returns one list of per-subsystem Trajectory per run.

    x0 is (runs, network state dim).  Each step reads neighbor states as
    disturbances (d_ij = x_j).  Subsystems that are given the same controller
    object form a group, and each step refines the inputs of every alive run
    in every subsystem of a group in one row-form call.  A refinement failure
    truncates that run's trajectories at that step; of the subsystems that
    miss, the lowest-index one carries the diagnostic.  Subsystems that are
    the same system object likewise advance together: one step call per
    distinct object and step, on the stacked (alive runs x members) rows,
    each member with the inputs of its own controller and the states of its
    own neighbours.  The oracle answers row by row, so the successors are
    those of one call per subsystem.  Safety flags record membership of each
    state in its subsystem's declared state box.
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
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2 or x0.shape[1] != offsets[-1]:
        raise ValueError(f"x0 must be a (runs, {offsets[-1]}) stack of starts")
    runs = x0.shape[0]
    blocks = [slice(offsets[i], offsets[i + 1]) for i in range(m)]
    columns = [np.arange(offsets[i], offsets[i + 1]) for i in range(m)]
    neighbours = [np.array([c for j in topology.wiring[i]
                            for c in range(offsets[j], offsets[j + 1])],
                           dtype=np.intp) for i in range(m)]
    # the subsystems of each distinct controller, and their state columns
    refiners = [(controllers[g[0]], g, np.concatenate([columns[i] for i in g]))
                for g in _groups(controllers)]
    # the subsystems of each distinct system object: their state and
    # neighbour columns, and their input tables stacked, with each member's
    # offset into the stack
    steppers = []
    for g in _groups(subsystems):
        tables = [controllers[i].table.fts.inputs for i in g]
        shift = np.cumsum([0] + [t.shape[0] for t in tables[:-1]])
        steppers.append((subsystems[g[0]], g,
                         np.concatenate([columns[i] for i in g]),
                         np.concatenate([neighbours[i] for i in g]),
                         np.concatenate(tables), shift))

    states = np.full((horizon + 1, runs, offsets[-1]), np.nan)
    states[0] = x0
    chosen = np.full((horizon, runs, m), -1, dtype=np.int64)
    steps = np.full(runs, horizon)  # steps taken; fewer when truncated
    diagnostics = [[None] * m for _ in range(runs)]
    alive = np.arange(runs)
    for k in range(horizon):
        x = states[k, alive]
        u = np.empty((alive.size, m), dtype=np.int64)
        least = np.empty((alive.size, m))
        for ctrl, members, cols in refiners:
            _, u_g, least_g = ctrl.select_rows(x[:, cols])
            u[:, members] = u_g.reshape(alive.size, len(members))
            least[:, members] = least_g.reshape(alive.size, len(members))
        missed = u < 0
        failed = missed.any(axis=1)
        for j in np.flatnonzero(failed):
            i = int(np.argmax(missed[j]))  # the lowest-index miss reports
            diagnostics[alive[j]][i] = str(
                controllers[i].miss(x[j, blocks[i]], least[j, i]))
            steps[alive[j]] = k
        kept = ~failed
        alive = alive[kept]
        if alive.size == 0:
            break
        u = u[kept]
        chosen[k, alive] = u
        x = x[kept]
        for sub, members, cols, nbrs, inputs, shift in steppers:
            rows = alive.size * len(members)
            nxt = sub.step(x[:, cols].reshape(rows, -1),
                           inputs[u[:, members] + shift].reshape(rows, -1),
                           x[:, nbrs].reshape(rows, -1))
            states[k + 1, alive[:, None], cols] = nxt.reshape(alive.size, -1)

    out = []
    for r in range(runs):
        t = int(steps[r])
        trajs = []
        for i in range(m):
            xs = states[:t + 1, r, blocks[i]]
            box = subsystems[i].signature.state_box
            trajs.append(Trajectory(
                subsystem=i, states=xs,
                inputs=controllers[i].table.fts.inputs[chosen[:t, r, i]],
                input_indices=chosen[:t, r, i],
                safe=np.all((xs >= box[:, 0]) & (xs <= box[:, 1]), axis=1),
                truncated_at=t if t < horizon else None,
                diagnostic=diagnostics[r][i]))
        out.append(trajs)
    return out
