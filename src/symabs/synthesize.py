"""Finite abstractions, safety games, refinement, closed-loop simulation.

The abstraction of a subsystem is a finite transition system over the grid
cells; out-of-box excursions go to one absorbing sink, a successor index with
no row.  Safety controllers come from the maximal fixed point of the safety
game (some input keeps every disturbance successor winning).  The abstract
controller is refined to the concrete system through the relation V(x, xhat)
<= theta: a concrete state picks the V-minimizing winning cell and plays its
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RefinementError
from .model import BlackBoxSystem, InterconnectionTopology
# abstract_transition is no longer called here; the import is kept because
# bench/tracing.py wraps it by this module attribute.
from .quantize import (DEFAULT_TABLE_CAP, TABLE_CHUNK_ROWS, TABLE_NAME,
                       UniformGrid, abstract_transition, check_table_cap,
                       transition_table)

Array = np.ndarray


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


def table_dtype(n_states: int) -> np.dtype:
    """The dtype of an enumerated table and of its file: the smallest
    unsigned one that holds the sink, n_states."""
    return np.min_scalar_type(n_states)


@dataclass(frozen=True, eq=False)
class FiniteTransitionSystem(AbstractionHeader):
    """The header plus the dense transition table over its cells:
    table[s, u, d] is the successor index, shape (n_states, n_inputs,
    n_dists), in any integer dtype that holds the sink.  The sink is only a
    successor index, `sink` == n_states; it is absorbing and never winning,
    so it has no row."""

    table: Array

    def __post_init__(self):
        tab = np.asarray(self.table)
        if tab.dtype.kind not in "iu":
            raise ValueError(f"table has dtype {tab.dtype}, expected integers")
        shape = (self.n_states, self.n_inputs, self.n_dists)
        if tab.shape != shape:
            raise ValueError(f"table has shape {tab.shape}, expected {shape} "
                             f"(states, inputs, disturbances)")
        if tab.size and (tab.min() < 0 or tab.max() > self.sink):
            raise ValueError("successor indices out of range")


def enumerate_abstraction(sys: BlackBoxSystem, state_grid: UniformGrid,
                          dist_grid: UniformGrid,
                          query_cap: int = DEFAULT_TABLE_CAP) -> FiniteTransitionSystem:
    """Tabulate the abstract transition map over the signature's inputs with
    exactly one oracle query per (cell, input, disturbance cell), refused
    before any query when the table would exceed `query_cap` entries.  A
    disturbance-free system takes `trivial_grid()`.  Built in table_dtype."""
    sig = sys.signature
    if dist_grid.dim != sig.disturbance_dim:
        raise ValueError("disturbance grid does not match the signature")
    if state_grid.dim != sig.state_dim:
        raise ValueError("state grid does not match the signature")
    inputs = sig.input_array()
    shape = (state_grid.total_cells, inputs.shape[0], dist_grid.total_cells)
    check_table_cap(TABLE_NAME, shape[0] * shape[1] * shape[2], query_cap,
                    table_dtype(shape[0]).itemsize)
    table = np.empty(shape, dtype=table_dtype(shape[0]))
    transition_table(sys, state_grid, dist_grid, inputs, successor=table)
    return FiniteTransitionSystem(table=table, state_grid=state_grid,
                                  dist_grid=dist_grid, inputs=inputs)


@dataclass(frozen=True, eq=False)
class ControllerTable:
    """The chosen input index per cell of the safety game's winning set (-1
    elsewhere), one entry per cell.  `fts` is the abstraction the game was
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


def safety_synthesis(fts: FiniteTransitionSystem, safe) -> ControllerTable:
    """Maximal fixed point of W -> {s in W : exists u, all d: tau(s,u,d) in W},
    started from the safe set.  The chosen input is the first qualifying one
    in declared order; the sink is never winning."""
    n_s, table = fts.n_states, fts.table
    win = np.zeros(n_s + 1, dtype=bool)  # the last entry, the sink, stays False
    for s in safe:
        if not 0 <= int(s) < n_s:
            raise ValueError(f"safe state {s} out of range (the sink is {n_s})")
        win[int(s)] = True
    # ok[s, u]: every successor of (s, u) is winning; np.take copies the
    # indices it is handed to intp, so it gets transition_table's chunks
    ok = np.empty((n_s, fts.n_inputs), dtype=bool)
    step = max(1, TABLE_CHUNK_ROWS // (fts.n_inputs * fts.n_dists))
    while True:
        for lo in range(0, n_s, step):
            np.take(win, table[lo:lo + step]).all(axis=2, out=ok[lo:lo + step])
        nxt = win[:n_s] & ok.any(axis=1)
        if np.array_equal(nxt, win[:n_s]):
            break
        win[:n_s] = nxt
    chosen = np.where(nxt, np.argmax(ok, axis=1), -1)  # ok over the final win
    return ControllerTable(chosen=chosen, fts=fts)


def _distinct_rows(xs: Array) -> tuple[Array, Array]:
    """(the distinct rows of the float stack xs, the index of each row's
    distinct row).  Rows match by bit pattern, so -0.0 and 0.0, or two NaN
    payloads, stay apart and each row keeps the bits of its own result.
    Sorting the int64 view stands in for np.unique, whose first call
    imports numpy.ma."""
    bits = xs.view(np.int64)
    order = np.lexsort(bits.T)
    ranked = bits[order]
    # new[j]: sorted row j differs from row j - 1, so it starts a new group
    new = np.empty(xs.shape[0], dtype=bool)
    new[:1] = False
    np.logical_or.reduce(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    inverse = np.empty(xs.shape[0], dtype=np.intp)
    inverse[order] = np.add.accumulate(new, dtype=np.intp)
    new[:1] = True
    return xs[order[new]], inverse


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
        `miss` gives the error select raises for it.  Each distinct row is
        scored and resolved once, and its results copied to the rows that
        repeat it."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self._centers.shape[1])
        distinct, inverse = _distinct_rows(xs)
        vals = self.relation.value(distinct[:, None, :],
                                   self._centers[None, :, :])
        k = vals.argmin(axis=1)
        least = vals[np.arange(k.size), k]
        related = least <= self.relation.theta  # NaN is never related
        cells = np.where(related, self._winning[k], -1)
        # an unrelated row's -1 reads the last cell's entry; related masks it
        inputs = np.where(related, self.table.chosen[cells], -1)
        return cells[inverse], inputs[inverse], least[inverse]

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
class ClosedLoopLog:
    """Every closed-loop run in the loop's arrays: `states` (horizon + 1,
    runs, state coordinates), subsystem i in columns offsets[i]:offsets[i+1];
    `input_indices` (horizon, runs, subsystems) into each subsystem's input
    table; `safe` (horizon + 1, runs, subsystems); the `steps` each run took
    (fewer than the horizon when truncated); and `diagnostics`, which maps
    each truncated run to the subsystem that reported its miss and the
    message."""

    states: Array
    offsets: Array
    input_indices: Array
    tables: list
    safe: Array
    steps: Array
    diagnostics: dict

    @property
    def horizon(self) -> int:
        return self.input_indices.shape[0]

    def __len__(self) -> int:
        return self.steps.shape[0]


def _groups(objects) -> list:
    """Indices of each distinct object (by identity), in first-seen order."""
    out = {}
    for i, obj in enumerate(objects):
        out.setdefault(id(obj), []).append(i)
    return list(out.values())


def _selector(index):
    """Ascending distinct indices as a slice when they form one contiguous
    run, so that gathers and scatters through them are views and basic
    assignments; otherwise as an index array."""
    index = np.asarray(index, dtype=np.intp)
    if index.size and index[-1] - index[0] == index.size - 1:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def simulate_closed_loop(subsystems, topology: InterconnectionTopology,
                         controllers, x0, horizon: int):
    """Run the wired network from the starts x0 (runs, network state dim)
    under per-subsystem refined controllers; returns the ClosedLoopLog that
    keeps the loop's own state, input-index and safety arrays.

    Each step reads neighbour states as disturbances (d_ij = x_j) and
    refines each group of subsystems given the same controller object in one
    row-form call for every alive run.  A miss truncates that run at that
    step, with the diagnostic on the lowest-index subsystem that missed; the
    other runs go on.  Subsystems that are the same system object advance in
    one step call on the stacked (alive runs x members) rows, each member
    with its own inputs and neighbours; the oracle answers row by row, so
    the successors are those of one call per subsystem.  Safety flags record
    membership of each state in its subsystem's state box.  Each group's
    members and columns are fixed before the loop, as a slice when
    contiguous, so a step works through views until the first miss, and
    then gathers and scatters the surviving runs.  With no runs or a zero
    horizon no step is taken.
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
    columns = [np.arange(offsets[i], offsets[i + 1]) for i in range(m)]
    neighbours = [np.concatenate([columns[j] for j in topology.wiring[i]]
                                 + [np.empty(0, np.intp)]) for i in range(m)]
    tables = [c.table.fts.inputs for c in controllers]
    # the subsystems of each distinct controller and their state columns,
    # and where each subsystem sits among them: (group, position)
    refiners, place = [], {}
    for g in _groups(controllers):
        for p, i in enumerate(g):
            place[i] = (len(refiners), p)
        refiners.append((controllers[g[0]], _selector(g),
                         _selector(np.concatenate([columns[i] for i in g]))))
    # the subsystems of each distinct system object: their state and
    # neighbour columns, and their input tables stacked, with each member's
    # offset into the stack
    steppers = []
    for g in _groups(subsystems):
        shift = np.cumsum([0] + [tables[i].shape[0] for i in g[:-1]])
        steppers.append((subsystems[g[0]], _selector(g),
                         _selector(np.concatenate([columns[i] for i in g])),
                         np.concatenate([neighbours[i] for i in g]),
                         np.concatenate([tables[i] for i in g]), shift))

    states = np.full((horizon + 1, runs, offsets[-1]), np.nan)
    states[0] = x0
    chosen = np.full((horizon, runs, m), -1, dtype=np.int64)
    steps = np.full(runs, horizon)  # steps taken; fewer when truncated
    diagnostics = {}
    alive = None  # every run, until the first miss; then the survivors
    for k in range(horizon if runs else 0):
        if alive is None:
            x, u, nxt = states[k], chosen[k], states[k + 1]
        else:
            x = states[k, alive]
            u = np.empty((alive.size, m), dtype=np.int64)
            nxt = np.empty_like(x)
        n = x.shape[0]
        least = []
        for ctrl, members, cols in refiners:
            _, u_g, least_g = ctrl.select_rows(x[:, cols])
            u[:, members] = u_g.reshape(n, -1)
            least.append(least_g)
        if u.min() < 0:
            missed = u < 0
            failed = missed.any(axis=1)
            ids = np.arange(runs) if alive is None else alive
            for j in np.flatnonzero(failed):
                i = int(np.argmax(missed[j]))  # the lowest-index miss reports
                g, p = place[i]
                diagnostics[int(ids[j])] = (i, str(controllers[i].miss(
                    x[j, offsets[i]:offsets[i + 1]], least[g].reshape(n, -1)[j, p])))
                steps[ids[j]] = k
            kept = ~failed
            alive = ids[kept]
            if alive.size == 0:
                break
            x, u, n = x[kept], u[kept], alive.size
            nxt = np.empty_like(x)
        for sub, members, cols, nbrs, inputs, shift in steppers:
            picks = u[:, members] + shift
            rows = picks.size
            succ = sub.step(x[:, cols].reshape(rows, -1),
                            inputs[picks].reshape(rows, -1),
                            x[:, nbrs].reshape(rows, -1))
            nxt[:, cols] = succ.reshape(n, -1)
        if alive is not None:
            chosen[k, alive] = u
            states[k + 1, alive] = nxt

    # each state's membership in its subsystem's box, for every run at once
    box = np.concatenate([s.signature.state_box for s in subsystems])
    inside = (states >= box[:, 0]) & (states <= box[:, 1])
    safe = np.logical_and.reduceat(inside, offsets[:-1], axis=2)
    return ClosedLoopLog(states, offsets, chosen, tables, safe, steps,
                         diagnostics)
