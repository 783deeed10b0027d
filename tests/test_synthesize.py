import dataclasses

import numpy as np
import pytest

from oracles import closed_loop_room_by_room, solve_safety_game
import symabs.synthesize as synthesize_mod
from symabs.compose import GainMatrix, ScalingVector, compose_abf
from symabs.errors import CapacityError, ConfigError, RefinementError
from symabs.model import (
    BlackBoxSystem,
    InterconnectionTopology,
    RoomNetworkParams,
    SystemSignature,
    build_room_network,
)
from symabs.quantize import make_grid, product_grid, quantize, trivial_grid
from symabs.scenario import ApbfCertificate, quartic_difference_basis
from symabs.synthesize import (
    AbstractionHeader,
    ControllerTable,
    FiniteTransitionSystem,
    RefinedController,
    enumerate_abstraction,
    safety_synthesis,
    simulate_closed_loop,
)


class QuadraticRelation:
    """Relation stub: V(x, xhat) = ||x - xhat||^2 <= theta."""

    def __init__(self, theta):
        self.theta = theta

    def value(self, x, xhat):
        d = np.asarray(x, dtype=float) - np.asarray(xhat, dtype=float)
        return np.sum(d * d, axis=-1)


def fts_from_table(table, n_inputs=None):
    """Wrap a dense (states, inputs, disturbances) integer table in an FTS
    over dummy unit grids; the sink is the successor index n_states."""
    table = np.asarray(table, dtype=np.int64)
    n_states = table.shape[0]
    grid = make_grid([(0.0, float(n_states))], 0.5)
    assert grid.total_cells == n_states
    inputs = np.arange(table.shape[1], dtype=float).reshape(-1, 1)
    dist_grid = trivial_grid() if table.shape[2] == 1 else \
        make_grid([(0.0, float(table.shape[2]))], 0.5)
    return FiniteTransitionSystem(table=table, state_grid=grid,
                                  dist_grid=dist_grid, inputs=inputs)


def test_fts_validation():
    good = np.zeros((2, 1, 1), dtype=np.int64)
    fts_from_table(good)
    to_sink = good.copy()
    to_sink[1] = 2  # the sink is a successor index, not a row
    assert int(fts_from_table(to_sink).table[1, 0, 0]) == 2
    for value in (3, 9, -1):
        over = good.copy()
        over[0, 0, 0] = value
        with pytest.raises(ValueError, match="out of range"):
            fts_from_table(over)
    with pytest.raises(ValueError, match="expected"):  # no sink row
        dataclasses.replace(fts_from_table(good),
                            table=np.zeros((3, 1, 1), dtype=np.int64))
    # any integer dtype that holds the sink; never floats
    narrow = fts_from_table(good)
    for dtype in (np.uint8, np.int16, np.uint64):
        fts = dataclasses.replace(narrow, table=good.astype(dtype))
        assert safety_synthesis(fts, safe=[0, 1]).chosen.tolist() == [0, 0]
    with pytest.raises(ValueError, match="integers"):
        dataclasses.replace(narrow, table=good.astype(float))


def _two_state_fts():
    table = np.zeros((2, 2, 1), dtype=np.int64)
    fts = fts_from_table(table)
    assert (fts.n_states, fts.n_inputs, fts.n_dists) == (2, 2, 1)
    return fts


def test_fts_input_axis_must_match_inputs():
    fts = _two_state_fts()
    with pytest.raises(ValueError, match="expected"):
        FiniteTransitionSystem(table=fts.table, state_grid=fts.state_grid,
                               dist_grid=fts.dist_grid,
                               inputs=np.arange(5.0).reshape(5, 1))


def test_fts_disturbance_axis_must_match_dist_grid():
    fts = _two_state_fts()
    with pytest.raises(ValueError, match="expected"):
        FiniteTransitionSystem(table=fts.table, state_grid=fts.state_grid,
                               dist_grid=make_grid([(0.0, 3.0)], 0.5),
                               inputs=fts.inputs)


def test_three_state_game_hand_solved():
    # states a=0, b=1, c=2 (+ sink 3); u1: a->a, b->a, c->c; u2: a->b, b->c,
    # c->c; safe {a, b}: winning {a, b}, both choose u1
    table = np.zeros((3, 2, 1), dtype=np.int64)
    table[0, 0, 0] = 0
    table[1, 0, 0] = 0
    table[2, 0, 0] = 2
    table[0, 1, 0] = 1
    table[1, 1, 0] = 2
    table[2, 1, 0] = 2
    fts = fts_from_table(table)
    ctrl = safety_synthesis(fts, safe=[0, 1])
    assert set(ctrl.winning_states.tolist()) == {0, 1}
    assert ctrl.chosen.tolist() == [0, 0, -1]  # -1: state 2 is not winning


def test_safety_synthesis_empty_and_full_cases():
    table = np.zeros((3, 2, 1), dtype=np.int64)
    table[1] = 1
    table[2] = 2
    fts = fts_from_table(table)
    assert safety_synthesis(fts, safe=[]).winning_states.size == 0
    ctrl = safety_synthesis(fts, safe=[0, 1, 2])
    assert set(ctrl.winning_states.tolist()) == {0, 1, 2}
    assert np.all(ctrl.chosen[ctrl.winning] == 0)  # first input everywhere
    with pytest.raises(ValueError):
        safety_synthesis(fts, safe=[3])  # sink cannot be safe
    with pytest.raises(ValueError):
        safety_synthesis(fts, safe=[9])


def test_safety_synthesis_matches_backward_induction_oracle(monkeypatch):
    rng = np.random.default_rng(2718)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        n_u = int(rng.integers(1, 4))
        n_d = int(rng.integers(1, 4))
        table = rng.integers(0, n + 1, size=(n, n_u, n_d))
        fts = fts_from_table(table.astype(np.int64))
        k = int(rng.integers(1, n + 1))
        safe = sorted(rng.choice(n, size=k, replace=False).tolist())
        want_win, want_inputs = solve_safety_game(table, safe)
        # the game takes the table in chunks of whole cells: one cell per
        # take, a few cells with a remainder, and the whole table; int64 and
        # uint8 tables play the same
        for chunk in (1, 5, 1 << 14):
            monkeypatch.setattr(synthesize_mod, "TABLE_CHUNK_ROWS", chunk)
            for game in (fts, dataclasses.replace(fts, table=table.astype(np.uint8))):
                ctrl = safety_synthesis(game, safe=safe)
                assert ctrl.chosen.shape == (n,)
                assert set(ctrl.winning_states.tolist()) == want_win
                for s in want_win:
                    assert int(ctrl.chosen[s]) == want_inputs[s]


def test_winning_set_monotone_in_safe_set():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 8
        table = rng.integers(0, n + 1, size=(n, 2, 2))
        fts = fts_from_table(table.astype(np.int64))
        small = sorted(rng.choice(n, size=3, replace=False).tolist())
        large = sorted(set(small) | set(rng.choice(n, size=3).tolist()))
        w_small = set(safety_synthesis(fts, safe=small).winning_states.tolist())
        w_large = set(safety_synthesis(fts, safe=large).winning_states.tolist())
        assert w_small <= w_large


def test_fixed_point_soundness_exhaustive():
    rng = np.random.default_rng(6)
    n, n_u, n_d = 12, 3, 3
    table = rng.integers(0, n + 1, size=(n, n_u, n_d))
    fts = fts_from_table(table.astype(np.int64))
    ctrl = safety_synthesis(fts, safe=range(n))
    win = set(ctrl.winning_states.tolist())
    for s in win:
        u = int(ctrl.chosen[s])
        for d in range(n_d):
            assert int(fts.table[s, u, d]) in win


def test_enumerate_abstraction_identity_and_counts():
    sig = SystemSignature(state_dim=1, input_set=[(0.0,), (1.0,)],
                          disturbance_dim=0, state_box=[(-1.0, 1.0)],
                          disturbance_box=[])
    calls = []
    sys = BlackBoxSystem(signature=sig,
                         oracle=lambda x, nu, d: calls.append(len(x)) or x)
    g = make_grid([(-1.0, 1.0)], 0.1)
    fts = enumerate_abstraction(sys, g, trivial_grid())
    assert sum(calls) == g.total_cells * 2  # oracle rows, one per query
    assert fts.n_states == g.total_cells
    assert fts.n_dists == 1
    for s in range(fts.n_states):
        assert int(fts.table[s, 0, 0]) == s
        assert int(fts.table[s, 1, 0]) == s
    with pytest.raises(CapacityError):
        enumerate_abstraction(sys, g, trivial_grid(), query_cap=10)


def test_enumerate_abstraction_room_spot_checks():
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=5))
    sg = make_grid([(-0.5, 0.5)], 0.025)
    dg = product_grid([sg, sg])
    fts = enumerate_abstraction(rooms[0], sg, dg)
    assert fts.table.shape == (20, 5, 400)
    assert fts.table.dtype == np.uint8  # the file's dtype: 20 cells and the sink
    # 0-cell under nu=0 with 0-cell neighbors lands at center -0.125 (cell 7)
    s0 = quantize(sg, [0.0]).index
    d0 = dg.cell_index([0.0, 0.0])
    succ = int(fts.table[s0, 0, d0])
    assert np.isclose(sg.representative(succ)[0], -0.125)
    # hottest cell under full cooling and cold neighbors moves down a cell
    hot = sg.total_cells - 1
    d_cold = dg.cell_index([-0.475, -0.475])
    succ = int(fts.table[hot, 4, d_cold])
    assert sg.representative(succ)[0] < sg.representative(hot)[0]
    # coldest cell with no cooling drifts out of the box into the sink
    succ = int(fts.table[0, 0, d_cold])
    assert succ == fts.sink


def test_refine_controller_prefers_v_minimizing_cell():
    table = np.zeros((4, 2, 1), dtype=np.int64)
    for s in range(4):
        table[s, 0, 0] = s
        table[s, 1, 0] = min(s + 1, 3)
    grid = make_grid([(0.0, 4.0)], 0.5)
    fts = FiniteTransitionSystem(table=table, state_grid=grid,
                                 dist_grid=trivial_grid(),
                                 inputs=np.array([[0.0], [1.0]]))
    ctrl = safety_synthesis(fts, safe=[0, 1, 2, 3])
    refined = RefinedController(ctrl, QuadraticRelation(theta=1.0))
    # x = 1.2: centers are 0.5, 1.5, 2.5, 3.5; nearest winning cell is 1
    cell, u = refined.select([1.2])
    assert cell == 1
    assert u == 0
    assert np.array_equal(fts.inputs[u], [0.0])
    # far outside every cell's theta ball
    with pytest.raises(RefinementError):
        refined.select([9.5])


def test_refine_controller_breaks_ties_by_lower_index():
    table = np.zeros((3, 1, 1), dtype=np.int64)
    table[0] = 0
    table[1] = 1
    table[2] = 2
    grid = make_grid([(0.0, 3.0)], 0.5)
    fts = FiniteTransitionSystem(table=table, state_grid=grid,
                                 dist_grid=trivial_grid(),
                                 inputs=np.array([[7.0]]))
    ctrl = safety_synthesis(fts, safe=[0, 1, 2])
    refined = RefinedController(ctrl, QuadraticRelation(theta=2.0))
    # x = 1.0 is equidistant from centers 0.5 and 1.5: lower index wins
    cell, _ = refined.select([1.0])
    assert cell == 0


def test_refine_controller_random_states_match_brute_force():
    rng = np.random.default_rng(404)
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=5))
    sg = make_grid([(-0.5, 0.5)], 0.025)
    dg = product_grid([sg, sg])
    fts = enumerate_abstraction(rooms[0], sg, dg)
    ctrl = safety_synthesis(fts, safe=range(4, 16))
    rel = QuadraticRelation(theta=0.08)
    refined = RefinedController(ctrl, rel)
    win = ctrl.winning_states
    assert win.size > 0
    hits = 0
    for _ in range(300):
        x = rng.uniform(-0.5, 0.5, size=1)
        vals = [rel.value(x, sg.representative(int(s))) for s in win]
        best = int(np.argmin(vals))
        if vals[best] > rel.theta:
            with pytest.raises(RefinementError):
                refined.select(x)
        else:
            hits += 1
            cell, u = refined.select(x)
            assert cell == int(win[best])
            assert u == int(ctrl.chosen[cell])
    assert hits > 100


def _component_relation():
    """A real composed relation, restricted to a subsystem with kappa != 1."""
    certs = [ApbfCertificate(gamma=2.0, mu=0.5, eta=0.2, theta=0.005, beta=1e-4,
                             certified=True, margin=-0.01, state_dim=1,
                             basis=quartic_difference_basis(1), phi=phi)
             for phi in [(0.3, 2.0, 0.0), (5.0, 1.5, 0.001)]]
    sv = ScalingVector(kappa=np.array([1.0, 2.0]), max_ratio=0.5,
                       gains=GainMatrix(entries=0.5 * np.eye(2)))
    return compose_abf(certs, sv).component(1)


def test_refine_with_component_relation_matches_per_cell_loop():
    rel = _component_relation()
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=5))
    sg = make_grid([(-0.5, 0.5)], 0.025)
    dg = product_grid([sg, sg])
    ctrl = safety_synthesis(enumerate_abstraction(rooms[0], sg, dg),
                            safe=range(4, 16))
    refined = RefinedController(ctrl, rel)
    rng = np.random.default_rng(405)
    hits = misses = 0
    for x in rng.uniform(-0.5, 0.5, size=(300, 1)):
        best_cell, best_val = -1, np.inf
        for s in ctrl.winning_states:
            val = float(rel.value(x, sg.representative(int(s))))
            if val < best_val:
                best_cell, best_val = int(s), val
        if best_val > rel.theta:
            misses += 1
            with pytest.raises(RefinementError) as err:
                refined.select(x)
            assert str(err.value) == (
                f"no winning cell is related to the state (min V = "
                f"{best_val:.6g} > theta = {rel.theta:.6g})")
        else:
            hits += 1
            assert refined.select(x) == (best_cell, int(ctrl.chosen[best_cell]))
    assert hits > 50 and misses > 50


class SignedRelation:
    """Relation stub that tells -0.0 from 0.0: ||x - xhat||^2 plus one per
    coordinate of x whose sign bit is set."""

    theta = 1.5

    def value(self, x, xhat):
        d = np.asarray(x, dtype=float) - np.asarray(xhat, dtype=float)
        return np.sum(d * d, axis=-1) + np.sum(np.signbit(x), axis=-1)


class CountingRelation:
    """A relation that records how many states each value call scores."""

    def __init__(self, relation):
        self.relation, self.theta, self.rows = relation, relation.theta, []

    def value(self, x, xhat):
        self.rows.append(np.shape(x)[0])
        return self.relation.value(x, xhat)


def _nan(payload):
    return np.array([0x7FF8000000000000 | payload]).view(float)[0]


@pytest.mark.parametrize("dim", [1, 2])
def test_select_rows_scores_each_distinct_row_once(dim):
    # repeated rows, rows one ulp apart, -0.0 beside 0.0, NaN rows with
    # two payloads, rows differing only in their last coordinate, and rows
    # with no related cell, each in a stack against the same row alone
    grid = make_grid([(-0.5, 0.5)] * dim, 0.25)
    chosen = np.arange(grid.total_cells) % 3 - 1
    header = AbstractionHeader(state_grid=grid, dist_grid=trivial_grid(),
                               inputs=np.array([[0.0], [1.0]]))
    table = ControllerTable(chosen=chosen, fts=header)
    rel = CountingRelation(_component_relation() if dim == 1
                           else SignedRelation())
    refined = RefinedController(table, rel)
    specials = [[0.1, 0.2], [np.nextafter(0.1, 1.0), 0.2], [0.0, 0.2],
                [-0.0, 0.2], [0.2, 0.0], [0.2, -0.0], [_nan(1), 0.2],
                [_nan(2), 0.2], [0.1, np.nextafter(0.2, 1.0)], [0.15, 0.05],
                [0.15, 0.06], [0.3, -0.1], [40.0, 40.0], [-0.2, 0.2]]
    rows = np.array([r[:dim] for r in specials])
    rng = np.random.default_rng(7)
    xs = rows[rng.integers(0, len(rows), 60)]
    cells, inputs, least = refined.select_rows(xs)
    # the stack was scored once per distinct bit pattern
    assert rel.rows == [len({x.tobytes() for x in xs})]
    assert rel.rows[0] < xs.shape[0]
    for j, x in enumerate(xs):
        one = refined.select_rows(x[None, :])
        assert (cells[j], inputs[j]) == (one[0][0], one[1][0])
        assert least[j].tobytes() == one[2][0].tobytes()
    assert (cells < 0).any() and (cells >= 0).any()
    assert np.array_equal(cells < 0, ~(least <= rel.theta))


def test_refine_rejects_empty_winning_set():
    table = np.ones((1, 1, 1), dtype=np.int64)  # jumps straight to the sink
    grid = make_grid([(0.0, 1.0)], 0.5)
    fts = FiniteTransitionSystem(table=table, state_grid=grid,
                                 dist_grid=trivial_grid(),
                                 inputs=np.array([[0.0]]))
    ctrl = safety_synthesis(fts, safe=[0])
    assert ctrl.winning_states.size == 0
    with pytest.raises(ValueError):
        RefinedController(ctrl, QuadraticRelation(theta=1.0))


def build_controlled_rooms(num_rooms=3, theta=0.08):
    params = RoomNetworkParams(num_rooms=num_rooms)
    _, topo, rooms = build_room_network(params)
    sg = make_grid([(-0.5, 0.5)], 0.025)
    dg = product_grid([sg, sg])
    rel = QuadraticRelation(theta=theta)
    controllers = []
    for room in rooms:
        fts = enumerate_abstraction(room, sg, dg)
        safe_cells = [s for s in range(sg.total_cells)
                      if abs(sg.representative(s)[0]) <= 0.3 - 1e-12 + 0.025]
        ctrl = safety_synthesis(fts, safe=safe_cells)
        controllers.append(RefinedController(ctrl, rel))
    return rooms, topo, controllers


def run_of(log, r):
    """Run r of a ClosedLoopLog in the form closed_loop_room_by_room gives:
    (states (t + 1, n), input indices (t, m), t, the room that reported a
    miss and its message, or None, None)."""
    t = int(log.steps[r])
    room, message = log.diagnostics.get(r, (None, None))
    return log.states[:t + 1, r], log.input_indices[:t, r], t, room, message


def test_simulate_closed_loop_horizon_zero_and_logging():
    rooms, topo, controllers = build_controlled_rooms()
    x0 = np.zeros((1, 3))
    log = simulate_closed_loop(rooms, topo, controllers, x0, horizon=0)
    assert len(log) == 1 and log.horizon == 0
    assert log.states.shape == (1, 1, 3)
    assert log.input_indices.shape == (0, 1, 3)
    assert log.safe.shape == (1, 1, 3)
    assert log.steps.tolist() == [0] and log.diagnostics == {}


def test_simulate_closed_loop_runs_and_stays_in_band():
    rooms, topo, controllers = build_controlled_rooms()
    x0 = np.full((1, 3), -0.2)
    log = simulate_closed_loop(rooms, topo, controllers, x0, horizon=40)
    assert log.steps.tolist() == [40]
    assert log.states.shape == (41, 1, 3)
    assert np.all(np.abs(log.states) <= 0.5)
    assert np.all(log.safe)
    # inputs recorded from the declared level list
    for i, table in enumerate(log.tables):
        inputs = table[log.input_indices[:, 0, i]]
        assert set(np.round(inputs[:, 0], 3)) <= {0.0, 0.05, 0.1, 0.15, 0.2}


def test_simulate_closed_loop_truncates_on_refinement_miss():
    rooms, topo, controllers = build_controlled_rooms(theta=0.0001)
    # start far from every winning center: refinement fails at step 0
    x0 = np.full((1, 3), 0.49)
    log = simulate_closed_loop(rooms, topo, controllers, x0, horizon=10)
    assert log.steps.tolist() == [0]
    room, message = log.diagnostics[0]
    assert room == 0 and message.startswith("no winning cell is related")
    # nothing is taken or visited after the miss
    assert np.all(log.input_indices == -1)
    assert np.isnan(log.states[1:]).all()


def test_simulate_validates_shapes():
    rooms, topo, controllers = build_controlled_rooms()
    with pytest.raises(ValueError):
        simulate_closed_loop(rooms[:2], topo, controllers, np.zeros((1, 3)), 5)
    with pytest.raises(ValueError):
        simulate_closed_loop(rooms, topo, controllers, np.zeros((1, 3)), -1)
    with pytest.raises(ValueError):  # starts are a (runs, dim) stack
        simulate_closed_loop(rooms, topo, controllers, np.zeros(3), 5)
    with pytest.raises(ValueError):
        simulate_closed_loop(rooms, topo, controllers, np.zeros((2, 4)), 5)


@pytest.mark.parametrize("theta, starts, truncated, failing", [
    # truncated at step 0 by subsystem 0 or 1, and runs reaching the horizon
    # (the fifth start misses in subsystems 0 and 1; only 0 reports it)
    (0.08, [[-0.2, -0.2, -0.2], [0.6, 0.0, 0.0], [0.0, 0.7, 0.0],
            [0.3, -0.4, 0.1], [0.6, 0.7, 0.0]],
     [None, 0, 0, None, 0], [None, 0, 1, None, 0]),
    # truncated at different later steps, so the live runs shrink mid-loop
    (0.0004, [[0.275, 0.025, 0.275], [0.225, 0.025, 0.225],
              [-0.125, 0.025, -0.125], [-0.225, -0.125, -0.225]],
     [5, 3, 1, 2], [0, 0, 1, 1]),
])
def test_simulate_closed_loop_stack_matches_one_start_runs(
        theta, starts, truncated, failing):
    rooms, topo, controllers = build_controlled_rooms(theta=theta)
    starts = np.asarray(starts)
    stacked = simulate_closed_loop(rooms, topo, controllers, starts, horizon=12)
    assert len(stacked) == len(starts)
    for r in range(len(starts)):
        alone = simulate_closed_loop(rooms, topo, controllers,
                                     starts[r:r + 1], horizon=12)
        states, indices, t, room, message = run_of(stacked, r)
        want = run_of(alone, 0)
        assert (t, room) == (12 if truncated[r] is None else truncated[r],
                             failing[r])
        assert states.tobytes() == want[0].tobytes()
        assert np.array_equal(indices, want[1])
        assert (t, room, message) == want[2:]
        assert np.array_equal(stacked.safe[:t + 1, r], alone.safe[:t + 1, 0])


@pytest.mark.parametrize("thetas, starts, truncated, failing", [
    # one group: the second start misses in rooms 0 and 1 at step 0, the
    # third in rooms 1 and 2; only the lower index reports
    ((0.08, 0.08, 0.08), [[-0.2, -0.2, -0.2], [0.6, 0.7, 0.0], [0.0, 0.7, 0.6]],
     [None, 0, 0], [None, 0, 1]),
    # one group, misses at different steps
    ((0.0004, 0.0004, 0.0004),
     [[0.275, 0.025, 0.275], [0.225, 0.025, 0.225], [-0.125, 0.025, -0.125],
      [-0.225, -0.125, -0.225]], [5, 3, 1, 2], [0, 0, 1, 1]),
    # two groups: rooms 0 and 2 share one controller, room 1 has another
    # (wider theta).  The first start misses in rooms 1 and 2 at step 0, the
    # second in rooms 0 and 2; the rest miss alone at later steps
    ((0.0004, 0.08, 0.0004),
     [[0.025, 0.7, 0.7], [0.7, 0.025, 0.7], [-0.225, 0.025, 0.025],
      [0.225, 0.025, 0.225], [0.225, -0.225, 0.275], [0.275, 0.225, 0.275]],
     [0, 0, 1, 3, 5, 9], [1, 0, 2, 0, 2, 0]),
])
def test_simulate_closed_loop_shared_controller_matches_copies(
        thetas, starts, truncated, failing, monkeypatch):
    _, topo, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    sg = make_grid([(-0.5, 0.5)], 0.025)
    fts = enumerate_abstraction(rooms[0], sg, product_grid([sg, sg]))
    table = safety_synthesis(fts, safe=[
        s for s in range(sg.total_cells)
        if abs(sg.representative(s)[0]) <= 0.3 - 1e-12 + 0.025])
    one_per_theta = {t: RefinedController(table, QuadraticRelation(t))
                     for t in set(thetas)}
    shared = [one_per_theta[t] for t in thetas]
    copies = [RefinedController(table, QuadraticRelation(t)) for t in thetas]
    starts = np.asarray(starts)
    calls = []
    select_rows = RefinedController.select_rows

    def counted(self, xs):
        calls.append(self)
        return select_rows(self, xs)

    monkeypatch.setattr(RefinedController, "select_rows", counted)
    got = simulate_closed_loop(rooms, topo, shared, starts, horizon=12)
    # one refinement call per distinct controller per step taken
    steps = min(12, max(12 if t is None else t + 1 for t in truncated))
    assert len(calls) == len(one_per_theta) * steps
    want = simulate_closed_loop(rooms, topo, copies, starts, horizon=12)
    assert np.array_equal(got.safe, want.safe)
    for r in range(len(starts)):
        a, b = run_of(got, r), run_of(want, r)
        assert a[0].tobytes() == b[0].tobytes()
        assert np.array_equal(a[1], b[1])
        assert a[2:] == b[2:]
        # and both match refining one room at a time with select()
        states, indices, t, room, message = closed_loop_room_by_room(
            rooms, topo.wiring, copies, starts[r], 12)
        assert (t, room) == (12 if truncated[r] is None else truncated[r],
                             failing[r])
        assert a[0].tobytes() == states.tobytes()
        assert np.array_equal(a[1], indices)
        assert a[2:] == (t, room, message)


def _room_table(room, sg, reverse=False):
    """The safety game of a room on the band |x| <= 0.3 + sigma, over its
    inputs in declared or in reversed order (so the first qualifying input,
    and the index that names it, differ)."""
    if reverse:
        room = dataclasses.replace(room, signature=dataclasses.replace(
            room.signature, input_set=room.signature.input_set[::-1]))
    fts = enumerate_abstraction(room, sg, product_grid([sg, sg]))
    return safety_synthesis(fts, safe=[
        s for s in range(sg.total_cells)
        if abs(sg.representative(s)[0]) <= 0.3 - 1e-12 + 0.025])


@pytest.mark.parametrize("share, thetas, reverse, starts, truncated", [
    # one object for all rooms under one controller, with runs reaching the
    # horizon and runs truncated at step 0
    ((0, 0, 0), (0.08,) * 3, (False,) * 3,
     [[-0.2, -0.2, -0.2], [0.6, 0.7, 0.0], [0.0, 0.7, 0.6], [0.3, -0.4, 0.1]],
     [None, 0, 0, None]),
    # one object, one controller, truncations at different later steps
    ((0, 0, 0), (0.0004,) * 3, (False,) * 3,
     [[0.275, 0.025, 0.275], [0.225, 0.025, 0.225], [-0.125, 0.025, -0.125],
      [-0.225, -0.125, -0.225]], [5, 3, 1, 2]),
    # one object under two controllers whose tables list the inputs in
    # opposite orders
    ((0, 0, 0), (0.0004, 0.08, 0.0004), (False, True, False),
     [[0.275, -0.2, 0.275], [0.225, -0.2, 0.275], [-0.225, -0.225, -0.225],
      [0.025, 0.275, 0.275], [-0.225, 0.6, -0.225]], [10, 3, 5, 6, 0]),
    # rooms 0 and 1 share one object but not a controller; room 2 has an
    # object of its own
    ((0, 0, 1), (0.0004, 0.08, 0.0004), (True, False, False),
     [[0.275, -0.225, 0.275], [0.225, -0.225, 0.225], [0.275, 0.275, 0.025],
      [0.025, -0.225, -0.225]], [7, 3, 6, 1]),
    # rooms 0 and 2 share one object and one controller; room 1 has its own
    ((0, 1, 0), (0.08, 0.0004, 0.08), (False, True, False),
     [[-0.225, 0.225, -0.225], [0.225, -0.225, 0.225], [-0.225, 0.275, 0.225],
      [0.6, -0.225, -0.225]], [None, 9, 7, 0]),
])
def test_simulate_closed_loop_shared_system_matches_copies(
        share, thetas, reverse, starts, truncated, monkeypatch):
    _, topo, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    sg = make_grid([(-0.5, 0.5)], 0.025)
    tables = {rev: _room_table(rooms[0], sg, rev) for rev in set(reverse)}
    if len(tables) == 2:  # the two tables name different inputs
        chosen = [t.fts.inputs[t.chosen[t.winning]] for t in tables.values()]
        assert not np.array_equal(*chosen)
    refined = {key: RefinedController(tables[key[1]], QuadraticRelation(key[0]))
               for key in set(zip(thetas, reverse))}
    controllers = [refined[key] for key in zip(thetas, reverse)]
    objects = {k: dataclasses.replace(rooms[0]) for k in set(share)}
    shared = [objects[k] for k in share]
    copies = [dataclasses.replace(rooms[0]) for _ in range(3)]
    starts = np.asarray(starts)
    calls = []
    step = BlackBoxSystem.step

    def counted(self, *args):
        calls.append(self)
        return step(self, *args)

    monkeypatch.setattr(BlackBoxSystem, "step", counted)
    got = simulate_closed_loop(shared, topo, controllers, starts, horizon=12)
    shared_calls = list(calls)
    calls.clear()
    want = simulate_closed_loop(copies, topo, controllers, starts, horizon=12)
    # one step call per distinct system object per step taken
    steps = int(got.steps.max())
    assert [None if t == 12 else t for t in got.steps.tolist()] == truncated
    assert len(shared_calls) == len(objects) * steps
    assert len(calls) == 3 * steps
    assert np.array_equal(got.safe, want.safe)
    for r in range(len(starts)):
        a, b = run_of(got, r), run_of(want, r)
        assert a[0].tobytes() == b[0].tobytes()
        assert np.array_equal(a[1], b[1])
        assert a[2:] == b[2:]
        # and both match stepping one room at a time
        states, indices, t, room, message = closed_loop_room_by_room(
            copies, topo.wiring, controllers, starts[r], 12)
        assert a[0].tobytes() == states.tobytes()
        assert np.array_equal(a[1], indices)
        assert a[2:] == (t, room, message)


@pytest.mark.parametrize("refiners, objects", [
    ("ABABA", "XXYXY"),  # every group interleaved: index arrays throughout
    ("AAAAA", "XXXXX"),  # one controller and one object over the whole ring
    ("AABBB", "XXXYY"),  # contiguous groups that are not the whole ring
    ("ABABA", "XXXXX"),  # interleaved controllers on one object
])
def test_simulate_closed_loop_five_room_groups_match_room_by_room(
        refiners, objects, monkeypatch):
    # Groups of one controller or one object are read and written through a
    # slice when their rooms are contiguous and through an index array when
    # not; either way every run matches refining and stepping one room at a
    # time, whether it reaches the horizon or misses at some step.
    _, topo, rooms = build_room_network(RoomNetworkParams(num_rooms=5))
    sg = make_grid([(-0.5, 0.5)], 0.025)
    # thetas at which the starts below reach the horizon, miss at step 0 and
    # miss at several later steps under every layout
    by_name = {"A": RefinedController(_room_table(rooms[0], sg),
                                      QuadraticRelation(0.0015)),
               "B": RefinedController(_room_table(rooms[0], sg, reverse=True),
                                      QuadraticRelation(0.0006))}
    controllers = [by_name[c] for c in refiners]
    made = {k: dataclasses.replace(rooms[0]) for k in set(objects)}
    subsystems = [made[k] for k in objects]
    levels = np.array([-0.225, -0.125, 0.025, 0.225, 0.275, 0.6])
    starts = levels[np.random.default_rng(5).integers(0, len(levels), (32, 5))]
    calls = []
    select_rows, step = RefinedController.select_rows, BlackBoxSystem.step

    def counted_select(self, xs):
        calls.append("select")
        return select_rows(self, xs)

    def counted_step(self, *args):
        calls.append("step")
        return step(self, *args)

    monkeypatch.setattr(RefinedController, "select_rows", counted_select)
    monkeypatch.setattr(BlackBoxSystem, "step", counted_step)
    got = simulate_closed_loop(subsystems, topo, controllers, starts, horizon=12)
    # one refinement call per distinct controller and step, one oracle call
    # per distinct object and step with a survivor
    taken = got.steps.tolist()
    assert calls.count("select") == len(set(refiners)) * min(12, max(taken) + 1)
    assert calls.count("step") == len(set(objects)) * max(taken)
    monkeypatch.undo()
    # each room's indices name inputs of its own controller's table
    assert all(table is c.table.fts.inputs
               for table, c in zip(got.tables, controllers))
    cuts = set()
    for r in range(len(starts)):
        states, indices, t, room, message = closed_loop_room_by_room(
            subsystems, topo.wiring, controllers, starts[r], 12)
        cuts.add(None if room is None else t)
        got_states, got_indices, *rest = run_of(got, r)
        assert rest == [t, room, message]
        assert got_states.tobytes() == states.tobytes()
        assert np.array_equal(got_indices, indices)
        assert np.array_equal(got.safe[:t + 1, r], np.abs(states) <= 0.5)
    # the starts reach the horizon and miss at step 0 and at later steps
    assert None in cuts and 0 in cuts and len(cuts - {None, 0}) >= 2, cuts
    # with no runs, or no steps, no refinement or oracle call is made
    monkeypatch.setattr(RefinedController, "select_rows", counted_select)
    monkeypatch.setattr(BlackBoxSystem, "step", counted_step)
    calls.clear()
    assert len(simulate_closed_loop(subsystems, topo, controllers,
                                    np.empty((0, 5)), horizon=12)) == 0
    still = simulate_closed_loop(subsystems, topo, controllers, starts,
                                 horizon=0)
    assert calls == []
    assert still.input_indices.size == 0 and still.diagnostics == {}
    assert still.states.tobytes() == starts.astype(float).tobytes()
