import dataclasses

import numpy as np
import pytest

from oracles import closed_loop_room_by_room, solve_safety_game
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
    """Wrap a dense integer table in an FTS over dummy unit grids."""
    table = np.asarray(table, dtype=np.int64)
    n_states = table.shape[0] - 1
    grid = make_grid([(0.0, float(n_states))], 0.5)
    assert grid.total_cells == n_states
    inputs = np.arange(table.shape[1], dtype=float).reshape(-1, 1)
    dist_grid = trivial_grid() if table.shape[2] == 1 else \
        make_grid([(0.0, float(table.shape[2]))], 0.5)
    return FiniteTransitionSystem(table=table, state_grid=grid,
                                  dist_grid=dist_grid, inputs=inputs)


def test_fts_validation():
    good = np.zeros((3, 1, 1), dtype=np.int64)
    good[2] = 2
    fts_from_table(good)
    bad = good.copy()
    bad[2] = 0  # sink must absorb
    with pytest.raises(ValueError):
        fts_from_table(bad)
    over = good.copy()
    over[0, 0, 0] = 9
    with pytest.raises(ValueError):
        fts_from_table(over)


def _two_state_fts():
    table = np.zeros((3, 2, 1), dtype=np.int64)
    table[2] = 2
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
    table = np.zeros((4, 2, 1), dtype=np.int64)
    table[0, 0, 0] = 0
    table[1, 0, 0] = 0
    table[2, 0, 0] = 2
    table[0, 1, 0] = 1
    table[1, 1, 0] = 2
    table[2, 1, 0] = 2
    table[3] = 3
    fts = fts_from_table(table)
    ctrl = safety_synthesis(fts, safe=[0, 1])
    assert set(ctrl.winning_states.tolist()) == {0, 1}
    assert ctrl.input_index(0) == 0
    assert ctrl.input_index(1) == 0
    with pytest.raises(ValueError):
        ctrl.input_index(2)


def test_safety_synthesis_empty_and_full_cases():
    table = np.zeros((4, 2, 1), dtype=np.int64)
    table[1] = 1
    table[2] = 2
    table[3] = 3
    fts = fts_from_table(table)
    assert safety_synthesis(fts, safe=[]).winning_states.size == 0
    ctrl = safety_synthesis(fts, safe=[0, 1, 2])
    assert set(ctrl.winning_states.tolist()) == {0, 1, 2}
    assert np.all(ctrl.chosen[ctrl.winning] == 0)  # first input everywhere
    with pytest.raises(ValueError):
        safety_synthesis(fts, safe=[3])  # sink cannot be safe
    with pytest.raises(ValueError):
        safety_synthesis(fts, safe=[9])


def test_safety_synthesis_matches_backward_induction_oracle():
    rng = np.random.default_rng(2718)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        n_u = int(rng.integers(1, 4))
        n_d = int(rng.integers(1, 4))
        table = rng.integers(0, n + 1, size=(n + 1, n_u, n_d))
        table[n] = n
        fts = fts_from_table(table.astype(np.int64))
        k = int(rng.integers(1, n + 1))
        safe = sorted(rng.choice(n, size=k, replace=False).tolist())
        ctrl = safety_synthesis(fts, safe=safe)
        want_win, want_inputs = solve_safety_game(table, safe)
        assert set(ctrl.winning_states.tolist()) == want_win
        for s in want_win:
            assert ctrl.input_index(s) == want_inputs[s]


def test_winning_set_monotone_in_safe_set():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 8
        table = rng.integers(0, n + 1, size=(n + 1, 2, 2))
        table[n] = n
        fts = fts_from_table(table.astype(np.int64))
        small = sorted(rng.choice(n, size=3, replace=False).tolist())
        large = sorted(set(small) | set(rng.choice(n, size=3).tolist()))
        w_small = set(safety_synthesis(fts, safe=small).winning_states.tolist())
        w_large = set(safety_synthesis(fts, safe=large).winning_states.tolist())
        assert w_small <= w_large


def test_fixed_point_soundness_exhaustive():
    rng = np.random.default_rng(6)
    n, n_u, n_d = 12, 3, 3
    table = rng.integers(0, n + 1, size=(n + 1, n_u, n_d))
    table[n] = n
    fts = fts_from_table(table.astype(np.int64))
    ctrl = safety_synthesis(fts, safe=range(n))
    win = set(ctrl.winning_states.tolist())
    for s in win:
        u = ctrl.input_index(s)
        for d in range(n_d):
            assert fts.successor(s, u, d) in win


def test_enumerate_abstraction_identity_and_counts():
    sig = SystemSignature(state_dim=1, input_set=[(0.0,), (1.0,)],
                          disturbance_dim=0, state_box=[(-1.0, 1.0)],
                          disturbance_box=[])
    calls = []
    sys = BlackBoxSystem(signature=sig,
                         oracle=lambda x, nu, d: calls.append(len(x)) or x)
    g = make_grid([(-1.0, 1.0)], 0.1)
    fts = enumerate_abstraction(sys, g)
    assert sum(calls) == g.total_cells * 2  # oracle rows, one per query
    assert fts.n_states == g.total_cells
    assert fts.n_dists == 1
    for s in range(fts.n_states):
        assert fts.successor(s, 0, 0) == s
        assert fts.successor(s, 1, 0) == s
    assert fts.successor(fts.sink, 0, 0) == fts.sink
    with pytest.raises(CapacityError):
        enumerate_abstraction(sys, g, query_cap=10)


def test_enumerate_abstraction_room_spot_checks():
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=5))
    sg = make_grid([(-0.5, 0.5)], 0.025)
    dg = product_grid([sg, sg])
    fts = enumerate_abstraction(rooms[0], sg, dg)
    assert fts.table.shape == (21, 5, 400)
    # 0-cell under nu=0 with 0-cell neighbors lands at center -0.125 (cell 7)
    s0 = quantize(sg, [0.0]).index
    d0 = dg.cell_index([0.0, 0.0])
    succ = fts.successor(s0, 0, d0)
    assert np.isclose(sg.representative(succ)[0], -0.125)
    # hottest cell under full cooling and cold neighbors moves down a cell
    hot = sg.total_cells - 1
    d_cold = dg.cell_index([-0.475, -0.475])
    succ = fts.successor(hot, 4, d_cold)
    assert sg.representative(succ)[0] < sg.representative(hot)[0]
    # coldest cell with no cooling drifts out of the box into the sink
    succ = fts.successor(0, 0, d_cold)
    assert succ == fts.sink


def test_refine_controller_prefers_v_minimizing_cell():
    table = np.zeros((5, 2, 1), dtype=np.int64)
    for s in range(4):
        table[s, 0, 0] = s
        table[s, 1, 0] = min(s + 1, 3)
    table[4] = 4
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
    table = np.zeros((4, 1, 1), dtype=np.int64)
    table[0] = 0
    table[1] = 1
    table[2] = 2
    table[3] = 3
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
            assert u == ctrl.input_index(cell)
    assert hits > 100


def test_refine_with_component_relation_matches_per_cell_loop():
    # a real composed relation, restricted to a subsystem with kappa != 1
    certs = [ApbfCertificate(gamma=2.0, mu=0.5, eta=0.2, theta=0.005, beta=1e-4,
                             certified=True, margin=-0.01, state_dim=1,
                             basis=quartic_difference_basis(1), phi=phi)
             for phi in [(0.3, 2.0, 0.0), (5.0, 1.5, 0.001)]]
    sv = ScalingVector(kappa=np.array([1.0, 2.0]), max_ratio=0.5,
                       gains=GainMatrix(entries=0.5 * np.eye(2)))
    rel = compose_abf(certs, sv).component(1)
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
            assert refined.select(x) == (best_cell, ctrl.input_index(best_cell))
    assert hits > 50 and misses > 50


def test_refine_rejects_empty_winning_set():
    table = np.zeros((2, 1, 1), dtype=np.int64)
    table[0] = 1  # jumps straight to the sink
    table[1] = 1
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


def test_simulate_closed_loop_horizon_zero_and_logging():
    rooms, topo, controllers = build_controlled_rooms()
    x0 = np.zeros((1, 3))
    [trajs] = simulate_closed_loop(rooms, topo, controllers, x0, horizon=0)
    assert len(trajs) == 3
    for tr in trajs:
        assert tr.horizon == 0
        assert tr.states.shape == (1, 1)
        assert tr.inputs.shape == (0, 1)
        assert tr.safe.shape == (1,)
        assert tr.truncated_at is None


def test_simulate_closed_loop_runs_and_stays_in_band():
    rooms, topo, controllers = build_controlled_rooms()
    x0 = np.full((1, 3), -0.2)
    [trajs] = simulate_closed_loop(rooms, topo, controllers, x0, horizon=40)
    for tr in trajs:
        assert tr.horizon == 40
        assert tr.states.shape == (41, 1)
        assert np.all(np.abs(tr.states) <= 0.5)
        assert np.all(tr.safe)
        # inputs recorded from the declared level list
        assert set(np.round(tr.inputs[:, 0], 3)) <= {0.0, 0.05, 0.1, 0.15, 0.2}


def test_simulate_closed_loop_truncates_on_refinement_miss():
    rooms, topo, controllers = build_controlled_rooms(theta=0.0001)
    # start far from every winning center: refinement fails at step 0
    x0 = np.full((1, 3), 0.49)
    [trajs] = simulate_closed_loop(rooms, topo, controllers, x0, horizon=10)
    assert all(tr.truncated_at == 0 for tr in trajs)
    assert any(tr.diagnostic for tr in trajs)
    for tr in trajs:
        assert tr.states.shape == (1, 1)
        assert tr.horizon == 0


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
    for r, trajs in enumerate(stacked):
        [alone] = simulate_closed_loop(rooms, topo, controllers,
                                       starts[r:r + 1], horizon=12)
        assert [tr.truncated_at for tr in trajs] == [truncated[r]] * 3
        assert [i for i, tr in enumerate(trajs) if tr.diagnostic] == \
            ([] if failing[r] is None else [failing[r]])
        for got, want in zip(trajs, alone):
            assert got.subsystem == want.subsystem
            assert got.states.tobytes() == want.states.tobytes()
            assert got.inputs.tobytes() == want.inputs.tobytes()
            assert np.array_equal(got.input_indices, want.input_indices)
            assert np.array_equal(got.safe, want.safe)
            assert got.truncated_at == want.truncated_at
            assert got.diagnostic == want.diagnostic


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
    for r, (trajs, ref) in enumerate(zip(got, want)):
        assert [tr.truncated_at for tr in trajs] == [truncated[r]] * 3
        assert [i for i, tr in enumerate(trajs) if tr.diagnostic] == \
            ([] if failing[r] is None else [failing[r]])
        for a, b in zip(trajs, ref):
            assert a.states.tobytes() == b.states.tobytes()
            assert a.inputs.tobytes() == b.inputs.tobytes()
            assert np.array_equal(a.input_indices, b.input_indices)
            assert np.array_equal(a.safe, b.safe)
            assert (a.truncated_at, a.diagnostic) == (b.truncated_at, b.diagnostic)
        # and both match refining one room at a time with select()
        states, indices, t, room, message = closed_loop_room_by_room(
            rooms, topo.wiring, copies, starts[r], 12)
        assert (t, room) == (12 if truncated[r] is None else truncated[r],
                             failing[r])
        for i, tr in enumerate(trajs):
            assert tr.states.tobytes() == states[:, i:i + 1].tobytes()
            assert np.array_equal(tr.input_indices, indices[:, i])
            assert tr.diagnostic == (message if i == room else None)


def _room_table(room, sg, reverse=False):
    """The safety game of a room on the band |x| <= 0.3 + sigma, over its
    inputs in declared or in reversed order (so the first qualifying input,
    and the index that names it, differ)."""
    inputs = room.signature.input_array()[::-1 if reverse else 1]
    fts = enumerate_abstraction(room, sg, product_grid([sg, sg]), inputs=inputs)
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
    steps = max(tr.horizon for trajs in got for tr in trajs)
    assert [trajs[0].truncated_at for trajs in got] == truncated
    assert len(shared_calls) == len(objects) * steps
    assert len(calls) == 3 * steps
    for r, (trajs, ref) in enumerate(zip(got, want)):
        for a, b in zip(trajs, ref):
            assert a.states.tobytes() == b.states.tobytes()
            assert a.inputs.tobytes() == b.inputs.tobytes()
            assert np.array_equal(a.input_indices, b.input_indices)
            assert np.array_equal(a.safe, b.safe)
            assert (a.truncated_at, a.diagnostic) == (b.truncated_at, b.diagnostic)
        # and both match stepping one room at a time
        states, indices, t, room, message = closed_loop_room_by_room(
            copies, topo.wiring, controllers, starts[r], 12)
        for i, tr in enumerate(trajs):
            assert tr.truncated_at == (None if room is None else t)
            assert tr.states.tobytes() == states[:, i:i + 1].tobytes()
            assert np.array_equal(tr.input_indices, indices[:, i])
            assert tr.diagnostic == (message if i == room else None)
