import importlib
import itertools

import numpy as np
import pytest

from symabs.errors import CapacityError, DomainError
from symabs.model import BlackBoxSystem, RoomNetworkParams, SystemSignature, build_room_network
from symabs.quantize import (
    AbstractPoint,
    UniformGrid,
    abstract_transition,
    make_grid,
    product_grid,
    quantize,
    sink_point,
    transition_table,
    trivial_grid,
)


def test_make_grid_counts_and_sigma(monkeypatch):
    g = make_grid([(-0.5, 0.5)], 0.025)
    assert g.cells_per_dim == (20,)
    assert np.isclose(g.sigma, 0.025)
    # half-width never exceeds the target even when it does not divide evenly
    g2 = make_grid([(0.0, 1.0)], 0.3)
    assert g2.cells_per_dim == (2,)
    assert g2.sigma <= 0.3 + 1e-15
    with pytest.raises(ValueError):
        make_grid([(0.0, 1.0)], 0.0)
    monkeypatch.setattr(importlib.import_module("symabs.quantize"),
                        "CELL_CAP", 10_000)
    with pytest.raises(CapacityError):
        make_grid([(0.0, 1.0)] * 4, 1e-3)


def test_flat_and_multi_index_roundtrip():
    g = UniformGrid(box=[(0.0, 1.0), (0.0, 2.0)], cells_per_dim=(3, 4), sigma=0.25)
    assert g.total_cells == 12
    for flat in range(12):
        assert g.cell_index(g.representative(flat)) == flat
    # last coordinate fastest
    assert g.multi_index(1) == (0, 1)
    assert g.multi_index(4) == (1, 0)


def test_cell_index_boundary_ties_go_to_lower_cell():
    g = UniformGrid(box=[(0.0, 1.0)], cells_per_dim=(4,), sigma=0.125)
    assert g.cell_index([0.25]) == 0
    assert g.cell_index([0.5]) == 1
    assert g.cell_index([0.0]) == 0
    assert g.cell_index([1.0]) == 3
    with pytest.raises(DomainError):
        g.cell_index([1.0 + 1e-9])


def test_quantizer_error_bounded_by_sigma():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        lo = rng.uniform(-3, 0, size=dim)
        hi = lo + rng.uniform(0.5, 4, size=dim)
        box = np.stack([lo, hi], axis=1)
        g = make_grid(box, float(rng.uniform(0.05, 0.6)))
        x = rng.uniform(lo, hi)
        pt = quantize(g, x)
        assert not pt.is_sink
        assert np.max(np.abs(pt.representative - x)) <= g.sigma + 1e-12


def test_representatives_are_cell_centers():
    g = make_grid([(-0.5, 0.5)], 0.025)
    reps = g.all_representatives()
    assert reps.shape == (20, 1)
    assert np.isclose(reps[0, 0], -0.475)
    assert np.isclose(reps[19, 0], 0.475)
    for flat in (0, 7, 19):
        assert np.allclose(g.representative(flat), reps[flat])


def test_sink_point_carries_clamped_representative():
    g = make_grid([(-0.5, 0.5)], 0.025)
    pt = sink_point(g, [0.73])
    assert pt.is_sink
    assert pt.index == g.total_cells
    assert np.isclose(pt.representative[0], 0.475)  # nearest in-box center


def test_trivial_grid_and_product_grid():
    t = trivial_grid()
    assert t.dim == 0
    assert t.total_cells == 1
    assert t.all_representatives().shape == (1, 0)
    a = make_grid([(-0.5, 0.5)], 0.025)
    p = product_grid([a, a])
    assert p.dim == 2
    assert p.total_cells == 400
    assert np.isclose(p.sigma, 0.025)
    # product flat index factors lexicographically
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, size=2)
        i = p.cell_index(x)
        assert i == a.cell_index(x[:1]) * 20 + a.cell_index(x[1:])
    assert product_grid([]).dim == 0


def test_abstract_transition_room_anchor():
    # the 0-containing cells snap to center -0.025 each; the oracle output
    # -0.1435 lands in the cell with center -0.125
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=5))
    sg = make_grid([(-0.5, 0.5)], 0.025)
    dg = product_grid([sg, sg])
    xh = quantize(sg, [0.0])
    dh = quantize(dg, [0.0, 0.0])
    assert np.isclose(xh.representative[0], -0.025)
    nxt = abstract_transition(rooms[0], sg, dg, xh, [0.0], dh)
    assert not nxt.is_sink
    assert np.isclose(nxt.representative[0], -0.125)


def test_abstract_transition_identity_oracle_is_self_loop():
    sig = SystemSignature(state_dim=1, input_set=[(0.0,)], disturbance_dim=0,
                          state_box=[(-1.0, 1.0)], disturbance_box=[])
    sys = BlackBoxSystem(signature=sig, oracle=lambda x, nu, d: x)
    g = make_grid([(-1.0, 1.0)], 0.1)
    for flat in range(0, g.total_cells, 3):
        pt = quantize(g, g.representative(flat))
        nxt = abstract_transition(sys, g, None, pt, [0.0], None)
        assert nxt.index == flat


def test_abstract_transition_escaping_output_hits_sink():
    sig = SystemSignature(state_dim=1, input_set=[(0.0,)], disturbance_dim=0,
                          state_box=[(-1.0, 1.0)], disturbance_box=[])
    sys = BlackBoxSystem(signature=sig, oracle=lambda x, nu, d: x + 5.0)
    g = make_grid([(-1.0, 1.0)], 0.1)
    nxt = abstract_transition(sys, g, None, quantize(g, [0.3]), [0.0], None)
    assert nxt.is_sink
    assert nxt.index == g.total_cells


def full_table(sys, sg, dg, inputs):
    """(successor, rep_cell) from one transition_table call that keeps both
    halves."""
    shape = (sg.total_cells, len(inputs), dg.total_cells)
    successor = np.empty(shape, dtype=np.int64)
    rep_cell = np.empty(shape, dtype=np.int64)
    transition_table(sys, sg, dg, inputs, successor=successor, rep_cell=rep_cell)
    return successor, rep_cell


def assert_table_matches_per_point(sys, sg, dg, inputs):
    """transition_table agrees with abstract_transition on every entry, in
    the successor index and bit for bit in the representative."""
    successor, rep_cell = full_table(sys, sg, dg, inputs)
    shape = (sg.total_cells, len(inputs), dg.total_cells)
    reps = sg.all_representatives()
    for s, u, d in itertools.product(*map(range, shape)):
        nxt = abstract_transition(
            sys, sg, dg, AbstractPoint(s, sg.representative(s)), inputs[u],
            AbstractPoint(d, dg.representative(d)))
        assert successor[s, u, d] == nxt.index
        assert np.array_equal(reps[rep_cell[s, u, d]], nxt.representative)
    return successor, rep_cell


def test_transition_table_matches_per_point_on_2d_grid():
    sig = SystemSignature(state_dim=2, input_set=[(-0.3,), (0.0,), (0.4,)],
                          disturbance_dim=1, state_box=[(-1.0, 1.0), (0.0, 2.0)],
                          disturbance_box=[(-1.0, 1.0)])
    sys = BlackBoxSystem(signature=sig, oracle=lambda x, nu, d: np.stack(
        [1.3 * x[:, 0] + nu[:, 0] + 0.5 * d[:, 0], 0.9 * x[:, 1] - 0.25 + d[:, 0]],
        axis=1))
    sg = make_grid(sig.state_box, 0.2)
    dg = make_grid(sig.disturbance_box, 0.34)
    assert sg.cells_per_dim == (5, 5)
    successor, rep_cell = assert_table_matches_per_point(
        sys, sg, dg, sig.input_array())
    sink = successor == sg.total_cells
    # escapes on both sides of coordinate 0 clamp to its first and last cells
    assert {0, 4} <= set((rep_cell[sink] // 5).tolist())
    assert not sink.all()


def one_shot_table(sys, sg, dg, inputs):
    """The table from a single oracle call over every stacked row, as
    transition_table computed it before it walked its rows in chunks."""
    shape = (sg.total_cells, len(inputs), dg.total_cells)
    s, u, d = np.unravel_index(np.arange(np.prod(shape)), shape)
    replies = sys.step(sg.all_representatives()[s], inputs[u],
                       dg.all_representatives()[d])
    lows, highs = sg.box[:, 0], sg.box[:, 1]
    inside = np.all((replies >= lows) & (replies <= highs), axis=-1)
    rep_cell = sg.cell_indices(np.clip(replies, lows, highs))
    return (np.where(inside, rep_cell, sg.total_cells).reshape(shape),
            rep_cell.reshape(shape))


@pytest.mark.parametrize("chunk", ["one", "non-divisor", "whole"])
def test_transition_table_calls_cover_every_row_once_in_order(monkeypatch,
                                                              chunk):
    room = build_room_network(RoomNetworkParams(num_rooms=5))[2][0]
    calls = []

    def recorded(x, nu, d):
        calls.append((x.copy(), nu.copy(), d.copy()))
        return room.oracle(x, nu, d)

    sys = BlackBoxSystem(signature=room.signature, oracle=recorded)
    sg = make_grid([(-0.5, 0.5)], 0.1)
    dg = product_grid([sg, sg])
    inputs = room.signature.input_array()
    n_s, n_u, n_d = sg.total_cells, inputs.shape[0], dg.total_cells
    assert n_s == 5
    # rows per call: 1 (one cell per chunk), 2 cells (5 is no multiple of
    # 2), and more rows than the whole table
    rows = {"one": 1, "non-divisor": 2 * n_u * n_d,
            "whole": 3 * n_s * n_u * n_d}[chunk]
    monkeypatch.setattr(importlib.import_module("symabs.quantize"),
                        "TABLE_CHUNK_ROWS", rows)
    successor, rep_cell = full_table(sys, sg, dg, inputs)
    per_call = {"one": [n_u * n_d] * n_s,
                "non-divisor": [2 * n_u * n_d] * 2 + [n_u * n_d],
                "whole": [n_s * n_u * n_d]}[chunk]
    assert [c[0].shape[0] for c in calls] == per_call
    x, nu, d = (np.concatenate(parts) for parts in zip(*calls))
    assert x.shape == (n_s * n_u * n_d, 1) and d.shape == (n_s * n_u * n_d, 2)
    # the calls run over (cell, input, disturbance cell), the last fastest
    s, u, dd = np.unravel_index(np.arange(x.shape[0]), (n_s, n_u, n_d))
    assert np.array_equal(x, sg.all_representatives()[s])
    assert np.array_equal(nu, inputs[u])
    assert np.array_equal(d, dg.all_representatives()[dd])
    want = one_shot_table(room, sg, dg, inputs)
    assert np.array_equal(successor, want[0]) and np.array_equal(rep_cell, want[1])
    # each half can be written alone, into a caller's view
    table = np.full((n_s + 1, n_u, n_d), -1)
    transition_table(room, sg, dg, inputs, successor=table[:n_s])
    assert np.array_equal(table[:n_s], want[0]) and np.all(table[n_s] == -1)
    by_input = np.empty((n_u, n_s, n_d), dtype=np.int64)
    transition_table(room, sg, dg, inputs, rep_cell=by_input.transpose(1, 0, 2))
    assert np.array_equal(by_input, want[1].transpose(1, 0, 2))
    # the trivial disturbance grid gives one zero-width column block
    calls.clear()
    free = BlackBoxSystem(
        signature=SystemSignature(state_dim=1, input_set=[(0.0,), (0.5,)],
                                  disturbance_dim=0, state_box=[(-0.5, 0.5)],
                                  disturbance_box=[]),
        oracle=lambda x, nu, d: calls.append(d.shape) or x)
    transition_table(free, sg, trivial_grid(), [[0.0], [0.5]])
    assert sum(shape[0] for shape in calls) == n_s * 2
    assert all(shape[1] == 0 for shape in calls)


def test_transition_table_hands_the_oracle_read_only_columns():
    sig = SystemSignature(state_dim=1, input_set=[(0.0,), (0.5,)],
                          disturbance_dim=0, state_box=[(-1.0, 1.0)],
                          disturbance_box=[])

    def mutating(x, nu, d):
        nu += 1.0  # an oracle may not change the rows it is handed
        return x

    g = make_grid(sig.state_box, 0.25)
    with pytest.raises(ValueError, match="read-only"):
        transition_table(BlackBoxSystem(signature=sig, oracle=mutating), g,
                         trivial_grid(), sig.input_array())


def test_transition_table_without_disturbance_and_on_cell_edges():
    sig = SystemSignature(state_dim=1, input_set=[(-0.5,), (0.05,), (0.5,)],
                          disturbance_dim=0, state_box=[(-1.0, 1.0)],
                          disturbance_box=[])
    sys = BlackBoxSystem(signature=sig, oracle=lambda x, nu, d: 1.5 * x + nu)
    sg = make_grid(sig.state_box, 0.05)
    dg = trivial_grid()
    successor, rep_cell = assert_table_matches_per_point(
        sys, sg, dg, sig.input_array())
    assert successor.shape[2] == 1
    sink = successor[:, :, 0] == sg.total_cells
    assert sink[0, 0] and sink[-1, 2]
    assert rep_cell[0, 0, 0] == 0 and rep_cell[-1, 2, 0] == sg.total_cells - 1
    # every reply lands exactly on its cell's upper edge: ties go down
    edge_sig = SystemSignature(state_dim=1, input_set=[(0.5,)],
                               disturbance_dim=0, state_box=[(0.0, 8.0)],
                               disturbance_box=[])
    edge = BlackBoxSystem(signature=edge_sig, oracle=lambda x, nu, d: x + nu)
    eg = make_grid(edge_sig.state_box, 0.5)
    ties, _ = assert_table_matches_per_point(edge, eg, dg,
                                             edge_sig.input_array())
    assert np.array_equal(ties[:, 0, 0], np.arange(8))


def test_transition_table_inf_goes_to_sink_and_nan_raises():
    sig = SystemSignature(state_dim=1, input_set=[(0.0,)], disturbance_dim=0,
                          state_box=[(-1.0, 1.0)], disturbance_box=[])

    def oracle(x, nu, d):
        return np.where(x > 0.5, np.inf, np.where(x < -0.5, -np.inf, x))

    sys = BlackBoxSystem(signature=sig, oracle=oracle)
    g = make_grid(sig.state_box, 0.1)
    successor, rep_cell = assert_table_matches_per_point(
        sys, g, trivial_grid(), sig.input_array())
    assert successor[-1, 0, 0] == successor[0, 0, 0] == g.total_cells
    assert rep_cell[-1, 0, 0] == g.total_cells - 1 and rep_cell[0, 0, 0] == 0

    nan = BlackBoxSystem(signature=sig,
                         oracle=lambda x, nu, d: np.where(x > 0.5, np.nan, x))
    with pytest.raises(DomainError, match="NaN"):
        transition_table(nan, g, trivial_grid(), sig.input_array())
    with pytest.raises(DomainError, match="NaN"):
        abstract_transition(nan, g, None, quantize(g, [0.9]), [0.0], None)
    with pytest.raises(DomainError):
        g.cell_index([np.nan])
