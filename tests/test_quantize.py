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


def test_make_grid_counts_and_sigma():
    g = make_grid([(-0.5, 0.5)], 0.025)
    assert g.cells_per_dim == (20,)
    assert np.isclose(g.sigma, 0.025)
    # half-width never exceeds the target even when it does not divide evenly
    g2 = make_grid([(0.0, 1.0)], 0.3)
    assert g2.cells_per_dim == (2,)
    assert g2.sigma <= 0.3 + 1e-15
    with pytest.raises(ValueError):
        make_grid([(0.0, 1.0)], 0.0)
    with pytest.raises(CapacityError):
        make_grid([(0.0, 1.0)] * 4, 1e-3, cell_cap=10_000)


def test_flat_and_multi_index_roundtrip():
    g = UniformGrid(box=[(0.0, 1.0), (0.0, 2.0)], cells_per_dim=(3, 4), sigma=0.25)
    assert g.total_cells == 12
    for flat in range(12):
        assert g.flat_index(g.multi_index(flat)) == flat
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


def assert_table_matches_per_point(sys, sg, dg, inputs):
    """transition_table agrees with abstract_transition on every entry, in
    the successor index and bit for bit in the representative."""
    successor, rep_cell = transition_table(sys, sg, dg, inputs)
    shape = (sg.total_cells, len(inputs), dg.total_cells)
    assert successor.shape == rep_cell.shape == shape
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
    sys = BlackBoxSystem(signature=sig, oracle=lambda x, nu, d: np.array(
        [1.3 * x[0] + nu[0] + 0.5 * d[0], 0.9 * x[1] - 0.25 + d[0]]))
    sg = make_grid(sig.state_box, 0.2)
    dg = make_grid(sig.disturbance_box, 0.34)
    assert sg.cells_per_dim == (5, 5)
    successor, rep_cell = assert_table_matches_per_point(
        sys, sg, dg, sig.input_array())
    sink = successor == sg.total_cells
    # escapes on both sides of coordinate 0 clamp to its first and last cells
    assert {0, 4} <= set((rep_cell[sink] // 5).tolist())
    assert not sink.all()


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
