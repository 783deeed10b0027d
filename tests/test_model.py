import numpy as np
import pytest

from symabs.errors import CompositionError
from symabs.model import (
    BlackBoxSystem,
    InterconnectionTopology,
    ProductInputSet,
    RoomNetworkParams,
    SystemSignature,
    as_box,
    box_contains,
    build_room_network,
    decompose_network,
)


def scalar_system(dist_dim=0, oracle=None):
    sig = SystemSignature(
        state_dim=1,
        input_set=[(0.0,), (0.5,), (1.0,)],
        disturbance_dim=dist_dim,
        state_box=[(-1.0, 1.0)],
        disturbance_box=[(-1.0, 1.0)] * dist_dim,
    )
    if oracle is None:
        oracle = lambda x, nu, d: 0.5 * x
    return BlackBoxSystem(signature=sig, oracle=oracle)


def test_as_box_shapes_and_validation():
    box = as_box([(-1.0, 2.0), (0.0, 3.0)])
    assert box.shape == (2, 2)
    assert box_contains(box, np.array([0.0, 1.5]))
    assert not box_contains(box, np.array([0.0, 3.5]))
    assert as_box([]).shape == (0, 2)
    with pytest.raises(ValueError):
        as_box([(1.0, -1.0)])
    with pytest.raises(ValueError):
        as_box([(0.0, np.inf)])


def test_product_input_set_order_last_factor_fastest():
    ps = ProductInputSet([[0.0, 1.0], [10.0, 20.0, 30.0]])
    assert len(ps) == 6
    flat = [ps[i] for i in range(6)]
    assert flat == [(0.0, 10.0), (0.0, 20.0), (0.0, 30.0),
                    (1.0, 10.0), (1.0, 20.0), (1.0, 30.0)]
    assert ps[-1] == (1.0, 30.0)
    with pytest.raises(IndexError):
        ps[6]
    with pytest.raises(ValueError):
        ProductInputSet([[0.0], []])


def test_signature_dims_and_input_array():
    sig = SystemSignature(
        state_dim=2,
        input_set=[(0.0,), (0.1,)],
        disturbance_dim=1,
        state_box=[(-0.5, 0.5), (-1.0, 1.0)],
        disturbance_box=[(-0.5, 0.5)],
    )
    assert sig.input_dim == 1
    assert sig.n_inputs == 2
    assert sig.input_array().shape == (2, 1)
    assert np.allclose(sig.input(1), [0.1])
    assert sig.contains_state([0.2, -0.9])
    assert not sig.contains_state([0.2, -1.1])
    assert sig.contains_disturbance([0.5])


def test_signature_rejects_bad_input_sets():
    with pytest.raises(ValueError):
        SystemSignature(state_dim=1, input_set=[], disturbance_dim=0,
                        state_box=[(-1.0, 1.0)], disturbance_box=[])
    with pytest.raises(ValueError):
        SystemSignature(state_dim=1, input_set=[(0.0,), (0.0,)],
                        disturbance_dim=0, state_box=[(-1.0, 1.0)],
                        disturbance_box=[])
    with pytest.raises(ValueError):
        SystemSignature(state_dim=1, input_set=[(0.0,), (0.0, 1.0)],
                        disturbance_dim=0, state_box=[(-1.0, 1.0)],
                        disturbance_box=[])


def test_blackbox_step_shape_checks():
    sys = scalar_system(dist_dim=1,
                        oracle=lambda x, nu, d: 0.5 * x + 0.1 * d)
    y = sys.step([0.2], [0.0], [1.0])
    assert y.shape == (1,)
    assert np.isclose(y[0], 0.2 * 0.5 + 0.1)
    with pytest.raises(ValueError):
        sys.step([0.2, 0.3], [0.0], [1.0])
    with pytest.raises(ValueError):
        sys.step([0.2], [0.0], [1.0, 2.0])


def test_room_oracle_anchor_values():
    # x+ = (0.93 - 0.145 nu) x + 0.005 (d1 + d2) + 0.725 nu - 0.12
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=5))
    assert np.isclose(rooms[0].step([0.0], [0.1], [0.0, 0.0])[0], 0.0725 - 0.12)
    assert np.isclose(rooms[0].step([0.0], [0.0], [0.0, 0.0])[0], -0.12)
    p = RoomNetworkParams(num_rooms=5)
    assert np.isclose(p.diagonal(0.0), 0.93)
    assert np.isclose(p.diagonal(0.2), 0.93 - 0.145 * 0.2)


def test_room_params_validation():
    with pytest.raises(ValueError):
        RoomNetworkParams(num_rooms=1)
    with pytest.raises(ValueError):
        RoomNetworkParams(input_levels=(0.0, 0.0))
    with pytest.raises(ValueError):
        RoomNetworkParams(cooler_coupling=10.0)  # diagonal leaves (0,1)


def test_room_network_wiring_is_circular():
    _, topo, _ = build_room_network(RoomNetworkParams(num_rooms=5))
    assert topo.num_subsystems == 5
    assert topo.wiring[0] == (4, 1)
    assert topo.wiring[2] == (1, 3)
    assert topo.wiring[4] == (3, 0)


def test_network_oracle_matches_manual_formula():
    params = RoomNetworkParams(num_rooms=4)
    network, _, _ = build_room_network(params)
    rng = np.random.default_rng(42)
    levels = np.asarray(params.input_levels)
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, size=4)
        nu = rng.choice(levels, size=4)
        got = network.step(x, nu)
        for i in range(4):
            a = params.diagonal(nu[i])
            d = x[(i - 1) % 4] + x[(i + 1) % 4]
            want = a * x[i] + params.conduction * d \
                + params.cooler_coupling * params.cooler_temp * nu[i] \
                + params.outside_coupling * params.outside_temps[i]
            assert np.isclose(got[i], want, atol=1e-12)


def test_decompose_network_validates_and_returns_handles():
    params = RoomNetworkParams(num_rooms=4)
    network, topo, rooms = build_room_network(params)
    handles = decompose_network(network, topo, rooms)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, size=4)
        i = int(rng.integers(4))
        h = handles[i]
        d = h.local_disturbance(x)
        assert np.allclose(d, [x[(i - 1) % 4], x[(i + 1) % 4]])
        nu = rooms[i].signature.input(int(rng.integers(5)))
        y = h.system.step(x[i:i + 1], nu, d)
        assert y.shape == (1,)


def test_decompose_rejects_wrong_subsystem_count():
    params = RoomNetworkParams(num_rooms=3)
    network, topo, rooms = build_room_network(params)
    with pytest.raises(CompositionError):
        decompose_network(network, topo, rooms[:2])


def test_decompose_rejects_mismatched_oracle():
    params = RoomNetworkParams(num_rooms=3)
    network, topo, rooms = build_room_network(params)
    broken = BlackBoxSystem(signature=rooms[0].signature,
                            oracle=lambda x, nu, d: x + 1.0)
    with pytest.raises(CompositionError):
        decompose_network(network, topo, [broken] + list(rooms[1:]))


def test_uncontrolled_room_drifts_to_affine_fixed_point():
    # nu = 0, d = 0: x+ = 0.93 x - 0.12 has fixed point -0.12/0.07
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=5))
    x = np.array([0.0])
    for _ in range(600):
        x = rooms[0].step(x, [0.0], [0.0, 0.0])
    assert np.isclose(x[0], -0.12 / 0.07, atol=1e-6)
