import numpy as np
import pytest

from symabs.model import (
    BlackBoxSystem,
    InterconnectionTopology,
    ProductInputSet,
    RoomNetworkParams,
    SystemSignature,
    as_box,
    build_room_network,
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


def test_batched_step_equals_single_steps_bit_for_bit():
    # per-room outside temperatures, so each room has its own drive term
    params = RoomNetworkParams(num_rooms=4, outside_temp=(-2.0, -1.0, 0.5, 3.0))
    network, _, rooms = build_room_network(params)
    rng = np.random.default_rng(11)
    levels = np.asarray(params.input_levels)
    x = rng.uniform(-0.5, 0.5, size=(300, 4))
    nu = rng.choice(levels, size=(300, 4))
    for i, room in enumerate(rooms):
        d = x[:, [(i - 1) % 4, (i + 1) % 4]]
        batch = room.step(x[:, i:i + 1], nu[:, i:i + 1], d)
        assert batch.shape == (300, 1)
        singles = np.array([room.step(x[r, i:i + 1], nu[r, i:i + 1], d[r])
                            for r in range(300)])
        assert batch.tobytes() == singles.tobytes()
        # the per-point formula in its operation order, in Python floats
        base = 1.0 - 2.0 * params.conduction - params.outside_coupling
        gain, c = params.cooler_coupling, params.conduction
        drive = params.outside_coupling * params.outside_temps[i]
        formula = [(base - gain * u) * xi + c * (dl + dr)
                   + gain * params.cooler_temp * u + drive
                   for xi, u, (dl, dr) in zip(x[:, i], nu[:, i], d.tolist())]
        assert batch[:, 0].tolist() == formula
        # a one-row stack stays a stack
        assert room.step(x[:1, i:i + 1], nu[:1, i:i + 1], d[:1]).shape == (1, 1)
    batch = network.step(x, nu)
    assert batch.shape == (300, 4)
    singles = np.array([network.step(x[r], nu[r]) for r in range(300)])
    assert batch.tobytes() == singles.tobytes()


def test_step_makes_one_oracle_call_with_explicit_row_counts():
    calls = []

    def oracle(x, nu, d):
        calls.append((x.shape, nu.shape, d.shape))
        return 0.5 * x

    sys = scalar_system(dist_dim=0, oracle=oracle)
    y = sys.step(np.linspace(-1.0, 1.0, 7)[:, None], np.zeros((7, 1)))
    assert y.shape == (7, 1)
    # the disturbance-free rows are zero wide, but still seven of them
    assert calls == [((7, 1), (7, 1), (7, 0))]
    assert sys.step([0.4], [0.0]).shape == (1,)
    assert calls[-1] == ((1, 1), (1, 1), (1, 0))
    with pytest.raises(ValueError):
        sys.step(np.zeros((7, 1)), np.zeros((6, 1)))
    with pytest.raises(ValueError):  # the oracle must answer every row
        scalar_system(oracle=lambda x, nu, d: x[:1]).step(np.zeros((3, 1)),
                                                           np.zeros((3, 1)))


def test_uncontrolled_room_drifts_to_affine_fixed_point():
    # nu = 0, d = 0: x+ = 0.93 x - 0.12 has fixed point -0.12/0.07
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=5))
    x = np.array([0.0])
    for _ in range(600):
        x = rooms[0].step(x, [0.0], [0.0, 0.0])
    assert np.isclose(x[0], -0.12 / 0.07, atol=1e-6)
