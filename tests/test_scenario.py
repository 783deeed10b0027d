import dataclasses
import math

import numpy as np
import pytest

from oracles import (ball_fraction, ball_radius, basis_features_direct, brute_top,
                     min_samples_binomial, sop_instance_for_exponents,
                     squared_distances_einsum, squared_distances_in_axis_order)
import symabs.scenario as scenario_mod
from symabs.errors import CapacityError, DomainError, SolverError
from symabs.model import BlackBoxSystem, RoomNetworkParams, SystemSignature, build_room_network
from symabs.quantize import (AbstractPoint, abstract_transition, make_grid, product_grid, quantize,
                             transition_table, trivial_grid)
from symabs.scenario import (
    ApbfCertificate,
    BasisSpec,
    DataLipschitz,
    LinearLipschitz,
    NonlinearLipschitz,
    SampleBatch,
    SopData,
    VariableBoxes,
    _sample_dynamics,
    apbf_margin,
    certify_apbf,
    convert_gains,
    domain_bounds,
    draw_samples,
    kappa,
    kappa_inverse,
    min_sample_size,
    quartic_difference_basis,
    row_lipschitz,
    sample_plan,
    solve_lp,
)
from symabs.simplex import scan_above, solve_with_rows, top_violators


def linear_system(a=0.8, gain=0.1, inputs=((-0.2,), (0.3,))):
    sig = SystemSignature(state_dim=1, input_set=inputs, disturbance_dim=1,
                          state_box=[(-1.0, 1.0)], disturbance_box=[(-1.0, 1.0)])
    return BlackBoxSystem(
        signature=sig, oracle=lambda x, nu, d: a * x + nu + gain * d)


# ---------------------------------------------------------------- basis


BAD_BASIS_RECORDS = [
    {"mode": "difference"},
    {"mode": "difference", "exponents": [[2], [0]]},
    {"mode": "difference", "exponents": [[6], [2], [0]]},
    {"mode": "difference", "exponents": [[3], [2], [0]]},
    {"mode": "difference", "exponents": []},
    {"mode": "difference", "exponents": [[4], [2], [0], [0]]},
    {"mode": "difference", "exponents": [[4, 0], [2, 0], [0, 4], [0, 2]]},
    {"mode": "general", "exponents": [[4], [2], [0]]},
    {"mode": "difference", "exponents": [[4], [2], [0]], "extra": 1},
    {"exponents": [[4], [2], [0]]},
    [[4], [2], [0]],
    "difference",
]


def test_basis_difference_mode_rejects_odd_exponents():
    # from_mapping takes only a record that to_mapping writes: no odd,
    # other or missing exponents, no other mode and no extra key
    for record in BAD_BASIS_RECORDS:
        with pytest.raises(ValueError, match="not the quartic-difference"):
            BasisSpec.from_mapping(record)


def test_quartic_basis_layout_and_features():
    basis = quartic_difference_basis(1)
    assert basis.z == 3
    assert basis.exponents == ((4,), (2,), (0,))
    feats = basis.features([0.7], [0.2])
    assert np.allclose(feats, [0.5 ** 4, 0.5 ** 2, 1.0])
    two = quartic_difference_basis(2)
    assert two.z == 5
    assert two.state_dim == 2


def test_basis_features_broadcast():
    basis = quartic_difference_basis(1)
    x = np.linspace(-1, 1, 7).reshape(7, 1)
    xh = np.zeros((1, 1))
    out = basis.features(x[:, None, :], xh[None, :, :])
    assert out.shape == (7, 1, 3)
    assert np.allclose(out[..., 2], 1.0)
    with pytest.raises(ValueError):  # two coordinates for a 1-D basis
        basis.features(np.zeros((4, 2)), np.zeros((4, 2)))


FEATURE_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-160,
                             1e154, -1e155, 1e200, np.inf, -np.inf, np.nan,
                             1.0, -1.0, 0.5])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_basis_features_match_direct_powers_bit_for_bit(dim):
    rng = np.random.default_rng(90 + dim)
    pool = np.concatenate([FEATURE_SPECIALS, rng.uniform(-2.0, 2.0, 40)])
    shapes = [((dim,), (dim,)), ((6, dim), (6, dim)), ((4, 1, dim), (1, 5, dim)),
              ((dim,), (3, 2, dim)), ((2, 1, 3, dim), (4, 1, dim))]
    basis = quartic_difference_basis(dim)
    with np.errstate(all="ignore"):
        for xs, hs in shapes:
            x, xh = rng.choice(pool, size=xs), rng.choice(pool, size=hs)
            got = basis.features(x, xh)
            want = basis_features_direct(basis.exponents, x, xh)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (xs, hs)


def test_basis_features_match_direct_powers_on_random_values():
    rng = np.random.default_rng(97)
    n = 100_000
    x = np.concatenate([rng.uniform(-1.0, 1.0, n // 2),
                        rng.standard_normal(n // 2) * 1e3]).reshape(-1, 1)
    xh = rng.uniform(-0.5, 0.5, (n, 1))
    basis = quartic_difference_basis(1)
    got = basis.features(x, xh)
    assert got.tobytes() == \
        basis_features_direct(basis.exponents, x, xh).tobytes()
    # the dim-3 quartic basis on 100,000 rows, each against 3 representatives
    x3 = rng.uniform(-1.0, 1.0, (n // 3, 1, 3))
    reps = rng.uniform(-0.5, 0.5, (1, 3, 3))
    basis = quartic_difference_basis(3)
    assert basis.features(x3, reps).tobytes() == \
        basis_features_direct(basis.exponents, x3, reps).tobytes()


def test_basis_mapping_roundtrip():
    basis = quartic_difference_basis(2)
    mapping = basis.to_mapping()
    assert mapping == {"mode": "difference",
                       "exponents": [[4, 0], [2, 0], [0, 4], [0, 2], [0, 0]]}
    back = BasisSpec.from_mapping(mapping)
    assert back.state_dim == 2
    assert back.exponents == basis.exponents


# ---------------------------------------------------------------- samples


def test_draw_samples_reproducible_and_in_box():
    sys = linear_system()
    one = draw_samples(sys.signature, 50, seed=3)
    two = draw_samples(sys.signature, 50, seed=3)
    other = draw_samples(sys.signature, 50, seed=4)
    assert np.array_equal(one.points, two.points)
    assert not np.array_equal(one.points, other.points)
    assert one.count == 50
    assert one.states.shape == (50, 1)
    assert one.disturbances.shape == (50, 1)
    assert np.all(np.abs(one.points) <= 1.0)
    with pytest.raises(ValueError):
        draw_samples(sys.signature, 0, seed=0)


# ---------------------------------------------------------------- counts


def test_min_sample_size_reference_values():
    assert min_sample_size(0.01, 0.01, 1) == 459
    assert min_sample_size(0.1, 0.5, 1) == 7
    assert min_sample_size(0.05, 0.01, 7) == 288
    assert min_sample_size(0.001, 1e-4, 1) == 9206


def test_sample_plan_broadcasts_eps_and_defaults_unknowns():
    plan = sample_plan((0.5, 0.7), 0.3, 0.1, z=3)
    assert plan.mu_levels == (0.5, 0.7)
    assert plan.eps == (0.3, 0.3)
    assert plan.unknowns == 7
    assert plan.q == min_sample_size([0.3, 0.3], 0.1, 7)
    plan = sample_plan([0.5], [0.2], 0.05, z=3, unknowns=9)
    assert (plan.eps, plan.unknowns) == ((0.2,), 9)
    assert plan.q == min_sample_size([0.2], 0.05, 9)
    for mu_grid, eps, message in (((), 0.3, "non-empty"),
                                  ((0.5, 1.0), 0.3, "outside"),
                                  ((0.5, 0.7), (0.1, 0.2, 0.3), "per mu level")):
        with pytest.raises(ValueError, match=message):
            sample_plan(mu_grid, eps, 0.1, z=3)


def test_min_sample_size_matches_binomial_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        c = int(rng.integers(1, 9))
        levels = int(rng.integers(1, 3))
        eps = rng.uniform(0.02, 0.5, size=levels)
        beta = float(rng.uniform(1e-3, 0.5))
        assert min_sample_size(eps, beta, c) == min_samples_binomial(eps, beta, c)


def test_min_sample_size_validation():
    with pytest.raises(ValueError):
        min_sample_size(0.0, 0.1, 1)
    with pytest.raises(ValueError):
        min_sample_size(1.0, 0.1, 1)
    with pytest.raises(ValueError):
        min_sample_size(0.1, 0.0, 1)
    with pytest.raises(ValueError):
        min_sample_size(0.1, 1.0, 1)
    with pytest.raises(ValueError):
        min_sample_size(0.1, 0.1, 0)


# ---------------------------------------------------------------- kappa


def test_kappa_closed_form_and_inverse():
    # dims=1, volume=V: the ball is an interval of length 2r, halved by the
    # normalization => kappa(r) = r / V
    assert np.isclose(kappa(0.3, 1, 2.0), 0.15)
    assert np.isclose(kappa_inverse(0.15, 1, 2.0), 0.3)
    assert np.isclose(kappa(0.5, 2, 1.0), math.pi * 0.25 / 4.0 * 4.0 / 4.0
                      * 4.0 / math.pi * math.pi / 4.0)  # r^2 pi / 4
    rng = np.random.default_rng(8)
    for _ in range(100):
        dims = int(rng.integers(1, 6))
        vol = float(rng.uniform(0.5, 10.0))
        eps = float(rng.uniform(1e-6, 0.5))
        r = kappa_inverse(eps, dims, vol)
        assert np.isclose(kappa(r, dims, vol), eps, rtol=1e-12, atol=1e-15)
        assert np.isclose(r, ball_radius(eps, dims, vol), rtol=1e-12)
        assert np.isclose(kappa(r, dims, vol), ball_fraction(r, dims, vol),
                          rtol=1e-12)


def test_kappa_validation():
    with pytest.raises(ValueError):
        kappa(-0.1, 2, 1.0)
    with pytest.raises(ValueError):
        kappa(0.1, 0, 1.0)
    with pytest.raises(ValueError):
        kappa_inverse(0.0, 2, 1.0)


# ---------------------------------------------------------------- lipschitz


def test_lipschitz_linear_worked_example():
    sys = linear_system(inputs=((-0.2,), (0.2,)))  # w1 = 1, w2 = 0.2, w3 = 1
    j_f, j_x, j_d = LinearLipschitz(a=0.5, b=1.0, e=0.1).slopes(sys)
    assert np.isclose(j_f, 0.8) and (j_x, j_d) == (0.5, 0.1)
    got = row_lipschitz(j_f, j_x, j_d, state_bound=1.0, dist_bound=1.0,
                        sigma=0.05, mu=0.5, eta=0.02)
    # the state-box branch 8 * w1 wins; the dynamics branch alone is 4.02
    assert got == 8.0


def test_lipschitz_linear_zero_case_and_sign_check():
    assert row_lipschitz(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) == 0.0
    sys = linear_system()
    assert LinearLipschitz(a=0.0).slopes(sys) == (0.0, 0.0, 0.0)
    for k in range(8):
        args = [1.0] * 8
        args[k] = -1.0
        with pytest.raises(ValueError):
            row_lipschitz(*args)


def test_row_lipschitz_refuses_non_finite_bounds():
    # max(l1, nan) is l1: a NaN slope would leave only the state-box branch
    args = (1.0, 1.0, 0.01, 0.5, 0.5, 0.025, 0.5, 0.02)
    for k in range(8):
        for bad in (math.nan, math.inf, -math.inf):
            given = list(args)
            given[k] = bad
            with pytest.raises(ValueError, match="must be finite"):
                row_lipschitz(*given)
    for bounds in ({"j_f": math.nan, "j_x": 0.9, "j_d": 0.1},
                   {"j_f": 0.0, "j_x": math.inf, "j_d": 0.1}):
        with pytest.raises(ValueError, match="non-negative and finite"):
            NonlinearLipschitz(**bounds)
    for safety in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-negative and finite"):
            DataLipschitz(safety=safety)


def test_linear_slopes_refuse_matrices_of_the_wrong_shape():
    sys = linear_system()  # one state, input and disturbance coordinate
    for matrices in ({"a": [[0.9, 0.1]]}, {"a": [[0.9]], "b": [[1.0, 2.0]]},
                     {"a": 0.9, "e": [[0.1], [0.1]]}):
        with pytest.raises(ValueError, match="but the system needs 1x1"):
            LinearLipschitz(**matrices).slopes(sys)
    assert LinearLipschitz(a=[[0.9]], b=[1.0], e=0.1).slopes(sys)[1] == 0.9


def _nine_term_linear_bound(a, b, e, w1, w2, w3, sigma, mu, eta):
    """The linear row bound written out term by term (P the identity)."""
    j1, j2, j3 = (float(np.linalg.norm(np.atleast_2d(m), 2)) for m in (a, b, e))
    l1 = 4.0 * w1 * 2.0
    l2 = 2.0 * (2.0 * j1 * j1 * w1 + 2.0 * j1 * j2 * w2
                + 2.0 * j1 * j3 * w3 + j1 * sigma
                + 2.0 * j3 * j3 * w3 + 2.0 * j2 * j3 * w2
                + 2.0 * j1 * j3 * w1 + j3 * sigma
                + 2.0 * w1 * mu) + 2.0 * eta * w3
    return max(l1, l2), l2 > l1


def test_linear_bound_matches_nine_term_formula():
    rng = np.random.default_rng(29)
    dynamics_wins = 0
    for _ in range(200):
        n, m, p = rng.integers(1, 4, size=3)
        a = rng.normal(size=(n, n)) * rng.uniform(0.05, 1.0)
        b = rng.normal(size=(n, m)) * rng.uniform(0.0, 0.5)
        e = rng.normal(size=(n, p)) * rng.uniform(0.0, 0.5)
        lo = rng.uniform(-2.0, -0.1, size=n + p)
        hi = rng.uniform(0.1, 2.0, size=n + p)
        boxes = list(zip(lo, hi))
        inputs = tuple(tuple(rng.uniform(-1.0, 1.0, size=m)) for _ in range(3))
        sig = SystemSignature(state_dim=int(n), input_set=inputs,
                              disturbance_dim=int(p), state_box=boxes[:n],
                              disturbance_box=boxes[n:])
        sys = BlackBoxSystem(signature=sig, oracle=lambda x, nu, d: x)
        sigma, mu, eta = rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0), \
            rng.uniform(0.0, 2.0)
        w1, w2, w3 = domain_bounds(sig)
        want, dynamics = _nine_term_linear_bound(a, b, e, w1, w2, w3,
                                                 sigma, mu, eta)
        got = LinearLipschitz(a=a, b=b, e=e).bound(sys, sigma, mu, eta)
        assert abs(got - want) <= 1e-12 * want
        dynamics_wins += dynamics
    assert 20 <= dynamics_wins <= 180  # both branches are exercised


def test_lipschitz_nonlinear_worked_example():
    assert NonlinearLipschitz(j_f=1.0, j_x=1.0, j_d=0.01).slopes(
        linear_system()) == (1.0, 1.0, 0.01)
    got = row_lipschitz(1.0, 1.0, 0.01, state_bound=0.5, dist_bound=0.5,
                        sigma=0.025, mu=0.5, eta=0.02)
    assert np.isclose(got, 5.1105)
    with pytest.raises(ValueError):
        NonlinearLipschitz(j_f=1.0, j_x=-1.0, j_d=0.01)


def test_lipschitz_nonlinear_monotone():
    rng = np.random.default_rng(13)
    args = rng.uniform(0.1, 2.0, size=8)
    base = row_lipschitz(*args)
    for k in range(8):
        bumped = args.copy()
        bumped[k] += 0.5
        assert row_lipschitz(*bumped) >= base - 1e-12


def test_lipschitz_sources_agree_with_direct_calls():
    sys = linear_system(a=0.8, gain=0.1)
    w1, _, w3 = domain_bounds(sys.signature)
    lin = LinearLipschitz(a=0.8, b=1.0, e=0.1)
    direct = row_lipschitz(0.8 + 0.3 + 0.1, 0.8, 0.1, w1, w3,
                           sigma=0.05, mu=0.5, eta=0.01)
    assert np.isclose(lin.bound(sys, sigma=0.05, mu=0.5, eta=0.01), direct)
    non = NonlinearLipschitz(j_f=2.0, j_x=1.0, j_d=0.2)
    direct = row_lipschitz(2.0, 1.0, 0.2, w1, w3, sigma=0.05, mu=0.5, eta=0.01)
    assert non.bound(sys, sigma=0.05, mu=0.5, eta=0.01) == direct
    data = DataLipschitz(pairs=50, seed=2)
    j_f, j_x, j_d = data.slopes(sys)
    assert j_x == j_d <= 1.5 * np.linalg.norm([0.8, 0.1]) + 1e-9
    assert j_f >= w1
    assert data.bound(sys, sigma=0.05, mu=0.5, eta=0.01) == \
        row_lipschitz(j_f, j_x, j_d, w1, w3, sigma=0.05, mu=0.5, eta=0.01)
    with pytest.raises(ValueError):
        DataLipschitz(safety=-1.0)


def test_data_lipschitz_slopes_follow_each_system():
    # systems made and freed one after another can reuse one id(); each
    # must still be charged its own slopes
    shared = DataLipschitz(pairs=50, seed=1)
    bounds = []
    for gain in range(1, 6):
        sys = linear_system(a=float(gain), gain=0.0)
        got = shared.bound(sys, sigma=0.05, mu=0.5, eta=0.01)
        assert got == DataLipschitz(pairs=50, seed=1).bound(
            sys, sigma=0.05, mu=0.5, eta=0.01)
        bounds.append(got)
        del sys
    assert bounds == sorted(set(bounds))


def _sample_dynamics_per_pair(sys, pairs, seed):
    """Reference: one pair at a time in draw order, redrawing in place."""
    sig = sys.signature
    box = np.vstack([sig.state_box, sig.disturbance_box])
    rng = np.random.default_rng(seed)
    n = sig.state_dim
    slope = fmax = 0.0
    redraws = 0
    for u in range(sig.n_inputs):
        nus = np.broadcast_to(sig.input(u), (pairs, sig.input_dim))
        first = rng.uniform(box[:, 0], box[:, 1], size=(pairs, box.shape[0]))
        second = rng.uniform(box[:, 0], box[:, 1], size=(pairs, box.shape[0]))
        gaps = np.empty(pairs)
        for k in range(pairs):
            gaps[k] = np.linalg.norm(first[k] - second[k])
            while gaps[k] < 1e-12:
                redraws += 1
                second[k] = rng.uniform(box[:, 0], box[:, 1])
                gaps[k] = np.linalg.norm(first[k] - second[k])
        ya = sys.step(first[:, :n], nus, first[:, n:])
        yb = sys.step(second[:, :n], nus, second[:, n:])
        slope = max(slope, float(np.max(np.linalg.norm(ya - yb, axis=1) / gaps)))
        fmax = max(fmax, float(np.max(np.linalg.norm(np.vstack([ya, yb]), axis=1))))
    return slope, fmax, redraws


def test_sample_dynamics_matches_per_pair_draws_bit_for_bit(monkeypatch):
    # a box 1.5e-12 wide makes most first draws coincide, so the redraws
    # must consume the stream exactly as the per-pair loop does
    tiny = SystemSignature(state_dim=1, input_set=((0.0,), (1e-12,)),
                           disturbance_dim=1, state_box=[(0.0, 1.5e-12)],
                           disturbance_box=[(0.0, 1.5e-12)])
    tiny_sys = BlackBoxSystem(signature=tiny,
                              oracle=lambda x, nu, d: 0.5 * x + nu + 0.1 * d)
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    # at seeds 185 and 66 the largest slope sits on a pair whose gap
    # np.linalg.norm(..., axis=1) rounds one ulp away from the per-pair norm
    for sys, seeds in ((tiny_sys, [7]), (rooms[0], [2, 185]),
                       (linear_system(), [11, 66])):
        for seed in seeds:
            slope, fmax, redraws = _sample_dynamics_per_pair(sys, 64, seed)
            assert _sample_dynamics(sys, 64, seed) == (slope, fmax)
            assert (redraws > 0) == (sys is tiny_sys)
    monkeypatch.setattr(scenario_mod, "RETRY_CAP", 0)
    with pytest.raises(SolverError):
        _sample_dynamics(tiny_sys, 64, 7)


@pytest.mark.parametrize("reply", [math.nan, math.inf])
def test_sample_dynamics_refuses_a_non_finite_reply(reply):
    # max(slope, nan) keeps slope, so a NaN reply would drop its input's
    # slopes; an infinite reply has no finite slope to estimate
    sys = linear_system()
    odd = BlackBoxSystem(signature=sys.signature, oracle=lambda x, nu, d: np.where(
        x > 0.9, reply, 0.8 * x + nu + 0.1 * d))
    assert _sample_dynamics(sys, 64, 3)[0] > 0  # the same draws, all finite
    with pytest.raises(DomainError, match="slope probe"):
        _sample_dynamics(odd, 64, 3)
    with pytest.raises(DomainError, match="slope probe"):
        DataLipschitz(pairs=64, seed=3).bound(odd, sigma=0.05, mu=0.5, eta=0.01)


# ---------------------------------------------------------------- SOP


def test_sop_row_counts_and_tags():
    sys = linear_system()
    sg = make_grid(sys.signature.state_box, 0.25)   # 4 cells
    dg = make_grid(sys.signature.disturbance_box, 0.34)  # 3 cells
    samples = draw_samples(sys.signature, 5, seed=0)
    inst = SopData(samples, sys, sg, dg).instance(0.5)
    assert inst.structure.h1_rows == 5 * 4
    assert inst.structure.h2_rows == 5 * 2 * 4 * 3
    assert inst.row_count == 140
    assert inst.z == 3
    t = inst.tag(0)
    assert (t.kind, t.sample, t.state) == ("H1", 0, 0)
    t = inst.tag(19)
    assert (t.kind, t.sample, t.state) == ("H1", 4, 3)
    t = inst.tag(20)
    assert (t.kind, t.sample, t.input, t.state, t.dist) == ("H2", 0, 0, 0, 0)
    flat = 20 + ((1 * 2 + 1) * 4 + 2) * 3 + 1
    t = inst.tag(flat)
    assert (t.kind, t.sample, t.input, t.state, t.dist) == ("H2", 1, 1, 2, 1)
    with pytest.raises(ValueError):
        inst.tag(140)


def test_sop_constant_basis_h1_coefficient():
    sys = linear_system()
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.34)
    samples = draw_samples(sys.signature, 4, seed=1)
    inst = sop_instance_for_exponents(SopData(samples, sys, sg, dg),
                                      ((0,),), 0.5)
    h1 = inst.structure.h1_rows
    a, _ = inst.gather(np.arange(h1))
    assert np.allclose(a[:, 3], -1.0)


def test_sop_rows_match_manual_recomputation():
    sys = linear_system(a=0.8, gain=0.1)
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.34)
    samples = draw_samples(sys.signature, 6, seed=7)
    mu = 0.4
    inst = SopData(samples, sys, sg, dg).instance(mu)

    rng = np.random.default_rng(123)
    vec = np.concatenate([rng.uniform(0.1, 3.0, size=3),
                          rng.uniform(-2.0, 2.0, size=3),
                          rng.uniform(-5.0, 5.0, size=1)])
    gamma, eta, theta = vec[0], vec[1], vec[2]
    phi, xi = vec[3:6], vec[6]
    resid = inst.residuals(vec)

    def score(x, xh):
        d = float(np.asarray(x).ravel()[0] - np.asarray(xh).ravel()[0])
        return phi[0] * d ** 4 + phi[1] * d ** 2 + phi[2]

    inputs = sys.signature.input_array()
    for row in rng.integers(0, inst.row_count, size=100):
        tag = inst.tag(int(row))
        xbar = samples.states[tag.sample]
        dbar = samples.disturbances[tag.sample]
        xh = sg.representative(tag.state)
        if tag.kind == "H1":
            want = gamma * float(xbar[0] - xh[0]) ** 2 - score(xbar, xh) - xi
        else:
            nu = inputs[tag.input]
            dh = AbstractPoint(tag.dist, dg.representative(tag.dist))
            succ = abstract_transition(sys, sg, dg,
                                       AbstractPoint(tag.state, xh), nu, dh)
            x_plus = sys.step(xbar, nu, dbar)
            want = score(x_plus, succ.representative) \
                - mu * score(xbar, xh) \
                - eta * float(np.sum((dbar - dh.representative) ** 2)) \
                - theta - xi
        assert np.isclose(resid[row], want, atol=1e-10)


def test_sop_factored_residuals_match_gathered_rows():
    basis = quartic_difference_basis(1)
    sys = linear_system(a=1.1, gain=0.2)
    sg = make_grid(sys.signature.state_box, 0.125)
    dg = make_grid(sys.signature.disturbance_box, 0.34)
    inputs = sys.signature.input_array()
    successor = np.empty((sg.total_cells, len(inputs), dg.total_cells),
                         dtype=np.int64)
    transition_table(sys, sg, dg, inputs, successor=successor)
    sink = successor == sg.total_cells
    assert sink[0].any() and sink[-1].any()  # escapes on both sides
    samples = draw_samples(sys.signature, 7, seed=3)
    inst = SopData(samples, sys, sg, dg).instance(0.3)
    a, b = inst.gather(np.arange(inst.row_count))
    assert a.shape == (inst.row_count, basis.z + 4)
    rng = np.random.default_rng(11)
    for _ in range(5):
        vec = rng.uniform(-3.0, 3.0, size=inst.n_vars)
        assert np.allclose(inst.residuals(vec), a @ vec - b, rtol=0.0,
                           atol=1e-12)
    # any subset gathers the same rows bit for bit
    idx = rng.permutation(inst.row_count)[:50]
    sub_a, sub_b = inst.gather(idx)
    assert np.array_equal(sub_a, a[idx]) and np.array_equal(sub_b, b[idx])


def test_sop_residual_blocks_tile_the_residuals():
    sys = linear_system(a=1.1, gain=0.2)
    sg = make_grid(sys.signature.state_box, 0.125)
    dg = make_grid(sys.signature.disturbance_box, 0.34)
    samples = draw_samples(sys.signature, 7, seed=3)
    inst = SopData(samples, sys, sg, dg).instance(0.3)
    st = inst.structure
    per_sample = st.inputs * st.states * st.dists
    rng = np.random.default_rng(12)
    for _ in range(3):
        vec = rng.uniform(-3.0, 3.0, size=inst.n_vars)
        # a scan that prunes every H2 block leaves a later floorless one whole
        pruned = inst.blocks_pruned
        assert top_violators(inst.residual_blocks(vec), np.empty(0, dtype=int),
                             1, np.inf).size == 0
        assert inst.blocks_pruned - pruned == st.samples
        starts, blocks = [], []
        for start, block in inst.residual_blocks(vec):
            starts.append(start)
            blocks.append(block.copy())  # the buffer is reused
        # the H1 block, then every sample's H2 block once
        assert starts[0] == 0
        assert sorted(starts[1:]) == [st.h1_rows + i * per_sample
                                      for i in range(st.samples)]
        assert [b.size for b in blocks] == [st.h1_rows] + [per_sample] * st.samples
        in_rows = [blocks[k] for k in np.argsort(starts)]
        assert np.array_equal(np.concatenate(in_rows), inst.residuals(vec))


def pruning_instance():
    """An instance whose successors escape on both sides of the state box."""
    sys = linear_system(a=1.1, gain=0.2)
    sg = make_grid(sys.signature.state_box, 0.125)
    dg = make_grid(sys.signature.disturbance_box, 0.34)
    samples = draw_samples(sys.signature, 40, seed=3)
    return SopData(samples, sys, sg, dg).instance(0.3)


def random_vector(rng, inst, trial):
    vec = rng.uniform(-3.0, 3.0, size=inst.n_vars)
    if trial % 3 == 0:
        vec[1] = 0.0  # eta = 0: rows with one successor tie across d
    return vec


def h2_bounds(inst, vec):
    """Per sample, the H2 block bound as the SopInstance docstring sums it,
    from a plain max over every d."""
    st = inst.structure
    eta, theta, phi, xi = vec[1], vec[2], vec[3:-1], vec[-1]
    succ = (inst.coef_phi @ phi).reshape(st.samples, -1)
    state_term = inst.coef_theta * theta + inst.const - xi \
        - inst.mu * (inst.g_cur @ phi)
    column = np.arange(st.inputs)[:, None, None] * st.states + inst.successor
    top = succ[:, column].max(axis=-1)  # (q, u, s)
    return (top + state_term[:, None, :]).max(axis=(1, 2)) \
        + (inst.coef_eta * -eta).max(axis=1)


def test_sop_pruned_blocks_hold_no_row_above_the_floor():
    # The scan ranks the H2 blocks by bound and stops at the first at or
    # below the floor last sent.  Floors one ulp below a block's
    # largest row must never stop it before that block, so a bound below any
    # row of its block, by even one ulp, fails here.
    inst = pruning_instance()
    st = inst.structure
    r1, per = st.h1_rows, st.inputs * st.states * st.dists
    rng = np.random.default_rng(13)
    pruned = 0
    for trial in range(60):
        vec = random_vector(rng, inst, trial)
        resid = inst.residuals(vec)
        tops = resid[r1:].reshape(st.samples, per).max(axis=1)
        before = inst.blocks_scanned, inst.blocks_pruned
        gen = inst.residual_blocks(vec)
        start, block = next(gen)
        assert start == 0 and np.array_equal(block, resid[:r1])
        seen = []
        while True:
            left = np.setdiff1d(np.arange(st.samples), seen)
            nxt = tops[rng.choice(left)] if left.size else 0.0
            floor = [np.nextafter(nxt, -np.inf), nxt, None,
                     float(rng.choice(resid))][int(rng.integers(4))]
            try:
                start, block = gen.send(floor)
            except StopIteration:
                # every block left holds no row above the floor that
                # stopped the scan
                assert left.size == 0 or np.all(tops[left] <= floor)
                break
            i = (start - r1) // per
            assert start == r1 + i * per and i not in seen
            assert np.array_equal(block, resid[start:start + per])
            seen.append(i)
        # largest bound first
        assert np.all(np.diff(h2_bounds(inst, vec)[seen]) <= 0)
        skipped = st.samples - len(seen)
        assert inst.blocks_scanned - before[0] == len(seen)
        assert inst.blocks_pruned - before[1] == skipped
        pruned += skipped
    assert pruned > 0


def test_sop_ranked_scan_builds_nan_bound_blocks_first():
    inst = pruning_instance()
    st = inst.structure
    r1, per = st.h1_rows, st.inputs * st.states * st.dists
    coef_phi = inst.coef_phi.copy()
    coef_phi[[30, 3], 0, 0, 0] = np.nan
    nan_inst = dataclasses.replace(inst, coef_phi=coef_phi)
    vec = random_vector(np.random.default_rng(16), inst, 1)
    assert np.isnan(h2_bounds(nan_inst, vec)[[3, 30]]).all()
    # a floor no row exceeds still builds the NaN-bound blocks, in row order
    starts = [start for start, _ in
              scan_above(nan_inst.residual_blocks(vec), lambda: np.inf)]
    assert starts == [0, r1 + 3 * per, r1 + 30 * per]
    assert (nan_inst.blocks_scanned, nan_inst.blocks_pruned) \
        == (2, st.samples - 2)
    # and ahead of every finite bound
    starts = [start for start, _ in
              scan_above(nan_inst.residual_blocks(vec), lambda: -np.inf)]
    assert starts[1:3] == [r1 + 3 * per, r1 + 30 * per]
    assert sorted(starts) == [0] + [r1 + i * per for i in range(st.samples)]


def test_sop_instance_refuses_a_successor_outside_the_grid():
    inst = pruning_instance()
    n_s = inst.structure.states
    for bad in (-1, n_s):
        successor = inst.successor.copy()
        successor[1, 2, 0] = bad
        with pytest.raises(ValueError, match="successor"):
            dataclasses.replace(inst, successor=successor)


def test_dist_top_is_the_max_of_the_dist_terms_bit_for_bit():
    # the bound's dist term comes from the row extremes of coef_eta, the
    # distances that enter each row negated; every sign of eta, subnormal
    # products and mixed-sign coefficients included
    inst = pruning_instance()
    assert np.all(inst.coef_eta >= 0)
    mixed = dataclasses.replace(
        inst, coef_eta=np.random.default_rng(15).uniform(
            -2.0, 2.0, inst.coef_eta.shape))
    for eta in (-2.75, -1e-310, 0.0, 1e-310, 0.3, 7.0):
        for case in (inst, mixed):
            if eta == 0.0 and case is mixed:
                continue  # 0.0 and -0.0 tie; only their order picks a sign
            want = (-case.coef_eta * eta).max(axis=1)
            assert case.dist_top(eta).tobytes() == want.tobytes()
    # and the rows themselves hold those products
    a, _ = inst.gather(np.arange(inst.structure.h1_rows, inst.row_count))
    per_sample = a[:, 1].reshape(inst.structure.samples, -1)
    for eta in (-2.75, 0.0, 0.3):
        assert inst.dist_top(eta).tobytes() == \
            (per_sample * eta).max(axis=1).tobytes()


def test_pruned_top_violators_match_brute_force():
    inst = pruning_instance()
    rng = np.random.default_rng(14)
    pruned = inst.blocks_pruned
    for trial in range(80):
        vec = random_vector(rng, inst, trial)
        resid = inst.residuals(vec)
        viol_tol = 1e-9 if trial % 4 == 0 else \
            float(np.quantile(resid, rng.uniform(0.5, 0.999)))
        skip = np.sort(rng.choice(inst.row_count,
                                  size=int(rng.integers(0, 300)), replace=False))
        open_rows = np.delete(resid, skip)
        above = open_rows[open_rows > viol_tol]
        k = int(rng.integers(1, 200))
        values, counts = np.unique(above, return_counts=True)
        if trial % 2 and np.any(counts > 1):
            # put the k-th value inside a run of ties
            v = rng.choice(values[counts > 1])
            k = int(np.sum(above > v)) + int(rng.integers(1, counts[values == v][0]))
        elif trial % 5 == 0:
            k = above.size + int(rng.integers(1, 10))  # more than the violators
        got = top_violators(inst.residual_blocks(vec), skip, k, viol_tol)
        assert np.array_equal(got, brute_top(resid, skip, k, viol_tol))
    assert inst.blocks_pruned > pruned


def test_solve_lp_holds_less_than_one_float_per_row():
    import tracemalloc
    sys = linear_system(a=0.8, gain=0.1)
    sg = make_grid(sys.signature.state_box, 0.025)       # 40 cells
    dg = make_grid(sys.signature.disturbance_box, 0.0125)  # 80 cells
    samples = draw_samples(sys.signature, 700, seed=4)
    inst = sop_instance_for_exponents(SopData(samples, sys, sg, dg),
                                      ((2,), (0,)), 0.5)
    rows = inst.row_count
    # Fixed allowance for what certify holds besides rows: the master (up to
    # max_master + batch rows of z+4 columns) with its residuals, one block
    # buffer and the per-sample tables of q x u*s floats.  The rows are
    # many enough that one float64 per row would fill it eight times over;
    # the solve peaked at about 2.1 MB when the allowance was cut from 8 MB.
    allowance = 4 << 20
    assert 8 * rows >= 8 * allowance
    tracemalloc.start()
    try:
        solve_lp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < allowance, (peak, rows)


def test_instance_shares_the_disturbance_distances():
    # an instance keeps SopData's positive distances and negates eta where
    # a row uses them, so it copies nothing the size of dist2_dist; the
    # default room at sigma 0.01 has 2,500 disturbance cells
    import tracemalloc
    room = build_room_network(RoomNetworkParams(num_rooms=5))[2][0]
    sg = make_grid(room.signature.state_box, 0.01)
    data = SopData(draw_samples(room.signature, 200, seed=1), room, sg,
                   product_grid([sg, sg]))
    assert data.dist2_dist.nbytes == 8 * 200 * 2500
    tracemalloc.start()
    try:
        inst = data.instance(0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.coef_eta is data.dist2_dist
    assert peak < data.dist2_dist.nbytes / 20, peak


def dense_bound_columns(successor, n_s):
    """The bound columns found through one dense (pairs x cells) presence
    mask and a stable argsort of it."""
    n_u, _, n_d = successor.shape
    pairs = n_u * n_s
    hit = np.zeros((pairs, n_s), dtype=bool)
    hit[np.arange(pairs)[:, None], successor.reshape(pairs, n_d)] = True
    counts = hit.sum(axis=1)
    width = int(counts.max(initial=1))
    cells = np.argsort(~hit, axis=1, kind="stable")[:, :width]
    cells = np.where(np.arange(width) < counts[:, None], cells, cells[:, :1])
    return ((np.arange(pairs) // n_s * n_s)[:, None] + cells).T


@pytest.mark.parametrize("slice_values", [1, 20, 1 << 14])
def test_bound_columns_equal_the_dense_mask(monkeypatch, slice_values):
    # one pair per slice, two with a remainder, and every pair in one slice;
    # pairs with one successor cell, a few, and up to every cell
    monkeypatch.setattr(scenario_mod, "FACTOR_SLICE", slice_values)
    inst = pruning_instance()
    n_s = inst.structure.states
    shape = inst.successor.shape
    rng = np.random.default_rng(18)
    tables = [inst.successor]
    for spread in (1, 3, n_s):
        base = rng.integers(0, n_s, size=shape[:2] + (1,))
        tables.append(np.minimum(base + rng.integers(0, spread, size=shape),
                                 n_s - 1))
    for table in tables:
        got = dataclasses.replace(inst, successor=table)._bound_columns
        want = dense_bound_columns(table, n_s)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_instance_bound_columns_need_no_pairs_by_cells_mask():
    # a 2-D state grid of 40 x 40 cells, 2 inputs and no disturbance: the
    # dense (pairs x cells) mask and its argsort traced 48.9 MiB here, for
    # a 3,200-entry successor table
    import tracemalloc
    sys = box_system(2, 0)
    sg = make_grid(sys.signature.state_box, 0.025)
    assert sg.total_cells == 1600
    data = SopData(draw_samples(sys.signature, 5, seed=1), sys, sg,
                   trivial_grid())
    tracemalloc.start()
    try:
        inst = data.instance(0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.successor.size == 3200
    assert np.array_equal(inst._bound_columns,
                          dense_bound_columns(inst.successor, 1600))
    assert peak < 2 * 2 ** 20, peak


def box_system(state_dim, dist_dim):
    """A contraction on [-1, 1]^state_dim driven by the disturbance sum."""
    sig = SystemSignature(state_dim=state_dim, input_set=[(0.0,), (0.2,)],
                          disturbance_dim=dist_dim,
                          state_box=[(-1.0, 1.0)] * state_dim,
                          disturbance_box=[(-1.0, 1.0)] * dist_dim)
    return BlackBoxSystem(signature=sig, oracle=lambda x, nu, d: 0.5 * x + nu
                          + 0.1 * d.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 7, 53])
def test_distance_factors_equal_the_one_shot_einsum_bit_for_bit(dim, count):
    # A sum of one or two squared gaps has one rounding whatever the order,
    # so it keeps the one-shot einsum's bits; past two axes the factors sum
    # in axis order, which the reference does one coordinate at a time.
    reference = squared_distances_einsum if dim < 3 else \
        squared_distances_in_axis_order
    sys = box_system(dim, dim)
    sg = make_grid(sys.signature.state_box, 0.25)  # 4 cells a coordinate
    dg = make_grid(sys.signature.disturbance_box, 0.34)  # 3 a coordinate
    samples = draw_samples(sys.signature, count, seed=dim)
    data = SopData(samples, sys, sg, dg)
    want_state = reference(samples.states, sg.all_representatives())
    want_dist = reference(samples.disturbances, dg.all_representatives())
    assert np.array_equal(data.dist2_state, want_state)
    assert np.array_equal(data.dist2_dist, want_dist)


def test_sop_table_cap_refuses_before_any_oracle_call():
    calls = []
    room = build_room_network(RoomNetworkParams(num_rooms=5))[2][0]
    sys = BlackBoxSystem(signature=room.signature,
                         oracle=lambda x, nu, d: calls.append(1) or x)
    sg = make_grid(room.signature.state_box, 0.1)  # 5 cells
    dg = product_grid([sg, sg])
    samples = draw_samples(room.signature, 10, seed=0)
    table = 5 * room.signature.n_inputs * 25
    with pytest.raises(CapacityError, match=(
            rf"transition table .* {table:,} entries \({8 * table:,} bytes\), "
            rf"over the table cap of {table - 1:,} entries")):
        SopData(samples, sys, sg, dg, table_cap=table - 1)
    # the per-sample factors grow with the samples, not with the table
    factors = 10 * room.signature.n_inputs * 5 * 3
    with pytest.raises(CapacityError, match=rf"per-sample factors .* "
                                            rf"{factors:,} entries"):
        SopData(samples, sys, sg, dg, table_cap=factors - 1)
    assert calls == []
    SopData(samples, sys, sg, dg, table_cap=max(table, factors))
    assert calls


# ---------------------------------------------------------------- LP


def build_tiny_instance(mu=0.5, boxes=None):
    sys = linear_system(a=0.8, gain=0.1)
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.34)
    samples = draw_samples(sys.signature, 6, seed=7)
    return SopData(samples, sys, sg, dg).instance(mu, boxes)


def test_solve_lp_against_scipy():
    from scipy.optimize import linprog
    inst = build_tiny_instance()
    report = solve_lp(inst)
    boxes = inst.boxes
    nv = inst.n_vars
    c = np.zeros(nv)
    c[-1] = 1.0
    a, b = inst.gather(np.arange(inst.row_count))
    bounds = [boxes.gamma, boxes.eta, boxes.theta] \
        + [boxes.phi] * inst.z + [(None, None)]
    ref = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
    assert ref.status == 0
    assert abs(report.xi_star - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))


def test_solve_lp_on_a_six_million_row_instance_matches_highs():
    # Regression: on this instance the master once reported "optimal" at a
    # vector that broke its own rows by 1.5e-4, and solve_lp raised.
    from scipy.optimize import linprog
    sys = linear_system(a=0.8, gain=0.1)
    sg = make_grid(sys.signature.state_box, 0.025)       # 40 cells
    dg = make_grid(sys.signature.disturbance_box, 0.0125)  # 80 cells
    samples = draw_samples(sys.signature, 1000, seed=4)
    inst = sop_instance_for_exponents(SopData(samples, sys, sg, dg),
                                      ((2,), (0,)), 0.5)
    assert inst.row_count == 6_440_000
    report = solve_lp(inst)
    assert float(max(np.max(blk) for _, blk in
                     inst.residual_blocks(report.decision.as_array()))) <= 1e-7
    # xi* against HiGHS on the final working rows of the xi phase and the boxes
    nv = inst.n_vars
    c = np.zeros(nv)
    c[-1] = 1.0
    lower, upper = inst.boxes.lower(inst.z), inst.boxes.upper(inst.z)
    _, working, _ = solve_with_rows(c, inst, lower, upper)
    a, b = inst.gather(working)
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(lower, upper)]
    ref = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
    assert ref.status == 0
    assert abs(report.xi_star - ref.fun) <= 1e-7 * abs(ref.fun)


def test_solve_lp_returned_vector_is_feasible_and_tagged():
    inst = build_tiny_instance()
    report = solve_lp(inst)
    vec = report.decision.as_array()
    assert float(np.max(inst.residuals(vec))) <= 1e-7
    assert report.decision.mu == 0.5
    assert report.master_rows <= inst.row_count
    assert len(report.active) >= 1
    for tag in report.active:
        assert tag.kind in ("H1", "H2")
    # boxes respected
    boxes = inst.boxes
    assert boxes.gamma[0] - 1e-9 <= report.decision.gamma <= boxes.gamma[1] + 1e-9
    assert boxes.eta[0] - 1e-9 <= report.decision.eta <= boxes.eta[1] + 1e-9


def test_solve_lp_reports_every_master_solve(monkeypatch):
    import symabs.simplex as simplex_mod
    solves = []
    real = simplex_mod.solve_simplex

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        solves.append(result.iterations)
        return result

    monkeypatch.setattr(simplex_mod, "solve_simplex", spy)
    inst = build_tiny_instance()
    report = solve_lp(inst)
    assert report.rounds == len(solves) >= 4
    assert report.iterations == sum(solves) > 0
    assert report.binding == {
        "H1": sum(t.kind == "H1" for t in report.active),
        "H2": sum(t.kind == "H2" for t in report.active)}
    assert sum(report.binding.values()) == len(report.active) >= 1
    # one scan per round and one final check, every H2 block counted
    assert report.blocks + report.pruned \
        == (report.rounds + 1) * inst.structure.samples
    assert report.pruned > 0


class FloorBlind:
    """The instance as a row source that ignores every floor: its scans get
    each block in row order, none pruned."""

    def __init__(self, inst):
        self.inst = inst

    def __getattr__(self, name):
        return getattr(self.inst, name)

    def residual_blocks(self, vec):
        for item in self.inst.residual_blocks(vec):  # sends the inner None
            yield item


@pytest.mark.parametrize("make", [pruning_instance, build_tiny_instance])
def test_solve_lp_does_not_depend_on_the_scan_order(make):
    ranked = solve_lp(make())
    blind = solve_lp(FloorBlind(make()))
    assert ranked.decision.as_array().tobytes() \
        == blind.decision.as_array().tobytes()
    assert ranked.xi_star == blind.xi_star
    assert ranked.active == blind.active
    assert (ranked.rounds, ranked.iterations, ranked.master_rows) \
        == (blind.rounds, blind.iterations, blind.master_rows)
    assert blind.pruned == 0 and ranked.pruned > 0
    assert ranked.blocks + ranked.pruned == blind.blocks


def test_solve_lp_runs_the_four_phases_in_order(monkeypatch):
    # xi, then eta down, gamma up and theta down; each phase starts from the
    # previous phase's working rows and carries one more pin row
    real = scenario_mod.solve_with_rows
    calls, handed = [], []

    def spy(c, source, lower, upper, extra_a=None, extra_b=None,
            maximize=False, start_rows=None, **kwargs):
        calls.append((int(np.flatnonzero(c)[0]), maximize,
                      np.asarray(extra_b).size))
        handed.append(start_rows)
        out = real(c, source, lower, upper, extra_a=extra_a, extra_b=extra_b,
                   maximize=maximize, start_rows=start_rows, **kwargs)
        handed.append(out[1])
        return out

    monkeypatch.setattr(scenario_mod, "solve_with_rows", spy)
    inst = build_tiny_instance()
    solve_lp(inst)
    xi = inst.n_vars - 1
    assert calls == [(xi, False, 0), (1, False, 1), (0, True, 2), (2, False, 3)]
    assert handed[0] is None
    for given, kept in zip(handed[2::2], handed[1::2]):
        assert given is kept


def test_solve_lp_final_check_finds_the_worst_row(monkeypatch):
    # The check skips blocks with no row above 1e-7, so it must still reject
    # every vector with a row above 1e-7 and report that row's residual.
    from symabs.simplex import SimplexResult
    inst = build_tiny_instance()
    good = solve_lp(inst).decision.as_array()
    rng = np.random.default_rng(15)
    rejected = accepted = 0
    for scale in np.logspace(-10, -3, 15):
        vec = good + rng.normal(scale=scale, size=good.size)
        result = SimplexResult("optimal", vec, float(vec[-1]),
                               np.empty(0, dtype=int), 0)
        monkeypatch.setattr(scenario_mod, "solve_with_rows",
                            lambda *a, **k: (result, np.zeros(1, dtype=int),
                                             np.empty(0, dtype=int)))
        worst = float(np.max(inst.residuals(vec)))
        if worst > 1e-7:
            with pytest.raises(SolverError, match=f"by {worst:.3e}$"):
                solve_lp(inst)
            rejected += 1
        else:
            solve_lp(inst)
            accepted += 1
    assert rejected and accepted


def test_solve_lp_lexicographic_refinement_improves_gamma():
    inst = build_tiny_instance()
    c = np.zeros(inst.n_vars)
    c[-1] = 1.0
    plain, _, _ = solve_with_rows(c, inst, inst.boxes.lower(inst.z),
                                  inst.boxes.upper(inst.z))
    refined = solve_lp(inst)
    assert np.isclose(plain.objective, refined.xi_star, atol=1e-7)
    # refinement never worsens the slack and can only raise gamma
    assert refined.decision.gamma >= plain.x[0] - 1e-9
    assert refined.decision.xi <= refined.xi_star + 1e-6


def test_solve_lp_xi_target_relaxes_pin():
    inst = build_tiny_instance()
    base = solve_lp(inst)
    target = base.xi_star + 5.0
    relaxed = solve_lp(inst, xi_target=target)
    assert np.isclose(relaxed.xi_star, base.xi_star, atol=1e-7)
    assert relaxed.decision.xi <= target + 1e-6
    # extra slack room can only help the eta refinement
    assert relaxed.decision.eta <= base.decision.eta + 1e-9
    # a target below xi* pins at xi* as if unset
    clamped = solve_lp(inst, xi_target=base.xi_star - 100.0)
    assert clamped.decision.xi <= base.xi_star + 1e-6


def test_variable_boxes_validation_and_mapping():
    with pytest.raises(ValueError):
        VariableBoxes(gamma=(0.0, 1.0))
    with pytest.raises(ValueError):
        VariableBoxes(eta=(-1.0, 1.0))
    with pytest.raises(ValueError):
        VariableBoxes(theta=(2.0, 1.0))
    boxes = VariableBoxes(gamma=(1e-3, 1e3), eta=(0.0, 1e3), theta=(0.0, 20.0),
                          phi=(0.0, 50.0))
    back = VariableBoxes.from_mapping(boxes.to_mapping())
    assert back.gamma == boxes.gamma and back.phi == boxes.phi
    lower, upper = boxes.lower(2), boxes.upper(2)
    assert lower.shape == (6,) and upper.shape == (6,)
    assert lower[-1] == -np.inf and upper[-1] == np.inf


# ---------------------------------------------------------------- gains


def test_convert_gains_formulas_and_validation():
    mu, eta, theta = convert_gains(0.5, 0.2, 1.0, psi=0.99, lam=1.0)
    assert np.isclose(mu, 1.0 - 0.5 * 0.01)
    assert np.isclose(eta, 2.0 * 0.2 / (0.5 * 0.99))
    assert np.isclose(theta, 2.0 * 1.0 / (0.5 * 0.99))
    # lam trades eta against theta
    mu2, eta2, theta2 = convert_gains(0.5, 0.2, 1.0, psi=0.99, lam=3.0)
    assert np.isclose(mu2, mu)
    assert eta2 > eta and theta2 < theta
    with pytest.raises(ValueError):
        convert_gains(1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        convert_gains(0.5, -0.1, 0.1)
    with pytest.raises(ValueError):
        convert_gains(0.5, 0.1, 0.1, psi=1.0)
    with pytest.raises(ValueError):
        convert_gains(0.5, 0.1, 0.1, lam=0.0)


def test_apbf_margin():
    assert np.isclose(apbf_margin(-0.3093, 0.8, 0.3628), -0.3093 + 0.8 * 0.3628)
    assert apbf_margin(0.0, 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        apbf_margin(0.0, -1.0, 0.1)


# ---------------------------------------------------------------- certify


def test_certificate_mapping_roundtrip():
    cert = ApbfCertificate(
        gamma=5.8, mu=0.995, eta=0.02, theta=0.4051, beta=1e-4,
        certified=True, margin=-0.019, state_dim=1, mu_tilde=0.5,
        eta_tilde=0.001, theta_tilde=0.1, xi_star=-0.3, xi_achieved=-0.3,
        q=288, seed=0, unknowns=7, eps=(0.05,), mu_grid=(0.5,),
        margins=(-0.019,), lipschitz=(0.8,), kappa_radii=(0.36,),
        basis=quartic_difference_basis(1), phi=(1.0, 2.0, 3.0), sigma=0.025,
        boxes=VariableBoxes())
    back = ApbfCertificate.from_mapping(cert.to_mapping())
    assert back.gamma == cert.gamma
    assert back.margins == cert.margins
    assert back.basis.exponents == cert.basis.exponents
    assert back.phi == cert.phi
    assert back.boxes.gamma == cert.boxes.gamma
    assert back.beta == cert.beta
    assert np.isclose(back.value([0.3], [0.1]), 1.0 * 0.2 ** 4 + 2.0 * 0.2 ** 2 + 3.0)


def test_certificate_validation():
    with pytest.raises(ValueError):
        ApbfCertificate(gamma=1.0, mu=1.5, eta=0.0, theta=0.0, beta=0.01,
                        certified=False, margin=1.0)
    with pytest.raises(ValueError):
        ApbfCertificate(gamma=1.0, mu=0.5, eta=0.0, theta=0.0, beta=0.0,
                        certified=False, margin=1.0)
    with pytest.raises(ValueError, match="2 score weights for a basis of 3"):
        ApbfCertificate(gamma=1.0, mu=0.5, eta=0.0, theta=0.0, beta=0.01,
                        certified=False, margin=1.0,
                        basis=quartic_difference_basis(1), phi=(1.0, 2.0))


def test_certify_apbf_small_system_fields_consistent():
    sys = linear_system(a=0.5, gain=0.05, inputs=((0.0,),))
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.5)
    basis = quartic_difference_basis(1)
    q = min_sample_size([0.3, 0.3], 0.1, basis.z + 4)
    cert = certify_apbf(sys, sg, dg, mu_grid=(0.5, 0.7), eps=0.3,
                        beta=0.1, lipschitz=LinearLipschitz(a=0.5, b=0.0, e=0.05),
                        samples=draw_samples(sys.signature, q, seed=5))
    assert cert.q == q
    assert cert.unknowns == basis.z + 4
    assert len(cert.margins) == 2
    assert len(cert.lipschitz) == 2
    assert cert.margin == min(cert.margins)
    assert cert.certified == (cert.margin <= 0.0)
    assert cert.mu_tilde in (0.5, 0.7)
    want_mu, want_eta, want_theta = convert_gains(cert.mu_tilde,
                                                  cert.eta_tilde,
                                                  cert.theta_tilde)
    assert np.isclose(cert.mu, want_mu)
    assert np.isclose(cert.eta, want_eta)
    assert np.isclose(cert.theta, want_theta)
    # kappa radius over X x D with default volume
    assert np.isclose(cert.kappa_radii[0], kappa_inverse(0.3, 2, 4.0))


def test_certify_apbf_records_the_seed_of_the_batch_it_is_handed():
    sys = linear_system(a=0.5, gain=0.05, inputs=((0.0,),))
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.5)
    q = min_sample_size([0.3], 0.1, quartic_difference_basis(1).z + 4)
    lip = LinearLipschitz(a=0.5)
    cert = certify_apbf(sys, sg, dg, (0.5,), 0.3, 0.1, lip,
                        samples=draw_samples(sys.signature, q, seed=3))
    assert cert.seed == 3 and cert.to_mapping()["seed"] == 3
    # the batch is required, and no seed draws one in its place
    with pytest.raises(TypeError):
        certify_apbf(sys, sg, dg, (0.5,), 0.3, 0.1, lip)
    with pytest.raises(TypeError):
        certify_apbf(sys, sg, dg, (0.5,), 0.3, 0.1, lip, seed=3)


def test_certify_apbf_rejects_wrong_sample_count():
    sys = linear_system(a=0.5, gain=0.05, inputs=((0.0,),))
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.5)
    bad = draw_samples(sys.signature, 11, seed=0)
    with pytest.raises(ValueError, match="sample batch"):
        certify_apbf(sys, sg, dg, mu_grid=(0.5,), eps=0.3, beta=0.1,
                     lipschitz=LinearLipschitz(a=0.5), samples=bad)


def test_sample_batch_accessors():
    pts = np.arange(12.0).reshape(4, 3)
    batch = SampleBatch(seed=0, state_dim=1, dist_dim=2, points=pts)
    assert batch.count == 4
    assert np.allclose(batch.states[:, 0], [0.0, 3.0, 6.0, 9.0])
    assert batch.disturbances.shape == (4, 2)
