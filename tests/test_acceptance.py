"""End-to-end acceptance checks, one test per shipping criterion.

Each test states its runtime budget and asserts it; numeric pins are checked
against independent closed forms or the oracles in oracles.py, never against
the implementation's own digits.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import (
    ball_fraction,
    ball_radius,
    lp_by_vertices,
    min_samples_binomial,
    solve_safety_game,
)
from symabs.compose import (
    build_gain_matrix,
    check_circularity,
    compose_abf,
    find_scalings,
)
from symabs.model import (
    InterconnectionTopology,
    RoomNetworkParams,
    build_room_network,
)
from symabs.pipeline import (
    PipelineConfig,
    read_abstraction,
    read_controller,
    run_pipeline,
    stage_compose,
    stage_report,
)
from symabs.quantize import make_grid, product_grid, trivial_grid
from symabs.scenario import (
    ApbfCertificate,
    DataLipschitz,
    VariableBoxes,
    apbf_margin,
    certify_apbf,
    draw_samples,
    kappa,
    kappa_inverse,
    min_sample_size,
    quartic_difference_basis,
)
from symabs.simplex import solve_simplex
from symabs.synthesize import (
    FiniteTransitionSystem,
    enumerate_abstraction,
    safety_synthesis,
)


def test_criterion_01_sample_size_formula():
    started = time.perf_counter()
    # pinned closed-form values for a single unknown: the smallest Q with
    # (1 - eps)^Q <= beta
    assert min_sample_size([0.01], 0.01, 1) == 459
    assert min_sample_size([0.1], 0.5, 1) == 7
    for eps, beta in ((0.01, 0.01), (0.1, 0.5)):
        analytic = math.ceil(math.log(beta) / math.log(1.0 - eps))
        assert min_sample_size([eps], beta, 1) == analytic

    rng = np.random.default_rng(11)
    for _ in range(100):
        levels = int(rng.integers(1, 4))
        eps = rng.uniform(0.02, 0.5, size=levels).tolist()
        beta = float(rng.uniform(0.001, 0.5))
        c = int(rng.integers(1, 9))
        q = min_sample_size(eps, beta, c)
        assert q == min_samples_binomial(eps, beta, c)
        assert q >= c
        # loosening any input can never demand more samples
        assert min_sample_size([min(2.0 * e, 0.99) for e in eps], beta, c) <= q
        assert min_sample_size(eps, min(2.0 * beta, 0.99), c) <= q
        # and tightening (more unknowns, an extra risk level) never fewer
        assert min_sample_size(eps, beta, c + 1) >= q
        assert min_sample_size(eps + [min(eps)], beta, c) >= q
    assert time.perf_counter() - started < 1.0


def test_criterion_02_ball_geometry_round_trip():
    started = time.perf_counter()
    assert abs(kappa_inverse(0.001, 3, 1.0) - 0.12408) <= 1e-4
    # independent closed form: eps = pi^{d/2} r^d / (2^d Gamma(d/2 + 1) V)
    assert abs(kappa_inverse(0.001, 3, 1.0) - ball_radius(0.001, 3, 1.0)) <= 1e-12

    rng = np.random.default_rng(22)
    for _ in range(1000):
        dims = int(rng.integers(1, 7))
        volume = float(rng.uniform(0.1, 10.0))
        eps = float(rng.uniform(1e-6, 1.0))
        r = kappa_inverse(eps, dims, volume)
        assert abs(kappa(r, dims, volume) - eps) <= 1e-12
        assert abs(r - ball_radius(eps, dims, volume)) <= 1e-12 * max(1.0, r)
        assert abs(kappa(r, dims, volume) - ball_fraction(r, dims, volume)) <= 1e-12
    assert time.perf_counter() - started < 1.0


def test_criterion_03_certificate_margin_arithmetic():
    started = time.perf_counter()
    margin = apbf_margin(-0.3093, 0.8, 0.3628)
    assert abs(margin - (-0.019)) <= 5e-4
    assert margin <= 0.0  # certifies
    assert time.perf_counter() - started < 1.0


def test_criterion_04_lp_solver_matches_vertex_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(4242)
    solved = infeasible = 0
    for k in range(200):
        n = int(rng.integers(1, 6))
        # cap the row count per dimension so the C(m + 2n, n) vertex
        # enumeration stays tractable; the widest instances use few variables
        caps = {1: 50, 2: 50, 3: 24, 4: 16, 5: 12}
        m = int(rng.integers(1, caps[n] + 1))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) * 2.0
        lower = rng.uniform(-4.0, -1.0, size=n)
        upper = rng.uniform(1.0, 4.0, size=n)
        if k % 2 == 0:
            b = np.abs(b) + 0.1  # origin feasible: both statuses get exercised
        c = rng.normal(size=n)
        maximize = bool(rng.integers(2))
        want_status, want_obj = lp_by_vertices(c, a, b, lower, upper, maximize)
        r = solve_simplex(c, a, b, lower, upper, maximize=maximize)
        assert r.status == want_status
        if want_status == "optimal":
            solved += 1
            assert abs(r.objective - want_obj) <= 1e-9 * max(1.0, abs(want_obj))
            assert np.all(a @ r.x - b <= 1e-9)
            assert np.all(r.x >= lower - 1e-9)
            assert np.all(r.x <= upper + 1e-9)
        else:
            infeasible += 1
    assert solved >= 50 and infeasible >= 50
    assert time.perf_counter() - started < 30.0


def _room_successor_reps(params, centers, d_reps, a_nu, offsets, width):
    """Abstract one-step successor centers recomputed from the room formula:
    quantize f(center, level, neighbor centers), clamping escapes to the
    nearest in-box center (matching the absorbing-sink representative)."""
    y = (a_nu[:, None, None] * centers[None, :, None]
         + params.conduction * d_reps.sum(axis=1)[None, None, :]
         + offsets[:, None, None])
    yc = np.clip(y, -0.5, 0.5)
    idx = np.clip(np.ceil((yc + 0.5) / width) - 1, 0, centers.size - 1)
    return -0.5 + (idx + 0.5) * width


def _row_function_lipschitz(decision, mu_t, a_nu, d_slope, f_lo, f_hi):
    """Interval-gradient bound on every sampled-constraint family over the
    box [-0.5, 0.5]^3, in the Euclidean norm used for the mesh."""
    gamma, eta_t, _, phi = decision
    phi4, phi2, _ = phi
    gap = 0.975  # max |x - center| and per-coordinate |d - center|
    emax = max(0.475 - f_lo, f_hi + 0.475)
    slope_plus = 4.0 * phi4 * emax ** 3 + 2.0 * phi2 * emax
    slope_cur = 4.0 * phi4 * gap ** 3 + 2.0 * phi2 * gap
    l_lower = 2.0 * gamma * gap + slope_cur
    l_x = slope_plus * float(np.max(np.abs(a_nu))) + mu_t * slope_cur
    l_d = slope_plus * d_slope + 2.0 * eta_t * gap
    return max(l_lower, math.hypot(l_x, math.sqrt(2.0) * l_d))


def test_criterion_05_scenario_certification_generalizes():
    started = time.perf_counter()
    params = RoomNetworkParams(num_rooms=3)
    _, _, rooms = build_room_network(params)
    room = rooms[0]
    sg = make_grid(room.signature.state_box, 0.025)
    dg = product_grid([sg, sg])
    q = min_sample_size([0.05], 0.01, 7)
    assert q == 288
    batch = draw_samples(room.signature, q, seed=5)
    boxes = VariableBoxes.from_mapping({"gamma": (1e-3, 1e3), "eta": (0.0, 1e3),
                                        "theta": (0.0, 20.0), "phi": (0.0, 50.0)})

    # one LP per pinning mode: the raw sampled optimum, and the production
    # default that trades optimum slack for small eta
    certs = {}
    for target in (None, -9.0):
        certs[target] = certify_apbf(
            room, sg, dg, (0.5,), (0.05,), 0.01,
            DataLipschitz(pairs=64, seed=2), boxes=boxes,
            xi_target=target, samples=batch)
    assert certs[None].xi_star <= 0.0
    assert certs[None].xi_star == certs[-9.0].xi_star

    # room arithmetic recomputed from the construction parameters
    levels = np.asarray(params.input_levels)
    a_nu = np.asarray([params.diagonal(nu) for nu in levels])
    offsets = (params.cooler_coupling * params.cooler_temp * levels
               + params.outside_coupling * params.outside_temp)
    width = 0.05
    centers = -0.5 + (np.arange(sg.total_cells) + 0.5) * width
    d_reps = np.stack(np.meshgrid(centers, centers, indexing="ij"),
                      axis=-1).reshape(-1, 2)
    succ = _room_successor_reps(params, centers, d_reps, a_nu, offsets, width)
    f_lo = float(np.min(-0.5 * a_nu + offsets)) - 2.0 * params.conduction * 0.5
    f_hi = float(np.max(0.5 * a_nu + offsets)) + 2.0 * params.conduction * 0.5

    axis = np.linspace(-0.5, 0.5, 22)
    mesh_pts = np.meshgrid(axis, axis, axis, indexing="ij")
    dense = np.stack([m.ravel() for m in mesh_pts], axis=-1)
    assert dense.shape[0] >= 10_000

    # fill distance of the samples measured at the dense points
    mesh = 0.0
    for lo in range(0, dense.shape[0], 512):
        blk = dense[lo:lo + 512]
        d2 = ((blk[:, None, :] - batch.points[None, :, :]) ** 2).sum(axis=-1)
        mesh = max(mesh, float(np.sqrt(d2.min(axis=1)).max()))
    assert 0.0 < mesh < 0.5

    decisions = []
    for target, cert in certs.items():
        decision = (cert.gamma, cert.eta_tilde, cert.theta_tilde, cert.phi)
        lip = _row_function_lipschitz(decision, cert.mu_tilde, a_nu,
                                      params.conduction, f_lo, f_hi)
        decisions.append((decision, cert.mu_tilde, cert.xi_achieved, lip))

    max_h = [-np.inf, -np.inf]
    for lo in range(0, dense.shape[0], 64):
        blk = dense[lo:lo + 64]
        x, d = blk[:, 0], blk[:, 1:]
        dx = x[:, None] - centers[None, :]
        dd2 = ((d[:, None, :] - d_reps[None, :, :]) ** 2).sum(axis=-1)
        f_plus = (a_nu[None, :] * x[:, None]
                  + params.conduction * d.sum(axis=1)[:, None] + offsets[None, :])
        e = f_plus[:, :, None, None] - succ[None, :, :, :]
        dx2, dx4, e2, e4 = dx ** 2, dx ** 4, e ** 2, e ** 4  # shared by both
        for which, (dec, mu_t, _, _) in enumerate(decisions):
            gamma, eta_t, theta_t, (phi4, phi2, phi0) = dec
            s_cur = phi4 * dx4 + phi2 * dx2 + phi0
            h1 = gamma * dx2 - s_cur
            h2 = (phi4 * e4 + phi2 * e2 + phi0
                  - mu_t * s_cur[:, None, :, None]
                  - eta_t * dd2[:, None, None, :] - theta_t)
            max_h[which] = max(max_h[which], float(h1.max()), float(h2.max()))

    for which, (_, _, xi, lip) in enumerate(decisions):
        assert max_h[which] <= xi + lip * mesh + 1e-9
    assert time.perf_counter() - started < 300.0


def test_criterion_06_ring_composition_reproduces_reported_gains():
    started = time.perf_counter()
    m = 100
    certs = [ApbfCertificate(gamma=5.8, mu=0.995, eta=0.02, theta=0.4051,
                             beta=1e-4, certified=True, margin=-0.01,
                             state_dim=1, basis=quartic_difference_basis(1),
                             phi=(0.0, 1.0, 0.0)) for _ in range(m)]
    topo = InterconnectionTopology(
        wiring=tuple(((i - 1) % m, (i + 1) % m) for i in range(m)))
    gains = build_gain_matrix(certs, topo)
    circ = check_circularity(gains)
    assert circ.ok
    assert circ.worst_pair_product <= 1.19e-5 + 1e-12
    scalings = find_scalings(gains)
    assert np.all(scalings.kappa == 1.0)  # the uniform scaling is accepted
    assert scalings.max_ratio < 1.0
    abf = compose_abf(certs, scalings)
    assert abs(abf.eps_tilde - 0.2643) <= 1e-4
    assert abf.confidence == 0.99
    assert time.perf_counter() - started < 1.0


def _fts_from_table(table):
    table = np.asarray(table, dtype=np.int64)
    n_states = table.shape[0]  # the sink is the successor index n_states
    grid = make_grid([(0.0, float(n_states))], 0.5)
    inputs = np.arange(table.shape[1], dtype=float).reshape(-1, 1)
    dist_grid = trivial_grid() if table.shape[2] == 1 else \
        make_grid([(0.0, float(table.shape[2]))], 0.5)
    return FiniteTransitionSystem(table=table, state_grid=grid,
                                  dist_grid=dist_grid, inputs=inputs)


def _assert_controller_sound(fts, ctrl, safe):
    safe = set(safe)
    winning = set(int(s) for s in ctrl.winning_states)
    assert winning <= safe
    for s in winning:
        successors = fts.table[s, ctrl.chosen[s], :]
        assert set(int(t) for t in successors) <= winning


def test_criterion_07_safety_game_matches_backward_induction():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    nonempty = 0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        n_u = int(rng.integers(1, 4))
        n_d = int(rng.integers(1, 4))
        table = rng.integers(0, n + 1, size=(n, n_u, n_d))  # n is the sink
        fts = _fts_from_table(table)
        k = int(rng.integers(1, n + 1))
        safe = sorted(rng.choice(n, size=k, replace=False).tolist())
        ctrl = safety_synthesis(fts, safe)
        want_win, _ = solve_safety_game(table, safe)
        assert set(int(s) for s in ctrl.winning_states) == want_win
        _assert_controller_sound(fts, ctrl, safe)
        nonempty += bool(want_win)
    assert nonempty >= 20

    # the room abstraction: 20 cells x 5 inputs x 400 neighbor-pair cells
    _, _, rooms = build_room_network(RoomNetworkParams(num_rooms=3))
    sg = make_grid(rooms[0].signature.state_box, 0.025)
    dg = product_grid([sg, sg])
    fts = enumerate_abstraction(rooms[0], sg, dg)
    assert fts.table.shape == (20, 5, 400)
    half = 0.025
    safe = [s for s in range(sg.total_cells)
            if abs(float(sg.representative(s)[0])) <= 0.3 - half + 1e-12]
    ctrl = safety_synthesis(fts, safe)
    assert ctrl.winning_states.size > 0
    _assert_controller_sound(fts, ctrl, safe)
    want_win, _ = solve_safety_game(fts.table, safe)
    assert set(int(s) for s in ctrl.winning_states) == want_win
    assert time.perf_counter() - started < 60.0


@pytest.fixture(scope="module")
def default_pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    started = time.perf_counter()
    result = run_pipeline(PipelineConfig(), str(out))
    return out, result, time.perf_counter() - started


def _read_trajectory_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "run,time,subsystem,state,input_index,input,safe,truncated"
    return [line.split(",") for line in lines[1:]]


def test_criterion_08_closed_loop_containment(default_pipeline_run):
    out, result, elapsed = default_pipeline_run
    assert result.ok and result.all_safe
    rows = _read_trajectory_rows(out / "trajectories.csv")
    assert rows

    fts = read_abstraction(out / "abstraction_0.npy")
    ctrl = read_controller(out / "controller_0.json", fts)
    winning_centers = {float(fts.state_grid.representative(int(s))[0])
                       for s in ctrl.winning_states}

    runs = {}
    levels = {0.0, 0.05, 0.1, 0.15, 0.2}
    subsystems = set()
    for run, k, sub, state, _, nu, safe_flag, truncated in rows:
        assert abs(float(state)) <= 0.5  # containment, the criterion itself
        assert truncated == "0"
        assert safe_flag == "1"
        subsystems.add(int(sub))
        if nu:
            assert float(nu) in levels
        key = (run, int(sub))
        runs.setdefault(key, []).append((int(k), float(state)))
    assert subsystems == set(range(5))
    for steps in runs.values():
        assert len(steps) == 101  # horizon 100 plus the initial state

    # one run per winning cell, each starting at that cell's center everywhere
    starts = {min(steps)[1] for steps in runs.values()}
    assert starts == winning_centers
    assert len({run for run, _ in runs}) == len(winning_centers)
    assert elapsed < 120.0


def test_criterion_09_reruns_are_byte_identical(default_pipeline_run, tmp_path):
    out, _, _ = default_pipeline_run
    again = tmp_path / "again"
    rerun = run_pipeline(PipelineConfig(), str(again))
    assert rerun.ok
    for name in ("certificates.json", "trajectories.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def test_criterion_10_reference_sample_size_gap_is_flagged(tmp_path):
    config = PipelineConfig.from_mapping({
        "certify": {"eps": [0.001], "beta": 1e-4, "unknowns": 1},
        "report": {"reference_sample_size": 776},
    })
    text = stage_report(config, str(tmp_path))
    assert "minimal sample size (eps=[0.001], beta=0.0001, unknowns=1): 9206" in text
    assert "reference sample size: 776" in text
    assert "computed 9206 vs reference 776 -> MISMATCH" in text


def test_criterion_11_vacuous_radius_is_flagged(default_pipeline_run, tmp_path):
    # The default room's state box is [-0.5, 0.5]: a tracking radius of at
    # least half its width bounds nothing.  The default run is vacuous today
    # (eps_tilde about 2.1); the flag is reported, and `ok` does not read it.
    out, result, _ = default_pipeline_run
    comp = json.loads((out / "composed.json").read_text())
    eps_tilde = math.sqrt(comp["theta"] / comp["gamma"])
    assert comp["vacuous"] is True
    assert eps_tilde >= 0.5
    assert f"eps_tilde: {eps_tilde!r} vacuous: True" in result.summary
    # criterion 06's gains compose to a radius of about 0.26 on the same ring
    certs = [ApbfCertificate(gamma=5.8, mu=0.995, eta=0.02, theta=0.4051,
                             beta=1e-4, certified=True, margin=-0.01,
                             state_dim=1).to_mapping() for _ in range(5)]
    (tmp_path / "certificates.json").write_text(
        json.dumps({"shared": True, "certificates": certs}))
    payload = stage_compose(PipelineConfig(), str(tmp_path))
    assert payload["eps_tilde"] < 0.5
    assert payload["vacuous"] is False
