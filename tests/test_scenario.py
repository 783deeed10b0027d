import math

import numpy as np
import pytest

from oracles import ball_fraction, ball_radius, min_samples_binomial
from symabs.model import BlackBoxSystem, RoomNetworkParams, SystemSignature, build_room_network
from symabs.quantize import (AbstractPoint, abstract_transition, make_grid, product_grid, quantize,
                             transition_table)
from symabs.scenario import (
    ApbfCertificate,
    BasisSpec,
    DataLipschitz,
    LinearLipschitz,
    NonlinearLipschitz,
    SampleBatch,
    VariableBoxes,
    apbf_margin,
    assemble_sop,
    certify_apbf,
    convert_gains,
    draw_samples,
    estimate_lipschitz_data,
    kappa,
    kappa_inverse,
    lipschitz_linear,
    lipschitz_nonlinear,
    min_sample_size,
    quartic_difference_basis,
    solve_lp,
)


def linear_system(a=0.8, gain=0.1, inputs=((-0.2,), (0.3,))):
    sig = SystemSignature(state_dim=1, input_set=inputs, disturbance_dim=1,
                          state_box=[(-1.0, 1.0)], disturbance_box=[(-1.0, 1.0)])
    return BlackBoxSystem(
        signature=sig, oracle=lambda x, nu, d: a * x + nu + gain * d)


# ---------------------------------------------------------------- basis


def test_basis_difference_mode_rejects_odd_exponents():
    with pytest.raises(ValueError):
        BasisSpec(mode="difference", exponents=((3,),))
    with pytest.raises(ValueError):
        BasisSpec(mode="difference", exponents=())
    with pytest.raises(ValueError):
        BasisSpec(mode="difference", exponents=((2,), (2, 2)))
    with pytest.raises(ValueError):
        BasisSpec(mode="weird", exponents=((2,),))


def test_quartic_basis_layout_and_features():
    basis = quartic_difference_basis(1)
    assert basis.z == 3
    assert basis.exponents == ((4,), (2,), (0,))
    feats = basis.features([0.7], [0.2])
    assert np.allclose(feats, [0.5 ** 4, 0.5 ** 2, 1.0])
    two = quartic_difference_basis(2)
    assert two.z == 5
    assert two.state_dim == 2


def test_general_basis_features():
    basis = BasisSpec(mode="general", exponents=(((2,), (0,)), ((0,), (2,)),
                                                 ((1,), (1,))))
    feats = basis.features([2.0], [3.0])
    assert np.allclose(feats, [4.0, 9.0, 6.0])


def test_basis_features_broadcast():
    basis = quartic_difference_basis(1)
    x = np.linspace(-1, 1, 7).reshape(7, 1)
    xh = np.zeros((1, 1))
    out = basis.features(x[:, None, :], xh[None, :, :])
    assert out.shape == (7, 1, 3)
    assert np.allclose(out[..., 2], 1.0)


def test_basis_mapping_roundtrip():
    for basis in (quartic_difference_basis(2),
                  BasisSpec(mode="general", exponents=(((2, 0), (0, 0)),))):
        back = BasisSpec.from_mapping(basis.to_mapping())
        assert back.mode == basis.mode
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
    got = lipschitz_linear(0.5, 1.0, 0.1, 1.0, state_bound=1.0,
                           input_bound=0.2, dist_bound=1.0, sigma=0.05,
                           mu=0.5, eta=0.02)
    assert np.isclose(got, 8.0)
    # the dynamics branch alone evaluates to 4.02
    l1 = 4.0 * 1.0 * 2.0
    assert got == max(l1, 4.02) or np.isclose(got, 8.0)


def test_lipschitz_linear_zero_case_and_pd_check():
    assert lipschitz_linear(0.0, 0.0, 0.0, None, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        lipschitz_linear(0.5, 0.0, 0.0, -1.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        lipschitz_linear(0.5, 0.0, 0.0, [[1.0, 2.0], [0.0, 1.0]],
                         1.0, 1.0, 1.0, 0.0, 0.5, 0.0)


def test_lipschitz_linear_scales_with_p():
    base = lipschitz_linear(0.5, 1.0, 0.1, 1.0, 1.0, 0.2, 1.0, 0.05, 0.5, 0.0)
    doubled = lipschitz_linear(0.5, 1.0, 0.1, 2.0, 1.0, 0.2, 1.0, 0.05, 0.5, 0.0)
    assert np.isclose(doubled, 2.0 * base)


def test_lipschitz_nonlinear_worked_example():
    got = lipschitz_nonlinear(1.0, 1.0, 0.01, 1.0, state_bound=0.5,
                              dist_bound=0.5, sigma=0.025, mu=0.5, eta=0.02)
    assert np.isclose(got, 5.1105)
    assert lipschitz_nonlinear(0.0, 0.0, 0.0, None, 0.0, 0.0, 0.0, 0.0, 0.0) == 0.0


def test_lipschitz_nonlinear_monotone():
    rng = np.random.default_rng(13)
    args = rng.uniform(0.1, 2.0, size=8)
    base = lipschitz_nonlinear(args[0], args[1], args[2], None, args[3],
                               args[4], args[5], args[6], args[7])
    for k in range(8):
        bumped = args.copy()
        bumped[k] += 0.5
        more = lipschitz_nonlinear(bumped[0], bumped[1], bumped[2], None,
                                   bumped[3], bumped[4], bumped[5], bumped[6],
                                   bumped[7])
        assert more >= base - 1e-12


def test_estimate_lipschitz_data():
    sig = SystemSignature(state_dim=1, input_set=[(0.0,)], disturbance_dim=1,
                          state_box=[(-1.0, 1.0)], disturbance_box=[(-1.0, 1.0)])
    ident = BlackBoxSystem(signature=sig, oracle=lambda x, nu, d: x)
    est = estimate_lipschitz_data(ident, pairs=100, seed=0)
    assert est <= 1.5 + 1e-9
    assert est >= 1.0  # slope quotient of the identity is at most 1
    lin = BlackBoxSystem(signature=sig,
                         oracle=lambda x, nu, d: 0.9 * x + 0.05 * d)
    est = estimate_lipschitz_data(lin, pairs=400, seed=1)
    true_slope = np.linalg.norm([0.9, 0.05])
    assert est <= 1.5 * true_slope + 1e-9
    assert est >= 1.2  # converges toward 1.5 * 0.9014 from below
    with pytest.raises(ValueError):
        estimate_lipschitz_data(lin, pairs=1)


def test_lipschitz_sources_agree_with_direct_calls():
    sys = linear_system(a=0.8, gain=0.1)
    lin = LinearLipschitz(a=0.8, b=1.0, e=0.1)
    direct = lipschitz_linear(0.8, 1.0, 0.1, None, 1.0, 0.3, 1.0,
                              sigma=0.05, mu=0.5, eta=0.01)
    assert np.isclose(lin.bound(sys, sigma=0.05, mu=0.5, eta=0.01), direct)
    non = NonlinearLipschitz(j_f=2.0, j_x=1.0, j_d=0.2)
    direct = lipschitz_nonlinear(2.0, 1.0, 0.2, None, 1.0, 1.0,
                                 sigma=0.05, mu=0.5, eta=0.01)
    assert np.isclose(non.bound(sys, sigma=0.05, mu=0.5, eta=0.01), direct)
    data = DataLipschitz(pairs=50, seed=2)
    slope, j_f = data.dynamics_bounds(sys)
    assert slope <= 1.5 * np.linalg.norm([0.8, 0.1]) + 1e-9
    assert data.bound(sys, sigma=0.05, mu=0.5, eta=0.01) > 0


# ---------------------------------------------------------------- SOP


def test_sop_row_counts_and_tags():
    sys = linear_system()
    sg = make_grid(sys.signature.state_box, 0.25)   # 4 cells
    dg = make_grid(sys.signature.disturbance_box, 0.34)  # 3 cells
    samples = draw_samples(sys.signature, 5, seed=0)
    inst = assemble_sop(samples, sys, sg, dg, quartic_difference_basis(1), mu=0.5)
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
    basis = BasisSpec(mode="difference", exponents=((0,),))
    inst = assemble_sop(samples, sys, sg, dg, basis, mu=0.5)
    h1 = inst.structure.h1_rows
    a, _ = inst.gather(np.arange(h1))
    assert np.allclose(a[:, 3], -1.0)


def test_sop_rows_match_manual_recomputation():
    sys = linear_system(a=0.8, gain=0.1)
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.34)
    basis = quartic_difference_basis(1)
    samples = draw_samples(sys.signature, 6, seed=7)
    mu = 0.4
    inst = assemble_sop(samples, sys, sg, dg, basis, mu=mu)

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


@pytest.mark.parametrize("basis", [
    quartic_difference_basis(1),
    BasisSpec(mode="general", exponents=(((2,), (0,)), ((1,), (1,)),
                                         ((0,), (2,)), ((0,), (0,)))),
], ids=["difference", "general"])
def test_sop_factored_residuals_match_gathered_rows(basis):
    sys = linear_system(a=1.1, gain=0.2)
    sg = make_grid(sys.signature.state_box, 0.125)
    dg = make_grid(sys.signature.disturbance_box, 0.34)
    successor, _ = transition_table(sys, sg, dg, sys.signature.input_array())
    sink = successor == sg.total_cells
    assert sink[0].any() and sink[-1].any()  # escapes on both sides
    samples = draw_samples(sys.signature, 7, seed=3)
    inst = assemble_sop(samples, sys, sg, dg, basis, mu=0.3)
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


def test_sop_row_cap():
    from symabs.errors import CapacityError
    sys = linear_system()
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.34)
    samples = draw_samples(sys.signature, 5, seed=0)
    with pytest.raises(CapacityError):
        assemble_sop(samples, sys, sg, dg, quartic_difference_basis(1),
                     mu=0.5, row_cap=100)


# ---------------------------------------------------------------- LP


def build_tiny_instance(mu=0.5, boxes=None):
    sys = linear_system(a=0.8, gain=0.1)
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.34)
    samples = draw_samples(sys.signature, 6, seed=7)
    return assemble_sop(samples, sys, sg, dg, quartic_difference_basis(1),
                        mu=mu, boxes=boxes)


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


def test_solve_lp_lexicographic_refinement_improves_gamma():
    inst = build_tiny_instance()
    plain = solve_lp(inst, lexicographic=False)
    refined = solve_lp(inst, lexicographic=True)
    assert np.isclose(plain.xi_star, refined.xi_star, atol=1e-7)
    # refinement never worsens the slack and can only raise gamma
    assert refined.decision.gamma >= plain.decision.gamma - 1e-9
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
    assert np.isclose(back.confidence, 1.0 - 1e-4)
    assert np.isclose(back.value([0.3], [0.1]), 1.0 * 0.2 ** 4 + 2.0 * 0.2 ** 2 + 3.0)


def test_certificate_validation():
    with pytest.raises(ValueError):
        ApbfCertificate(gamma=1.0, mu=1.5, eta=0.0, theta=0.0, beta=0.01,
                        certified=False, margin=1.0)
    with pytest.raises(ValueError):
        ApbfCertificate(gamma=1.0, mu=0.5, eta=0.0, theta=0.0, beta=0.0,
                        certified=False, margin=1.0)


def test_certify_apbf_small_system_fields_consistent():
    sys = linear_system(a=0.5, gain=0.05, inputs=((0.0,),))
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.5)
    basis = quartic_difference_basis(1)
    cert = certify_apbf(sys, sg, dg, basis, mu_grid=(0.5, 0.7), eps=0.3,
                        beta=0.1, lipschitz=LinearLipschitz(a=0.5, b=0.0, e=0.05),
                        seed=5)
    q = min_sample_size([0.3, 0.3], 0.1, basis.z + 4)
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


def test_certify_apbf_rejects_wrong_sample_count():
    sys = linear_system(a=0.5, gain=0.05, inputs=((0.0,),))
    sg = make_grid(sys.signature.state_box, 0.25)
    dg = make_grid(sys.signature.disturbance_box, 0.5)
    basis = quartic_difference_basis(1)
    bad = draw_samples(sys.signature, 11, seed=0)
    with pytest.raises(ValueError, match="sample batch"):
        certify_apbf(sys, sg, dg, basis, mu_grid=(0.5,), eps=0.3, beta=0.1,
                     lipschitz=LinearLipschitz(a=0.5), samples=bad)


def test_sample_batch_accessors():
    pts = np.arange(12.0).reshape(4, 3)
    batch = SampleBatch(seed=0, state_dim=1, dist_dim=2, points=pts)
    assert batch.count == 4
    assert np.allclose(batch.states[:, 0], [0.0, 3.0, 6.0, 9.0])
    assert batch.disturbances.shape == (4, 2)
