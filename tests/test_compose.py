import itertools
import math

import numpy as np
import pytest

from symabs.compose import (
    GainMatrix,
    ScalingVector,
    build_gain_matrix,
    check_circularity,
    compose_abf,
    find_scalings,
)
from symabs.errors import CompositionError
from symabs.model import InterconnectionTopology
from symabs.scenario import ApbfCertificate, quartic_difference_basis


def make_cert(gamma=5.8, mu=0.995, eta=0.02, theta=0.4051, beta=1e-4,
              certified=True, phi=(0.0, 1.0, 0.0)):
    return ApbfCertificate(gamma=gamma, mu=mu, eta=eta, theta=theta, beta=beta,
                           certified=certified, margin=-0.01 if certified else 0.5,
                           state_dim=1, basis=quartic_difference_basis(1),
                           phi=phi)


def ring_topology(m):
    return InterconnectionTopology(
        wiring=tuple(((i - 1) % m, (i + 1) % m) for i in range(m)))


def test_build_gain_matrix_entries():
    certs = [make_cert(gamma=2.0, eta=0.5), make_cert(gamma=4.0, eta=1.0),
             make_cert(gamma=8.0, eta=2.0)]
    topo = InterconnectionTopology(wiring=((1,), (2,), ()))
    g = build_gain_matrix(certs, topo)
    assert g.size == 3
    assert np.isclose(g.entries[0, 0], 0.995)
    assert np.isclose(g.entries[0, 1], 0.5 / 4.0)
    assert np.isclose(g.entries[1, 2], 1.0 / 8.0)
    assert g.entries[2, 0] == 0.0  # unwired pairs carry no gain
    assert g.entries[1, 0] == 0.0
    assert g.entries[0, 1] == 0.125


def test_build_gain_matrix_rejects_uncertified():
    certs = [make_cert(), make_cert(certified=False)]
    topo = InterconnectionTopology(wiring=((1,), (0,)))
    with pytest.raises(CompositionError):
        build_gain_matrix(certs, topo)
    with pytest.raises(ValueError):
        build_gain_matrix(certs[:1], topo)


def test_circularity_diagonal_at_least_one_fails():
    g = GainMatrix(entries=np.array([[1.0, 0.0], [0.0, 0.5]]))
    res = check_circularity(g)
    assert not res.ok
    assert res.witness == (0,)
    assert res.witness_product >= 1.0


def test_circularity_all_entries_small_fast_path():
    ent = np.array([[0.9, 0.05, 0.0],
                    [0.0, 0.9, 0.05],
                    [0.05, 0.0, 0.9]])
    res = check_circularity(GainMatrix(entries=ent))
    assert res.ok
    assert res.witness is None
    assert np.isclose(res.max_entry, 0.9)
    assert res.worst_pair_product == 0.0  # no mutually wired pair


def test_circularity_two_cycle_witness():
    # 2-cycle product 3 * 0.4 = 1.2 >= 1 with large single entries
    ent = np.array([[0.5, 3.0], [0.4, 0.5]])
    res = check_circularity(GainMatrix(entries=ent))
    assert not res.ok
    assert np.isclose(res.worst_pair_product, 1.2)
    assert set(res.witness) == {0, 1}
    assert np.isclose(res.witness_product, 1.2)


def test_circularity_exactly_tight_cycle_fails():
    # product exactly 1 around the 2-cycle: not allowed (needs < 1)
    ent = np.array([[0.1, 2.0], [0.5, 0.1]])
    res = check_circularity(GainMatrix(entries=ent))
    assert not res.ok
    assert np.isclose(res.witness_product, 1.0)


def test_circularity_long_cycle_detected():
    m = 6
    ent = np.zeros((m, m))
    for i in range(m):
        ent[i, (i + 1) % m] = 1.3  # 1.3^6 > 1
        ent[i, i] = 0.1
    res = check_circularity(GainMatrix(entries=ent))
    assert not res.ok
    assert len(res.witness) == m
    assert res.witness_product >= 1.0


def _has_cycle_at_least_one(ent):
    """Enumerate every simple cycle, each once from its smallest node."""
    m = ent.shape[0]
    for length in range(1, m + 1):
        for cyc in itertools.permutations(range(m), length):
            if cyc[0] != min(cyc):
                continue
            prod = 1.0
            for k, node in enumerate(cyc):
                prod *= ent[node, cyc[(k + 1) % length]]
            if prod >= 1.0:
                return True
    return False


def _oracle_graph(rng):
    m = int(rng.integers(1, 6))
    ent = np.zeros((m, m))
    for i in range(m):
        ent[i, i] = rng.choice([0.0, rng.uniform(0.05, 0.95),
                                rng.uniform(0.9, 1.1), 1.0])
    for _ in range(int(rng.integers(0, 2 * m + 1))):
        i, j = rng.integers(0, m, size=2)
        if i != j:
            ent[i, j] = rng.uniform(0.1, 1.6)
    nodes = rng.permutation(m)
    if m >= 2 and rng.random() < 0.3:  # 2-cycle with product exactly 1
        i, j = nodes[:2]
        k = int(rng.integers(1, 4))
        ent[i, j], ent[j, i] = 2.0 ** k, 2.0 ** -k
    if m >= 3 and rng.random() < 0.3:  # 3-cycle with product exactly 1
        i, j, k = nodes[:3]
        ent[i, j], ent[j, k], ent[k, i] = 4.0, 0.5, 0.5
    return ent


def test_circularity_random_instances_agree_with_products():
    # the verdict against enumeration of every simple cycle
    rng = np.random.default_rng(2024)
    verdicts = set()
    for _ in range(600):
        ent = _oracle_graph(rng)
        res = check_circularity(GainMatrix(entries=ent))
        assert res.ok == (not _has_cycle_at_least_one(ent)), ent
        verdicts.add(res.ok)
        if res.ok:
            assert res.witness is None and res.witness_product is None
            sv = find_scalings(GainMatrix(entries=ent))
            ratios = ent * sv.kappa[None, :] / sv.kappa[:, None]
            assert float(ratios[ent > 0].max(initial=0.0)) < 1.0
            assert sv.kappa.min() == 1.0
            continue
        cyc = res.witness
        assert all(type(v) is int for v in cyc)  # JSON-serialisable
        assert len(set(cyc)) == len(cyc)  # a simple cycle
        prod = 1.0
        for k, node in enumerate(cyc):
            prod *= ent[node, cyc[(k + 1) % len(cyc)]]
        assert prod == res.witness_product
        assert prod >= 1.0
        with pytest.raises(CompositionError):
            find_scalings(GainMatrix(entries=ent))
    assert verdicts == {True, False}


def test_find_scalings_uniform_ring_keeps_kappa_one():
    certs = [make_cert() for _ in range(10)]
    topo = ring_topology(10)
    g = build_gain_matrix(certs, topo)
    sv = find_scalings(g)
    assert np.allclose(sv.kappa, 1.0)
    assert sv.max_ratio < 1.0
    ratios = g.entries * sv.kappa[None, :] / sv.kappa[:, None]
    mask = g.entries > 0
    assert np.isclose(float(ratios[mask].max()), sv.max_ratio)


def test_find_scalings_chain_needs_nontrivial_kappa():
    # mu_12 = 2 forces kappa_1 / kappa_2 > 2 on the chain 1 <- 2
    ent = np.array([[0.5, 2.0], [0.0, 0.5]])
    sv = find_scalings(GainMatrix(entries=ent))
    assert sv.max_ratio < 1.0
    assert sv.kappa[0] / sv.kappa[1] > 2.0
    assert sv.kappa.min() == 1.0


def test_find_scalings_rejects_violated_circularity():
    ent = np.array([[0.5, 3.0], [0.4, 0.5]])
    with pytest.raises(CompositionError):
        find_scalings(GainMatrix(entries=ent))
    with pytest.raises(ValueError):
        find_scalings(GainMatrix(entries=np.array([[0.5]])), slack=0.0)


def test_find_scalings_tight_cycle_is_feasible():
    # off-diagonal entries above 1 with 2-cycle product 2.0 * 0.4 = 0.8 < 1:
    # feasible, though the uniform scaling is not (it leaves the ratio 2.0)
    ent = np.array([[0.1, 2.0], [0.4, 0.1]])
    sv = find_scalings(GainMatrix(entries=ent))
    assert sv.max_ratio < 1.0


def test_compose_abf_formulas():
    certs = [make_cert(gamma=2.0, mu=0.9, eta=0.1, theta=1.0, beta=1e-3),
             make_cert(gamma=8.0, mu=0.8, eta=0.4, theta=2.0, beta=1e-3)]
    topo = InterconnectionTopology(wiring=((1,), (0,)))
    g = build_gain_matrix(certs, topo)
    sv = find_scalings(g)
    composed = compose_abf(certs, sv)
    kap = sv.kappa
    assert np.isclose(composed.gamma,
                      1.0 / max(kap[0] / 2.0, kap[1] / 8.0))
    assert np.isclose(composed.theta, max(1.0 / kap[0], 2.0 / kap[1]))
    ratios = g.entries * kap[None, :] / kap[:, None]
    assert np.isclose(composed.mu, float(ratios[g.entries > 0].max()))
    assert 0.0 < composed.mu < 1.0
    assert np.isclose(composed.confidence, 1.0 - 2e-3)
    assert tuple(c.state_dim for c in composed.certs) == (1, 1)


def test_compose_abf_value_is_scaled_max():
    certs = [make_cert(phi=(0.0, 1.0, 0.0)), make_cert(phi=(0.0, 4.0, 0.0))]
    sv = ScalingVector(kappa=np.array([1.0, 2.0]), max_ratio=0.5,
                       gains=GainMatrix(entries=np.array([[0.5, 0.0],
                                                          [0.0, 0.5]])))
    composed = compose_abf(certs, sv)
    # S_1 = dx^2, S_2 = 4 dx^2; V = max(S_1/1, S_2/2)
    v = composed.value([0.3, 0.1], [0.1, 0.0])
    assert np.isclose(v, max(0.2 ** 2, 4.0 * 0.1 ** 2 / 2.0))
    with pytest.raises(ValueError):
        composed.value([0.3], [0.1, 0.0])


def test_compose_abf_rejects_uncertified_and_degenerate_beta():
    sv = ScalingVector(kappa=np.array([1.0]), max_ratio=0.5,
                       gains=GainMatrix(entries=np.array([[0.5]])))
    with pytest.raises(CompositionError):
        compose_abf([make_cert(certified=False)], sv)
    bad = [make_cert(beta=0.6)]
    sv2 = ScalingVector(kappa=np.array([1.0, 1.0]), max_ratio=0.5,
                        gains=GainMatrix(entries=0.5 * np.eye(2)))
    with pytest.raises(CompositionError):
        compose_abf([make_cert(beta=0.6), make_cert(beta=0.6)], sv2)
    with pytest.raises(ValueError):
        compose_abf(bad, sv2)


def test_relation_eps_tilde_and_membership():
    certs = [make_cert(gamma=5.8, theta=0.4051)]
    sv = ScalingVector(kappa=np.array([1.0]), max_ratio=0.995,
                       gains=GainMatrix(entries=np.array([[0.995]])))
    rel = compose_abf(certs, sv)
    assert np.isclose(rel.eps_tilde, math.sqrt(0.4051 / 5.8))
    assert np.isclose(rel.eps_tilde, 0.2643, atol=1e-4)
    # membership: V(x, xhat) <= theta; with S = dx^2 that is |dx| <= sqrt(theta)
    assert rel.contains([0.2], [0.0])
    assert not rel.contains([0.9], [0.0])
    comp = rel.component(0)
    assert comp.index == 0
    assert np.isclose(comp.eps_tilde, rel.eps_tilde)
    assert comp.contains([0.2], [0.0])


def test_relation_membership_bounds_every_block():
    # the scores here satisfy S_i >= gamma_i dx^2 by construction, so
    # membership must bound each subsystem block by eps_tilde
    rng = np.random.default_rng(77)
    certs = [make_cert(gamma=2.0, theta=0.5, phi=(0.3, 2.0, 0.0)),
             make_cert(gamma=3.0, theta=0.5, phi=(0.1, 3.0, 0.0))]
    sv = find_scalings(GainMatrix(entries=np.array([[0.5, 0.2], [0.1, 0.5]])))
    rel = compose_abf(certs, sv)
    checked = 0
    for _ in range(3000):
        x = rng.uniform(-1.0, 1.0, size=2)
        xh = rng.uniform(-1.0, 1.0, size=2)
        if rel.contains(x, xh):
            checked += 1
            assert np.max(np.abs(x - xh)) <= rel.eps_tilde + 1e-9
    assert checked > 50  # the relation is not vacuous on this domain


def test_composed_relation_rejects_negative_theta():
    sv = ScalingVector(kappa=np.array([1.0]), max_ratio=0.5,
                       gains=GainMatrix(entries=np.array([[0.5]])))
    with pytest.raises(ValueError):
        compose_abf([make_cert(theta=-0.1)], sv)


def test_gain_matrix_validation():
    with pytest.raises(ValueError):
        GainMatrix(entries=np.array([[0.1, 0.2]]))
    with pytest.raises(ValueError):
        GainMatrix(entries=np.array([[-0.1]]))
    with pytest.raises(ValueError):
        ScalingVector(kappa=np.array([0.0]), max_ratio=0.5,
                      gains=GainMatrix(entries=np.array([[0.5]])))
