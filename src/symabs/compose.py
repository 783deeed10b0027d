"""Network-level composition of per-subsystem certificates.

Each certified subsystem contributes a score function S_i with gains
(gamma_i, mu_i, eta_i, theta_i).  Wiring subsystem j's state into subsystem
i's disturbance couples their scores with gain mu_ij = eta_i / gamma_j.  When
every directed cycle of the gain graph has product < 1, scalings kappa_i exist
with max mu_ij kappa_j / kappa_i < 1, and V(x, xhat) = max_i S_i / kappa_i is
a contraction certificate for the whole network.  Its (gamma, theta) induce
the eps-approximate relation V <= theta with eps = sqrt(theta / gamma).

Cycle analysis runs in log-space: a product->=1 cycle exists iff the digraph
weighted by -log mu_ij has a cycle with non-positive weight sum, detected by
Bellman-Ford relaxation plus a tight-edge sweep for exactly-zero cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CompositionError
from .model import InterconnectionTopology
from .scenario import ApbfCertificate

Array = np.ndarray

_EDGE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GainMatrix:
    """M x M inter-subsystem gains; entry 0 means no edge."""

    entries: Array

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=float)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError("gain matrix must be square")
        if np.any(ent < 0) or not np.all(np.isfinite(ent)):
            raise ValueError("gains must be finite and non-negative")
        object.__setattr__(self, "entries", ent)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def edges(self):
        """(i, j, mu_ij) for every present edge, row-major."""
        idx = np.argwhere(self.entries > 0.0)
        return [(int(i), int(j), float(self.entries[i, j])) for i, j in idx]


def build_gain_matrix(certs, topology: InterconnectionTopology) -> GainMatrix:
    """mu_ii = mu_i; mu_ij = eta_i / gamma_j for wired pairs (j feeding i)."""
    certs = list(certs)
    if len(certs) != topology.num_subsystems:
        raise ValueError("need one certificate per subsystem")
    for k, cert in enumerate(certs):
        if not cert.certified:
            raise CompositionError(f"subsystem {k} is not certified")
        if cert.gamma <= 0:
            raise CompositionError(f"subsystem {k} has non-positive gamma")
    m = len(certs)
    entries = np.zeros((m, m))
    for i in range(m):
        entries[i, i] = certs[i].mu
        for j in topology.wiring[i]:
            entries[i, j] = certs[i].eta / certs[j].gamma
    return GainMatrix(entries=entries)


@dataclass(frozen=True, eq=False)
class CircularityResult:
    """ok means every directed cycle of the gain graph has product < 1.
    On failure, witness lists the cycle's nodes in edge order and
    witness_product its recomputed gain product (>= 1).  worst_pair_product
    is the largest 2-cycle product over mutually wired pairs (0 when none)."""

    ok: bool
    witness: tuple | None
    witness_product: float | None
    worst_pair_product: float
    max_entry: float


def _cycle_product(entries: Array, cycle) -> float:
    prod = 1.0
    for k, node in enumerate(cycle):
        prod *= entries[node, cycle[(k + 1) % len(cycle)]]
    return prod


def _bellman_ford(m: int, edges, weights):
    """Distances from a virtual source (0 to every node).  Returns
    (dist, pred, relaxable edge index or None)."""
    dist = np.zeros(m)
    pred = [-1] * m
    for _ in range(m):
        changed = False
        for k, (u, v) in enumerate(edges):
            cand = dist[u] + weights[k]
            if cand < dist[v] - _EDGE_TOL:
                dist[v] = cand
                pred[v] = u
                changed = True
        if not changed:
            return dist, pred, None
    for k, (u, v) in enumerate(edges):
        if dist[u] + weights[k] < dist[v] - _EDGE_TOL:
            pred[v] = u
            return dist, pred, k
    return dist, pred, None


def _walk_cycle(pred, start: int, m: int) -> tuple | None:
    # After m relaxation rounds, walking predecessors from the relaxable edge
    # head lands inside the offending cycle; extract it by first repeat.
    node = start
    for _ in range(m):
        if pred[node] < 0:
            break
        node = pred[node]
    seen = {}
    order = []
    cur = node
    while cur not in seen:
        if cur < 0 or pred[cur] < 0:
            return None
        seen[cur] = len(order)
        order.append(cur)
        cur = pred[cur]
    cycle = order[seen[cur]:]
    cycle.reverse()  # pred chain runs against edge direction
    return tuple(cycle)


def _tight_cycle(m: int, edges, weights, dist) -> tuple | None:
    """Any directed cycle among edges with dist[u] + w == dist[v]; such cycles
    have weight sum exactly 0 (gain product exactly 1)."""
    adj = [[] for _ in range(m)]
    for k, (u, v) in enumerate(edges):
        if abs(dist[u] + weights[k] - dist[v]) <= _EDGE_TOL * max(1.0, abs(dist[v])):
            adj[u].append(v)
    color = [0] * m  # 0 unvisited, 1 on stack, 2 done
    stack_pos: dict[int, int] = {}

    def dfs(root: int):
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        stack_pos[root] = 0
        order = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return tuple(order[stack_pos[nxt]:])
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack_pos[nxt] = len(order)
                    order.append(nxt)
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                order.pop()
                del stack_pos[node]
                stack.pop()
        return None

    for root in range(m):
        if color[root] == 0:
            found = dfs(root)
            if found is not None:
                return found
    return None


def check_circularity(gains: GainMatrix) -> CircularityResult:
    """Pass iff every directed cycle of the gain graph has product < 1."""
    ent = gains.entries
    m = gains.size
    off = ent * (ent.T > 0)
    pair = off * off.T
    np.fill_diagonal(pair, 0.0)
    worst_pair = float(pair.max()) if m > 1 else 0.0
    max_entry = float(ent.max()) if ent.size else 0.0

    for i in range(m):
        if ent[i, i] >= 1.0:
            return CircularityResult(ok=False, witness=(i,),
                                     witness_product=float(ent[i, i]),
                                     worst_pair_product=worst_pair,
                                     max_entry=max_entry)
    if max_entry < 1.0:
        # Every cycle product is a product of numbers < 1.
        return CircularityResult(ok=True, witness=None, witness_product=None,
                                 worst_pair_product=worst_pair,
                                 max_entry=max_entry)

    edges = [(u, v) for u, v in np.argwhere(ent > 0.0) if u != v]
    weights = [-math.log(ent[u, v]) for u, v in edges]
    dist, pred, bad = _bellman_ford(m, edges, weights)
    if bad is not None:
        cycle = _walk_cycle(pred, edges[bad][1], m)
        product = _cycle_product(ent, cycle) if cycle else None
        return CircularityResult(ok=False, witness=cycle,
                                 witness_product=product,
                                 worst_pair_product=worst_pair,
                                 max_entry=max_entry)
    cycle = _tight_cycle(m, edges, weights, dist)
    if cycle is not None:
        return CircularityResult(ok=False, witness=cycle,
                                 witness_product=_cycle_product(ent, cycle),
                                 worst_pair_product=worst_pair,
                                 max_entry=max_entry)
    return CircularityResult(ok=True, witness=None, witness_product=None,
                             worst_pair_product=worst_pair, max_entry=max_entry)


@dataclass(frozen=True, eq=False)
class ScalingVector:
    """Per-subsystem scalings with max_{edges} mu_ij kappa_j / kappa_i < 1."""

    kappa: Array
    max_ratio: float
    gains: GainMatrix

    def __post_init__(self):
        kap = np.asarray(self.kappa, dtype=float)
        if np.any(kap <= 0):
            raise ValueError("scalings must be positive")
        object.__setattr__(self, "kappa", kap)

    @property
    def slack(self) -> float:
        return 1.0 - self.max_ratio

    def ratio_matrix(self) -> Array:
        kap = self.kappa
        return self.gains.entries * kap[None, :] / kap[:, None]


def _scaled_max_ratio(gains: GainMatrix, kappa: Array) -> float:
    ent = gains.entries
    mask = ent > 0.0
    if not mask.any():
        return 0.0
    ratios = ent * kappa[None, :] / kappa[:, None]
    return float(ratios[mask].max())


def find_scalings(gains: GainMatrix, slack: float = 1e-6) -> ScalingVector:
    """Solve s_j - s_i <= -log mu_ij - slack' (s = log kappa) by shortest
    paths from a virtual source; slack' halves from the requested slack until
    feasible (floor 1e-12), then kappa = exp(s) normalized to min 1."""
    if not 0.0 < slack < 1.0:
        raise ValueError("slack must lie in (0,1)")
    ent = gains.entries
    m = gains.size
    edge_list = [(int(u), int(v)) for u, v in np.argwhere(ent > 0.0)]
    # Difference constraint for edge gain mu_uv: s_v - s_u <= -log mu_uv - d.
    base = [-math.log(ent[u, v]) for u, v in edge_list]

    # Tight (zero-weight) cycles are feasible here: the constraints hold with
    # equality and every on-cycle ratio equals exp(-delta) < 1.
    delta = slack
    while True:
        weights = [w - delta for w in base]
        dist, _, bad = _bellman_ford(m, edge_list, weights)
        if bad is None:
            break
        if delta <= 1e-12:
            raise CompositionError(
                "no feasible scalings; the circularity condition is violated "
                "or holds only marginally")
        delta = max(delta / 2.0, 1e-12)

    kappa = np.exp(dist - dist.min())
    ratio = _scaled_max_ratio(gains, kappa)
    if ratio >= 1.0:
        raise CompositionError(
            f"scaling verification failed: achieved ratio {ratio} >= 1")
    return ScalingVector(kappa=kappa, max_ratio=ratio, gains=gains)


@dataclass(frozen=True, eq=False)
class ComposedAbf:
    """Network-level contraction certificate V(x, xhat) = max_i S_i / kappa_i."""

    certs: tuple
    scalings: ScalingVector
    gamma: float
    mu: float
    theta: float
    confidence: float

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError("composed mu must lie in (0,1)")

    @property
    def state_dims(self) -> tuple:
        return tuple(cert.state_dim for cert in self.certs)

    def value(self, x, xhat) -> float:
        """V(x, xhat) over stacked network states."""
        x = np.asarray(x, dtype=float).ravel()
        xhat = np.asarray(xhat, dtype=float).ravel()
        best = -np.inf
        offset = 0
        for cert, kap in zip(self.certs, self.scalings.kappa):
            dim = cert.state_dim
            val = float(cert.value(x[offset:offset + dim],
                                   xhat[offset:offset + dim])) / kap
            best = max(best, val)
            offset += dim
        if offset != x.size or offset != xhat.size:
            raise ValueError("state dimension does not match the certificates")
        return best


def compose_abf(certs, scalings: ScalingVector) -> ComposedAbf:
    """Combine per-subsystem gains through the scalings; confidence is the
    union bound 1 - sum beta_i."""
    certs = tuple(certs)
    kappa = scalings.kappa
    if len(certs) != kappa.size:
        raise ValueError("need one certificate per scaling entry")
    for k, cert in enumerate(certs):
        if not cert.certified:
            raise CompositionError(f"subsystem {k} is not certified")
    gamma = 1.0 / max(kappa[i] / certs[i].gamma for i in range(len(certs)))
    mu = _scaled_max_ratio(scalings.gains, kappa)
    theta = max(certs[i].theta / kappa[i] for i in range(len(certs)))
    beta_sum = math.fsum(cert.beta for cert in certs)
    if beta_sum >= 1.0:
        raise CompositionError(
            f"aggregate failure probability {beta_sum} >= 1; confidence degenerate")
    return ComposedAbf(certs=certs, scalings=scalings, gamma=gamma, mu=mu,
                       theta=theta, confidence=1.0 - beta_sum)


@dataclass(frozen=True, eq=False)
class ComponentRelation:
    """Restriction of the network relation to one subsystem: membership
    S_i(x, xhat)/kappa_i <= theta with effective lower gain gamma_i/kappa_i."""

    index: int
    theta: float
    gamma: float
    kappa: float
    cert: ApbfCertificate

    @property
    def eps_tilde(self) -> float:
        return math.sqrt(self.theta / self.gamma)

    def value(self, x, xhat) -> Array:
        """S_i(x, xhat) / kappa_i; broadcasts over leading axes of x and
        xhat like the certificate's score, so a stack of representatives
        of shape (n, dim) gives n values."""
        return self.cert.value(x, xhat) / self.kappa

    def contains(self, x, xhat) -> bool:
        return bool(self.value(x, xhat) <= self.theta)


@dataclass(frozen=True, eq=False)
class SimulationRelation:
    """(x, xhat) related iff V(x, xhat) <= theta.

    Membership bounds every subsystem block: ||x_i - xhat_i|| <= eps_tilde,
    because V dominates each S_i / kappa_i and gamma is the worst-case
    gamma_i / kappa_i.  The stacked Euclidean distance can exceed eps_tilde.
    """

    theta: float
    gamma: float
    abf: ComposedAbf

    def __post_init__(self):
        if self.theta < 0 or self.gamma <= 0:
            raise ValueError("need theta >= 0 and gamma > 0")

    @property
    def eps_tilde(self) -> float:
        return math.sqrt(self.theta / self.gamma)

    def value(self, x, xhat) -> float:
        return self.abf.value(x, xhat)

    def contains(self, x, xhat) -> bool:
        return self.value(x, xhat) <= self.theta

    def component(self, i: int) -> ComponentRelation:
        cert = self.abf.certs[i]
        kap = float(self.abf.scalings.kappa[i])
        return ComponentRelation(index=i, theta=self.theta,
                                 gamma=cert.gamma / kap, kappa=kap, cert=cert)


def relation(composed: ComposedAbf) -> SimulationRelation:
    return SimulationRelation(theta=composed.theta, gamma=composed.gamma,
                              abf=composed)
