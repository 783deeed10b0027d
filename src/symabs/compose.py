"""Network-level composition of per-subsystem certificates.

Each certified subsystem contributes a score function S_i with gains
(gamma_i, mu_i, eta_i, theta_i).  Wiring subsystem j's state into subsystem
i's disturbance couples their scores with gain mu_ij = eta_i / gamma_j.  When
every directed cycle of the gain graph has product < 1, scalings kappa_i exist
with max mu_ij kappa_j / kappa_i < 1, and V(x, xhat) = max_i S_i / kappa_i is
a contraction certificate for the whole network.  Its (gamma, theta) induce
the relation V <= theta, whose members are eps-close in every subsystem
block with eps = sqrt(theta / gamma).

The cycle condition and the scalings are one fact in log space: with
s = log kappa, the difference constraints s_j - s_i <= -log mu_ij - delta
are feasible for some delta > 0 iff no cycle has product >= 1.  One
shortest-path routine, `_potentials`, decides both: shortest distances from
a virtual source are feasible s, and a negative cycle is the violating
cycle.  The check shifts every weight down by `_TOL`, so a cycle whose
product is exactly 1 becomes negative and fails; `find_scalings` never
shifts by less than that, so a passing check always has scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CompositionError
from .model import InterconnectionTopology
from .scenario import ApbfCertificate

Array = np.ndarray

_TOL = 1e-12


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


def _log_weights(entries: Array) -> Array:
    """-log mu_ij as edge weights; inf where there is no edge."""
    with np.errstate(divide="ignore"):
        return -np.log(entries)


def _potentials(weights: Array):
    """Bellman-Ford from a virtual source with a 0-weight edge to every node,
    over the dense m x m matrix weights[u, v] of edge u -> v (inf: no edge).

    Returns (dist, None) when no cycle is negative, else (None, cycle) with
    the cycle's nodes in edge order.  A node still relaxed in round m lies
    downstream of a negative cycle of the predecessor graph; walking m
    predecessors back from it lands on that cycle."""
    m = weights.shape[0]
    cols = np.arange(m)
    dist = np.zeros(m)
    pred = np.full(m, -1)
    relaxed = np.zeros(m, dtype=bool)
    for _ in range(m):
        cand = dist[:, None] + weights
        best = cand.argmin(axis=0)
        new = cand[best, cols]
        relaxed = new < dist
        if not relaxed.any():
            break
        dist = np.where(relaxed, new, dist)
        pred = np.where(relaxed, best, pred)
    if not relaxed.any():
        return dist, None
    node = int(np.argmax(relaxed))
    for _ in range(m):
        node = int(pred[node])
    cycle = [node]
    while int(pred[cycle[-1]]) != node:
        cycle.append(int(pred[cycle[-1]]))
    return None, tuple(reversed(cycle))  # pred runs against edge direction


@dataclass(frozen=True, eq=False)
class CircularityResult:
    """ok means every directed cycle of the gain graph has product < 1.
    On failure, witness lists the cycle's nodes in edge order and
    witness_product its recomputed gain product (>= 1 up to the check's
    tolerance).  worst_pair_product is the largest 2-cycle product over
    mutually wired pairs (0 when none)."""

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


def check_circularity(gains: GainMatrix) -> CircularityResult:
    """Pass iff every directed cycle of the gain graph has product < 1."""
    ent = gains.entries
    off = ent * (ent.T > 0)
    pair = off * off.T
    np.fill_diagonal(pair, 0.0)
    _, cycle = _potentials(_log_weights(ent) - _TOL)
    return CircularityResult(
        ok=cycle is None, witness=cycle,
        witness_product=None if cycle is None else _cycle_product(ent, cycle),
        worst_pair_product=float(pair.max()) if gains.size > 1 else 0.0,
        max_entry=float(ent.max()) if ent.size else 0.0)


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


def _scaled_max_ratio(gains: GainMatrix, kappa: Array) -> float:
    ent = gains.entries
    mask = ent > 0.0
    if not mask.any():
        return 0.0
    ratios = ent * kappa[None, :] / kappa[:, None]
    return float(ratios[mask].max())


def find_scalings(gains: GainMatrix, slack: float = 1e-6) -> ScalingVector:
    """Solve s_j - s_i <= -log mu_ij - delta (s = log kappa) by shortest
    paths from a virtual source; delta halves from the requested slack until
    feasible (floor `_TOL`), then kappa = exp(s) normalized to min 1.

    A cycle whose product is exactly 1 has no scalings here, as in the
    check: at every delta its constraints sum to a contradiction."""
    if not 0.0 < slack < 1.0:
        raise ValueError("slack must lie in (0,1)")
    base = _log_weights(gains.entries)
    delta = slack
    while True:
        dist, _ = _potentials(base - delta)
        if dist is not None:
            break
        if delta <= _TOL:
            raise CompositionError(
                "no feasible scalings; the circularity condition is violated "
                "or holds only marginally")
        delta = max(delta / 2.0, _TOL)

    kappa = np.exp(dist - dist.min())
    ratio = _scaled_max_ratio(gains, kappa)
    if ratio >= 1.0:
        raise CompositionError(
            f"scaling verification failed: achieved ratio {ratio} >= 1")
    return ScalingVector(kappa=kappa, max_ratio=ratio, gains=gains)


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
class ComposedAbf:
    """Network-level contraction certificate V(x, xhat) = max_i S_i / kappa_i
    and its relation: (x, xhat) related iff V(x, xhat) <= theta.

    Membership bounds every subsystem block: ||x_i - xhat_i|| <= eps_tilde,
    because V dominates each S_i / kappa_i and gamma is the worst-case
    gamma_i / kappa_i.  The stacked Euclidean distance can exceed eps_tilde.
    """

    certs: tuple
    scalings: ScalingVector
    gamma: float
    mu: float
    theta: float
    confidence: float

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError("composed mu must lie in (0,1)")
        if self.theta < 0 or self.gamma <= 0:
            raise ValueError("need theta >= 0 and gamma > 0")

    @property
    def eps_tilde(self) -> float:
        return math.sqrt(self.theta / self.gamma)

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

    def contains(self, x, xhat) -> bool:
        return self.value(x, xhat) <= self.theta

    def component(self, i: int) -> ComponentRelation:
        cert = self.certs[i]
        kap = float(self.scalings.kappa[i])
        return ComponentRelation(index=i, theta=self.theta,
                                 gamma=cert.gamma / kap, kappa=kap, cert=cert)


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
