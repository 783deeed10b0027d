"""Scenario-based certification of abstraction score functions.

The goal is a score function S(x, xhat) = sum_j phi_j g_j(x, xhat) relating a
black-box subsystem to its grid abstraction, with
    gamma ||x - xhat||^2 <= S(x, xhat)
    S(f(x,nu,d), fhat(xhat,nu,dhat)) <= max{mu S(x,xhat), eta ||d-dhat||^2, theta}.
Both conditions are linear in the unknowns (gamma, eta~, theta~, phi) once the
contraction level mu~ is fixed, so sampled one-step data turns them into a
finite LP (the scenario program): minimize the slack xi over all sampled rows.
A Lipschitz constant of the row functions and a geometric radius kappa^{-1}(eps)
then inflate the optimum xi* into a margin; margin <= 0 certifies the score
function over the whole domain with confidence 1 - beta, using the minimal
sample count Q from the binomial-tail bound.

Euclidean norms are used inside all row functions and Lipschitz formulas; the
grid quantizer itself is an infinity-norm object (see module quantize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import CapacityError, DomainError, SolverError
from .model import BlackBoxSystem, SystemSignature, is_integer
# abstract_transition is no longer called here; the import is kept because
# bench/tracing.py wraps it by this module attribute.
from .quantize import (DEFAULT_TABLE_CAP, TABLE_NAME, UniformGrid,
                       abstract_transition, check_table_cap, transition_table)
from .simplex import scan_above, solve_with_rows

Array = np.ndarray

SAMPLE_CAP = 10_000_000
# (pair, cell) entries per slice of the presence mask from which SopInstance
# finds its bound columns; a whole mask would hold pairs x cells entries.
FACTOR_SLICE = 1 << 14


# ----------------------------------------------------------------------------
# Score-function basis
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisSpec:
    """The quartic-difference basis for S(x, xhat) on state_dim coordinates:
    with d = x - xhat, the features are d_k^4 and d_k^2 for each coordinate
    k, then a constant, so z = 2 * state_dim + 1.  Every feature is
    sign-stable and monotone in |d_k|."""

    state_dim: int

    @property
    def z(self) -> int:
        return 2 * self.state_dim + 1

    @property
    def exponents(self) -> tuple:
        """One row per feature: its exponent of each d_k, in feature order."""
        rows = []
        for k in range(self.state_dim):
            for power in (4, 2):
                row = [0] * self.state_dim
                row[k] = power
                rows.append(tuple(row))
        rows.append((0,) * self.state_dim)
        return tuple(rows)

    def features(self, x, xhat) -> Array:
        """Evaluate all g_j; broadcasts over leading axes, returns (..., z)."""
        d = np.asarray(x, dtype=float) - np.asarray(xhat, dtype=float)
        if d.shape[-1:] != (self.state_dim,):
            raise ValueError(f"points need {self.state_dim} coordinates, as "
                             f"the basis has")
        out = np.empty(d.shape[:-1] + (self.z,))
        out[..., 0:-1:2] = d ** 4.0
        # An array exponent, not d * d: numpy raises it with its vectorised
        # pow, whose square differs from d * d in the last bit for some
        # values, and every certificate so far was computed with it.
        out[..., 1:-1:2] = d ** np.full(d.shape, 2.0)
        out[..., -1] = 1.0
        return out

    def to_mapping(self) -> dict:
        return {"mode": "difference",
                "exponents": [list(row) for row in self.exponents]}

    @classmethod
    def from_mapping(cls, data) -> "BasisSpec":
        """The basis whose `to_mapping` is `data`; any other record is a
        ValueError."""
        exponents = data.get("exponents") if isinstance(data, dict) else None
        if isinstance(exponents, list) and len(exponents) >= 3:
            basis = cls(len(exponents) // 2)
            if data == basis.to_mapping():
                return basis
        raise ValueError(f"basis is not the quartic-difference record that "
                         f"certify writes: {data!r}")


def quartic_difference_basis(state_dim: int) -> BasisSpec:
    """Per-coordinate quartic and quadratic difference monomials plus a constant."""
    return BasisSpec(state_dim)


# ----------------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Q i.i.d. uniform draws (x_i, d_i) from X x D, reproducible from seed."""

    seed: int
    state_dim: int
    dist_dim: int
    points: Array  # (Q, state_dim + dist_dim)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def states(self) -> Array:
        return self.points[:, :self.state_dim]

    @property
    def disturbances(self) -> Array:
        return self.points[:, self.state_dim:]


def draw_samples(signature: SystemSignature, count: int, seed: int) -> SampleBatch:
    if count < 1:
        raise ValueError("need at least one sample")
    if count > SAMPLE_CAP:
        raise CapacityError(f"{count} samples exceed the cap {SAMPLE_CAP}")
    box = np.vstack([signature.state_box, signature.disturbance_box])
    rng = np.random.default_rng(seed)
    points = rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))
    return SampleBatch(seed=seed, state_dim=signature.state_dim,
                       dist_dim=signature.disturbance_dim, points=points)


# ----------------------------------------------------------------------------
# Minimal sample count and the kappa geometry
# ----------------------------------------------------------------------------

def _log_binomial_tail(q: int, eps: float, c: int) -> float:
    """log of sum_{i=0}^{c-1} C(q,i) eps^i (1-eps)^(q-i), via incremental
    term ratios so it stays finite up to q = 10^7."""
    log_eps = math.log(eps)
    log_1me = math.log1p(-eps)
    term = q * log_1me
    total = term
    for i in range(1, min(c, q + 1)):
        term += math.log(q - i + 1) - math.log(i) + log_eps - log_1me
        total = float(np.logaddexp(total, term))
    return total


def min_sample_size(eps, beta: float, unknowns: int) -> int:
    """Smallest Q with sum_t sum_{i<unknowns} C(Q,i) eps_t^i (1-eps_t)^(Q-i) <= beta."""
    eps_list = [float(e) for e in (np.atleast_1d(eps))]
    if not eps_list:
        raise ValueError("need at least one eps level")
    for e in eps_list:
        if not 0.0 < e < 1.0:
            raise ValueError(f"eps={e} outside (0,1)")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0,1)")
    unknowns = int(unknowns)
    if unknowns < 1:
        raise ValueError("unknowns must be at least 1")

    def ok(q: int) -> bool:
        total = 0.0
        for e in eps_list:
            total += math.exp(_log_binomial_tail(q, e, unknowns))
            if total > beta:
                return False
        return total <= beta

    q = 1
    while not ok(q):
        if q >= SAMPLE_CAP:
            raise CapacityError(
                f"minimal sample size exceeds {SAMPLE_CAP}; relax eps or beta")
        q = min(2 * q, SAMPLE_CAP)
    lo, hi = q // 2, q  # ok(hi) holds; lo either 0 or known infeasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SamplePlan:
    """Contraction levels, one risk each, and the unknowns and Q they imply."""

    mu_levels: tuple
    eps: tuple
    unknowns: int
    q: int


def sample_plan(mu_grid, eps, beta: float, z: int,
                unknowns: int | None = None) -> SamplePlan:
    """Validate the mu levels, broadcast a scalar eps to one risk per level,
    default the unknown count to z + 4 (phi, gamma, eta~, theta~ and xi), and
    size the batch that every level's LP shares."""
    mu_levels = tuple(float(m) for m in np.atleast_1d(mu_grid))
    if not mu_levels:
        raise ValueError("mu_grid must be non-empty")
    if not all(0.0 < m < 1.0 for m in mu_levels):
        raise ValueError(f"mu levels {list(mu_levels)} outside (0,1)")
    eps_list = tuple(float(e) for e in np.atleast_1d(eps))
    if len(eps_list) == 1:
        eps_list = eps_list * len(mu_levels)
    if len(eps_list) != len(mu_levels):
        raise ValueError("eps must be scalar or one value per mu level")
    unknowns = z + 4 if unknowns is None else int(unknowns)
    return SamplePlan(mu_levels=mu_levels, eps=eps_list, unknowns=unknowns,
                      q=min_sample_size(eps_list, beta, unknowns))


def kappa(radius: float, dims: int, volume: float) -> float:
    """Minimal probability mass of a radius-r Euclidean ball under the uniform
    distribution on a set of the given volume in R^dims."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if dims < 1:
        raise ValueError("dims must be at least 1")
    if volume <= 0:
        raise ValueError("volume must be positive")
    return (math.pi ** (dims / 2.0)) * radius ** dims / (
        (2.0 ** dims) * math.gamma(dims / 2.0 + 1.0) * volume)


def kappa_inverse(eps: float, dims: int, volume: float) -> float:
    """Closed-form inverse of kappa in the radius argument."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0,1]")
    if dims < 1:
        raise ValueError("dims must be at least 1")
    if volume <= 0:
        raise ValueError("volume must be positive")
    inner = eps * volume * (2.0 ** dims) * math.gamma(dims / 2.0 + 1.0) \
        / (math.pi ** (dims / 2.0))
    return inner ** (1.0 / dims)


# ----------------------------------------------------------------------------
# Lipschitz constants of the row functions
# ----------------------------------------------------------------------------

def _spectral(mat) -> float:
    if mat is None:
        return 0.0
    arr = np.atleast_2d(np.asarray(mat, dtype=float))
    return float(np.linalg.norm(arr, 2))


def row_lipschitz(j_f, j_x, j_d, state_bound: float, dist_bound: float,
                  sigma: float, mu: float, eta: float) -> float:
    """Row-function Lipschitz constant from bounds on the dynamics: j_f on
    ||f||, j_x and j_d on its slopes in state and disturbance, over a state
    box of norm state_bound and a disturbance box of norm dist_bound."""
    bounds = (j_f, j_x, j_d, state_bound, dist_bound, sigma, mu, eta)
    # max() and min() pass a NaN through when it is not the first argument
    if not all(math.isfinite(v) for v in bounds):
        raise ValueError("all bounds must be finite")
    if min(bounds) < 0:
        raise ValueError("all bounds must be non-negative")
    w1, w3 = float(state_bound), float(dist_bound)
    l1 = 8.0 * w1
    l2 = 2.0 * (2.0 * j_f * j_x + j_x * sigma + 2.0 * j_f * j_d
                + j_d * sigma + 2.0 * w1 * mu) + 2.0 * eta * w3
    return max(l1, l2)


def _corner_norm(box: Array) -> float:
    if box.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(np.max(np.abs(box), axis=1)))


def domain_bounds(signature: SystemSignature) -> tuple[float, float, float]:
    """(max ||x||, max ||nu||, max ||d||) in the Euclidean norm over the
    declared domains."""
    if signature.n_inputs > 100_000:
        raise ValueError("input set too large to scan; use per-subsystem signatures")
    w2 = max(float(np.linalg.norm(signature.input(i)))
             for i in range(signature.n_inputs))
    return _corner_norm(signature.state_box), w2, _corner_norm(signature.disturbance_box)


# Redraws of one coincident point pair before the slope probe gives up.
RETRY_CAP = 100


def _sample_dynamics(sys: BlackBoxSystem, pairs: int, seed: int) -> tuple[float, float]:
    """Max observed slope ||f(a)-f(b)|| / ||a-b|| over random point pairs per
    input, and max observed ||f||."""
    sig = sys.signature
    box = np.vstack([sig.state_box, sig.disturbance_box])
    rng = np.random.default_rng(seed)
    n = sig.state_dim
    slope = 0.0
    fmax = 0.0
    for u in range(sig.n_inputs):
        nu = sig.input(u)
        first = rng.uniform(box[:, 0], box[:, 1], size=(pairs, box.shape[0]))
        second = rng.uniform(box[:, 0], box[:, 1], size=(pairs, box.shape[0]))
        # sqrt of each pair's dot, bit for bit np.linalg.norm of one pair
        diff = (first - second)[:, None, :]
        gaps = np.sqrt(np.matmul(diff, diff.transpose(0, 2, 1))[:, 0, 0])
        # redraw coincident pairs in index order: a redraw consumes the stream
        for k in np.flatnonzero(gaps < 1e-12):
            tries = 0
            while gaps[k] < 1e-12:
                tries += 1
                if tries > RETRY_CAP:
                    raise SolverError("could not draw a non-coincident sample pair")
                second[k] = rng.uniform(box[:, 0], box[:, 1])
                gaps[k] = np.linalg.norm(first[k] - second[k])
        nus = np.broadcast_to(nu, (pairs, nu.size))
        ya = sys.step(first[:, :n], nus, first[:, n:])
        yb = sys.step(second[:, :n], nus, second[:, n:])
        # max() below would drop a NaN slope, and an infinite reply has none
        if not (np.isfinite(ya).all() and np.isfinite(yb).all()):
            raise DomainError("oracle reply is not finite; the slope probe "
                              "cannot bound it")
        slope = max(slope, float(np.max(np.linalg.norm(ya - yb, axis=1) / gaps)))
        fmax = max(fmax, float(np.max(np.linalg.norm(np.vstack([ya, yb]), axis=1))))
    return slope, fmax


class _SlopeSource:
    """A source of dynamics slopes: `slopes(sys)` gives (j_f, j_x, j_d), the
    bounds on ||f|| and on its slopes in state and disturbance that
    `row_lipschitz` turns into the row-function Lipschitz constant."""

    def check(self, signature: SystemSignature) -> None:
        """Raise ValueError if the source cannot describe this signature."""

    def bound(self, sys: BlackBoxSystem, sigma: float, mu: float, eta: float) -> float:
        w1, _, w3 = domain_bounds(sys.signature)
        return row_lipschitz(*self.slopes(sys), w1, w3, sigma, mu, eta)


@dataclass(frozen=True, eq=False)
class LinearLipschitz(_SlopeSource):
    """Slopes of known linear dynamics x+ = A x + B nu + E d, with A n x n, B
    n x m and E n x p; B and E may be left out."""

    a: object
    b: object = None
    e: object = None

    def __post_init__(self):
        # a NaN or infinite entry has no spectral norm to bound a slope with
        for name in ("a", "b", "e"):
            mat = getattr(self, name)
            if mat is not None and not np.isfinite(mat).all():
                raise ValueError(f"{name} must hold finite numbers")

    def check(self, signature: SystemSignature) -> None:
        n = signature.state_dim
        for name, need in (("a", (n, n)), ("b", (n, signature.input_dim)),
                           ("e", (n, signature.disturbance_dim))):
            mat = getattr(self, name)
            shape = need if mat is None else np.atleast_2d(mat).shape
            if shape != need:
                raise ValueError(f"{name} is {shape[0]}x{shape[1]}, but the "
                                 f"system needs {need[0]}x{need[1]}")

    def slopes(self, sys: BlackBoxSystem) -> tuple[float, float, float]:
        self.check(sys.signature)
        j1, j2, j3 = _spectral(self.a), _spectral(self.b), _spectral(self.e)
        w1, w2, w3 = domain_bounds(sys.signature)
        return j1 * w1 + j2 * w2 + j3 * w3, j1, j3


@dataclass(frozen=True, eq=False)
class NonlinearLipschitz(_SlopeSource):
    """User-supplied bounds on ||f|| (j_f) and on its slopes in state (j_x)
    and disturbance (j_d)."""

    j_f: float
    j_x: float
    j_d: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0
                   for v in (self.j_f, self.j_x, self.j_d)):
            raise ValueError("j_f, j_x and j_d must be non-negative and finite")

    def slopes(self, sys: BlackBoxSystem) -> tuple[float, float, float]:
        return self.j_f, self.j_x, self.j_d


@dataclass(frozen=True, eq=False)
class DataLipschitz(_SlopeSource):
    """Slopes estimated from sampled queries, not proved: the largest
    observed slope times a safety factor serves as both j_x and j_d, and j_f
    is the larger of the observed maximum of ||f|| times the safety factor
    and the state-box norm.  The probe is seeded, so each call draws the
    same slopes."""

    pairs: int = 200
    seed: int = 0
    safety: float = 1.5

    def __post_init__(self):
        if not is_integer(self.pairs):
            raise ValueError("pairs must be an integer")
        if self.pairs < 2:
            raise ValueError("need at least 2 pairs")
        if self.pairs > SAMPLE_CAP:
            raise ValueError(f"pairs must be at most {SAMPLE_CAP:,}, the sample cap "
                             f"on the slope probe's (pairs x coordinates) arrays")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not (math.isfinite(self.safety) and self.safety >= 0):
            raise ValueError("safety must be non-negative and finite")

    def slopes(self, sys: BlackBoxSystem) -> tuple[float, float, float]:
        slope, fmax = _sample_dynamics(sys, self.pairs, self.seed)
        w1, _, _ = domain_bounds(sys.signature)
        return (max(fmax * self.safety, w1), slope * self.safety,
                slope * self.safety)


# ----------------------------------------------------------------------------
# Decision variables and the scenario program
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class VariableBoxes:
    """Mandatory bounds on the LP decision variables (xi stays free)."""

    gamma: tuple = (1e-3, 1e3)
    eta: tuple = (0.0, 1e3)
    theta: tuple = (0.0, 1e3)
    phi: tuple = (-1e3, 1e3)

    def __post_init__(self):
        for name in ("gamma", "eta", "theta", "phi"):
            lo, hi = (float(v) for v in getattr(self, name))
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} box must be finite with lo < hi")
            object.__setattr__(self, name, (lo, hi))
        if self.gamma[0] <= 0:
            raise ValueError("gamma lower bound must be positive")
        if self.eta[0] < 0 or self.theta[0] < 0:
            raise ValueError("eta and theta lower bounds must be non-negative")

    def lower(self, z: int) -> Array:
        return np.array([self.gamma[0], self.eta[0], self.theta[0]]
                        + [self.phi[0]] * z + [-np.inf])

    def upper(self, z: int) -> Array:
        return np.array([self.gamma[1], self.eta[1], self.theta[1]]
                        + [self.phi[1]] * z + [np.inf])

    def to_mapping(self) -> dict:
        return {"gamma": list(self.gamma), "eta": list(self.eta),
                "theta": list(self.theta), "phi": list(self.phi)}

    @classmethod
    def from_mapping(cls, data) -> "VariableBoxes":
        return cls(**{k: tuple(v) for k, v in data.items()})


@dataclass(frozen=True, eq=False)
class DecisionVector:
    """LP unknowns in the order (gamma, eta, theta, phi..., xi), plus the fixed
    contraction level mu the instance was solved under."""

    gamma: float
    eta: float
    theta: float
    phi: Array
    xi: float
    mu: float

    def as_array(self) -> Array:
        return np.concatenate([[self.gamma, self.eta, self.theta],
                               np.asarray(self.phi, dtype=float), [self.xi]])

    @classmethod
    def from_array(cls, vec: Array, mu: float) -> "DecisionVector":
        vec = np.asarray(vec, dtype=float)
        return cls(gamma=float(vec[0]), eta=float(vec[1]), theta=float(vec[2]),
                   phi=vec[3:-1].copy(), xi=float(vec[-1]), mu=float(mu))


@dataclass(frozen=True)
class RowTag:
    """Provenance of one SOP row."""

    kind: str  # "H1" | "H2"
    sample: int
    input: int | None
    state: int
    dist: int | None


@dataclass(frozen=True)
class SopStructure:
    samples: int
    inputs: int
    states: int
    dists: int

    @property
    def h1_rows(self) -> int:
        return self.samples * self.states

    @property
    def h2_rows(self) -> int:
        return self.samples * self.inputs * self.states * self.dists


@dataclass(eq=False)
class SopInstance:
    """The scenario program at one contraction level mu, kept in factored form.

    Rows are never stored; each is rebuilt from per-sample factors.  With
    q samples, u inputs, s state cells, d disturbance cells and z monomials:

    - H1 row (i, s), sample-major:
      coef_gamma[i,s]*gamma - g_cur[i,s].phi - xi <= 0;
    - H2 row (i, u, s, d), after all H1 rows and in that order:
      (coef_phi[i,u,c] - mu*g_cur[i,s]).phi - coef_eta[i,d]*eta
      + coef_theta*theta + const - xi <= 0, with c = successor[u,s,d].

    coef_gamma (q, s) holds ||x_i - xhat_s||^2; coef_eta (q, d) holds
    ||d_i - dhat_d||^2, which enters each row negated, so an instance shares
    the distances of its `SopData` instead of a negated copy; coef_theta is
    the constant -1 and const the constant 0 (both 0-d); coef_phi (q, u, s,
    z) holds g(x+_iu, center of cell c) for every in-box cell c; g_cur (q,
    s, z) holds g(x_i, xhat_s); successor (u, s, d) is the in-box cell whose
    center represents the abstract successor (the clamped nearest cell for
    the sink); an entry outside [0, s) is refused.  `gather` builds the
    requested rows bit for bit as a dense matrix would hold them.

    `residual_blocks` visits the H2 blocks largest bound first and stops at
    the first whose rows cannot exceed the floor the scan sent, as branch
    and bound does.  Sample i's row (u, s, d) is summed in
    the order (succ[i, u, successor[u, s, d]] + by_state[i, s]) + by_dist[i,
    d], where succ[i, u, c] = coef_phi[i, u, c] @ phi.
    The block's bound is summed in the same order from the largest term of
    each stage: top[u, s] = the max of succ[i, u] over the successor cells of
    (u, s) across all d, then max over (u, s) of (top[u, s] + by_state[i,
    s]), then + max by_dist[i].  IEEE round-to-nearest addition is monotone, so the
    bound is at least every row of the block bit for bit, and a block with
    bound <= floor holds no row above the floor.  The bound is exact only
    while both sums keep that order: change them together.
    by_dist[i, d] = coef_eta[i, d] * -eta, which IEEE sign symmetry makes
    the bits of -coef_eta[i, d] * eta, is built only for a scanned block.
    Its max comes from the dist extremes each instance precomputes: the row
    max of coef_eta times -eta, or the row min when -eta < 0.  Rounded
    multiplication is monotone too, so that product is max_d by_dist[i, d]
    bit for bit (`dist_top`).
    `blocks_scanned` and `blocks_pruned` count the H2 blocks built and
    skipped; each scan adds up to q.

    Memory: `successor` is the one table-sized array an instance keeps (8
    bytes per table entry as int64), and a scan adds one block buffer of
    u*s*d floats (8 bytes per entry), filled one input at a time by taking
    from successor[u]; no other array of a scan grows with the table.
    """

    coef_gamma: Array
    coef_eta: Array
    coef_theta: Array
    coef_phi: Array
    const: Array
    g_cur: Array
    successor: Array
    mu: float
    structure: SopStructure
    boxes: VariableBoxes = field(default_factory=VariableBoxes)

    def __post_init__(self):
        st = self.structure
        q, n_u, n_s, n_d = st.samples, st.inputs, st.states, st.dists
        z = self.coef_phi.shape[-1]
        shapes = {"coef_gamma": (q, n_s), "coef_eta": (q, n_d),
                  "coef_theta": (), "coef_phi": (q, n_u, n_s, z), "const": (),
                  "g_cur": (q, n_s, z), "successor": (n_u, n_s, n_d)}
        for name, shape in shapes.items():
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} must have shape {shape}")
        # blocks take from successor with mode="clip", which would hide a bad
        # index, and gather would wrap a negative one; min and max make no
        # table-sized temporary
        if self.successor.size and (self.successor.min() < 0
                                    or self.successor.max() >= n_s):
            raise ValueError(f"successor entries must lie in [0, {n_s})")
        # the distinct successor columns of each (u, s) pair across d, found
        # ascending by a presence mask over slices of about FACTOR_SLICE
        # (pair, cell) entries: row j holds every pair's j-th, and a pair with
        # fewer repeats its first (max is idempotent), so the bound takes one
        # maximum per row
        pairs = n_u * n_s
        succ = self.successor.reshape(pairs, n_d)
        step = max(1, FACTOR_SLICE // n_s)
        hits = []  # flat (pair, cell) indices
        for lo in range(0, pairs, step):
            part = succ[lo:lo + step]
            hit = np.zeros((part.shape[0], n_s), dtype=bool)
            hit[np.arange(part.shape[0])[:, None], part] = True
            hits.append(np.flatnonzero(hit) + lo * n_s)
        rows, cells = np.divmod(np.concatenate(hits), n_s)
        cells += rows // n_s * n_s  # the column of (u, cell)
        counts = np.bincount(rows, minlength=pairs)
        starts = np.cumsum(counts) - counts
        columns = np.repeat(cells[starts], int(counts.max(initial=1)))
        columns = columns.reshape(pairs, -1)
        columns[rows, np.arange(rows.size) - starts[rows]] = cells
        self._bound_columns = np.ascontiguousarray(columns.T)
        # per sample, the extremes of coef_eta[i] across d; see dist_top
        self._eta_max = self.coef_eta.max(axis=1)
        self._eta_min = self.coef_eta.min(axis=1)
        self.blocks_scanned = 0
        self.blocks_pruned = 0

    @property
    def row_count(self) -> int:
        return self.structure.h1_rows + self.structure.h2_rows

    @property
    def z(self) -> int:
        return self.coef_phi.shape[-1]

    @property
    def n_vars(self) -> int:
        return self.z + 4

    def _h2_index(self, rest):
        """(sample, input, state, dist) of H2 rows r1 + rest."""
        st = self.structure
        rest, dh = np.divmod(rest, st.dists)
        rest, xh = np.divmod(rest, st.states)
        i, u = np.divmod(rest, st.inputs)
        return i, u, xh, dh

    def dist_top(self, eta: float) -> Array:
        """max over d of coef_eta[i, d] * -eta, the rows' eta terms, per
        sample i, from the precomputed row max of coef_eta (row min when
        -eta < 0)."""
        neg = -eta
        return (self._eta_min if neg < 0 else self._eta_max) * neg

    def residual_blocks(self, vec: Array):
        """Yield (start_row, A x - b over a block of rows): the H1 block,
        then one H2 block of u*s*d rows per sample.

        The H2 blocks come ranked by their bound (see the class docstring),
        largest first and NaN bounds ahead of all.  The scan stops at the
        first block whose bound is at or below the floor last sent; it and
        every later block are counted as pruned.  An iteration that sends no
        floor gets every block.  Each call fills one buffer of its own and
        reuses it for every H2 block, so a block holds its values only until
        the next one is drawn; copy what must outlive that."""
        vec = np.asarray(vec, dtype=float)
        gamma, eta, theta = vec[0], vec[1], vec[2]
        phi, xi = vec[3:-1], vec[-1]
        st = self.structure
        q, n_u, n_s, n_d = st.samples, st.inputs, st.states, st.dists
        cur = self.g_cur @ phi  # (q, s)
        h1 = np.multiply(self.coef_gamma, gamma)
        h1 -= cur
        h1 -= xi
        floor = yield 0, h1.reshape(-1)
        succ = (self.coef_phi.reshape(-1, phi.size) @ phi).reshape(q, n_u * n_s)
        state_term = self.coef_theta * theta + self.const - xi - self.mu * cur
        # summed in the block's own order; see the class docstring
        top = succ[:, self._bound_columns[0]]
        for columns in self._bound_columns[1:]:
            np.maximum(top, succ[:, columns], out=top)
        pairs = top.reshape(q, n_u, n_s)
        pairs += state_term[:, None, :]
        bound = top.max(axis=1) + self.dist_top(eta)
        order = np.lexsort((-bound, ~np.isnan(bound)))
        by_state = state_term[:, None, :, None]
        succ = succ.reshape(q, n_u, n_s)
        block = np.empty((n_u, n_s, n_d))
        dist_term = np.empty(n_d)
        for done, i in enumerate(order):
            if floor is not None and bound[i] <= floor:
                self.blocks_pruned += q - done
                return
            self.blocks_scanned += 1
            for u in range(n_u):
                np.take(succ[i, u], self.successor[u], out=block[u], mode="clip")
            block += by_state[i]
            block += np.multiply(self.coef_eta[i], -eta, out=dist_term)
            floor = yield st.h1_rows + i * block.size, block.reshape(-1)

    def residuals(self, vec: Array) -> Array:
        """A x - b over all rows, in row order: each block of
        `residual_blocks` placed at its start row."""
        out = np.empty(self.row_count)
        for start, block in self.residual_blocks(vec):
            out[start:start + block.size] = block
        return out

    def gather(self, idx) -> tuple[Array, Array]:
        """Dense rows (A, b) of the given row indices."""
        idx = np.asarray(idx, dtype=int)
        r1 = self.structure.h1_rows
        a = np.zeros((idx.shape[0], self.n_vars))
        a[:, -1] = -1.0
        one = idx < r1
        i, xh = np.divmod(idx[one], self.structure.states)
        a[one, 0] = self.coef_gamma[i, xh]
        a[one, 3:-1] = -self.g_cur[i, xh]
        two = ~one
        i, u, xh, dh = self._h2_index(idx[two] - r1)
        a[two, 1] = -self.coef_eta[i, dh]
        a[two, 2] = self.coef_theta
        a[two, 3:-1] = (self.coef_phi[i, u, self.successor[u, xh, dh]]
                        - self.mu * self.g_cur[i, xh])
        return a, np.full(idx.shape[0], -self.const)

    def tag(self, row: int) -> RowTag:
        s = self.structure
        if row < 0 or row >= self.row_count:
            raise ValueError("row index out of range")
        if row < s.h1_rows:
            i, xh = divmod(row, s.states)
            return RowTag(kind="H1", sample=i, input=None, state=xh, dist=None)
        i, u, xh, dh = (int(v) for v in self._h2_index(row - s.h1_rows))
        return RowTag(kind="H2", sample=i, input=u, state=xh, dist=dh)


def _squared_distances(points: Array, grid: UniformGrid) -> Array:
    """||points[i] - center[c]||^2 for every point and cell of the grid, shape
    (points, cells), from per-axis factors: with g_j the squared gaps to the
    centers along axis j, the sum (g_0 + g_1) + g_2 ... over the grid's
    product order, in axis order.  No (points x cells x axes) array is made.
    With one or two axes a sum rounds once, so it has the bits of an einsum
    over the difference array; with more, the axis order fixes them."""
    out = np.zeros((points.shape[0], 1))
    for j, centers in enumerate(grid.axis_centers()):
        gap = points[:, j, None] - centers
        out = (out[:, :, None] + (gap * gap)[:, None, :]).reshape(out.shape[0], -1)
    return out


class SopData:
    """Sampled transitions and the mu-independent factors of the scenario
    program, reusable across the per-mu LP instances of one certification
    run.  The transition table (cells x inputs x disturbance cells), the
    per-sample factors (samples x inputs x cells x features) and the
    disturbance distances (samples x disturbance cells) are each held to
    `table_cap` entries, checked before anything is built.  `successor`, an
    integer array of shape (cells, inputs, disturbance cells) when given,
    receives the abstract transition table from the same oracle pass: each
    entry the quantized successor, or the sink (= cells)."""

    def __init__(self, samples: SampleBatch, sys: BlackBoxSystem,
                 state_grid: UniformGrid, dist_grid: UniformGrid,
                 table_cap: int = DEFAULT_TABLE_CAP,
                 successor: Array | None = None):
        sig = sys.signature
        if samples.state_dim != sig.state_dim or samples.dist_dim != sig.disturbance_dim:
            raise ValueError("sample batch does not match the system signature")
        if state_grid.dim != sig.state_dim:
            raise ValueError("state grid does not match the state dimension")
        if dist_grid is None or dist_grid.dim != sig.disturbance_dim:
            raise ValueError("disturbance grid does not match the disturbance dimension")
        self.samples = samples
        self.sys = sys
        self.state_grid = state_grid
        self.dist_grid = dist_grid
        q = samples.count
        n_states = state_grid.total_cells
        n_inputs = sig.n_inputs
        n_dists = dist_grid.total_cells
        self.structure = SopStructure(samples=q, inputs=n_inputs,
                                      states=n_states, dists=n_dists)
        # Every kept array grows like one of these, refused before any is
        # made; the scan's block buffer is the size of the table.
        basis = quartic_difference_basis(sig.state_dim)
        check_table_cap(TABLE_NAME, n_states * n_inputs * n_dists, table_cap)
        check_table_cap("the per-sample factors (samples x inputs x cells x "
                        "features)", q * n_inputs * n_states * basis.z, table_cap)
        check_table_cap("the per-sample disturbance distances (samples x "
                        "disturbance cells)", q * n_dists, table_cap)

        state_reps = state_grid.all_representatives()
        inputs = sig.input_array()

        # One oracle call over the (sample, input) rows.
        xs, ds = samples.states, samples.disturbances
        x_plus = sys.step(np.repeat(xs, n_inputs, axis=0),
                          np.tile(inputs, (q, 1)),
                          np.repeat(ds, n_inputs, axis=0))
        x_plus = x_plus.reshape(q, n_inputs, sig.state_dim)
        self.x_plus = x_plus

        # One oracle query per (state cell, input, disturbance cell).
        # successor_reps[u, s, d] is the in-box cell whose center represents
        # the successor; a sink successor gets its clamped nearest cell, so
        # the score stays evaluable on every row.  The table writes it in
        # place, through a view with its own (cell, input, disturbance) axes.
        self.successor_reps = np.empty((n_inputs, n_states, n_dists),
                                       dtype=np.int64)
        transition_table(sys, state_grid, dist_grid, inputs, successor=successor,
                         rep_cell=self.successor_reps.transpose(1, 0, 2))

        # Per-sample geometry independent of mu.
        self.g_cur = basis.features(xs[:, None, :], state_reps[None, :, :])
        self.g_succ = basis.features(x_plus[:, :, None, :],
                                     state_reps[None, None, :, :])
        self.dist2_state = _squared_distances(xs, state_grid)
        self.dist2_dist = _squared_distances(ds, dist_grid)

    def instance(self, mu: float, boxes: VariableBoxes | None = None) -> SopInstance:
        if not 0.0 < mu < 1.0:
            raise ValueError("mu must lie in (0,1)")
        return SopInstance(coef_gamma=self.dist2_state,
                           coef_eta=self.dist2_dist,
                           coef_theta=np.array(-1.0), coef_phi=self.g_succ,
                           const=np.array(0.0), g_cur=self.g_cur,
                           successor=self.successor_reps, mu=float(mu),
                           structure=self.structure,
                           boxes=boxes or VariableBoxes())


# ----------------------------------------------------------------------------
# LP solve: the xi phase, then three pin-and-refine phases
# ----------------------------------------------------------------------------

@dataclass(eq=False)
class SolveReport:
    """A solved scenario program and what the LP did to solve it: master
    solves (`rounds`) and pivots (`iterations`) summed over every phase, the
    final master size, the rows binding at the returned vector, and the H2
    blocks the scans built (`blocks`) and skipped (`pruned`), summed over
    every round, phase and the final feasibility check."""

    decision: DecisionVector
    xi_star: float
    active: tuple
    iterations: int
    master_rows: int
    rounds: int
    blocks: int
    pruned: int

    @property
    def binding(self) -> dict:
        """Binding rows by kind, {"H1": count, "H2": count}."""
        kinds = [tag.kind for tag in self.active]
        return {"H1": kinds.count("H1"), "H2": kinds.count("H2")}


# solve_lp's phases in order: (name, index into (gamma, eta, theta, phi...,
# xi), maximize).  eta goes down first: it couples subsystems at composition
# time, and slack left in it would be parked at the box top by later phases.
PHASES = (("xi", -1, False), ("eta", 1, False), ("gamma", 0, True),
          ("theta", 2, False))


def solve_lp(instance: SopInstance, xi_target: float | None = None) -> SolveReport:
    """Minimize xi over all rows within the instance's variable boxes, then
    refine lexicographically through PHASES: each phase starts from the
    previous phase's working rows and pins its variable at the value found.
    xi is pinned at max(xi*, xi_target), or at xi* without a target: the
    refinement then trades unneeded slack depth for better gains, and the
    certificate margin must be charged against the achieved xi, not xi*.
    Every generated row holds at the returned vector."""
    if instance.row_count == 0:
        raise ValueError("instance has no rows")
    nv = instance.n_vars
    scanned, pruned = instance.blocks_scanned, instance.blocks_pruned
    lower, upper = instance.boxes.lower(instance.z), instance.boxes.upper(instance.z)
    pins, rhs, working = np.zeros((0, nv)), [], None
    iterations = rounds = 0
    for name, index, maximize in PHASES:
        c = np.zeros(nv)
        c[index] = 1.0
        result, working, active = solve_with_rows(
            c, instance, lower, upper, extra_a=pins, extra_b=np.asarray(rhs),
            maximize=maximize, start_rows=working, context=f"SOP phase {name}")
        iterations += result.iterations
        rounds += result.rounds
        val = float(result.objective)  # x[index], the phase's optimum
        if name == "xi":
            xi_star = val
            if xi_target is not None:
                val = max(val, float(xi_target))
        # pin  sign * x[index] <= sign * val + slack, the slack facing outward
        sign = -1.0 if maximize else 1.0
        row = np.zeros(nv)
        row[index] = sign
        pins = np.vstack([pins, row])
        rhs.append(sign * val + 1e-9 * max(1.0, abs(val)))

    # Blocks with no row above the limit are skipped: the verdict is the
    # same, and a reported violation is still the exact worst row.
    limit = 1e-7
    worst = max(float(np.max(block, initial=-np.inf))
                for _, block in scan_above(instance.residual_blocks(result.x),
                                           lambda: limit))
    if worst > limit:
        raise SolverError(f"returned vector violates a row by {worst:.3e}")
    decision = DecisionVector.from_array(result.x, instance.mu)
    tags = tuple(instance.tag(int(r)) for r in active)
    return SolveReport(decision=decision, xi_star=xi_star, active=tags,
                       iterations=iterations, master_rows=int(working.size),
                       rounds=rounds,
                       blocks=instance.blocks_scanned - scanned,
                       pruned=instance.blocks_pruned - pruned)


# ----------------------------------------------------------------------------
# Gains, margin, certificate
# ----------------------------------------------------------------------------

def convert_gains(mu_tilde: float, eta_tilde: float, theta_tilde: float,
                  psi: float = 0.99, lam: float = 1.0) -> tuple[float, float, float]:
    """Turn LP-native gains into the max-form gains (mu, eta, theta)."""
    if not 0.0 < mu_tilde < 1.0:
        raise ValueError("mu_tilde must lie in (0,1)")
    if not 0.0 < psi < 1.0:
        raise ValueError("psi must lie in (0,1)")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if eta_tilde < 0 or theta_tilde < 0:
        raise ValueError("eta_tilde and theta_tilde must be non-negative")
    mu = 1.0 - (1.0 - psi) * (1.0 - mu_tilde)
    eta = (1.0 + lam) * eta_tilde / ((1.0 - mu_tilde) * psi)
    theta = (1.0 + 1.0 / lam) * theta_tilde / ((1.0 - mu_tilde) * psi)
    return mu, eta, theta


def apbf_margin(xi_star: float, lipschitz: float, kappa_radius: float) -> float:
    """The certificate margin xi* + L * kappa^{-1}(eps); <= 0 certifies."""
    if lipschitz < 0 or kappa_radius < 0:
        raise ValueError("lipschitz and kappa_radius must be non-negative")
    return xi_star + lipschitz * kappa_radius


@dataclass(frozen=True, eq=False)
class ApbfCertificate:
    """Outcome of one subsystem certification.

    The quadruple (gamma, mu, eta, theta) is in max-form; certification holds
    with confidence 1 - beta when margin <= 0.  Certificates may also be built
    directly from known gains (leaving the provenance fields at None) for
    composition studies.  `lp_stats` holds one mapping per mu level of what
    the LP did (rounds, pivots, master_rows, binding rows by kind); it is run
    telemetry, left out of `to_mapping`.
    """

    gamma: float
    mu: float
    eta: float
    theta: float
    beta: float
    certified: bool
    margin: float
    state_dim: int = 1
    mu_tilde: float | None = None
    eta_tilde: float | None = None
    theta_tilde: float | None = None
    xi_star: float | None = None
    xi_achieved: float | None = None
    psi: float = 0.99
    lam: float = 1.0
    q: int | None = None
    seed: int | None = None
    unknowns: int | None = None
    eps: tuple = ()
    mu_grid: tuple = ()
    margins: tuple = ()
    lipschitz: tuple = ()
    kappa_radii: tuple = ()
    basis: BasisSpec | None = None
    phi: tuple | None = None
    sigma: float | None = None
    boxes: VariableBoxes | None = None
    lp_stats: tuple = ()
    _SEQUENCES = ("eps", "mu_grid", "margins", "lipschitz", "kappa_radii")

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0,1)")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0,1)")
        if self.basis is not None and self.phi is not None \
                and len(self.phi) != self.basis.z:
            raise ValueError(f"{len(self.phi)} score weights for a basis of "
                             f"{self.basis.z} features")

    def value(self, x, xhat) -> Array:
        """Score S(x, xhat); needs the basis and coefficients."""
        if self.basis is None or self.phi is None:
            raise ValueError("certificate carries no score coefficients")
        feats = self.basis.features(x, xhat)
        return feats @ np.asarray(self.phi, dtype=float)

    def to_mapping(self) -> dict:
        """Every field but `lp_stats`, with tuples as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "lp_stats"}
        for key in self._SEQUENCES:
            out[key] = list(out[key])
        out["phi"] = list(self.phi) if self.phi is not None else None
        out["basis"] = self.basis.to_mapping() if self.basis else None
        out["boxes"] = self.boxes.to_mapping() if self.boxes else None
        return out

    @classmethod
    def from_mapping(cls, data) -> "ApbfCertificate":
        data = dict(data)
        if data.get("basis") is not None:
            data["basis"] = BasisSpec.from_mapping(data["basis"])
        if data.get("boxes"):
            data["boxes"] = VariableBoxes.from_mapping(data["boxes"])
        for key in cls._SEQUENCES:
            data[key] = tuple(data.get(key) or ())
        if data.get("phi") is not None:
            data["phi"] = tuple(data["phi"])
        return cls(**data)


def certify_apbf(sys: BlackBoxSystem, state_grid: UniformGrid,
                 dist_grid: UniformGrid, mu_grid, eps, beta: float, lipschitz,
                 *, samples: SampleBatch, boxes: VariableBoxes | None = None,
                 unknowns: int | None = None, psi: float = 0.99,
                 lam: float = 1.0, xi_target: float | None = None,
                 table_cap: int = DEFAULT_TABLE_CAP,
                 successor: Array | None = None) -> ApbfCertificate:
    """Solve one LP per contraction level over the sample batch, and emit the
    best-margin certificate (uncertified when margin > 0), which records the
    batch's seed.  The batch size must match the minimal sample count implied
    by (eps, beta, unknowns).  Each level's margin uses the radius
    kappa^{-1}(eps) of the uniform sampling distribution on X x D.  A grid
    whose table or per-sample factors exceed `table_cap` entries is refused
    with a CapacityError before any query (see SopData), which also fills
    `successor`, when given, with the abstract transition table."""
    basis = quartic_difference_basis(sys.signature.state_dim)
    plan = sample_plan(mu_grid, eps, beta, basis.z, unknowns)
    if samples.count != plan.q:
        raise ValueError(f"sample batch has {samples.count} points, "
                         f"the settings require exactly {plan.q}")
    data = SopData(samples, sys, state_grid, dist_grid, table_cap=table_cap,
                   successor=successor)

    sig = sys.signature
    dims = sig.state_dim + sig.disturbance_dim
    box = np.vstack([sig.state_box, sig.disturbance_box])
    volume = float(np.prod(box[:, 1] - box[:, 0]))
    radii = [kappa_inverse(e, dims, volume) for e in plan.eps]

    solved = []
    for mu_t, radius in zip(plan.mu_levels, radii):
        report = solve_lp(data.instance(mu_t, boxes), xi_target=xi_target)
        level_l = lipschitz.bound(sys, sigma=state_grid.sigma, mu=mu_t,
                                  eta=report.decision.eta)
        # Charge the margin against the slack the returned vector actually
        # uses; with xi_target unset this equals xi* up to pin tolerance.
        solved.append((report, level_l,
                       apbf_margin(report.decision.xi, level_l, radius)))

    margins = [s[2] for s in solved]
    best = int(np.argmin(margins))
    report, level_l, margin = solved[best]
    dec = report.decision
    mu, eta, theta = convert_gains(dec.mu, dec.eta, dec.theta, psi, lam)
    return ApbfCertificate(
        gamma=dec.gamma, mu=mu, eta=eta, theta=theta, beta=float(beta),
        certified=bool(margin <= 0.0), margin=float(margin),
        state_dim=sig.state_dim, mu_tilde=dec.mu, eta_tilde=dec.eta,
        theta_tilde=dec.theta, xi_star=report.xi_star,
        xi_achieved=float(dec.xi), psi=float(psi),
        lam=float(lam), q=plan.q, seed=samples.seed, unknowns=plan.unknowns,
        eps=plan.eps, mu_grid=plan.mu_levels, margins=tuple(margins),
        lipschitz=tuple(s[1] for s in solved), kappa_radii=tuple(radii),
        basis=basis, phi=tuple(float(v) for v in dec.phi),
        sigma=float(state_grid.sigma), boxes=boxes or VariableBoxes(),
        lp_stats=tuple({"mu": mu, "rounds": rep.rounds,
                        "pivots": rep.iterations,
                        "master_rows": rep.master_rows,
                        "binding": rep.binding,
                        "blocks": rep.blocks, "pruned": rep.pruned}
                       for mu, (rep, _, _) in zip(plan.mu_levels, solved)))
