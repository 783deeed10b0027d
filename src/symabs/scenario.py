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
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, SolverError
from .model import BlackBoxSystem, SystemSignature
# abstract_transition is no longer called here; the import is kept because
# bench/tracing.py wraps it by this module attribute.
from .quantize import UniformGrid, abstract_transition, transition_table
from .simplex import scan_above, solve_with_rows

Array = np.ndarray

# Certify holds no array with one entry per SOP row (rows are rebuilt and
# scanned one sample at a time), so this cap bounds run time, not memory: a
# row-generation round scans at most every row once, and pruning only skips.
DEFAULT_ROW_CAP = 50_000_000
SAMPLE_CAP = 10_000_000


# ----------------------------------------------------------------------------
# Score-function basis
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BasisSpec:
    """Difference-monomial basis for S(x, xhat): exponents is a tuple of z
    rows, each with one even exponent per state coordinate, and
    g_j = prod_k (x_k - xhat_k)^e_jk.  Even exponents keep every monomial
    sign-stable and monotone in |x - xhat|.  `mode` is always "difference";
    the certificate records it with the exponents."""

    mode: str
    exponents: tuple

    def __post_init__(self):
        if self.mode != "difference":
            raise ValueError(f"basis mode must be 'difference', not "
                             f"{self.mode!r}")
        rows = tuple(tuple(int(e) for e in row) for row in self.exponents)
        if not rows:
            raise ValueError("basis needs at least one monomial")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("all exponent rows must share the state dimension")
            for e in row:
                if e < 0:
                    raise ValueError("exponents must be non-negative")
                if e % 2:
                    raise ValueError(
                        "difference-monomial exponents must be even so the "
                        "monomials are sign-stable")
        object.__setattr__(self, "exponents", rows)

    @property
    def z(self) -> int:
        return len(self.exponents)

    @property
    def state_dim(self) -> int:
        return len(self.exponents[0])

    def features(self, x, xhat) -> Array:
        """Evaluate all g_j; broadcasts over leading axes, returns (..., z).

        Each distinct exponent is raised once per coordinate, not once per
        monomial (see `_monomials`); the values equal those of the direct
        form prod(diff[..., None, :] ** exponents) bit for bit."""
        diff = np.asarray(x, dtype=float) - np.asarray(xhat, dtype=float)
        return _monomials(diff, np.asarray(self.exponents))

    def to_mapping(self) -> dict:
        return {"mode": self.mode,
                "exponents": [list(row) for row in self.exponents]}

    @classmethod
    def from_mapping(cls, data) -> "BasisSpec":
        return cls(mode=data["mode"], exponents=tuple(data["exponents"]))


def _monomials(v: Array, exp: Array) -> Array:
    """prod_k v_k ** exp_jk for every exponent row j: (..., dim) -> (..., z).

    The (..., z, dim) power array is filled from each distinct exponent
    rather than by raising every entry: 0 gives 1.0, and any other e one
    power of v.  numpy may raise an array exponent with a vectorised pow (an
    AVX-512 build does, and its v ** 2 is one ulp from v * v for about 2 %
    of values) but squares a broadcast scalar exponent 2.  So e = 2 keeps an
    array exponent unless the table has one entry, and the entries equal
    those of v[..., None, :] ** exp bit for bit.  The product runs over the
    same axis in the same order.
    """
    if v.shape[-1:] != exp.shape[-1:]:
        raise ValueError(f"points need {exp.shape[-1]} coordinates, as the "
                         f"basis has")
    pw = np.ones(v.shape[:-1] + exp.shape)
    # not np.unique: its first call imports numpy.ma, about 1 MB of RSS
    for e in sorted(set(exp.ravel().tolist()) - {0}):
        if e == 2 and exp.size > 1:
            # a fresh output: powering in place into the exponent array
            # changed the bits of a one-element v
            p = v ** np.full(v.shape, 2.0)
        else:
            p = v ** float(e)
        for r, c in zip(*np.nonzero(exp == e)):
            pw[..., r, c] = p[..., c]
        del p  # at most one power of v alive at a time
    return np.prod(pw, axis=-1)


def quartic_difference_basis(state_dim: int) -> BasisSpec:
    """Per-coordinate quartic and quadratic difference monomials plus a constant."""
    rows = []
    for k in range(state_dim):
        for power in (4, 2):
            row = [0] * state_dim
            row[k] = power
            rows.append(tuple(row))
    rows.append(tuple([0] * state_dim))
    return BasisSpec(mode="difference", exponents=tuple(rows))


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


def min_sample_size(eps, beta: float, unknowns: int,
                    cap: int = SAMPLE_CAP) -> int:
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
        if q >= cap:
            raise CapacityError(
                f"minimal sample size exceeds {cap}; relax eps or beta")
        q = min(2 * q, cap)
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
    if min(j_f, j_x, j_d, state_bound, dist_bound, sigma, mu, eta) < 0:
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


def _sample_dynamics(sys: BlackBoxSystem, pairs: int, seed: int,
                     retry_cap: int = 100) -> tuple[float, float]:
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
                if tries > retry_cap:
                    raise SolverError("could not draw a non-coincident sample pair")
                second[k] = rng.uniform(box[:, 0], box[:, 1])
                gaps[k] = np.linalg.norm(first[k] - second[k])
        nus = np.broadcast_to(nu, (pairs, nu.size))
        ya = sys.step(first[:, :n], nus, first[:, n:])
        yb = sys.step(second[:, :n], nus, second[:, n:])
        slope = max(slope, float(np.max(np.linalg.norm(ya - yb, axis=1) / gaps)))
        fmax = max(fmax, float(np.max(np.linalg.norm(np.vstack([ya, yb]), axis=1))))
    return slope, fmax


class _SlopeSource:
    """A source of dynamics slopes: `slopes(sys)` gives (j_f, j_x, j_d), the
    bounds on ||f|| and on its slopes in state and disturbance that
    `row_lipschitz` turns into the row-function Lipschitz constant."""

    def bound(self, sys: BlackBoxSystem, sigma: float, mu: float, eta: float) -> float:
        w1, _, w3 = domain_bounds(sys.signature)
        return row_lipschitz(*self.slopes(sys), w1, w3, sigma, mu, eta)


@dataclass(frozen=True, eq=False)
class LinearLipschitz(_SlopeSource):
    """Slopes of known linear dynamics x+ = A x + B nu + E d."""

    a: object
    b: object = None
    e: object = None

    def slopes(self, sys: BlackBoxSystem) -> tuple[float, float, float]:
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
        if min(self.j_f, self.j_x, self.j_d) < 0:
            raise ValueError("j_f, j_x and j_d must be non-negative")

    def slopes(self, sys: BlackBoxSystem) -> tuple[float, float, float]:
        return self.j_f, self.j_x, self.j_d


@dataclass(eq=False)
class DataLipschitz(_SlopeSource):
    """Slopes estimated from sampled queries, not proved: the largest
    observed slope times a safety factor serves as both j_x and j_d, and j_f
    is the larger of the observed maximum of ||f|| times the safety factor
    and the state-box norm.  Slopes are cached per system object."""

    pairs: int = 200
    seed: int = 0
    safety: float = 1.5
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.pairs < 2:
            raise ValueError("need at least 2 pairs")
        if self.safety < 0:
            raise ValueError("safety must be non-negative")

    def slopes(self, sys: BlackBoxSystem) -> tuple[float, float, float]:
        if sys not in self._cache:
            slope, fmax = _sample_dynamics(sys, self.pairs, self.seed)
            w1, _, _ = domain_bounds(sys.signature)
            self._cache[sys] = (max(fmax * self.safety, w1),
                                slope * self.safety, slope * self.safety)
        return self._cache[sys]


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
      (coef_phi[i,u,c] - mu*g_cur[i,s]).phi + coef_eta[i,d]*eta
      + coef_theta*theta + const - xi <= 0, with c = successor[u,s,d].

    coef_gamma (q, s) holds ||x_i - xhat_s||^2; coef_eta (q, d) holds
    -||d_i - dhat_d||^2; coef_theta is the constant -1 and const the constant
    0 (both 0-d); coef_phi (q, u, s, z) holds g(x+_iu, center of cell c) for
    every in-box cell c; g_cur (q, s, z) holds g(x_i, xhat_s); successor
    (u, s, d) is the in-box cell whose center represents the abstract
    successor (the clamped nearest cell for the sink).  `gather` builds the
    requested rows bit for bit as a dense matrix would hold them.

    `residual_blocks` skips an H2 block whose rows cannot exceed the floor
    the scan sends it.  Sample i's row (u, s, d) is summed in the order
    (succ[i, column(u, s, d)] + by_state[i, s]) + by_dist[i, d].  The block's
    bound is summed in the same order from the largest term of each stage:
    top[u, s] = the max of succ[i] over the successor columns of (u, s)
    across all d, then max over (u, s) of (top[u, s] + by_state[i, s]), then
    + max by_dist[i].  IEEE round-to-nearest addition is monotone, so the
    bound is at least every row of the block bit for bit, and a block with
    bound <= floor holds no row above the floor.  The bound is exact only
    while both sums keep that order: change them together.
    `blocks_scanned` and `blocks_pruned` count the H2 blocks built and
    skipped.
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
        # (u, s, d) -> column of the successor cell in coef_phi[i] @ phi,
        # flattened to u*s columns
        self._succ_column = np.arange(n_u)[:, None, None] * n_s + self.successor
        # the distinct successor columns of each (u, s) pair across d, one
        # run per pair laid end to end, and where each run starts
        pairs = n_u * n_s
        hit = np.zeros((pairs, n_s), dtype=bool)
        hit[np.arange(pairs)[:, None], self.successor.reshape(pairs, n_d)] = True
        pair, cell = np.nonzero(hit)
        self._bound_columns = pair - pair % n_s + cell
        self._bound_starts = np.searchsorted(pair, np.arange(pairs))
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

    def residual_blocks(self, vec: Array):
        """Yield (start_row, A x - b over a block of rows), in row order: the
        H1 block, then one H2 block of u*s*d rows per sample.

        A value sent into the generator is a floor: until the next one, H2
        blocks whose bound (see the class docstring) is at or below it are
        skipped, not yielded.  A plain iteration sends None and gets every
        block.  Each call fills one buffer of its own and reuses it for every
        H2 block, so a block holds its values only until the next one is
        drawn; copy what must outlive that."""
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
        succ = (self.coef_phi @ phi).reshape(q, n_u * n_s)
        state_term = self.coef_theta * theta + self.const - xi - self.mu * cur
        dist_term = self.coef_eta * eta
        # summed in the block's own order; see the class docstring
        top = np.maximum.reduceat(succ[:, self._bound_columns],
                                  self._bound_starts, axis=1)
        bound = (top.reshape(q, n_u, n_s)
                 + state_term[:, None, :]).max(axis=(1, 2)) + dist_term.max(axis=1)
        by_state = state_term[:, None, :, None]
        by_dist = dist_term[:, None, None, :]
        block = np.empty((n_u, n_s, n_d))
        start = st.h1_rows
        for i in range(q):
            if floor is not None and bound[i] <= floor:
                self.blocks_pruned += 1
            else:
                self.blocks_scanned += 1
                np.take(succ[i], self._succ_column, out=block)
                block += by_state[i]
                block += by_dist[i]
                floor = yield start, block.reshape(-1)
            start += block.size

    def residuals(self, vec: Array) -> Array:
        """A x - b over all rows, in row order: the blocks of
        `residual_blocks` laid end to end."""
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
        a[two, 1] = self.coef_eta[i, dh]
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


class SopData:
    """Sampled transitions and the mu-independent factors of the scenario
    program, reusable across the per-mu LP instances of one certification
    run."""

    def __init__(self, samples: SampleBatch, sys: BlackBoxSystem,
                 state_grid: UniformGrid, dist_grid: UniformGrid,
                 basis: BasisSpec, row_cap: int = DEFAULT_ROW_CAP):
        sig = sys.signature
        if samples.state_dim != sig.state_dim or samples.dist_dim != sig.disturbance_dim:
            raise ValueError("sample batch does not match the system signature")
        if state_grid.dim != sig.state_dim:
            raise ValueError("state grid does not match the state dimension")
        if dist_grid is None or dist_grid.dim != sig.disturbance_dim:
            raise ValueError("disturbance grid does not match the disturbance dimension")
        if basis.state_dim != sig.state_dim:
            raise ValueError("basis does not match the state dimension")
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
        rows = self.structure.h1_rows + self.structure.h2_rows
        if rows > row_cap:
            raise CapacityError(
                f"{rows} SOP rows exceed the cap {row_cap}; a row-generation "
                "round may scan every row, so the cap bounds the worst-case "
                "certify time")

        state_reps = state_grid.all_representatives()
        dist_reps = dist_grid.all_representatives()
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
        # the score stays evaluable on every row.
        _, rep_cell = transition_table(sys, state_grid, dist_grid, inputs)
        self.successor_reps = np.ascontiguousarray(rep_cell.transpose(1, 0, 2))

        # Per-sample geometry independent of mu.
        self.g_cur = basis.features(xs[:, None, :], state_reps[None, :, :])
        self.g_succ = basis.features(x_plus[:, :, None, :],
                                     state_reps[None, None, :, :])
        diff_x = xs[:, None, :] - state_reps[None, :, :]
        self.dist2_state = np.einsum("qsk,qsk->qs", diff_x, diff_x)
        diff_d = ds[:, None, :] - dist_reps[None, :, :]
        self.dist2_dist = np.einsum("qdk,qdk->qd", diff_d, diff_d)

    def instance(self, mu: float, boxes: VariableBoxes | None = None) -> SopInstance:
        if not 0.0 < mu < 1.0:
            raise ValueError("mu must lie in (0,1)")
        return SopInstance(coef_gamma=self.dist2_state,
                           coef_eta=-self.dist2_dist,
                           coef_theta=np.array(-1.0), coef_phi=self.g_succ,
                           const=np.array(0.0), g_cur=self.g_cur,
                           successor=self.successor_reps, mu=float(mu),
                           structure=self.structure,
                           boxes=boxes or VariableBoxes())


# ----------------------------------------------------------------------------
# LP solve with lexicographic refinement
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


def _pin(width: int, index: int, sign: float, rhs: float):
    """Constraint row  sign * x[index] <= rhs."""
    row = np.zeros(width)
    row[index] = sign
    return row, rhs


def solve_lp(instance: SopInstance, lexicographic: bool = True,
             batch: int = 64, tol: float = 1e-9, viol_tol: float = 1e-9,
             xi_target: float | None = None) -> SolveReport:
    """Minimize xi over all rows within the instance's variable boxes;
    optionally refine the optimum lexicographically (min eta, then max gamma,
    then min theta) with xi pinned at xi*.  A finite xi_target relaxes the
    pin to max(xi*, xi_target): the refinement then trades unneeded slack
    depth for better gains, and the certificate margin must be charged
    against the achieved xi, not xi*.
    Every generated row holds at the returned vector."""
    if instance.row_count == 0:
        raise ValueError("instance has no rows")
    z = instance.z
    nv = instance.n_vars
    scanned, pruned = instance.blocks_scanned, instance.blocks_pruned
    lower, upper = instance.boxes.lower(z), instance.boxes.upper(z)

    def objective(index: int) -> Array:
        c = np.zeros(nv)
        c[index] = 1.0
        return c

    result, working, active = solve_with_rows(
        objective(nv - 1), instance, lower, upper, batch=batch, tol=tol,
        viol_tol=viol_tol, context="SOP phase xi")
    iterations, rounds = result.iterations, result.rounds
    xi_star = float(result.objective)
    vec = result.x

    if lexicographic:
        slack = lambda v: 1e-9 * max(1.0, abs(v))
        xi_pin = xi_star
        if xi_target is not None:
            xi_pin = max(xi_star, float(xi_target))
        row, rhs = _pin(nv, nv - 1, 1.0, xi_pin + slack(xi_pin))
        extra_a, extra_b = [row], [rhs]
        # eta down first: eta couples subsystems at composition time and any
        # slack left in it would otherwise be parked at the box top by the
        # later phases.  gamma up then theta down follow.
        plan = [(1, False), (0, True), (2, False)]
        for index, maximize in plan:
            result, working, active = solve_with_rows(
                objective(index), instance, lower, upper,
                extra_a=np.asarray(extra_a), extra_b=np.asarray(extra_b),
                maximize=maximize, start_rows=working, batch=batch, tol=tol,
                viol_tol=viol_tol, context=f"SOP refine var {index}")
            iterations += result.iterations
            rounds += result.rounds
            val = float(result.x[index])
            if maximize:
                row, rhs = _pin(nv, index, -1.0, -(val - slack(val)))
            else:
                row, rhs = _pin(nv, index, 1.0, val + slack(val))
            extra_a.append(row)
            extra_b.append(rhs)
            vec = result.x

    # Blocks with no row above the limit are skipped: the verdict is the
    # same, and a reported violation is still the exact worst row.
    limit = 1e-7
    worst = max(float(np.max(block, initial=-np.inf))
                for _, block in scan_above(instance.residual_blocks(vec),
                                           lambda: limit))
    if worst > limit:
        raise SolverError(f"returned vector violates a row by {worst:.3e}")
    decision = DecisionVector.from_array(vec, instance.mu)
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

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0,1)")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0,1)")

    @property
    def confidence(self) -> float:
        return 1.0 - self.beta

    def value(self, x, xhat) -> Array:
        """Score S(x, xhat); needs the basis and coefficients."""
        if self.basis is None or self.phi is None:
            raise ValueError("certificate carries no score coefficients")
        feats = self.basis.features(x, xhat)
        return feats @ np.asarray(self.phi, dtype=float)

    def to_mapping(self) -> dict:
        out = {
            "gamma": self.gamma, "mu": self.mu, "eta": self.eta,
            "theta": self.theta, "beta": self.beta, "certified": self.certified,
            "margin": self.margin, "state_dim": self.state_dim,
            "mu_tilde": self.mu_tilde, "eta_tilde": self.eta_tilde,
            "theta_tilde": self.theta_tilde, "xi_star": self.xi_star,
            "xi_achieved": self.xi_achieved,
            "psi": self.psi, "lam": self.lam, "q": self.q, "seed": self.seed,
            "unknowns": self.unknowns, "eps": list(self.eps),
            "mu_grid": list(self.mu_grid), "margins": list(self.margins),
            "lipschitz": list(self.lipschitz),
            "kappa_radii": list(self.kappa_radii),
            "basis": self.basis.to_mapping() if self.basis else None,
            "phi": list(self.phi) if self.phi is not None else None,
            "sigma": self.sigma,
            "boxes": self.boxes.to_mapping() if self.boxes else None,
        }
        return out

    @classmethod
    def from_mapping(cls, data) -> "ApbfCertificate":
        data = dict(data)
        if data.get("basis"):
            data["basis"] = BasisSpec.from_mapping(data["basis"])
        if data.get("boxes"):
            data["boxes"] = VariableBoxes.from_mapping(data["boxes"])
        for key in ("eps", "mu_grid", "margins", "lipschitz", "kappa_radii"):
            data[key] = tuple(data.get(key) or ())
        if data.get("phi") is not None:
            data["phi"] = tuple(data["phi"])
        return cls(**data)


def certify_apbf(sys: BlackBoxSystem, state_grid: UniformGrid,
                 dist_grid: UniformGrid, basis: BasisSpec, mu_grid, eps,
                 beta: float, lipschitz, boxes: VariableBoxes | None = None,
                 unknowns: int | None = None, seed: int = 0,
                 psi: float = 0.99, lam: float = 1.0,
                 xi_target: float | None = None,
                 row_cap: int = DEFAULT_ROW_CAP,
                 samples: SampleBatch | None = None) -> ApbfCertificate:
    """Draw the minimal sample batch once, solve one LP per contraction level,
    and emit the best-margin certificate (uncertified when margin > 0).  A
    pre-drawn batch may be passed in; its size must match the minimal sample
    count implied by (eps, beta, unknowns).  Each level's margin uses the
    radius kappa^{-1}(eps) of the uniform sampling distribution on X x D."""
    plan = sample_plan(mu_grid, eps, beta, basis.z, unknowns)
    if samples is None:
        samples = draw_samples(sys.signature, plan.q, seed)
    elif samples.count != plan.q:
        raise ValueError(f"sample batch has {samples.count} points, "
                         f"the settings require exactly {plan.q}")
    data = SopData(samples, sys, state_grid, dist_grid, basis, row_cap=row_cap)

    sig = sys.signature
    dims = sig.state_dim + sig.disturbance_dim
    box = np.vstack([sig.state_box, sig.disturbance_box])
    volume = float(np.prod(box[:, 1] - box[:, 0]))
    radii = [kappa_inverse(e, dims, volume) for e in plan.eps]

    def solve_level(mu_t: float, radius: float):
        inst = data.instance(mu_t, boxes)
        report = solve_lp(inst, xi_target=xi_target)
        level_l = lipschitz.bound(sys, sigma=state_grid.sigma, mu=mu_t,
                                  eta=report.decision.eta)
        # Charge the margin against the slack the returned vector actually
        # uses; with xi_target unset this equals xi* up to pin tolerance.
        return report, level_l, apbf_margin(report.decision.xi, level_l, radius)

    solved = [solve_level(m, r) for m, r in zip(plan.mu_levels, radii)]

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
        lam=float(lam), q=plan.q, seed=seed, unknowns=plan.unknowns,
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
