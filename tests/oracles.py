"""Independent reference computations for the test suite.

Everything here is deliberately naive: brute force over vertices, fixed-point
iteration on Python sets, scipy for binomial tails.  Slow but obviously
correct, so the package's optimized implementations can be checked against
them.
"""

import itertools
import math

import numpy as np
from scipy.stats import binom


def lp_by_vertices(c, a_ub, b_ub, lower, upper, maximize=False):
    """Solve min/max c.x s.t. a_ub x <= b_ub, lower <= x <= upper by
    enumerating all candidate vertices (every n-subset of tight rows).

    Returns (status, objective) with status in {"optimal", "infeasible"}.
    All bounds must be finite so the feasible set is a polytope.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = [np.asarray(a_ub, dtype=float).reshape(-1, n)]
    rhs = [np.asarray(b_ub, dtype=float).ravel()]
    eye = np.eye(n)
    rows.append(eye)          # x <= upper
    rhs.append(np.asarray(upper, dtype=float))
    rows.append(-eye)         # -x <= -lower
    rhs.append(-np.asarray(lower, dtype=float))
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    m = a.shape[0]

    best = None
    feasible = False
    for subset in itertools.combinations(range(m), n):
        sub_a = a[list(subset)]
        sub_b = b[list(subset)]
        if abs(np.linalg.det(sub_a)) < 1e-12:
            continue
        x = np.linalg.solve(sub_a, sub_b)
        slack = b - a @ x
        if np.min(slack) < -1e-9 * max(1.0, float(np.max(np.abs(b)))):
            continue
        feasible = True
        val = float(c @ x)
        if best is None or (val > best if maximize else val < best):
            best = val
    if not feasible:
        return "infeasible", None
    return "optimal", best


def brute_top(resid, skip, k, viol_tol):
    """The k largest residuals above viol_tol outside `skip`, ties to the
    lower index, from one sort of the full vector."""
    resid = resid.copy()
    resid[skip] = -np.inf
    order = np.lexsort((np.arange(resid.size), -resid))[:k]
    return np.sort(order[resid[order] > viol_tol])


def solve_safety_game(table, safe):
    """Maximal winning set by plain fixed-point iteration on Python sets.

    table: (n_states+1, n_inputs, n_dists) int array, last row the sink.
    safe: iterable of safe state indices (sink excluded).
    Returns (winning set, {state: chosen input}) with the first qualifying
    input in index order.
    """
    table = np.asarray(table)
    n_inputs, n_dists = table.shape[1], table.shape[2]
    win = set(int(s) for s in safe)
    while True:
        nxt = set()
        for s in win:
            for u in range(n_inputs):
                if all(int(table[s, u, d]) in win for d in range(n_dists)):
                    nxt.add(s)
                    break
        if nxt == win:
            break
        win = nxt
    chosen = {}
    for s in win:
        for u in range(n_inputs):
            if all(int(table[s, u, d]) in win for d in range(n_dists)):
                chosen[s] = u
                break
    return win, chosen


def min_samples_binomial(eps_list, beta, unknowns):
    """Smallest q with sum_t BinomCDF(unknowns-1; q, eps_t) <= beta,
    computed through scipy's binomial distribution."""
    eps_list = list(np.atleast_1d(eps_list))

    def tail(q):
        return float(sum(binom.cdf(unknowns - 1, q, e) for e in eps_list))

    lo = unknowns
    hi = max(unknowns, 1)
    while tail(hi) > beta:
        hi *= 2
        if hi > 10**8:
            raise RuntimeError("oracle search exceeded 1e8")
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid < unknowns or tail(mid) > beta:
            lo = mid + 1
        else:
            hi = mid
    return hi


def ball_fraction(radius, dims, volume):
    """Lebesgue measure of a radius-r Euclidean ball over `volume`."""
    return math.pi ** (dims / 2.0) * radius ** dims / (
        2.0 ** dims * math.gamma(dims / 2.0 + 1.0) * volume)


def ball_radius(eps, dims, volume):
    """Inverse of ball_fraction in the radius argument."""
    return (eps * volume * 2.0 ** dims * math.gamma(dims / 2.0 + 1.0)
            / math.pi ** (dims / 2.0)) ** (1.0 / dims)


def basis_features_direct(basis, x, xhat):
    """BasisSpec.features by raising every exponent entry of every monomial
    with one array-exponent power and multiplying over the coordinates."""
    delta = np.asarray(x, dtype=float) - np.asarray(xhat, dtype=float)
    exp = np.asarray(basis.exponents)
    return np.prod(delta[..., None, :] ** exp, axis=-1)


def closed_loop_room_by_room(subsystems, wiring, controllers, x0, horizon):
    """One start of the wired network, refined one room at a time: each step
    calls select() on every room in index order, and the first room it
    raises for ends the run at that step.  Returns the visited states
    (t + 1, n), the input indices (t, m), t, and the failing room and its
    message (None, None when the run reaches the horizon)."""
    dims = [s.signature.state_dim for s in subsystems]
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    blocks = [slice(offsets[i], offsets[i + 1]) for i in range(len(dims))]
    x = np.asarray(x0, dtype=float)
    states, chosen = [x], []
    for k in range(horizon):
        picks = []
        for i, ctrl in enumerate(controllers):
            try:
                picks.append(ctrl.select(x[blocks[i]])[1])
            except Exception as err:  # the refinement miss
                return (np.array(states), np.array(chosen, dtype=np.int64)
                        .reshape(k, len(dims)), k, i, str(err))
        nxt = np.empty_like(x)
        for i, sub in enumerate(subsystems):
            d = np.concatenate([x[blocks[j]] for j in wiring[i]])
            nu = controllers[i].table.fts.inputs[picks[i]]
            nxt[blocks[i]] = sub.step(x[None, blocks[i]], nu[None], d[None])[0]
        x = nxt
        states.append(x)
        chosen.append(picks)
    return (np.array(states), np.array(chosen, dtype=np.int64)
            .reshape(horizon, len(dims)), horizon, None, None)
