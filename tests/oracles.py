"""Independent reference computations for the test suite.

Everything here is deliberately naive: brute force over vertices, fixed-point
iteration on Python sets, scipy for binomial tails.  Slow but obviously
correct, so the package's optimized implementations can be checked against
them.
"""

import dataclasses
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


def squared_distances_einsum(points, reps):
    """||points[i] - reps[c]||^2 for every pair, as one einsum over the
    whole (points x reps x coordinates) difference array."""
    diff = points[:, None, :] - reps[None, :, :]
    return np.einsum("qsk,qsk->qs", diff, diff)


def squared_distances_in_axis_order(points, reps):
    """||points[i] - reps[c]||^2 for every pair, one pair and one coordinate
    at a time, summed in axis order: ((d_0^2 + d_1^2) + d_2^2) and so on."""
    out = np.zeros((len(points), len(reps)))
    for i, point in enumerate(points):
        for c, rep in enumerate(reps):
            total = 0.0
            for p, r in zip(point.tolist(), rep.tolist()):
                total += (p - r) * (p - r)
            out[i, c] = total
    return out


def pick_numpy(ratio, weight, order, bland):
    """Position of the smallest ratio; ties within 1e-12 go to the largest
    weight, then to the lowest order, or straight to the lowest order under
    Bland's rule.  The simplex solver's selection in numpy arrays, as it was
    before it moved to plain floats; takes lists or arrays."""
    ratio, weight, order = (np.asarray(v) for v in (ratio, weight, order))
    best = float(np.min(ratio))
    tied = np.flatnonzero(ratio <= best + 1e-12 * max(1.0, abs(best)))
    if not bland:
        w = weight[tied]
        tied = tied[w >= np.max(w)]
    return int(tied[np.argmin(order[tied])])


def dual_simplex_numpy(lp, basis, cost, tol, budget):
    """The solver's dual loop with its ratio test in numpy arrays over every
    basis entry (inf where an entry does not limit the step), picked by
    `pick_numpy`, as it was before the test moved to plain floats.  It reuses
    the solver's basis solve and pricing, which that move left alone."""
    from symabs import simplex
    pricing = simplex._Pricing(+1.0)
    it = 0
    while True:
        gb = lp.g[basis]
        x = simplex._solve(gb, lp.h[basis])
        resid = lp.g[:lp.real] @ x - lp.h[:lp.real]
        resid[basis[basis < lp.real]] = -np.inf
        pricing.update(float(cost @ x))
        if pricing.bland:
            cand = np.flatnonzero(resid > tol)
            if cand.size == 0:
                return "feasible", it
            enter = int(cand[0])
        else:
            enter = int(np.argmax(resid))
            if not resid[enter] > tol:
                return "feasible", it
        yw = simplex._solve(gb.T, np.column_stack([-cost, lp.g[enter]]))
        y, w = yw[:, 0], yw[:, 1]
        pin = basis >= lp.real
        ok = np.where(pin, np.abs(w) > simplex._PIVOT_TOL, w > simplex._PIVOT_TOL)
        if not ok.any():
            return "infeasible", it
        ratio = np.full(basis.size, np.inf)
        ratio[ok] = np.where(pin[ok], 0.0, np.maximum(y[ok], 0.0) / w[ok])
        basis[pick_numpy(ratio, np.abs(w), basis, pricing.bland)] = enter
        it += 1
        if it > budget:
            raise simplex.SolverError(f"simplex exceeded {budget} iterations")


def solve_safety_game(table, safe):
    """Maximal winning set by plain fixed-point iteration on Python sets.

    table: (n_states, n_inputs, n_dists) int array of successor indices,
    n_states being the sink, which has no row and is never winning.
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


def basis_features_direct(exponents, x, xhat):
    """The difference monomials prod_k (x_k - xhat_k)^e_jk of an exponent
    table (one row e_j per monomial), by raising every entry with one
    array-exponent power and multiplying over the coordinates.  On
    `BasisSpec.exponents` this is `BasisSpec.features`."""
    delta = np.asarray(x, dtype=float) - np.asarray(xhat, dtype=float)
    exp = np.asarray(exponents)
    return np.prod(delta[..., None, :] ** exp, axis=-1)


def sop_instance_for_exponents(data, exponents, mu):
    """`data.instance(mu)` with the score monomials of another exponent
    table: the same samples, successors and cells, with g_cur and coef_phi
    from `basis_features_direct`."""
    reps = data.state_grid.all_representatives()
    return dataclasses.replace(
        data.instance(mu),
        g_cur=basis_features_direct(exponents, data.samples.states[:, None, :],
                                    reps[None, :, :]),
        coef_phi=basis_features_direct(exponents, data.x_plus[:, :, None, :],
                                       reps[None, None, :, :]))


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
