"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves  min/max c.x  subject to  A x <= b  and per-variable bounds, on a dense
tableau.  Variables are shifted/split to non-negative form, rows are
equilibrated, phase 1 minimizes artificial infeasibility, phase 2 the real
objective.  Pricing is Dantzig (most negative reduced cost) while the
objective moves; after a run of degenerate pivots it falls back to Bland's
rule (smallest eligible index enters; ratio-test ties leave by smallest basic
index), whose termination guarantee then applies, and returns to Dantzig on
the next strict improvement.

`solve_with_rows` wraps the solver in a constraint-generation loop for row
sets too large to hand the tableau at once: solve a master over a working
subset, scan all rows for violations, add the worst offenders, drop rows that
have gone slack once the master is over budget, repeat until every row holds.

The scan streams: the row source yields its residuals block by block, and
`top_violators` keeps a running top-k of the rows outside the working set,
so a round holds O(block + k) values and never one entry per row.  Among
equal residuals the lower row index wins, which makes the chosen rows a
function of the residual values alone, whatever the block boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, SolverError, UnboundedError

Array = np.ndarray


@dataclass(eq=False)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Array | None
    objective: float | None
    active_rows: Array
    iterations: int


def _pivot(tab: Array, basis: Array, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    tab -= np.outer(colvals, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


_STALL_LIMIT = 12  # degenerate pivots before switching to Bland pricing


def _run_simplex(tab: Array, basis: Array, ncols: int, tol: float,
                 max_iter: int) -> tuple[str, int]:
    """Iterate on a tableau whose last row is the (minimization) objective and
    last column the rhs.  Returns (status, iterations)."""
    it = 0
    stall = 0
    bland = False
    last_obj = float(tab[-1, -1])
    while True:
        red = tab[-1, :ncols]
        if bland:
            cand = np.flatnonzero(red < -tol)
            if cand.size == 0:
                return "optimal", it
            entering = int(cand[0])  # Bland: smallest eligible index
        else:
            entering = int(np.argmin(red))
            if red[entering] >= -tol:
                return "optimal", it
        col = tab[:-1, entering]
        pos = np.flatnonzero(col > tol)
        if pos.size == 0:
            return "unbounded", it
        ratios = tab[pos, -1] / col[pos]
        best = np.min(ratios)
        tied = pos[ratios <= best + 1e-12]
        leaving = int(tied[np.argmin(basis[tied])])  # Bland on ties
        _pivot(tab, basis, leaving, entering)
        it += 1
        obj = float(tab[-1, -1])
        if abs(obj - last_obj) > 1e-12 * max(1.0, abs(last_obj)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        last_obj = obj
        if it > max_iter:
            raise SolverError(f"simplex exceeded {max_iter} iterations")


def solve_simplex(c, a_ub=None, b_ub=None, lower=None, upper=None,
                  maximize: bool = False, tol: float = 1e-9,
                  active_tol: float = 1e-8, max_iter: int = 200_000) -> SimplexResult:
    """Solve min (or max) c.x s.t. a_ub x <= b_ub, lower <= x <= upper.

    lower/upper default to unbounded; use -inf/inf entries for one-sided
    bounds.  active_rows reports the a_ub rows tight at the optimum.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if a_ub is None:
        a_ub = np.zeros((0, n))
        b_ub = np.zeros(0)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.asarray(b_ub, dtype=float).reshape(a_ub.shape[0])
    lower = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if np.any(lower > upper):
        return SimplexResult("infeasible", None, None, np.empty(0, dtype=int), 0)
    cmin = -c if maximize else c

    # Shift/split variables to y >= 0: x_i = offset_i + sum(sign * y_col).
    col_map = []
    offsets = np.zeros(n)
    bound_rows = []  # (y column, width) for doubly-bounded variables
    ny = 0
    for i in range(n):
        lo, hi = lower[i], upper[i]
        if np.isfinite(lo):
            col_map.append(((ny, 1.0),))
            offsets[i] = lo
            if np.isfinite(hi):
                bound_rows.append((ny, hi - lo))
            ny += 1
        elif np.isfinite(hi):
            col_map.append(((ny, -1.0),))
            offsets[i] = hi
            ny += 1
        else:
            col_map.append(((ny, 1.0), (ny + 1, -1.0)))
            ny += 2

    m0 = a_ub.shape[0]
    m = m0 + len(bound_rows)
    a = np.zeros((m, ny))
    for i in range(n):
        for col, sign in col_map[i]:
            a[:m0, col] += sign * a_ub[:, i]
    b = np.empty(m)
    b[:m0] = b_ub - a_ub @ offsets
    for r, (col, width) in enumerate(bound_rows):
        a[m0 + r, col] = 1.0
        b[m0 + r] = width
    cy = np.zeros(ny)
    for i in range(n):
        for col, sign in col_map[i]:
            cy[col] += sign * cmin[i]

    # Row equilibration keeps Bland's tolerance meaningful across row scales.
    scale = np.max(np.abs(a), axis=1, initial=0.0)
    scale = np.where(scale > 0, scale, 1.0)
    a = a / scale[:, None]
    b = b / scale

    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.shape[0]

    # Tableau columns: y | slack | artificial | rhs
    ncols = ny + m + n_art
    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :ny] = a
    tab[:m, -1] = b
    basis = np.empty(m, dtype=int)
    for r in range(m):
        tab[r, ny + r] = -1.0 if flip[r] else 1.0
        basis[r] = ny + r
    for k, r in enumerate(art_rows):
        tab[r, ny + m + k] = 1.0
        basis[r] = ny + m + k

    iterations = 0
    n_slack_cols = m  # slack block size is fixed even if rows get dropped
    if n_art:
        tab[-1, ny + m:ny + m + n_art] = 1.0
        for r in art_rows:
            tab[-1] -= tab[r]
        status, it = _run_simplex(tab, basis, ncols, tol, max_iter)
        iterations += it
        if status != "optimal":
            raise SolverError("phase-1 objective reported unbounded; "
                              "numerical breakdown")
        if tab[-1, -1] < -1e-7:
            return SimplexResult("infeasible", None, None, np.empty(0, dtype=int),
                                 iterations)
        # Drive leftover zero-valued artificials out of the basis.
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] >= ny + n_slack_cols:
                piv = np.flatnonzero(np.abs(tab[r, :ny + n_slack_cols]) > tol)
                if piv.size:
                    _pivot(tab, basis, r, int(piv[0]))
                else:
                    keep[r] = False  # redundant all-zero row
        if not np.all(keep):
            tab = np.vstack([tab[:m][keep], tab[-1:]])
            basis = basis[keep]
            m = int(keep.sum())
        tab[:, ny + n_slack_cols:ncols] = 0.0  # artificials may not re-enter

    ncols_eff = ny + n_slack_cols
    tab[-1, :] = 0.0
    tab[-1, :ny] = cy
    for r in range(m):
        if tab[-1, basis[r]] != 0.0:
            tab[-1] -= tab[-1, basis[r]] * tab[r]
    status, it = _run_simplex(tab, basis, ncols_eff, tol, max_iter)
    iterations += it
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, np.empty(0, dtype=int),
                             iterations)

    y = np.zeros(ncols)
    y[basis] = tab[:m, -1]
    x = offsets.copy()
    for i in range(n):
        for col, sign in col_map[i]:
            x[i] += sign * y[col]
    objective = float(c @ x)
    resid = b_ub - a_ub @ x
    active = np.flatnonzero(resid <= active_tol * np.maximum(1.0, np.abs(b_ub)))
    return SimplexResult("optimal", x, objective, active, iterations)


def top_violators(blocks, skip: Array, k: int, viol_tol: float) -> Array:
    """Row indices of the k largest residuals above viol_tol, ascending.

    `blocks` yields (start_row, residuals) in increasing row order; rows in
    the sorted array `skip` are passed over.  Among equal residuals the lower
    row index wins.  A row joins the candidates only when it beats the
    current k-th residual, and every earlier row has a lower index, so a tie
    with the k-th never displaces it.
    """
    val = np.empty(0)
    idx = np.empty(0, dtype=int)
    floor = viol_tol
    for start, block in blocks:
        hit = np.flatnonzero(block > floor)
        if hit.size == 0:
            continue
        lo, hi = np.searchsorted(skip, (start, start + block.size))
        if hi > lo:
            hit = np.setdiff1d(hit, skip[lo:hi] - start, assume_unique=True)
        val = np.concatenate([val, block[hit]])
        idx = np.concatenate([idx, hit + start])
        if val.size >= k:
            keep = np.lexsort((idx, -val))[:k]
            val, idx = val[keep], idx[keep]
            floor = max(viol_tol, val[-1])
    return np.sort(idx)


def solve_with_rows(c, source, lower, upper, extra_a=None, extra_b=None,
                    maximize: bool = False, start_rows=None, batch: int = 64,
                    viol_tol: float = 1e-9, max_rounds: int = 1000,
                    tol: float = 1e-9, max_master: int = 512,
                    context: str = "LP"):
    """Constraint generation over a large implicit row set.

    `source` exposes row_count, gather(indices) -> (A, b), and
    residual_blocks(x), which yields (start_row, A x - b over a block of
    rows) covering all rows in increasing row order; a block need only stay
    valid until the next is drawn.  Each round adds the `batch` most violated
    rows (ties to the lower index, see `top_violators`).  Extra rows are
    always kept in the master.  Once the master would exceed max_master rows,
    working rows slack at the current optimum are dropped; dropped rows
    rejoin through the violation scan if they ever bind again.
    Returns (SimplexResult, working row indices, active source row indices).
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if extra_a is None:
        extra_a = np.zeros((0, n))
        extra_b = np.zeros(0)
    extra_a = np.asarray(extra_a, dtype=float).reshape(-1, n)
    extra_b = np.asarray(extra_b, dtype=float).reshape(extra_a.shape[0])

    if batch < 1:
        raise ValueError("batch must be at least 1")
    count = source.row_count
    if start_rows is None or len(start_rows) == 0:
        working = np.zeros(1, dtype=int) if count else np.empty(0, dtype=int)
    else:
        working = np.unique(np.asarray(start_rows, dtype=int))

    for _ in range(max_rounds):
        if working.size:
            ga, gb = source.gather(working)
            a = np.vstack([ga, extra_a])
            b = np.concatenate([gb, extra_b])
        else:
            ga, gb = np.zeros((0, n)), np.zeros(0)
            a, b = extra_a, extra_b
        result = solve_simplex(c, a, b, lower, upper, maximize=maximize, tol=tol)
        if result.status == "infeasible":
            raise InfeasibleError(f"{context}: master infeasible")
        if result.status == "unbounded":
            raise UnboundedError(f"{context}: master unbounded")
        if count == 0:
            return result, working, np.empty(0, dtype=int)
        # the master already enforces the working rows
        worst = top_violators(source.residual_blocks(result.x), np.sort(working),
                              batch, viol_tol)
        if worst.size == 0:
            act = result.active_rows
            active_source = working[act[act < working.size]] if working.size else \
                np.empty(0, dtype=int)
            return result, working, active_source
        if working.size + worst.size > max_master:
            working_resid = ga @ result.x - gb
            loose = working_resid < -1e-6 * np.maximum(1.0, np.abs(gb))
            working = working[~loose]
        working = np.concatenate([working, worst])
    raise SolverError(f"{context}: row generation did not settle "
                      f"within {max_rounds} rounds")
