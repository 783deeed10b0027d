"""Bounded-variable simplex on an n x n basis, and row generation around it.

Solves  min/max c.x  subject to  A x <= b  and per-variable bounds
lower <= x <= upper, where either bound may be infinite.  The unknowns are
few and the rows many, so the solver works in the space of the unknowns: a
vertex is fixed by a basis of n tight constraints, each a row of A, a finite
variable bound, or, for a variable with no finite bound, a pin x_j = 0 that
holds only until the pin leaves the basis.  Every iteration solves that
n x n basis from scratch for the vertex, the multipliers and the pivot
direction, then takes O(m n) residuals and one ratio test over the rows.  No
inverse is updated, so no error accumulates across pivots.  Rows are
equilibrated (scaled to unit max-abs coefficient), so one tolerance serves
every row.

Two pivoting loops share the basis:

- the dual simplex keeps every multiplier of the basis non-negative and
  brings the most violated row into the basis until every row holds;
- the primal simplex keeps every row satisfied and lets the basis constraint
  with the most negative multiplier leave until none is negative.

A solve starts from a given basis (a warm start) or from the bounds the cost
pushes against.  If that basis is dual feasible, the dual loop alone solves
the LP.  Otherwise, if the vertex breaks a row, the dual loop first runs on
the cost shifted so that the basis is dual feasible, which reaches a feasible
vertex or proves infeasibility, and the primal loop then optimises the real
cost.  Every solve ends in the dual loop, so "optimal" is reported only once
every row holds at the scaled tolerance.

Ratio-test ties go to the largest pivot element, then to the lowest
constraint index.  Pricing takes the largest violation or multiplier while
the objective moves; after a run of degenerate pivots it switches to Bland's
rule (the lowest-index eligible constraint, ratio ties to the lowest index),
whose termination guarantee then applies, and returns on the next strict
improvement.  The ratio tests pick in plain floats: the dual one weighs only
the n basis entries, and the primal one only the rows its step meets.

`solve_with_rows` wraps the solver in Kelley's cutting-plane loop for row
sets too large to hand it at once: solve a master over a working subset,
scan all rows for violations, add the worst offenders, drop rows that have
gone slack once the master is over budget, repeat until every row holds.
Each round's master starts from the previous round's optimal basis; the
added cuts leave it dual feasible, so a few dual pivots restore feasibility.
The working rows are carried from round to round, so a round gathers only
its new cuts.

The scan streams: the row source yields its residuals block by block, and
`top_violators` keeps a running top-k of the rows outside the working set by
selection over fixed slices, so a round holds O(slice + k) values besides
the block, never one entry per row.  Ties go to the lower row index, which
makes the chosen rows a function of the residual values alone, whatever the
block boundaries and order.  The scan is also pruned: before each block
after the first, `scan_above` sends the source the floor a row must exceed
to be admitted.  A source that can bound a block's rows from cheap factors
skips every block whose bound is at or below that floor without building it,
and may visit its blocks largest bound first, so that it can stop at the
first block the floor rules out; the chosen rows are those of a full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleError, SolverError, UnboundedError

Array = np.ndarray


@dataclass(eq=False)
class SimplexResult:
    """Outcome of one solve.

    `basis` holds the n constraints tight at the optimal vertex, as indices
    into the stacked list [a_ub rows, lower bounds, upper bounds, pins]:
    an entry k >= 0 is row k of a_ub, and a negative entry counts from the
    end of the list, so -3n + j is the lower bound of x_j, -2n + j its upper
    bound and -n + j its pin.  Bound entries thus keep their meaning when
    rows are added, and the basis can warm-start a later solve.  `rounds`
    counts the master solves behind the result (1 for a direct solve)."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Array | None
    objective: float | None
    active_rows: Array
    iterations: int
    basis: Array | None = None
    rounds: int = 1


_STALL_LIMIT = 12  # degenerate pivots before switching to Bland pricing
_PIVOT_TOL = 1e-9  # smallest pivot element a ratio test accepts
# Rows of a block that top_violators reads at a time.  On the default room
# at sigma 0.005 (5 M-row blocks) a stage_certify took 413 ms with 2**14,
# 477 ms with 2**12, 423 ms with 2**16 and 626 ms with whole blocks.
SCAN_SLICE = 1 << 14
TOL = 1e-9  # scaled row and multiplier tolerance of every simplex solve
ACTIVE_TOL = 1e-8  # relative residual at which a row is reported active
MAX_ITER = 200_000  # pivots one solve may take
CUT_BATCH = 64  # rows a row-generation round adds
VIOL_TOL = 1e-9  # residual a row must exceed to be added
MAX_ROUNDS = 1000  # row-generation rounds before giving up
MAX_MASTER = 512  # master rows past which slack working rows are dropped


class _Constraints:
    """The constraints of one LP as the items of G x <= h: the equilibrated
    a_ub rows, then per variable a lower bound (-x_j <= -lower_j), an upper
    bound (x_j <= upper_j) and a pin (x_j = 0).  An infinite bound has
    h = inf and never binds.  The first m + 2n items are the real
    constraints; pins only ever leave the basis."""

    def __init__(self, a_ub: Array, b_ub: Array, lower: Array, upper: Array):
        m, n = a_ub.shape
        scale = np.max(np.abs(a_ub), axis=1, initial=0.0)
        scale = np.where(scale > 0, scale, 1.0)
        eye = np.eye(n)
        self.g = np.vstack([a_ub / scale[:, None], -eye, eye, eye])
        self.h = np.concatenate([b_ub / scale, -lower, upper, np.zeros(n)])
        self.m, self.n = m, n
        self.real = m + 2 * n

    def cold_basis(self, cost: Array) -> Array:
        """Per variable, the finite bound the cost pushes against, else any
        finite bound, else the pin."""
        m, n = self.m, self.n
        lower_ok = np.isfinite(self.h[m:m + n])
        upper_ok = np.isfinite(self.h[m + n:m + 2 * n])
        j = np.arange(n)
        lower_item, upper_item, pin_item = m + j, m + n + j, m + 2 * n + j
        return np.where(
            (cost > 0) & lower_ok, lower_item,
            np.where((cost < 0) & upper_ok, upper_item,
                     np.where(lower_ok, lower_item,
                              np.where(upper_ok, upper_item, pin_item))))

    def warm_basis(self, codes) -> Array | None:
        """Items of a basis given in `SimplexResult.basis` form, or None when
        those constraints are singular."""
        codes = np.asarray(codes, dtype=int).reshape(-1)
        m, n = self.m, self.n
        if codes.size != n or np.any(codes < -3 * n) or np.any(codes >= m):
            raise ValueError(f"a basis needs {n} entries in [-{3 * n}, {m})")
        items = np.where(codes >= 0, codes, m + 3 * n + codes)
        ordered = np.sort(items)  # not np.unique: it imports numpy.ma
        if np.any(ordered[1:] == ordered[:-1]) \
                or not np.all(np.isfinite(self.h[items])):
            raise ValueError("a basis needs distinct constraints with finite bounds")
        # Rows have unit max-abs entries, so a tiny determinant flags a
        # numerically singular basis.  slogdet reuses the LU routine that
        # solve needs; an SVD condition number would add ~1 MB of peak RSS.
        sign, logdet = np.linalg.slogdet(self.g[items])
        if sign == 0 or logdet < np.log(1e-12):
            return None
        return items


def _solve(mat: Array, rhs: Array) -> Array:
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("simplex basis became singular") from exc


def _pick(ratio: list, weight: list, order: list, bland: bool) -> int:
    """Position of the smallest ratio; ties go to the largest weight, then to
    the lowest order, or straight to the lowest order under Bland's rule.
    Plain floats: the candidates are a basis or the rows one step meets."""
    best = min(ratio)
    cut = best + 1e-12 * max(1.0, abs(best))
    tied = [k for k, r in enumerate(ratio) if r <= cut]
    if not bland:
        top = max(weight[k] for k in tied)
        tied = [k for k in tied if weight[k] >= top]
    return min(tied, key=order.__getitem__)


class _Pricing:
    """Largest-first pricing that falls back to Bland's rule after a run of
    degenerate pivots; `sense` is +1 when the objective should rise."""

    def __init__(self, sense: float):
        self.sense = sense
        self.last = -np.inf
        self.stall = 0
        self.bland = False

    def update(self, obj: float) -> None:
        gain = self.sense * obj - self.last
        if gain > 1e-12 * max(1.0, abs(obj)):
            self.stall = 0
            self.bland = False
        else:
            self.stall += 1
            if self.stall >= _STALL_LIMIT:
                self.bland = True
        self.last = self.sense * obj


def _dual(lp: _Constraints, basis: Array, cost: Array, tol: float,
          budget: int) -> tuple[str, int]:
    """Dual simplex from a basis whose multipliers are feasible for `cost`.
    Brings violated rows into `basis` (in place) until every row holds.
    Returns ("feasible" | "infeasible", pivots)."""
    pricing = _Pricing(+1.0)
    it = 0
    while True:
        gb = lp.g[basis]
        x = _solve(gb, lp.h[basis])
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
        yw = _solve(gb.T, np.column_stack([-cost, lp.g[enter]]))
        # The entering row takes multiplier t >= 0 and the basis moves to
        # y - t w: sign-constrained entries must stay >= 0, pins at 0.
        ys, ws, codes = yw[:, 0].tolist(), yw[:, 1].tolist(), basis.tolist()
        ok = [k for k, code in enumerate(codes)
              if (abs(ws[k]) if code >= lp.real else ws[k]) > _PIVOT_TOL]
        if not ok:
            return "infeasible", it
        ratio = [0.0 if codes[k] >= lp.real else max(0.0, ys[k]) / ws[k] for k in ok]
        basis[ok[_pick(ratio, [abs(ws[k]) for k in ok], [codes[k] for k in ok],
                       pricing.bland)]] = enter
        it += 1
        if it > budget:
            raise SolverError(f"simplex exceeded {budget} iterations")


def _primal(lp: _Constraints, basis: Array, cost: Array, tol: float,
            budget: int) -> tuple[str, int]:
    """Primal simplex from a basis whose vertex satisfies every row.  Lets
    basis constraints with a wrong-signed multiplier leave `basis` (in place)
    until none is left.  Returns ("optimal" | "unbounded", pivots)."""
    pricing = _Pricing(-1.0)
    items = np.arange(lp.real)
    it = 0
    while True:
        gb = lp.g[basis]
        y = _solve(gb.T, -cost)
        pin = basis >= lp.real
        score = np.where(pin, np.abs(y), -y)
        if pricing.bland:
            cand = np.flatnonzero(score > tol)
            if cand.size == 0:
                return "optimal", it
            leave = int(cand[np.argmin(basis[cand])])
        else:
            leave = int(np.argmax(score))
            if not score[leave] > tol:
                return "optimal", it
        # move off the leaving constraint in the direction that lowers the
        # cost: into the row's interior, or either way off a pin
        step = np.zeros(basis.size)
        step[leave] = np.sign(y[leave]) if pin[leave] else -1.0
        xd = _solve(gb, np.column_stack([lp.h[basis], step]))
        x, d = xd[:, 0], xd[:, 1]
        pricing.update(float(cost @ x))
        rate = lp.g[:lp.real] @ d
        rate[basis[~pin]] = 0.0
        ok = rate > _PIVOT_TOL
        slack = np.maximum(lp.h[:lp.real][ok] - lp.g[:lp.real][ok] @ x, 0.0)
        ratio = slack / rate[ok]
        if not np.any(np.isfinite(ratio)):
            return "unbounded", it
        cand = items[ok]
        enter = cand[_pick(ratio.tolist(), rate[ok].tolist(), cand.tolist(), pricing.bland)]
        basis[leave] = enter
        it += 1
        if it > budget:
            raise SolverError(f"simplex exceeded {budget} iterations")


def solve_simplex(c, a_ub=None, b_ub=None, lower=None, upper=None,
                  maximize: bool = False, basis=None) -> SimplexResult:
    """Solve min (or max) c.x s.t. a_ub x <= b_ub, lower <= x <= upper.

    lower/upper default to unbounded; use -inf/inf entries for one-sided
    bounds.  active_rows reports the a_ub rows tight at the optimum, to
    ACTIVE_TOL; TOL and MAX_ITER set the tolerance and the pivot budget.  A
    `basis` from an earlier result on the same columns warm-starts the solve
    (rows may have been added since); a singular one is replaced by the cold
    start.
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
    none = np.empty(0, dtype=int)
    if np.any(lower > upper):
        return SimplexResult("infeasible", None, None, none, 0)
    cost = -c if maximize else c

    lp = _Constraints(a_ub, b_ub, lower, upper)
    items = None if basis is None else lp.warm_basis(basis)
    if items is None:
        items = lp.cold_basis(cost)
    iterations = 0

    gb = lp.g[items]
    y = _solve(gb.T, -cost)
    pin = items >= lp.real
    if np.any(np.where(pin, np.abs(y), -y) > TOL):
        x = _solve(gb, lp.h[items])
        if np.max(lp.g[:lp.real] @ x - lp.h[:lp.real], initial=-np.inf) > TOL:
            # phase 1: shift the cost until this basis is dual feasible
            shifted = -gb.T @ np.where(pin, 0.0, np.maximum(y, 0.0))
            status, it = _dual(lp, items, shifted, TOL, MAX_ITER)
            iterations += it
            if status == "infeasible":
                return SimplexResult("infeasible", None, None, none, iterations)
        status, it = _primal(lp, items, cost, TOL, MAX_ITER - iterations)
        iterations += it
        if status == "unbounded":
            return SimplexResult("unbounded", None, None, none, iterations)
    # Restores any row the vertex breaks at the scaled tolerance; after the
    # primal loop this normally pivots nothing.
    status, it = _dual(lp, items, cost, TOL, MAX_ITER - iterations)
    iterations += it
    if status == "infeasible":
        return SimplexResult("infeasible", None, None, none, iterations)

    x = _solve(lp.g[items], lp.h[items])
    objective = float(c @ x)
    resid = b_ub - a_ub @ x
    active = np.flatnonzero(resid <= ACTIVE_TOL * np.maximum(1.0, np.abs(b_ub)))
    codes = np.where(items < lp.m, items, items - lp.m - 3 * n)
    return SimplexResult("optimal", x, objective, active, iterations, codes)


def scan_above(blocks, floor):
    """Iterate the (start_row, residuals) blocks of a row source, a
    generator, sending it `floor()` before each block after the first.

    The source may skip any block whose rows are all at or below the floor it
    was last sent, so the consumer must ignore every row at or below its
    floor."""
    try:
        item = next(blocks)
        while True:
            yield item
            item = blocks.send(floor())
    except StopIteration:
        return


def _top_k(val: Array, idx: Array, k: int) -> tuple[Array, Array, float]:
    """The k candidates of largest value, ties to the lower index, and the
    k-th largest value; needs val.size >= k.  `np.partition` finds the k-th
    value, every candidate above it stays, and the lowest-index candidates
    tied at it fill the rest."""
    kth = np.partition(val, val.size - k)[val.size - k]
    keep = val > kth
    tied = np.flatnonzero(val == kth)
    need = k - np.count_nonzero(keep)
    keep[tied[np.argsort(idx[tied], kind="stable")[:need]]] = True
    return val[keep], idx[keep], kth


def top_violators(blocks, skip: Array, k: int, viol_tol: float) -> Array:
    """Row indices of the k largest residuals above viol_tol, ascending.

    `blocks` yields (start_row, residuals) in any block order; rows in the
    sorted array `skip` are passed over.  Among equal residuals the lower row
    index wins, so the result depends on the residual values alone.  A block
    is read in slices of SCAN_SLICE rows; a slice with more than k hits is
    first cut to its own top k, and once k candidates are held each slice
    that adds some is cut back by the same selection (`_top_k`), so besides
    the block it is handed a round holds O(SCAN_SLICE + k) values.  A row
    below the k-th residual cannot make the final top k, but one tied with it
    can still win on its index when a later slice brings it, so the floor is
    max(viol_tol, the largest float below the k-th residual): every row at
    or above the k-th value is admitted.  That floor is what `scan_above`
    sends the source, so a block it skips holds no row that would join.
    """
    val = np.empty(0)
    idx = np.empty(0, dtype=int)
    floor = viol_tol
    for start, block in scan_above(blocks, lambda: floor):
        for first in range(start, start + block.size, SCAN_SLICE):
            part = block[first - start:first - start + SCAN_SLICE]
            admit = part > floor
            lo, hi = np.searchsorted(skip, (first, first + part.size))
            admit[skip[lo:hi] - first] = False
            hit = np.flatnonzero(admit)
            if hit.size == 0:
                continue
            new_val, new_idx = part[hit], hit + first
            if new_val.size > k:
                new_val, new_idx, _ = _top_k(new_val, new_idx, k)
            val = np.concatenate([val, new_val])
            idx = np.concatenate([idx, new_idx])
            if val.size >= k:
                val, idx, kth = _top_k(val, idx, k)
                floor = max(viol_tol, float(np.nextafter(kth, -np.inf)))
    return np.sort(idx)


def solve_with_rows(c, source, lower, upper, extra_a=None, extra_b=None,
                    maximize: bool = False, start_rows=None,
                    context: str = "LP"):
    """Constraint generation over a large implicit row set.

    `source` exposes row_count, gather(indices) -> (A, b), and
    residual_blocks(x), which yields (start_row, A x - b over a block of
    rows) covering every row once, in any block order.  It is a generator:
    the scan sends it a floor before each block after the first (see
    `scan_above`), and it may skip blocks with no row above that floor.  A
    block need only stay valid until the next is drawn.  Each round adds the
    CUT_BATCH rows most violated beyond VIOL_TOL (ties to the lower index,
    see `top_violators`) and re-solves the master from the previous round's
    optimal basis.  Extra rows are always kept in the master.  Once the
    master would exceed MAX_MASTER rows, working rows slack at the current
    optimum are dropped (never a row of the basis); dropped rows rejoin
    through the violation scan if they ever bind again.
    Returns (SimplexResult, working row indices, active source row indices);
    the result's `iterations` and `rounds` add up every master solve.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if extra_a is None:
        extra_a = np.zeros((0, n))
        extra_b = np.zeros(0)
    extra_a = np.asarray(extra_a, dtype=float).reshape(-1, n)
    extra_b = np.asarray(extra_b, dtype=float).reshape(extra_a.shape[0])

    count = source.row_count
    if start_rows is None or len(start_rows) == 0:
        working = np.zeros(1, dtype=int) if count else np.empty(0, dtype=int)
    else:
        # sorted and duplicate-free, as np.unique gives (it imports numpy.ma)
        working = np.sort(np.asarray(start_rows, dtype=int).reshape(-1))
        working = working[np.concatenate(([True], working[1:] != working[:-1]))]

    basis = None
    pivots = 0
    ga, gb = source.gather(working)  # carried across rounds, new cuts added
    for rounds in range(1, MAX_ROUNDS + 1):
        result = solve_simplex(c, np.vstack([ga, extra_a]),
                               np.concatenate([gb, extra_b]), lower, upper,
                               maximize=maximize, basis=basis)
        pivots += result.iterations
        if result.status == "infeasible":
            raise InfeasibleError(f"{context}: master infeasible")
        if result.status == "unbounded":
            raise UnboundedError(f"{context}: master unbounded")
        total = replace(result, iterations=pivots, rounds=rounds)
        if count == 0:
            return total, working, np.empty(0, dtype=int)
        # the master already enforces the working rows
        worst = top_violators(source.residual_blocks(result.x), np.sort(working),
                              CUT_BATCH, VIOL_TOL)
        if worst.size == 0:
            act = result.active_rows
            return total, working, working[act[act < working.size]]
        # Master rows are [working, extra]; carry the basis to the next
        # round's rows: kept working rows keep their order, the new cuts
        # follow them, and the extra rows come last.
        basis = result.basis.copy()
        in_working = (basis >= 0) & (basis < working.size)
        extra = basis >= working.size
        keep = np.ones(working.size, dtype=bool)
        if working.size + worst.size > MAX_MASTER:
            working_resid = ga @ result.x - gb
            keep = working_resid >= -1e-6 * np.maximum(1.0, np.abs(gb))
            keep[basis[in_working]] = True
        basis[extra] += int(keep.sum()) + worst.size - working.size
        basis[in_working] = (np.cumsum(keep) - 1)[basis[in_working]]
        new_a, new_b = source.gather(worst)
        ga, gb = np.vstack([ga[keep], new_a]), np.concatenate([gb[keep], new_b])
        working = np.concatenate([working[keep], worst])
    raise SolverError(f"{context}: row generation did not settle "
                      f"within {MAX_ROUNDS} rounds")
