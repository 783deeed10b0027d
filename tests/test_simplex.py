import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_top, dual_simplex_numpy, lp_by_vertices, pick_numpy
import symabs.simplex as simplex_mod
from symabs.errors import InfeasibleError
from symabs.simplex import (SimplexResult, scan_above, solve_simplex, solve_with_rows,
                            top_violators)


def test_single_variable_box():
    r = solve_simplex([1.0], lower=[2.0], upper=[5.0])
    assert r.status == "optimal"
    assert np.isclose(r.objective, 2.0)
    r = solve_simplex([1.0], lower=[2.0], upper=[5.0], maximize=True)
    assert np.isclose(r.objective, 5.0)


def test_two_variable_known_vertex():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0: optimum at (8/5, 6/5)
    r = solve_simplex([1.0, 1.0], a_ub=[[1.0, 2.0], [3.0, 1.0]],
                      b_ub=[4.0, 6.0], lower=[0.0, 0.0], maximize=True)
    assert r.status == "optimal"
    assert np.isclose(r.objective, 14.0 / 5.0)
    assert np.allclose(r.x, [8.0 / 5.0, 6.0 / 5.0])
    assert set(r.active_rows.tolist()) == {0, 1}


def test_free_variable_handled_by_split():
    # min x with x >= -3 expressed only through a row, variable itself free
    r = solve_simplex([1.0], a_ub=[[-1.0]], b_ub=[3.0])
    assert r.status == "optimal"
    assert np.isclose(r.objective, -3.0)


def test_infeasible_and_unbounded_status():
    r = solve_simplex([1.0], a_ub=[[1.0], [-1.0]], b_ub=[-2.0, 1.0])
    assert r.status == "infeasible"
    r = solve_simplex([-1.0], lower=[0.0])
    assert r.status == "unbounded"
    r = solve_simplex([1.0], lower=[3.0], upper=[2.0])
    assert r.status == "infeasible"


def test_degenerate_vertex_terminates():
    # three rows meet at the optimum (0,0); stalls must not cycle
    a = [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]]
    r = solve_simplex([-1.0, -1.0], a_ub=a, b_ub=[0.0, 0.0, 0.0],
                      lower=[0.0, 0.0], maximize=True)
    assert r.status == "optimal"
    assert np.isclose(r.objective, 0.0)


def test_equality_via_opposing_rows():
    # x + y = 1 encoded as two inequalities; min x - y -> (0, 1)
    a = [[1.0, 1.0], [-1.0, -1.0]]
    r = solve_simplex([1.0, -1.0], a_ub=a, b_ub=[1.0, -1.0],
                      lower=[0.0, 0.0], upper=[1.0, 1.0])
    assert r.status == "optimal"
    assert np.isclose(r.objective, -1.0)
    assert np.allclose(r.x, [0.0, 1.0], atol=1e-9)


def test_random_instances_match_vertex_enumeration():
    rng = np.random.default_rng(321)
    solved = 0
    infeasible = 0
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) * 2.0
        lower = rng.uniform(-4.0, -1.0, size=n)
        upper = rng.uniform(1.0, 4.0, size=n)
        c = rng.normal(size=n)
        maximize = bool(rng.integers(2))
        want_status, want_obj = lp_by_vertices(c, a, b, lower, upper, maximize)
        r = solve_simplex(c, a, b, lower, upper, maximize=maximize)
        assert r.status == want_status
        if want_status == "optimal":
            solved += 1
            assert abs(r.objective - want_obj) <= 1e-9 * max(1.0, abs(want_obj))
            # returned point satisfies every row
            assert np.all(a @ r.x - b <= 1e-9)
            assert np.all(r.x >= lower - 1e-9)
            assert np.all(r.x <= upper + 1e-9)
        else:
            infeasible += 1
    assert solved >= 20 and infeasible >= 5  # both branches exercised


class DenseRows:
    """Adapter exposing a dense (A, b) block through the row-source protocol."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    @property
    def row_count(self):
        return self.a.shape[0]

    def gather(self, idx):
        return self.a[idx], self.b[idx]

    def residual_blocks(self, x):
        yield 0, self.a @ x - self.b


def reused_blocks(resid, cuts):
    """(start, block) pieces of resid split at `cuts`, all written into one
    reused buffer, as SopInstance.residual_blocks hands them out."""
    buf = np.empty(resid.size)
    bounds = [0, *cuts, resid.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = buf[:hi - lo]
        block[:] = resid[lo:hi]
        yield lo, block
        block[:] = np.nan  # a kept view of the old block would now read NaN


def test_top_violators_matches_brute_force():
    rng = np.random.default_rng(5)
    viol_tol = 1e-9
    for trial in range(300):
        m = int(rng.integers(1, 120))
        # few distinct values, so many rows tie at the k-th residual
        resid = rng.integers(-3, 4, size=m) * 0.5
        if trial % 7 == 0:
            resid = -np.abs(resid)  # no violators at all
        cuts = np.sort(rng.choice(np.arange(1, m), size=int(rng.integers(0, m)),
                                  replace=False)) if m > 1 else []
        skip = np.sort(rng.choice(m, size=int(rng.integers(0, m + 1)),
                                  replace=False))
        k = int(rng.integers(1, m + 10))  # often more than the violators
        got = top_violators(reused_blocks(resid, cuts), skip, k, viol_tol)
        assert np.array_equal(got, brute_top(resid, skip, k, viol_tol))
    none = np.empty(0, dtype=int)
    for resid, cuts, k, want in [
        # more than k candidates tie at the k-th value across two blocks:
        # the lowest indices fill the places left beside the 3.0
        ([1.0, 1.0, 1.0, 1.0, 3.0, 1.0], [2, 4], 3, [0, 1, 4]),
        ([1.0, 1.0, 1.0, 3.0, 1.0], [1, 3], 3, [0, 1, 3]),
        # k is first exceeded by the last block, whose 0.5 ties with two
        # earlier rows; the lowest of the three wins
        ([2.0, 0.5, 3.0, 0.5, 0.5, 4.0, 2.0], [2, 4], 5, [0, 1, 2, 5, 6]),
        ([0.5, 0.5, 0.5, 0.5, 0.5, 0.5], [3], 2, [0, 1]),
    ]:
        resid = np.array(resid)
        got = top_violators(reused_blocks(resid, cuts), none, k, viol_tol)
        assert got.tolist() == want
        assert np.array_equal(got, brute_top(resid, none, k, viol_tol))


def test_top_violators_edge_cases():
    resid = np.array([1.0, 2.0, 2.0, 0.0, 2.0, 2.0, 3.0, -1.0])
    one_row = list(range(1, resid.size))
    none = np.empty(0, dtype=int)
    # ties at the k-th value across a block boundary go to the lower index
    assert top_violators(reused_blocks(resid, [2, 5]), none, 3, 0.0).tolist() \
        == [1, 2, 6]
    assert top_violators(reused_blocks(resid, one_row), none, 3, 0.0).tolist() \
        == [1, 2, 6]
    # working rows are passed over, and the next tied rows fill in
    assert top_violators(reused_blocks(resid, [2, 5]), np.array([1, 6]), 3,
                         0.0).tolist() == [2, 4, 5]
    # k above the violator count returns every violator
    assert top_violators(reused_blocks(resid, one_row), none, 50, 0.0).tolist() \
        == [0, 1, 2, 4, 5, 6]
    # no violators
    assert top_violators(reused_blocks(resid, [3]), none, 4, 3.0).size == 0
    assert top_violators(iter([]), none, 4, 0.0).size == 0


def pruning_blocks(resid, cuts, floors, order=None):
    """`reused_blocks` for a source with the tightest exact bound, the block
    max: each block whose rows are all at or below the last floor sent is
    skipped.  Every floor sent is appended to `floors`.  The blocks come in
    `order` (block numbers), row order by default."""
    buf = np.empty(resid.size)
    bounds = [0, *cuts, resid.size]
    floor = None
    for j in range(len(bounds) - 1) if order is None else order:
        lo, hi = bounds[j], bounds[j + 1]
        if floor is not None and resid[lo:hi].max() <= floor:
            continue
        block = buf[:hi - lo]
        block[:] = resid[lo:hi]
        floor = yield lo, block
        floors.append(floor)
        block[:] = np.nan


def test_top_violators_sends_its_admission_floor():
    # The source skips every block the floor allows, so a floor above the
    # running k-th residual, or above viol_tol before k rows are held, loses
    # a row that brute force keeps.
    rng = np.random.default_rng(6)
    skipped = 0
    for trial in range(300):
        m = int(rng.integers(1, 120))
        resid = rng.integers(-3, 4, size=m) * 0.5
        # rows one ulp above a tied value: a floor that overshoots by more
        # than an ulp skips them
        bump = rng.random(m) < 0.3
        resid[bump] = np.nextafter(resid[bump], np.inf)
        cuts = np.sort(rng.choice(np.arange(1, m), size=int(rng.integers(0, m)),
                                  replace=False)) if m > 1 else []
        skip = np.sort(rng.choice(m, size=int(rng.integers(0, m + 1)),
                                  replace=False))
        k = int(rng.integers(1, m + 10))
        viol_tol = float(rng.choice([1e-9, 0.5]))
        floors = []
        got = top_violators(pruning_blocks(resid, cuts, floors), skip, k,
                            viol_tol)
        assert np.array_equal(got, brute_top(resid, skip, k, viol_tol))
        assert all(f >= viol_tol for f in floors)
        skipped += len(cuts) + 1 - len(floors)
    assert skipped > 0  # the floor did prune


@pytest.mark.parametrize("slice_rows", [1, 7, "block", 1 << 30])
def test_top_violators_is_exact_in_any_block_order(monkeypatch, slice_rows):
    # Blocks in shuffled order, with and without the source skipping every
    # block the floor allows, each read in slices of 1 row, 7 rows, the
    # largest block's rows, or more than any block: a lower-index row tied
    # with the k-th residual can arrive after k rows are held, and must
    # still win.
    rng = np.random.default_rng(8)
    for trial in range(300):
        m = int(rng.integers(1, 120))
        resid = rng.integers(-3, 4, size=m) * 0.5
        bump = rng.random(m) < 0.2
        resid[bump] = np.nextafter(resid[bump], np.inf)
        cuts = np.sort(rng.choice(np.arange(1, m), size=int(rng.integers(0, m)),
                                  replace=False)) if m > 1 else []
        longest = int(np.diff([0, *cuts, m]).max())
        monkeypatch.setattr(simplex_mod, "SCAN_SLICE",
                            longest if slice_rows == "block" else slice_rows)
        skip = np.sort(rng.choice(m, size=int(rng.integers(0, m + 1)),
                                  replace=False))
        k = int(rng.integers(1, m + 10))
        viol_tol = float(rng.choice([1e-9, 0.5]))
        order = rng.permutation(len(cuts) + 1)
        want = brute_top(resid, skip, k, viol_tol)
        floors = []
        assert np.array_equal(top_violators(
            pruning_blocks(resid, cuts, floors, order), skip, k, viol_tol), want)
        assert all(f >= viol_tol for f in floors)
        # a generator expression takes the floors and drops them
        blind = ((int(lo), block) for lo, block in
                 pruning_blocks(resid, cuts, [], order))
        assert np.array_equal(top_violators(blind, skip, k, viol_tol), want)
    for resid, cuts, order, skip, k, want in [
        # the lowest-index tie at the k-th value arrives last
        ([1.0, 1.0, 3.0, 1.0], [1], [1, 0], [], 2, [0, 2]),
        ([1.0, 1.0, 1.0, 1.0, 3.0, 1.0], [2, 4], [2, 1, 0], [], 3, [0, 1, 4]),
        # a block with more than k hits is cut to its own top k first
        ([0.5, 2.0, 2.0, 2.0, 2.0, 2.0], [1], [1, 0], [], 2, [1, 2]),
        # working rows are passed over, and the next tied row wins
        ([2.0, 1.0, 1.0, 1.0, 2.0], [2, 4], [2, 1, 0], [0], 2, [1, 4]),
    ]:
        resid, skip = np.array(resid), np.array(skip, dtype=int)
        got = top_violators(pruning_blocks(resid, cuts, [], order), skip, k,
                            1e-9)
        assert got.tolist() == want
        assert np.array_equal(got, brute_top(resid, skip, k, 1e-9))


def test_scan_above_passes_plain_iterators_through():
    # a generator that ignores the floor yields every block
    resid = np.array([3.0, -1.0, 0.5])
    got = [(start, block.copy()) for start, block in
           scan_above(reused_blocks(resid, [1, 2]), lambda: 10.0)]
    assert [start for start, _ in got] == [0, 1, 2]
    assert np.array_equal(np.concatenate([b for _, b in got]), resid)


def test_row_generation_matches_direct_solve(monkeypatch):
    monkeypatch.setattr(simplex_mod, "CUT_BATCH", 8)
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(40, 160))
        a = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 3.0, size=m)  # 0 feasible, so never infeasible
        c = rng.normal(size=n)
        lower = np.full(n, -10.0)
        upper = np.full(n, 10.0)
        direct = solve_simplex(c, a, b, lower, upper)
        result, working, active = solve_with_rows(c, DenseRows(a, b), lower, upper)
        assert direct.status == result.status == "optimal"
        assert abs(direct.objective - result.objective) <= 1e-8
        assert np.all(a @ result.x - b <= 1e-8)
        assert working.size <= m
        assert np.all(np.isin(active, working))


def test_row_generation_drop_path_keeps_answer(monkeypatch):
    # MAX_MASTER far below the row count forces the dropping branch
    monkeypatch.setattr(simplex_mod, "CUT_BATCH", 16)
    monkeypatch.setattr(simplex_mod, "MAX_MASTER", 24)
    rng = np.random.default_rng(17)
    n = 3
    m = 400
    a = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 2.0, size=m)
    c = rng.normal(size=n)
    lower = np.full(n, -10.0)
    upper = np.full(n, 10.0)
    direct = solve_simplex(c, a, b, lower, upper)
    result, working, _ = solve_with_rows(c, DenseRows(a, b), lower, upper)
    assert abs(direct.objective - result.objective) <= 1e-8
    assert np.all(a @ result.x - b <= 1e-8)


def test_row_generation_with_extra_rows_and_infeasible_master():
    src = DenseRows(np.array([[1.0]]), np.array([5.0]))
    result, _, _ = solve_with_rows([1.0], src, [-10.0], [10.0],
                                   extra_a=[[-1.0]], extra_b=[-2.0])
    assert np.isclose(result.objective, 2.0)  # extra row x >= 2 binds
    with pytest.raises(InfeasibleError):
        solve_with_rows([1.0], src, [-10.0], [10.0],
                        extra_a=[[1.0], [-1.0]], extra_b=[1.0, -3.0])


def test_result_reports_iterations():
    r = solve_simplex([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                      lower=[0.0, 0.0])
    assert isinstance(r, SimplexResult)
    assert r.iterations >= 0


def highs(c, a, b, lower, upper, maximize):
    """Status and objective from scipy's HiGHS on the same LP.  Feasibility
    is decided on the zero objective: with the real one, HiGHS may report
    an unbounded LP as infeasible."""
    from scipy.optimize import linprog
    sign = -1.0 if maximize else 1.0
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
              for lo, hi in zip(lower, upper)]
    feas = linprog(np.zeros(len(c)), A_ub=a, b_ub=b, bounds=bounds,
                   method="highs")
    assert feas.status in (0, 2)
    if feas.status == 2:
        return "infeasible", None
    ref = linprog(sign * np.asarray(c), A_ub=a, b_ub=b, bounds=bounds,
                  method="highs")
    if ref.status != 0:
        return "unbounded", None
    return "optimal", sign * ref.fun


def degenerate_lp(rng):
    """A random LP with small-integer data, so that costs, ratios and rows
    tie: many rows pass through one integer point, some rows repeat or are
    scaled copies, and each variable is free, bounded on one side or boxed.
    Every third instance gets a contradicting pair of rows."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 10))
    point = rng.integers(-2, 3, size=n).astype(float)
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    slack = np.where(rng.random(m) < 0.6, 0.0, rng.integers(1, 3, size=m))
    b = a @ point + slack
    twins = rng.choice(m, size=int(rng.integers(1, 3)))
    a = np.vstack([a, a[twins], 2.0 * a[twins]])
    b = np.concatenate([b, b[twins], 2.0 * b[twins]])
    kind = rng.integers(0, 4, size=n)  # free, lower, upper, boxed
    lower = np.where((kind == 1) | (kind == 3), point - rng.integers(0, 2, n), -np.inf)
    upper = np.where((kind == 2) | (kind == 3), point + rng.integers(0, 2, n), np.inf)
    if rng.integers(3) == 0:
        row = rng.integers(-2, 3, size=n).astype(float)
        row[0] = 1.0
        a = np.vstack([a, row, -row])
        b = np.concatenate([b, [row @ point], [-(row @ point) - 1.0]])
    c = rng.integers(-2, 3, size=n).astype(float)
    return c, a, b, lower, upper, bool(rng.integers(2))


@pytest.mark.parametrize("stall_limit", [None, 1])
def test_degenerate_random_lps_match_highs(stall_limit, monkeypatch):
    # stall_limit 1 hands pricing to Bland's rule after any degenerate pivot,
    # so both pricing rules are checked against the oracle
    if stall_limit is not None:
        monkeypatch.setattr(simplex_mod, "_STALL_LIMIT", stall_limit)
    rng = np.random.default_rng(2024)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(400):
        c, a, b, lower, upper, maximize = degenerate_lp(rng)
        want, want_obj = highs(c, a, b, lower, upper, maximize)
        r = solve_simplex(c, a, b, lower, upper, maximize=maximize)
        assert r.status == want
        seen[want] += 1
        if want == "optimal":
            assert abs(r.objective - want_obj) <= 1e-9 * max(1.0, abs(want_obj))
            assert np.all(a @ r.x - b <= 1e-9 * np.max(np.abs(a), axis=1))
            assert np.all(r.x >= lower - 1e-9) and np.all(r.x <= upper + 1e-9)
            if np.all(np.isfinite(lower)) and np.all(np.isfinite(upper)):
                _, vert_obj = lp_by_vertices(c, a, b, lower, upper, maximize)
                assert abs(r.objective - vert_obj) <= 1e-9 * max(1.0, abs(vert_obj))
    assert min(seen.values()) >= 40, seen


def solve_both_ways(c, a, b, lower, upper, maximize, stall_limit, warm):
    """solve_simplex as it is, then with its dual loop and picks switched to
    the numpy ratio test and selection of `oracles`; a `warm` solve starts
    from the optimal basis of the first half of the rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_mod, "_STALL_LIMIT", stall_limit)
        results = []
        for dual, pick in ((simplex_mod._dual, simplex_mod._pick),
                           (dual_simplex_numpy, pick_numpy)):
            mp.setattr(simplex_mod, "_dual", dual)
            mp.setattr(simplex_mod, "_pick", pick)
            basis = None
            if warm:
                half = a.shape[0] // 2
                basis = solve_simplex(c, a[:half], b[:half], lower, upper,
                                      maximize=maximize).basis
            results.append(solve_simplex(c, a, b, lower, upper,
                                         maximize=maximize, basis=basis))
    return results


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), stall_limit=st.sampled_from([12, 1]),
       warm=st.booleans())
def test_plain_float_ratio_tests_pivot_as_the_numpy_ones(seed, stall_limit, warm):
    # The dual ratio test and every pick run in plain floats; on LPs full of
    # ties, with free variables pinned, and under Bland's rule after one
    # degenerate pivot (stall_limit 1), every pivot must be the same as with
    # the numpy arrays they replaced, so the bits of the answer are too.
    got, want = solve_both_ways(*degenerate_lp(np.random.default_rng(seed)),
                                stall_limit, warm)
    assert got.status == want.status
    assert got.iterations == want.iterations
    for name in ("basis", "x", "active_rows"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert (mine is None and theirs is None) or np.array_equal(mine, theirs)
    assert got.objective == want.objective


def test_random_lps_exercise_pins_bland_and_ratio_ties(monkeypatch):
    # The LPs of the property above do reach what it is meant to cover.
    seen = {"tie": 0, "bland": 0, "pin": 0, "pivots": 0}
    pick = simplex_mod._pick

    def spy(ratio, weight, order, bland):
        seen["tie"] += sorted(ratio)[:2].count(min(ratio)) > 1
        seen["bland"] += bland
        return pick(ratio, weight, order, bland)

    monkeypatch.setattr(simplex_mod, "_pick", spy)
    monkeypatch.setattr(simplex_mod, "_STALL_LIMIT", 1)
    rng = np.random.default_rng(77)
    for _ in range(200):
        c, a, b, lower, upper, maximize = degenerate_lp(rng)
        r = solve_simplex(c, a, b, lower, upper, maximize=maximize)
        seen["pivots"] += r.iterations
        seen["pin"] += bool(np.any(np.isinf(lower) & np.isinf(upper)))
    assert min(seen.values()) >= 20, seen


def constraint_vectors(basis, a, n):
    """The constraint each basis entry names, as a row of G x <= h over the
    stacked list [a rows, lower bounds, upper bounds, pins]."""
    eye = np.eye(n)
    stacked = np.vstack([a, -eye, eye, eye])
    return stacked[np.where(basis >= 0, basis, stacked.shape[0] + basis)]


def test_warm_start_after_cuts_matches_cold_solve():
    rng = np.random.default_rng(8)
    warm_pivots = cold_pivots = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(30, 120))
        a = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 3.0, size=m)
        c = rng.normal(size=n)
        lower = np.where(rng.random(n) < 0.3, -np.inf, -5.0)
        upper = np.full(n, 5.0)
        first = rng.choice(m, size=m // 3, replace=False)
        r0 = solve_simplex(c, a[first], b[first], lower, upper)
        assert r0.status == "optimal"
        # the same master again, with rows the optimum already satisfies
        # appended: the basis is still optimal, so no pivot is needed
        held = np.setdiff1d(np.flatnonzero(a @ r0.x - b <= 0), first)
        again = solve_simplex(c, np.vstack([a[first], a[held]]),
                              np.concatenate([b[first], b[held]]), lower, upper,
                              basis=r0.basis)
        assert again.iterations == 0
        assert np.array_equal(again.basis, r0.basis)
        # add the violated rows as cuts and re-solve from the old basis
        cuts = np.flatnonzero(a @ r0.x - b > 1e-9)
        rows = np.concatenate([first, cuts])
        warm = solve_simplex(c, a[rows], b[rows], lower, upper, basis=r0.basis)
        cold = solve_simplex(c, a[rows], b[rows], lower, upper)
        assert warm.status == cold.status == "optimal"
        assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        assert np.all(a[rows] @ warm.x - b[rows] <= 1e-9)
        warm_pivots += warm.iterations
        cold_pivots += cold.iterations
    assert warm_pivots < cold_pivots / 2, (warm_pivots, cold_pivots)


def test_warm_basis_is_validated():
    a = [[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]]
    b = [1.0, 2.0, 0.0]
    cold = solve_simplex([-1.0, -2.0], a, b, lower=[0.0, 0.0])
    assert np.allclose(cold.x, [0.0, 1.0])
    # two parallel rows make a singular basis: the solve starts cold instead
    again = solve_simplex([-1.0, -2.0], a, b, lower=[0.0, 0.0], basis=[0, 1])
    assert np.allclose(again.x, cold.x)
    for bad in ([0], [0, 3], [0, -7], [0, 0], [0, -3]):  # -3: upper bound, infinite
        with pytest.raises(ValueError, match="basis"):
            solve_simplex([-1.0, -2.0], a, b, lower=[0.0, 0.0], basis=bad)


def test_dual_ratio_test_clips_a_slightly_negative_multiplier():
    # A warm basis counts as dual feasible while no multiplier is below
    # -tol, so the dual loop may start with one slightly negative: here
    # (0, -5e-10) at rows 0 and 1, and row 2 enters.  The ratio test clips
    # the negative multiplier to 0, so both basis rows tie at ratio 0 and
    # the larger pivot element (row 0's 1 against row 1's 1e-3) leaves; row
    # 2 enters with multiplier 0.  Without the clip, row 1's ratio
    # -5e-10 / 1e-3 would win alone and hand row 2 the multiplier -5e-7,
    # far past the tolerance, at a vertex then reported optimal.
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-3]])
    b = np.array([1.0, 1.0, 0.5])
    c = np.array([0.0, 5e-10])
    r = solve_simplex(c, a, b, lower=[-1e3, -1e3], upper=[1e3, 1e3],
                      basis=[0, 1])
    assert r.status == "optimal" and r.iterations == 1
    assert r.basis.tolist() == [2, 1]
    assert np.allclose(r.x, [0.499, 1.0])
    # the returned basis is dual feasible to the tolerance (rows are
    # equilibrated to unit max-abs entries, as the solver scales them)
    rows = a / np.abs(a).max(axis=1)[:, None]
    y = np.linalg.solve(rows[r.basis].T, -c)
    assert np.all(y >= -1e-9), y


def test_row_generation_carries_the_basis_between_rounds(monkeypatch):
    # Every round after the first must start from the previous round's
    # optimal basis, naming the same constraints in the new master's
    # numbering: through appended cuts, dropped rows and shifted extra rows.
    calls = []
    real = simplex_mod.solve_simplex

    def spy(c, a_ub, b_ub, lower, upper, **kwargs):
        result = real(c, a_ub, b_ub, lower, upper, **kwargs)
        calls.append((np.array(a_ub), kwargs.get("basis"), result))
        return result

    monkeypatch.setattr(simplex_mod, "solve_simplex", spy)
    monkeypatch.setattr(simplex_mod, "CUT_BATCH", 16)
    monkeypatch.setattr(simplex_mod, "MAX_MASTER", 24)
    rng = np.random.default_rng(41)
    n, m = 4, 400
    a = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 2.0, size=m)
    c = rng.normal(size=n)
    lower, upper = np.full(n, -10.0), np.full(n, 10.0)
    extra_a, extra_b = [[1.0, 1.0, 0.0, 0.0]], [0.5]
    result, _, _ = solve_with_rows(c, DenseRows(a, b), lower, upper,
                                   extra_a=extra_a, extra_b=extra_b)
    assert len(calls) == result.rounds >= 4
    assert result.iterations == sum(r.iterations for _, _, r in calls)
    assert calls[0][1] is None
    for (a_prev, _, prev), (a_next, basis, _) in zip(calls, calls[1:]):
        assert np.array_equal(constraint_vectors(basis, a_next, n),
                              constraint_vectors(prev.basis, a_prev, n))
    direct = solve_simplex(c, np.vstack([a, extra_a]), np.concatenate([b, extra_b]),
                           lower, upper)
    assert abs(direct.objective - result.objective) <= 1e-9


@pytest.mark.parametrize("max_master", [12, 10_000])
def test_row_generation_gathers_only_new_cuts(monkeypatch, max_master):
    # Rows are carried from round to round, so after the first round only
    # the new cuts are gathered; each master must still get exactly the
    # rows a fresh gather of its working set gives, in working order, with
    # the extra rows last.  MAX_MASTER 12 makes rounds drop slack rows.
    masters, gathered = [], []
    real = simplex_mod.solve_simplex

    def spy(c, a_ub, b_ub, lower, upper, **kwargs):
        masters.append((np.array(a_ub), np.array(b_ub)))
        return real(c, a_ub, b_ub, lower, upper, **kwargs)

    class Logged(DenseRows):
        def gather(self, idx):
            gathered.append(np.array(idx))
            return super().gather(idx)

    monkeypatch.setattr(simplex_mod, "solve_simplex", spy)
    monkeypatch.setattr(simplex_mod, "CUT_BATCH", 6)
    monkeypatch.setattr(simplex_mod, "MAX_MASTER", max_master)
    rng = np.random.default_rng(43)
    n, m = 4, 400
    a = rng.normal(size=(m, n))  # distinct rows, so a row names its index
    b = rng.uniform(0.5, 2.0, size=m)
    extra_a, extra_b = np.array([[1.0, 1.0, 0.0, 0.0]]), np.array([0.5])
    result, working, _ = solve_with_rows(
        rng.normal(size=n), Logged(a, b), np.full(n, -10.0), np.full(n, 10.0),
        extra_a=extra_a, extra_b=extra_b, start_rows=[5, 3, 5])
    index = {row.tobytes(): k for k, row in enumerate(a)}
    assert len(masters) == len(gathered) == result.rounds >= 4
    assert gathered[0].tolist() == [3, 5]
    prev, dropped = None, 0
    for (a_ub, b_ub), new in zip(masters, gathered[1:] + [None]):
        rows = [index[row.tobytes()] for row in a_ub[:-1]]
        assert np.array_equal(a_ub, np.vstack([a[rows], extra_a]))
        assert np.array_equal(b_ub, np.concatenate([b[rows], extra_b]))
        if prev is not None:  # kept rows in their order, then the cuts
            kept = rows[:len(rows) - len(cuts)]
            assert rows[len(kept):] == cuts.tolist()
            assert kept == [r for r in prev if r in set(kept)]
            assert not set(cuts.tolist()) & set(prev)
            dropped += len(kept) < len(prev)
        prev, cuts = rows, new
    assert rows == working.tolist()
    assert (dropped > 0) == (max_master == 12)


def test_pricing_falls_back_to_bland_after_a_stall():
    pricing = simplex_mod._Pricing(-1.0)  # the objective should fall
    pricing.update(5.0)
    for _ in range(simplex_mod._STALL_LIMIT - 1):
        pricing.update(5.0)  # degenerate pivots
        assert not pricing.bland
    pricing.update(5.0)
    assert pricing.bland  # Bland's rule takes over and guarantees termination
    pricing.update(5.0)
    assert pricing.bland
    pricing.update(4.0)  # a strict improvement hands back to largest-first
    assert not pricing.bland


def test_row_too_flat_to_block_a_step_still_holds_at_the_optimum():
    # max x over x, y, z >= 0, x <= 1e6 and 1e-10 x + y - z <= 0.  The primal
    # step along x sees the second row rise by 1e-10 per unit, under the
    # pivot tolerance, so the step ends at x = 1e6 with that row broken by
    # 1e-4.  The solver must restore it (z = 1e-4) before it says "optimal".
    a = np.array([[1.0, 0.0, 0.0], [1e-10, 1.0, -1.0]])
    b = np.array([1e6, 0.0])
    r = solve_simplex([1.0, 0.0, 0.0], a, b, lower=np.zeros(3), maximize=True)
    assert r.status == "optimal"
    assert np.isclose(r.objective, 1e6, rtol=1e-12)
    assert np.all(a @ r.x - b <= 1e-9)
    assert r.x[2] >= 1e-4 * (1 - 1e-9)
