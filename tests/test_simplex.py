import numpy as np
import pytest

from oracles import lp_by_vertices
from symabs.errors import InfeasibleError
from symabs.simplex import SimplexResult, solve_simplex, solve_with_rows, top_violators


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


def brute_top(resid, skip, k, viol_tol):
    """The k largest residuals above viol_tol outside `skip`, ties to the
    lower index, from one sort of the full vector."""
    resid = resid.copy()
    resid[skip] = -np.inf
    order = np.lexsort((np.arange(resid.size), -resid))[:k]
    return np.sort(order[resid[order] > viol_tol])


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


def test_row_generation_matches_direct_solve():
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
        result, working, active = solve_with_rows(c, DenseRows(a, b), lower, upper,
                                                  batch=8)
        assert direct.status == result.status == "optimal"
        assert abs(direct.objective - result.objective) <= 1e-8
        assert np.all(a @ result.x - b <= 1e-8)
        assert working.size <= m
        assert np.all(np.isin(active, working))


def test_row_generation_drop_path_keeps_answer():
    # max_master far below the row count forces the dropping branch
    rng = np.random.default_rng(17)
    n = 3
    m = 400
    a = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 2.0, size=m)
    c = rng.normal(size=n)
    lower = np.full(n, -10.0)
    upper = np.full(n, 10.0)
    direct = solve_simplex(c, a, b, lower, upper)
    result, working, _ = solve_with_rows(c, DenseRows(a, b), lower, upper,
                                         batch=16, max_master=24)
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
    with pytest.raises(ValueError, match="batch"):
        solve_with_rows([1.0], src, [-10.0], [10.0], batch=0)


def test_result_reports_iterations():
    r = solve_simplex([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                      lower=[0.0, 0.0])
    assert isinstance(r, SimplexResult)
    assert r.iterations >= 0
