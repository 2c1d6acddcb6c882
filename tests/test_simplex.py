import numpy as np
import pytest

from prebuf.simplex import LpProblem, solve

from oracles import vertex_enum_objective


def random_bounded_lp(rng):
    """Random LP with a bounded box, mixing eq and ub rows."""
    n = int(rng.integers(2, 7))
    n_eq = int(rng.integers(0, 2))
    n_ub = int(rng.integers(0, 5 - n_eq))
    c = rng.normal(size=n).round(3)
    u = rng.uniform(0.5, 5.0, size=n).round(3)
    kwargs = {}
    if n_eq:
        # rhs reachable from a random interior point so most draws are feasible
        x0 = rng.uniform(0.0, 1.0, size=n) * u
        A = rng.normal(size=(n_eq, n)).round(3)
        kwargs["eq_matrix"] = A
        kwargs["eq_rhs"] = (A @ x0).round(3)
    if n_ub:
        G = rng.normal(size=(n_ub, n)).round(3)
        kwargs["ub_matrix"] = G
        kwargs["ub_rhs"] = rng.uniform(-0.5, 3.0, size=n_ub).round(3)
    return LpProblem(objective=c, var_upper_bounds=u, **kwargs)


class TestSmallExamples:
    def test_forced_equality(self):
        sol = solve(LpProblem(objective=[1.0, 1.0],
                              eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0]))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_single_upper_bound_active(self):
        sol = solve(LpProblem(objective=[-1.0], var_upper_bounds=[5.0]))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([5.0])
        assert sol.objective_value == pytest.approx(-5.0)

    def test_ub_rows(self):
        sol = solve(LpProblem(objective=[-1.0, -1.0],
                              ub_matrix=[[1.0, 2.0], [3.0, 1.0]],
                              ub_rhs=[4.0, 6.0]))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1.6, 1.2], abs=1e-9)

    def test_infeasible_detected(self):
        sol = solve(LpProblem(objective=[0.0], eq_matrix=[[1.0]],
                              eq_rhs=[2.0], var_upper_bounds=[1.0]))
        assert sol.status == "infeasible"

    def test_unbounded_detected(self):
        sol = solve(LpProblem(objective=[-1.0, 0.0],
                              ub_matrix=[[-1.0, 1.0]], ub_rhs=[0.0]))
        assert sol.status == "unbounded"

    def test_redundant_rows_handled(self):
        sol = solve(LpProblem(objective=[1.0, 2.0],
                              eq_matrix=[[1.0, 1.0], [2.0, 2.0]],
                              eq_rhs=[1.0, 2.0]))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_row_held_by_variables_at_upper_bound(self):
        # Phase 1 leaves the last row's artificial basic at zero while the
        # row's other columns sit at their upper bounds (0 and 1); the row
        # must stay, so the carry-in z_3 = 1 is kept.
        sol = solve(LpProblem(objective=[0.625, 0.3125, 1.25, 0.0, 0.0],
                              eq_matrix=[[1.0, 0.0, 0.0, -1.0, 0.0],
                                         [0.0, 1.0, 0.0, 1.0, -1.0],
                                         [0.0, 0.0, 1.0, 0.0, 1.0]],
                              eq_rhs=[1.0, 1.0, 1.0],
                              var_upper_bounds=[2.56, 3.776, 0.0, 1.0, 1.0]))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1.0, 2.0, 0.0, 0.0, 1.0], abs=1e-9)
        assert sol.objective_value == pytest.approx(1.25, abs=1e-9)

    def test_degenerate_lp_terminates(self):
        # many ties in the ratio test; Bland fallback must still finish
        n = 6
        sol = solve(LpProblem(objective=[-1.0] * n,
                              ub_matrix=np.ones((4, n)),
                              ub_rhs=[1.0] * 4,
                              var_upper_bounds=[1.0] * n))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)


    @pytest.mark.parametrize("cost, status", [
        ([1.0, 0.0, 2.0], "optimal"),
        ([1.0, -0.5, 2.0], "unbounded"),
    ])
    def test_no_rows_no_finite_bound(self, cost, status):
        sol = solve(LpProblem(objective=cost))
        assert sol.status == status
        if status == "optimal":
            assert np.array_equal(sol.x, np.zeros(3))
            assert sol.objective_value == 0.0

    def test_zero_upper_bound(self):
        # x_0 is pinned at zero, so the row is met by x_1 alone
        sol = solve(LpProblem(objective=[-1.0, 1.0],
                              eq_matrix=[[1.0, 1.0]], eq_rhs=[2.0],
                              var_upper_bounds=[0.0, np.inf]))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([0.0, 2.0], abs=1e-12)
        assert sol.objective_value == pytest.approx(2.0)


class TestValidation:
    def test_dimension_mismatch_is_error_not_infeasible(self):
        with pytest.raises(ValueError):
            LpProblem(objective=[1.0, 1.0], eq_matrix=[[1.0]], eq_rhs=[1.0])

    def test_matrix_without_rhs_rejected(self):
        with pytest.raises(ValueError):
            LpProblem(objective=[1.0], eq_matrix=[[1.0]])

    def test_negative_upper_bound_rejected(self):
        with pytest.raises(ValueError):
            LpProblem(objective=[1.0], var_upper_bounds=[-1.0])

    def test_nan_upper_bound_rejected(self):
        with pytest.raises(ValueError, match="var_upper_bounds"):
            LpProblem(objective=[-1.0], var_upper_bounds=[np.nan])
        # +inf is no bound and stays legal
        sol = solve(LpProblem(objective=[-1.0], var_upper_bounds=[np.inf]))
        assert sol.status == "unbounded"

    def test_nonfinite_data_rejected(self):
        with pytest.raises(ValueError):
            LpProblem(objective=[np.inf])


class TestAgainstVertexEnumeration:
    def test_random_lps_match_oracle(self):
        rng = np.random.default_rng(2024)
        mismatches = 0
        for _ in range(200):
            problem = random_bounded_lp(rng)
            expect = vertex_enum_objective(problem)
            sol = solve(problem)
            if expect is None:
                assert sol.status == "infeasible"
                continue
            assert sol.status == "optimal"
            if abs(sol.objective_value - expect) > 1e-8 * max(1, abs(expect)):
                mismatches += 1
        assert mismatches == 0

    def test_solution_feasibility_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            problem = random_bounded_lp(rng)
            sol = solve(problem)
            if sol.status != "optimal":
                continue
            x = sol.x
            assert np.all(x >= -1e-7)
            assert np.all(x <= problem.var_upper_bounds + 1e-7)
            if problem.eq_matrix is not None:
                res = problem.eq_matrix @ x - problem.eq_rhs
                assert np.max(np.abs(res)) < 1e-7
            if problem.ub_matrix is not None:
                assert np.all(problem.ub_matrix @ x
                              <= problem.ub_rhs + 1e-7)

    def test_determinism(self):
        rng = np.random.default_rng(99)
        problems = [random_bounded_lp(rng) for _ in range(20)]
        for problem in problems:
            a = solve(problem)
            b = solve(problem)
            assert a.status == b.status
            if a.status == "optimal":
                assert np.array_equal(a.x, b.x)



def random_open_lp(rng):
    """Random LP with about half the upper bounds infinite.

    Mixes eq and ub rows with unconstrained rhs signs, so infeasible and
    unbounded draws are both common.
    """
    n = int(rng.integers(1, 7))
    n_eq = int(rng.integers(0, 3))
    n_ub = int(rng.integers(0, 4))
    u = rng.uniform(0.0, 4.0, size=n).round(2)
    u[rng.random(n) < 0.5] = np.inf
    kwargs = {}
    if n_eq:
        kwargs["eq_matrix"] = rng.normal(size=(n_eq, n)).round(2)
        kwargs["eq_rhs"] = rng.normal(size=n_eq).round(2)
    if n_ub:
        kwargs["ub_matrix"] = rng.normal(size=(n_ub, n)).round(2)
        kwargs["ub_rhs"] = rng.uniform(-1.0, 3.0, size=n_ub).round(2)
    return LpProblem(objective=rng.normal(size=n).round(2),
                     var_upper_bounds=u, **kwargs)


class TestAgainstHighs:
    def test_open_bounds_match_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(11)
        seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for k in range(300):
            problem = random_open_lp(rng)
            constraints = dict(
                A_eq=problem.eq_matrix, b_eq=problem.eq_rhs,
                A_ub=problem.ub_matrix, b_ub=problem.ub_rhs,
                bounds=[(0.0, None if np.isinf(u) else u)
                        for u in problem.var_upper_bounds],
                method="highs")
            highs = linprog(problem.objective, **constraints)
            expect = {0: "optimal", 2: "infeasible", 3: "unbounded"}[
                highs.status]
            if expect == "infeasible":
                # HiGHS's presolve may call an unbounded LP infeasible; a
                # zero objective tells the two apart.
                zero = linprog(np.zeros(problem.num_vars), **constraints)
                assert zero.status in (0, 2), k
                if zero.status == 0:
                    expect = "unbounded"
            sol = solve(problem)
            assert sol.status == expect, k
            seen[expect] += 1
            if expect == "optimal":
                assert sol.objective_value == pytest.approx(
                    highs.fun, rel=1e-7, abs=1e-7), k
        assert all(count >= 30 for count in seen.values()), seen
