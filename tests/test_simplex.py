import numpy as np
import pytest

from prebuf import LpProblem, solve

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

