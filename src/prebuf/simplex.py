"""Dense two-phase primal simplex on a standard-form tableau.

The reference LP solver: the tests check the line-flow planner against it
on the planner's LP (`build_buffer_matrix` in tests/oracles.py), and check
it in turn against a vertex enumeration and HiGHS.  Solves  min c.x  s.t.
A_eq x = b_eq,  A_ub x <= b_ub,  0 <= x <= u.

The textbook method, in four steps:

1. Standard form: one slack column per `ub` row and per finite upper
   bound (the bound becomes the row x_j <= u_j), then one artificial
   column per row, after each row with a negative rhs is negated.
2. Phase 1 minimizes the sum of the artificials, phase 2 the objective,
   on one dense tableau whose last row holds the reduced costs.  Both
   use Bland's rule: the entering column is the lowest-index one with a
   negative reduced cost, and among the rows tied in the ratio test the
   one whose basic variable has the lowest index leaves.  Bland's rule
   cannot cycle, so the method terminates (Bland, Math. Oper. Res. 2(2),
   1977).  Artificials never re-enter.
3. Between the phases, each artificial still basic (at zero) is pivoted
   out on the first structural or slack column with a nonzero entry in
   its row; a row with no such entry is redundant and is dropped.
4. x is read off the basis; every nonbasic variable is zero.

That is enough here: the only callers are tests, on LPs of at most 23
variables.  Deterministic: identical problems give identical pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
MAX_ITER = 50_000


@dataclass
class LpProblem:
    """min objective.x subject to equalities, inequalities and box bounds."""

    objective: np.ndarray
    eq_matrix: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ub_matrix: np.ndarray | None = None
    ub_rhs: np.ndarray | None = None
    var_upper_bounds: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.size
        if n == 0:
            raise ValueError("objective must have at least one variable")

        def _pair(mat, rhs, name):
            if mat is None and rhs is None:
                return None, None
            if mat is None or rhs is None:
                raise ValueError(f"{name}_matrix and {name}_rhs must be "
                                 "given together")
            mat = np.atleast_2d(np.asarray(mat, dtype=float))
            rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
            if mat.shape != (rhs.size, n):
                raise ValueError(
                    f"{name} block has shape {mat.shape}, expected "
                    f"({rhs.size}, {n})")
            return mat, rhs

        self.eq_matrix, self.eq_rhs = _pair(self.eq_matrix, self.eq_rhs, "eq")
        self.ub_matrix, self.ub_rhs = _pair(self.ub_matrix, self.ub_rhs, "ub")
        if self.var_upper_bounds is None:
            self.var_upper_bounds = np.full(n, np.inf)
        else:
            self.var_upper_bounds = np.asarray(self.var_upper_bounds,
                                               dtype=float)
            if self.var_upper_bounds.shape != (n,):
                raise ValueError("var_upper_bounds length mismatch")
            # +inf is no bound; NaN fails the test
            if not np.all(self.var_upper_bounds >= 0):
                raise ValueError("var_upper_bounds must be >= 0")
        for arr in (self.objective, self.eq_matrix, self.eq_rhs,
                    self.ub_matrix, self.ub_rhs):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("constraint data must be finite")

    @property
    def num_vars(self) -> int:
        return self.objective.size


@dataclass
class LpSolution:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0


def _pivot(tab: np.ndarray, basis: list[int], r: int, j: int) -> None:
    """Make column j basic in row r by Gauss-Jordan elimination."""
    tab[r] /= tab[r, j]
    factors = tab[:, j].copy()
    factors[r] = 0.0
    tab -= np.outer(factors, tab[r])
    basis[r] = j


def _optimize(tab: np.ndarray, basis: list[int],
              enterable: int) -> tuple[str, int]:
    """Pivot by Bland's rule over the first `enterable` columns."""
    for pivots in range(MAX_ITER):
        entering = np.flatnonzero(tab[-1, :enterable] < -PIVOT_TOL)
        if entering.size == 0:
            return "optimal", pivots
        j = int(entering[0])
        col = tab[:-1, j]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded", pivots
        ratios = tab[rows, -1] / col[rows]
        tied = rows[ratios <= ratios.min() + PIVOT_TOL]
        _pivot(tab, basis, int(min(tied, key=basis.__getitem__)), j)
        np.maximum(tab[:-1, -1], 0.0, out=tab[:-1, -1])   # rounding dust
    raise RuntimeError("simplex iteration limit exceeded")


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase standard-form simplex; see module docstring."""
    n = problem.num_vars
    bounded = np.flatnonzero(np.isfinite(problem.var_upper_bounds))
    blocks = [(problem.eq_matrix, problem.eq_rhs),
              (problem.ub_matrix, problem.ub_rhs),
              (np.eye(n)[bounded], problem.var_upper_bounds[bounded])]
    blocks = [(mat, rhs) for mat, rhs in blocks if mat is not None]
    m_eq = 0 if problem.eq_rhs is None else problem.eq_rhs.size
    m = sum(rhs.size for _, rhs in blocks)
    art0 = n + m - m_eq           # slack columns, then artificials
    tab = np.zeros((m + 1, art0 + m + 1))
    tab[:m, :n] = np.vstack([mat for mat, _ in blocks])
    tab[m_eq:m, n:art0] = np.eye(m - m_eq)
    tab[:m, -1] = np.concatenate([rhs for _, rhs in blocks])
    tab[:m][tab[:m, -1] < 0] *= -1.0
    tab[:m, art0:-1] = np.eye(m)
    tab[-1] = -tab[:m].sum(axis=0)
    tab[-1, art0:-1] = 0.0
    basis = list(range(art0, art0 + m))

    _, it1 = _optimize(tab, basis, art0)
    if sum(tab[r, -1] for r, bv in enumerate(basis) if bv >= art0) \
            > FEAS_TOL:
        return LpSolution("infeasible", iterations=it1)

    keep = []
    for r in range(m):
        if basis[r] >= art0:
            cols = np.flatnonzero(np.abs(tab[r, :art0]) > PIVOT_TOL)
            if cols.size == 0:
                continue          # redundant row
            tab[r, -1] = 0.0
            _pivot(tab, basis, r, int(cols[0]))
        keep.append(r)
    tab = np.hstack([tab[keep + [m], :art0], tab[keep + [m], -1:]])
    basis = [basis[r] for r in keep]

    c = np.zeros(art0)
    c[:n] = problem.objective
    tab[-1, :-1] = c - c[basis] @ tab[:-1, :-1]
    tab[-1, -1] = -(c[basis] @ tab[:-1, -1])
    status, it2 = _optimize(tab, basis, art0)
    if status == "unbounded":
        return LpSolution("unbounded", iterations=it1 + it2)

    x_full = np.zeros(art0)
    x_full[basis] = tab[:-1, -1]
    x = x_full[:n]
    return LpSolution("optimal", x, float(problem.objective @ x),
                      iterations=it1 + it2)
