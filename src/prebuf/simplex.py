"""Dense two-phase primal simplex with upper-bounded variables.

The reference LP solver: the tests check the line-flow planner against it
on the LP of `planner.build_buffer_matrix`.  Solves  min c.x  s.t.
A_eq x = b_eq,  A_ub x <= b_ub,  0 <= x <= u.  Upper bounds are handled by
bounded-variable pivoting (nonbasic variables rest at either bound), which
keeps box-bounded instances down to their natural row count.  Entering rule is Dantzig with lowest-index tie-break; after a
stall the rule permanently switches to Bland's, which guarantees
termination.  Deterministic: identical problems give identical pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
STALL_LIMIT = 100
MAX_ITER = 50_000

_AT_LOWER = 0
_AT_UPPER = 1


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
            if np.any(self.var_upper_bounds < 0):
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


class _Tableau:
    """Working state shared by both phases."""

    def __init__(self, A, b, u):
        ncols = A.shape[1]
        self.A = A                      # current B^-1 A, mutated in place
        self.u = u
        self.basis: list[int] = []      # filled by caller (artificials)
        self.xb = b.copy()
        self.status = np.full(ncols, _AT_LOWER, dtype=np.int8)


def _run_simplex(tab: _Tableau, c: np.ndarray, allowed: np.ndarray,
                 *, phase: int) -> tuple[str, int]:
    """Pivot until optimal/unbounded.  `allowed` masks enterable columns."""
    A, u, xb = tab.A, tab.u, tab.xb
    m, ncols = A.shape
    basis, status = tab.basis, tab.status

    in_basis = np.zeros(ncols, dtype=bool)
    in_basis[basis] = True

    def reduced_costs():
        cb = c[basis]
        return c - cb @ A

    d = reduced_costs()
    bland = False
    stall = 0
    best_obj = np.inf
    iters = 0
    for iters in range(1, MAX_ITER + 1):
        enterable = allowed & ~in_basis
        lower_cand = enterable & (status == _AT_LOWER) & (d < -PIVOT_TOL)
        upper_cand = enterable & (status == _AT_UPPER) & (d > PIVOT_TOL)
        cand = np.flatnonzero(lower_cand | upper_cand)
        if cand.size == 0:
            # Guard against drift in the incrementally updated cost row.
            d = reduced_costs()
            lower_cand = enterable & (status == _AT_LOWER) & (d < -PIVOT_TOL)
            upper_cand = enterable & (status == _AT_UPPER) & (d > PIVOT_TOL)
            cand = np.flatnonzero(lower_cand | upper_cand)
            if cand.size == 0:
                return "optimal", iters - 1
        if bland:
            j = int(cand[0])
        else:
            j = int(cand[np.argmax(np.abs(d[cand]))])
        increasing = status[j] == _AT_LOWER

        col = A[:, j]
        direction = col if increasing else -col
        # entering var moves by t >= 0; basics move by -t * direction
        with np.errstate(divide="ignore", invalid="ignore"):
            ub_basis = u[basis]
            lo_ratio = np.where(direction > PIVOT_TOL,
                                xb / np.where(direction > PIVOT_TOL,
                                              direction, 1.0), np.inf)
            hi_ratio = np.where(direction < -PIVOT_TOL,
                                (ub_basis - xb)
                                / np.where(direction < -PIVOT_TOL,
                                           -direction, 1.0), np.inf)
        ratios = np.minimum(lo_ratio, hi_ratio)
        flip_t = u[j]  # distance to the opposite bound of the entering var
        r = int(np.argmin(ratios))
        t_star = min(ratios[r], flip_t)
        if not np.isfinite(t_star):
            return "unbounded", iters
        if bland and np.isfinite(ratios[r]):
            # lowest basis-variable index among blocking rows
            blocking = np.flatnonzero(np.isclose(ratios, ratios[r],
                                                 rtol=0.0, atol=PIVOT_TOL))
            r = min(blocking, key=lambda i: basis[i])

        if t_star >= flip_t - PIVOT_TOL and np.isfinite(flip_t) \
                and flip_t <= ratios[r]:
            # bound flip, basis unchanged
            xb -= flip_t * direction
            status[j] = _AT_UPPER if increasing else _AT_LOWER
        else:
            xb -= t_star * direction
            leaving = basis[r]
            in_basis[leaving] = False
            # leaving variable parks at the bound it ran into
            if increasing:
                status[leaving] = _AT_LOWER if col[r] > 0 else _AT_UPPER
            else:
                status[leaving] = _AT_LOWER if col[r] < 0 else _AT_UPPER
            entering_value = t_star if increasing else u[j] - t_star
            basis[r] = j
            in_basis[j] = True
            xb[r] = entering_value
            piv = A[r, j]
            A[r, :] /= piv
            factors = A[:, j].copy()
            factors[r] = 0.0
            A -= np.outer(factors, A[r, :])
            d = d - d[j] * A[r, :]
        np.clip(xb, 0.0, None, out=xb)

        obj = float(c[basis] @ xb
                    + c[status == _AT_UPPER] @ u[status == _AT_UPPER])
        if phase == 1 and obj < PIVOT_TOL:
            return "optimal", iters   # artificials at zero, feasible point
        if obj < best_obj - 1e-12:
            best_obj = obj
            stall = 0
        else:
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
    raise RuntimeError("simplex iteration limit exceeded")


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase bounded-variable simplex; see module docstring."""
    n = problem.num_vars
    blocks, rhs = [], []
    n_slack = 0
    if problem.eq_matrix is not None:
        blocks.append((problem.eq_matrix, problem.eq_rhs, False))
    if problem.ub_matrix is not None:
        blocks.append((problem.ub_matrix, problem.ub_rhs, True))
        n_slack = problem.ub_rhs.size

    m = sum(b[1].size for b in blocks)
    if m == 0:
        # pure box problem: each variable sits at whichever bound is cheaper
        x = np.where(problem.objective < 0, problem.var_upper_bounds, 0.0)
        if not np.all(np.isfinite(x)):
            return LpSolution("unbounded")
        return LpSolution("optimal", x, float(problem.objective @ x))

    A = np.zeros((m, n + n_slack + m))
    b = np.zeros(m)
    row = 0
    slack_col = n
    for mat, r, is_ub in blocks:
        k = r.size
        A[row:row + k, :n] = mat
        if is_ub:
            A[row:row + k, slack_col:slack_col + k] = np.eye(k)
            slack_col += k
        b[row:row + k] = r
        row += k

    u = np.concatenate([problem.var_upper_bounds,
                        np.full(n_slack + m, np.inf)])
    # artificial columns: identity after sign-normalizing the rhs
    neg = b < 0
    A[neg, :] *= -1.0
    b[neg] *= -1.0
    art0 = n + n_slack
    A[:, art0:art0 + m] = np.eye(m)

    tab = _Tableau(A, b, u)
    tab.basis = list(range(art0, art0 + m))
    c1 = np.zeros(n + n_slack + m)
    c1[art0:] = 1.0
    allowed1 = np.ones(n + n_slack + m, dtype=bool)
    allowed1[art0:] = False   # artificials may leave but never re-enter
    status_str, it1 = _run_simplex(tab, c1, allowed1, phase=1)
    assert status_str == "optimal"  # phase-1 objective is bounded below
    phase1_obj = float(tab.xb[[i >= art0 for i in tab.basis]].sum())
    if phase1_obj > FEAS_TOL:
        return LpSolution("infeasible", iterations=it1)

    # drive leftover artificials out of the basis (or drop redundant rows)
    keep = np.ones(len(tab.basis), dtype=bool)
    for r_i, bv in enumerate(tab.basis):
        if bv < art0:
            continue
        pivots = np.flatnonzero(np.abs(tab.A[r_i, :art0]) > PIVOT_TOL)
        pivots = [j for j in pivots if j not in tab.basis]
        if not pivots:
            keep[r_i] = False
            continue
        # The pivot is degenerate, so the point does not move: a column at
        # its upper bound enters at that value.  Columns at zero go first.
        j = int(min(pivots, key=lambda k: tab.status[k] == _AT_UPPER))
        tab.basis[r_i] = j
        tab.xb[r_i] = tab.u[j] if tab.status[j] == _AT_UPPER else 0.0
        piv = tab.A[r_i, j]
        tab.A[r_i, :] /= piv
        factors = tab.A[:, j].copy()
        factors[r_i] = 0.0
        tab.A -= np.outer(factors, tab.A[r_i, :])
    if not np.all(keep):
        tab.A = tab.A[keep]
        tab.xb = tab.xb[keep]
        tab.basis = [bv for bv, k in zip(tab.basis, keep) if k]

    c2 = np.zeros(n + n_slack + m)
    c2[:n] = problem.objective
    allowed2 = np.ones(n + n_slack + m, dtype=bool)
    allowed2[art0:] = False
    status_str, it2 = _run_simplex(tab, c2, allowed2, phase=2)
    if status_str == "unbounded":
        return LpSolution("unbounded", iterations=it1 + it2)

    x_full = np.zeros(n + n_slack + m)
    upper = np.flatnonzero(tab.status == _AT_UPPER)
    x_full[upper] = tab.u[upper]
    x_full[tab.basis] = tab.xb
    x = x_full[:n]
    return LpSolution("optimal", x, float(problem.objective @ x),
                      iterations=it1 + it2)
