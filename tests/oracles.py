"""Independent brute-force oracles used by the test suite.

These deliberately avoid the code paths they check: the LP oracle
enumerates basic solutions geometrically instead of pivoting, and the
planner oracle scans a one-dimensional feasible family directly.
"""

from itertools import combinations

import numpy as np


def vertex_enum_objective(problem, feas_tol=1e-7, det_tol=1e-8):
    """Optimal objective of a bounded LP by enumerating all vertices.

    Collects every constraint (equalities, inequalities, box bounds),
    solves each square active set, keeps the feasible intersections and
    returns the minimum objective; None when no vertex is feasible.
    Requires all variable upper bounds finite so the region is a polytope.
    """
    c = problem.objective
    n = c.size
    u = problem.var_upper_bounds
    assert np.all(np.isfinite(u)), "oracle needs a bounded box"

    eq_m = problem.eq_matrix if problem.eq_matrix is not None \
        else np.empty((0, n))
    eq_r = problem.eq_rhs if problem.eq_rhs is not None else np.empty(0)
    ineq_m = [problem.ub_matrix] if problem.ub_matrix is not None else []
    ineq_r = [problem.ub_rhs] if problem.ub_rhs is not None else []
    ineq_m += [np.eye(n), -np.eye(n)]          # x <= u, -x <= 0
    ineq_r += [u, np.zeros(n)]
    G = np.vstack(ineq_m)
    h = np.concatenate(ineq_r)

    k = n - eq_r.size                      # inequalities to activate
    if k < 0:
        return None
    combos = np.array(list(combinations(range(h.size), k)), dtype=int)
    combos = combos.reshape(-1, k)
    M = np.empty((len(combos), n, n))
    rhs = np.empty((len(combos), n))
    M[:, :eq_r.size, :] = eq_m
    rhs[:, :eq_r.size] = eq_r
    M[:, eq_r.size:, :] = G[combos]
    rhs[:, eq_r.size:] = h[combos]

    dets = np.abs(np.linalg.det(M))
    ok = dets > det_tol
    if not np.any(ok):
        return None
    xs = np.linalg.solve(M[ok], rhs[ok][..., None])[..., 0]
    feasible = np.all(xs @ G.T <= h + feas_tol, axis=1)
    if eq_r.size:
        feasible &= np.all(np.abs(xs @ eq_m.T - eq_r) <= feas_tol, axis=1)
    if not np.any(feasible):
        return None
    return float(np.min(xs[feasible] @ c))


def two_slot_plan_objective(c_bits, v_bits, z_cap_bits, grid=200_001):
    """Brute-force optimum of the two-slot planning problem.

    Scans the one-parameter family r1 in [V, min(2V, V + Z)] with
    r2 = 2V - r1 and returns min r1/c1 + r2/c2 over the grid.
    """
    c1, c2 = c_bits
    hi = min(2.0 * v_bits, v_bits + z_cap_bits)
    r1 = np.linspace(v_bits, hi, grid)
    r2 = 2.0 * v_bits - r1
    return float(np.min(r1 / c1 + r2 / c2))


def plan_anticipatory_numpy(spec, trace, residual_prbs):
    """The planner's successive-shortest-path loop as one numpy pass per
    augmentation: its earlier form, kept as the byte-for-byte reference.

    Returns (received_bits, carryover_bits, prbs, total_prb_slots,
    feasible) for inputs the planner has already accepted.
    """
    T, V = spec.num_slots, spec.bits_per_slot
    c = trace.bits_per_prb
    supply = c * np.asarray(residual_prbs, dtype=float)
    received = np.zeros(T)
    carry = np.zeros(T - 1)
    tol = 1e-12 * V
    for t in range(T):
        need = V
        while need > tol:
            reach = np.minimum.accumulate(
                (spec.max_carryover_bits - carry[:t])[::-1])[::-1]
            avail = np.minimum(supply[:t + 1], np.append(reach, np.inf))
            score = np.where(avail > tol, c[:t + 1], 0.0)[::-1]
            k = int(np.argmax(score))
            if score[k] == 0.0:
                z = np.zeros(T)
                return z, np.zeros(max(T - 1, 0)), z.copy(), 0.0, False
            s = t - k
            amount = min(need, float(avail[s]))
            supply[s] -= amount
            carry[s:t] += amount
            received[s] += amount
            need -= amount
    prbs = received / c
    return received, carry, prbs, float(prbs.sum()), True
