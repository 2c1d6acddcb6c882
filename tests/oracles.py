"""Independent brute-force oracles used by the test suite.

These deliberately avoid the code paths they check: the LP oracle
enumerates basic solutions geometrically instead of pivoting, and the
planner oracle scans a one-dimensional feasible family directly.  The
`*_numpy` and `*_loop` functions are earlier forms of fast paths, kept as
byte-for-byte references, `step_buffer` is the one-slot buffer step that
`_fold_playback` runs inline for `simulate_playback` and admission, and
`build_buffer_matrix` states the planner's LP for the LP solvers.
"""

import math
from itertools import combinations

import numpy as np

from prebuf import ShadowingConfig


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


def build_buffer_matrix(T: int) -> np.ndarray:
    """Equality-constraint matrix over x = [r_1..r_T, z_2..z_T].

    Row t states that received plus carried-in minus carried-out bits
    equal one slot of video; the first and last rows have no carry-in and
    no carry-out respectively.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    A = np.zeros((T, 2 * T - 1))
    A[:, :T] = np.eye(T)
    for t in range(T - 1):
        A[t, T + t] = -1.0       # carry-out of slot t+1
        A[t + 1, T + t] = 1.0    # carry-in to slot t+2
    return A


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


def shadowing_loop(sigma_db, decorrelation_m, rng, positions_m):
    """ShadowingField.sample in its earlier form: np.unique, then one AR(1)
    step per unique position with rho and its scale computed in the loop."""
    positions = np.asarray(positions_m, dtype=float)
    if sigma_db == 0.0:
        return np.zeros(positions.shape)
    unique, inverse = np.unique(positions, return_inverse=True)
    z = rng.standard_normal(unique.size)
    xs, d_c = unique.tolist(), decorrelation_m
    var = sigma_db ** 2
    values = []
    v = 0.0
    for k, z_k in enumerate(z.tolist()):
        rho = (math.exp(-(xs[k] - xs[k - 1]) / d_c)
               if k > 0 and d_c > 0.0 else 0.0)
        v = rho * v + math.sqrt(max(var * (1.0 - rho * rho), 0.0)) * z_k
        values.append(v)
    return np.array(values)[inverse].reshape(positions.shape)


def build_trace_loop(trajectory_m, bs_positions_m, budget, slot_duration_s,
                     *, shadowing=ShadowingConfig(), seed=0):
    """build_trace in its earlier form: a slot-by-slot loop over every BS
    with a strict `>`, for inputs build_trace has already accepted.

    Returns (distances_m, gain_db, bits_per_prb).
    """
    trajectory_m = np.asarray(trajectory_m, dtype=float)
    bs_positions_m = np.asarray(bs_positions_m, dtype=float)
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    fields = [shadowing_loop(shadowing.sigma_db, shadowing.decorrelation_m,
                             np.random.default_rng(child),
                             trajectory_m).tolist()
              for child in ss.spawn(bs_positions_m.size)]
    power_w = budget.per_prb_power_w
    denom = (10.0 ** (budget.snr_gap_db / 10.0)
             * budget.noise_plus_interference_w)
    slot_hz = slot_duration_s * budget.prb_bandwidth_hz
    min_d = budget.min_bs_distance_m
    bs_list = bs_positions_m.tolist()
    distances, gains, bits = [], [], []
    for t, x in enumerate(trajectory_m.tolist()):
        best_gain = -math.inf
        best_d = 0.0
        for b, bx in enumerate(bs_list):
            d_m = max(abs(x - bx), min_d)
            g = -(128.1 + 37.6 * math.log10(d_m / 1000.0)) + fields[b][t]
            if g > best_gain:
                best_gain, best_d = g, d_m
        distances.append(best_d)
        gains.append(best_gain)
        sinr = power_w * 10.0 ** (best_gain / 10.0) / denom
        bits.append(slot_hz * math.log2(1.0 + sinr))
    return np.array(distances), np.array(gains), np.array(bits)


def step_buffer(z_t: float, r_t: float, v: float):
    """Advance the buffer one slot; returns (z_next, played, outage).

    The outage comparison carries a 1e-9 relative slack so that plans
    satisfying the no-outage equalities up to floating-point rounding do
    not stall on sub-microbit shortfalls.
    """
    if not (z_t >= 0 and r_t >= 0 and v >= 0):     # NaN fails too
        raise ValueError("buffer quantities must be non-negative")
    total = r_t + z_t
    if total >= v * (1.0 - 1e-9):
        return max(total - v, 0.0), v, False
    return total, 0.0, True
