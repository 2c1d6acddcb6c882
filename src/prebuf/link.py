"""Radio link model: path loss, correlated shadowing and per-PRB capacity.

Converts user geometry plus a link budget into the per-slot average channel
gain and the number of bits one PRB can carry in one slot.  Shadowing is
drawn once per trajectory and BS, jointly over all positions.  All
dB/linear conversions happen in double precision; capacities are kept in
plain bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._checks import MAX_COUNT, POSITIVE, all_finite, check_int, check_real
from .playout import VideoSpec


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    """Radio constants of the downlink (defaults: 10 MHz LTE macro cell).

    Construction also sets three derived attributes, which are not fields:
    per_prb_power_w (the total power split over every PRB the system
    owns, even when the experiment schedules fewer of them),
    noise_plus_interference_w (over one PRB's bandwidth) and
    snr_gap_linear.
    """

    total_power_dbm: float = 46.0
    num_system_prbs: int = 50
    prb_bandwidth_hz: float = 180e3
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 9.0
    interference_psd_dbm_hz: float = -149.0
    snr_gap_db: float = 0.0
    min_bs_distance_m: float = 35.0

    def __post_init__(self) -> None:
        check_int(self.num_system_prbs, "num_system_prbs", 1, MAX_COUNT)
        for name in ("total_power_dbm", "noise_psd_dbm_hz", "noise_figure_db",
                     "interference_psd_dbm_hz"):
            check_real(getattr(self, name), name)
        check_real(self.prb_bandwidth_hz, "prb_bandwidth_hz", POSITIVE)
        check_real(self.snr_gap_db, "snr_gap_db", 0.0)
        check_real(self.min_bs_distance_m, "min_bs_distance_m", POSITIVE)
        # build_trace scales by the power and divides by the rest.  Finite
        # dB values can still overflow in linear units (float ** raises,
        # as does dividing by a huge int) or round to 0.
        noise_dbm = self.noise_psd_dbm_hz + self.noise_figure_db
        for name, source, linear in (
            ("per_prb_power_w", "total_power_dbm, num_system_prbs",
             lambda: dbm_to_watts(self.total_power_dbm)
             / self.num_system_prbs),
            ("noise_plus_interference_w",
             "noise_psd_dbm_hz, noise_figure_db, interference_psd_dbm_hz",
             lambda: (dbm_to_watts(noise_dbm) + dbm_to_watts(
                 self.interference_psd_dbm_hz)) * self.prb_bandwidth_hz),
            ("snr_gap_linear", "snr_gap_db",
             lambda: db_to_linear(self.snr_gap_db)),
        ):
            try:
                value = linear()
            except OverflowError:
                value = math.inf
            check_real(value, f"{name} (from {source})", POSITIVE)
            object.__setattr__(self, name, value)


# Largest shadowing sigma_db whose square, the field's variance, is finite.
MAX_SIGMA_DB = math.sqrt(sys.float_info.max)


def check_shadowing(sigma_db: float, decorrelation_m: float) -> None:
    """Reject a sigma_db outside [0, MAX_SIGMA_DB] or a decorrelation_m
    below 0 (inf is a fully correlated field); NaN fails both."""
    check_real(sigma_db, "sigma_db", 0.0, MAX_SIGMA_DB)
    check_real(decorrelation_m, "decorrelation_m", 0.0, math.inf)


def path_loss_db(distance_km: float) -> float:
    """Outdoor macro path loss, distance in kilometers."""
    check_real(distance_km, "distance_km", POSITIVE)
    return 128.1 + 37.6 * math.log10(distance_km)


class ShadowingField:
    """Log-normal shadowing (in dB) over 1-D position.

    Zero-mean Gaussian with variance sigma_db**2 and exponential spatial
    autocorrelation exp(-delta / decorrelation_m).  The field is Markov in
    position, so along sorted positions it is exactly an AR(1) recursion.
    decorrelation_m = 0 gives independent values and an infinite one a
    constant field.
    """

    def __init__(self, sigma_db: float, decorrelation_m: float,
                 rng: np.random.Generator):
        check_shadowing(sigma_db, decorrelation_m)
        self.sigma_db = sigma_db
        self.decorrelation_m = decorrelation_m
        self._rng = rng

    def sample(self, positions_m) -> np.ndarray:
        """Draw the field jointly at every position; same shape as input.

        Equal positions get equal values.  Each call is a new, independent
        realisation of the field drawn from the generator's stream, and
        sigma_db = 0 returns zeros without drawing.  Positions must be
        finite.

        The AR(1) steps depend only on (positions, decorrelation_m,
        sigma_db), so they are memoized on those values (the positions by
        their bytes) in a bounded cache; a call then draws
        standard_normal(len(rho)) and runs v = rho*v + scale*z over Python
        floats.  rho and scale are computed by the same operations as
        without the memo, so every draw keeps its bits.
        """
        positions = np.asarray(positions_m, dtype=float)
        inverse, rho, scale = _ar1_steps(positions.tobytes(),
                                         self.decorrelation_m, self.sigma_db)
        if self.sigma_db == 0.0:
            return np.zeros(positions.shape)
        values = _ar1_path(rho, scale, self._rng)
        return np.array(values)[inverse].reshape(positions.shape)


def _ar1_path(rho: tuple, scale: tuple, rng: np.random.Generator) -> list:
    """One realisation of the field along the sorted unique positions:
    standard_normal(len(rho)) from `rng`, then v = rho*v + scale*z over
    Python floats."""
    z = rng.standard_normal(len(rho))
    v = 0.0
    return [v := rho_k * v + scale_k * z_k
            for rho_k, scale_k, z_k in zip(rho, scale, z.tolist())]


# Entries kept by each memo below.  All users of a scenario share one
# trajectory, BS layout and shadowing setting, so a scenario needs one entry
# in each; past 64 interleaved ones the least recently used is evicted.
_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _ar1_steps(positions_bytes: bytes, decorrelation_m: float,
               sigma_db: float):
    """AR(1) steps of the shadowing field along sorted unique positions.

    Returns (inverse, rho, scale): the read-only np.unique inverse and the
    tuples rho_k = exp(-(x_k - x_{k-1}) / decorrelation_m) (0 for k = 0
    and for no correlation) and sqrt(max(var * (1 - rho_k**2), 0)).
    """
    positions = np.frombuffer(positions_bytes)
    if positions.size and not all_finite(positions):
        raise ValueError("shadowing positions must be finite")
    unique, inverse = np.unique(positions, return_inverse=True)
    inverse.setflags(write=False)
    xs, d_c = unique.tolist(), decorrelation_m
    var = sigma_db ** 2
    rho, scale = [], []
    for k in range(len(xs)):
        r = (math.exp(-(xs[k] - xs[k - 1]) / d_c)
             if k > 0 and d_c > 0.0 else 0.0)
        rho.append(r)
        scale.append(math.sqrt(max(var * (1.0 - r * r), 0.0)))
    return inverse, tuple(rho), tuple(scale)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _geometry(trajectory_bytes: bytes, bs_bytes: bytes,
              min_bs_distance_m: float):
    """Clamped distance and path gain (-path loss, dB) of every BS at every
    trajectory point: two read-only float64 arrays of shape (num_BS, T).

    Both position arrays are checked for NaN and inf here, so only on a
    miss; a call that raises caches nothing, so bad positions raise on
    every call.
    """
    trajectory, bs = np.frombuffer(trajectory_bytes), np.frombuffer(bs_bytes)
    if not all_finite(trajectory):
        raise ValueError("trajectory positions must be finite")
    if not all_finite(bs):
        raise ValueError("BS positions must be finite")
    # A distance that overflows is clamped to the largest float: its
    # capacity rounds to 0, which build_trace reports with the inputs
    # that set it.
    xs, far = trajectory.tolist(), sys.float_info.max
    distances = [[min(max(abs(x - bx), min_bs_distance_m), far) for x in xs]
                 for bx in bs.tolist()]
    path = [[-path_loss_db(d_m / 1000.0) for d_m in row]
            for row in distances]
    distances, path = np.array(distances), np.array(path)
    distances.setflags(write=False)
    path.setflags(write=False)
    return distances, path


def _capacities(gains_db, budget: LinkBudget,
                slot_duration_s: float) -> list:
    """Bits one PRB carries in one slot at each gain (dB), as a list.

    Scalar `**` and `math.log2`, whose rounding numpy's array versions do
    not always match; a gain whose linear value overflows raises
    OverflowError.
    """
    power_w = budget.per_prb_power_w
    denom = budget.snr_gap_linear * budget.noise_plus_interference_w
    slot_hz = slot_duration_s * budget.prb_bandwidth_hz
    log2 = math.log2
    return [slot_hz * log2(1.0 + power_w * 10.0 ** (x / 10.0) / denom)
            for x in gains_db]


def per_prb_bits(gain_db: float, budget: LinkBudget,
                 slot_duration_s: float) -> float:
    """Bits one PRB carries in one slot at the given average channel gain.

    A gain whose capacity overflows is a ValueError naming gain_db.
    """
    check_real(gain_db, "gain_db")
    check_real(slot_duration_s, "slot_duration_s", POSITIVE)
    try:
        (bits,) = _capacities((gain_db,), budget, slot_duration_s)
    except OverflowError:
        bits = math.inf
    if bits == math.inf:
        raise ValueError(f"gain_db {gain_db!r} dB gives a per-PRB capacity "
                         "that overflows")
    return bits


@dataclass(frozen=True)
class ChannelTrace:
    """Per-slot serving-cell geometry, average gain and PRB capacity.

    The arrays are read-only views, so one trace can be shared by several
    planners without one of them changing what another sees.
    """

    distances_m: np.ndarray
    serving_bs: np.ndarray
    gain_db: np.ndarray
    bits_per_prb: np.ndarray

    def __post_init__(self) -> None:
        for name in ("distances_m", "serving_bs", "gain_db", "bits_per_prb"):
            view = np.asarray(getattr(self, name)).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        n = len(self.distances_m)
        if n < 1:
            raise ValueError("trace must cover at least one slot")
        for name in ("serving_bs", "gain_db", "bits_per_prb"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        if not all_finite(self.bits_per_prb, POSITIVE):
            raise ValueError("bits_per_prb must be finite and positive")

    @property
    def num_slots(self) -> int:
        return len(self.distances_m)


def build_trace(trajectory_m, bs_positions_m, budget: LinkBudget,
                spec: VideoSpec, *, sigma_db: float = 10.0,
                decorrelation_m: float = 50.0,
                seed=0) -> ChannelTrace:
    """The channel trace of one user: build_traces with one seed."""
    return build_traces(trajectory_m, bs_positions_m, budget, spec,
                        sigma_db=sigma_db, decorrelation_m=decorrelation_m,
                        seeds=[seed])[0]


def build_traces(trajectory_m, bs_positions_m, budget: LinkBudget,
                 spec: VideoSpec, *, sigma_db: float = 10.0,
                 decorrelation_m: float = 50.0,
                 seeds) -> list[ChannelTrace]:
    """Build the per-slot channel trace of one user per seed, in one batch.

    Each slot attaches to the BS with the highest average received power
    (path loss plus shadowing).  Each BS has its own shadowing stream,
    drawn once jointly over the whole trajectory.
    Each seed may be an int or a numpy SeedSequence; identical seeds
    reproduce the trace bit for bit, whatever block they are built in.
    The per-BS streams are the children of a first spawn of the seed,
    built without spawning from it, so a SeedSequence passed twice gives
    the same trace and is left unchanged.

    Every user of a scenario shares its trajectory and BS layout, so the
    clamped distances and path gains of every (BS, slot) pair are
    memoized in a bounded cache keyed on the bytes of the trajectory and
    of the BS positions and on min_bs_distance_m; only the shadowing
    draws are per trace.  The memo also checks that the positions are
    finite, so a geometry is checked when first seen, before any draw;
    a call that raises caches nothing, so bad positions raise on every
    call.  The input checks and the memo lookups run once per call; per
    stream only the seeding, the draws and the AR(1) recursion do.

    Traces are byte-identical to build_trace_loop in tests/oracles.py, a
    slot-by-slot loop, and unshadowed ones to a rebuild from path_loss_db
    and per_prb_bits.  The memo evaluates the path loss with scalar
    `math.log10`, numpy only adds the shadowing (one IEEE addition per
    element, the same bits as in Python) and takes the argmax (the first
    of equals wins, as a strict `>` scan does) on one (seed, BS, slot)
    array, and the capacities use the scalar `**` and `math.log2` of
    per_prb_bits over every slot of the batch.  A capacity that
    overflows, rounds to 0 or is not finite is a ValueError naming gain_db
    and the inputs that set it.
    """
    trajectory_m = np.asarray(trajectory_m, dtype=float).ravel()
    if trajectory_m.size == 0:
        raise ValueError("trajectory must not be empty")
    if trajectory_m.size != spec.num_slots:
        raise ValueError(
            f"trajectory has {trajectory_m.size} slots, video needs "
            f"{spec.num_slots}")
    bs_positions_m = np.asarray(bs_positions_m, dtype=float)
    if bs_positions_m.size == 0:
        raise ValueError("need at least one BS position")
    # Before the AR(1) memo, so a non-finite position is reported as a
    # trajectory or BS position and not as a shadowing one.
    trajectory_bytes = trajectory_m.tobytes()
    distance, path = _geometry(trajectory_bytes, bs_positions_m.tobytes(),
                               budget.min_bs_distance_m)
    check_shadowing(sigma_db, decorrelation_m)
    inverse, rho, scale = _ar1_steps(trajectory_bytes, decorrelation_m,
                                     sigma_db)

    SeedSequence = np.random.SeedSequence
    seeds = [s if isinstance(s, SeedSequence) else SeedSequence(s)
             for s in seeds]
    if not seeds:
        return []
    n, (num_bs, T) = len(seeds), path.shape
    if sigma_db == 0.0:
        shadowing = np.zeros((n, num_bs, T))
    else:
        # the generator np.random.default_rng(child) builds, without its
        # checks, for each child of a first spawn of each seed
        draws = [_ar1_path(rho, scale, np.random.Generator(np.random.PCG64(
                     SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                  pool_size=ss.pool_size))))
                 for ss in seeds for i in range(num_bs)]
        values = np.fromiter(itertools.chain.from_iterable(draws), float,
                             n * num_bs * len(rho))
        shadowing = values.reshape(n, num_bs, -1).take(inverse, axis=2)
    bs_gain = path + shadowing
    serving = bs_gain.argmax(axis=1)       # the first of equals wins
    slots = np.arange(T)
    gain = bs_gain[np.arange(n)[:, None], serving, slots]
    distances = distance[serving, slots]

    # A capacity that overflows raises here; one that rounds to 0 or is
    # not finite fails ChannelTrace's check, the only one that can fail.
    try:
        bits = np.array(_capacities(gain.ravel().tolist(), budget,
                                    spec.slot_duration_s)).reshape(n, T)
        return [ChannelTrace(distances[k], serving[k], gain[k], bits[k])
                for k in range(n)]
    except (OverflowError, ValueError):
        raise ValueError(
            f"gain_db in [{gain.min():.6g}, {gain.max():.6g}] dB gives a "
            "per-PRB capacity that overflows, rounds to 0 or is not finite; "
            "it is set by [link] total_power_dbm, num_system_prbs, "
            "prb_bandwidth_hz, noise_psd_dbm_hz, noise_figure_db, "
            "interference_psd_dbm_hz, snr_gap_db and min_bs_distance_m, "
            "[video] slot_duration_s, [shadowing] sigma_db and [scenario] "
            "bs_positions_m, user_start_m and user_speed_mps") from None
