"""Radio link model: path loss, correlated shadowing and per-PRB capacity.

Converts user geometry plus a link budget into the per-slot average channel
gain and the number of bits one PRB can carry in one slot.  Shadowing is
drawn once per trajectory and BS, jointly over all positions.  All
dB/linear conversions happen in double precision; capacities are kept in
plain bits.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._checks import all_finite, check_int
from .playout import VideoSpec


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    """Radio constants of the downlink (defaults: 10 MHz LTE macro cell)."""

    total_power_dbm: float = 46.0
    num_system_prbs: int = 50
    prb_bandwidth_hz: float = 180e3
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 9.0
    interference_psd_dbm_hz: float = -149.0
    snr_gap_db: float = 0.0
    min_bs_distance_m: float = 35.0

    def __post_init__(self) -> None:
        check_int(self.num_system_prbs, "num_system_prbs", 1)
        if self.prb_bandwidth_hz <= 0:
            raise ValueError("prb_bandwidth_hz must be positive")
        if self.snr_gap_db < 0:
            raise ValueError("snr_gap_db must be >= 0")
        for name in ("total_power_dbm", "prb_bandwidth_hz",
                     "noise_psd_dbm_hz", "noise_figure_db",
                     "interference_psd_dbm_hz", "snr_gap_db",
                     "min_bs_distance_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.min_bs_distance_m <= 0:
            raise ValueError("min_bs_distance_m must be positive")
        # Finite dB values can still overflow in linear units or round to
        # 0, and build_trace scales by the power and divides by the rest.
        for name, source in (
                ("per_prb_power_w", "total_power_dbm"),
                ("noise_plus_interference_w", "noise_psd_dbm_hz, "
                 "noise_figure_db, interference_psd_dbm_hz"),
                ("snr_gap_linear", "snr_gap_db")):
            try:
                value = getattr(self, name)
            except OverflowError:
                value = math.inf
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} (from {source}) must be finite and "
                                 f"positive, got {value!r}")

    @property
    def per_prb_power_w(self) -> float:
        # Total power split over every PRB the system owns, even when the
        # experiment schedules fewer of them.
        return dbm_to_watts(self.total_power_dbm) / self.num_system_prbs

    @property
    def noise_plus_interference_w(self) -> float:
        noise = dbm_to_watts(self.noise_psd_dbm_hz + self.noise_figure_db)
        interference = dbm_to_watts(self.interference_psd_dbm_hz)
        return (noise + interference) * self.prb_bandwidth_hz

    @property
    def snr_gap_linear(self) -> float:
        return db_to_linear(self.snr_gap_db)


# Largest shadowing sigma_db whose square, the field's variance, is finite.
MAX_SIGMA_DB = math.sqrt(sys.float_info.max)


def path_loss_db(distance_km: float) -> float:
    """Outdoor macro path loss, distance in kilometers."""
    if distance_km <= 0:
        raise ValueError(f"distance must be positive, got {distance_km} km")
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
        if not 0 <= sigma_db <= MAX_SIGMA_DB:      # NaN fails too
            raise ValueError(f"sigma_db must be in [0, {MAX_SIGMA_DB:.6g}], "
                             f"got {sigma_db!r}")
        if not decorrelation_m >= 0:                # NaN fails too
            raise ValueError("decorrelation_m must be >= 0")
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
        z = self._rng.standard_normal(len(rho))
        v = 0.0
        values = [v := rho_k * v + scale_k * z_k
                  for rho_k, scale_k, z_k in zip(rho, scale, z.tolist())]
        return np.array(values)[inverse].reshape(positions.shape)


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
    if not np.all(np.isfinite(positions)):
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
    xs = trajectory.tolist()
    distances = [[max(abs(x - bx), min_bs_distance_m) for x in xs]
                 for bx in bs.tolist()]
    path = [[-path_loss_db(d_m / 1000.0) for d_m in row]
            for row in distances]
    distances, path = np.array(distances), np.array(path)
    distances.setflags(write=False)
    path.setflags(write=False)
    return distances, path


def per_prb_bits(gain_db: float, budget: LinkBudget,
                 slot_duration_s: float) -> float:
    """Bits one PRB carries in one slot at the given average channel gain."""
    if slot_duration_s <= 0:
        raise ValueError("slot_duration_s must be positive")
    sinr = (budget.per_prb_power_w * db_to_linear(gain_db)
            / (budget.snr_gap_linear * budget.noise_plus_interference_w))
    return slot_duration_s * budget.prb_bandwidth_hz * math.log2(1.0 + sinr)


@dataclass(frozen=True)
class ChannelTrace:
    """Per-slot serving-cell geometry, average gain and PRB capacity.

    The arrays are read-only views, so one trace can be shared by several
    planners without one of them changing what another sees.
    """

    slot_duration_s: float
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
        # >= the least positive float is > 0
        if not all_finite(self.bits_per_prb, math.ulp(0.0)):
            raise ValueError("bits_per_prb must be finite and positive")

    @property
    def num_slots(self) -> int:
        return len(self.distances_m)


def build_trace(trajectory_m, bs_positions_m, budget: LinkBudget,
                spec: VideoSpec, *, sigma_db: float = 10.0,
                decorrelation_m: float = 50.0,
                seed=0) -> ChannelTrace:
    """Build the per-slot channel trace for one user trajectory.

    Each slot attaches to the BS with the highest average received power
    (path loss plus shadowing).  Each BS has its own shadowing stream,
    drawn once jointly over the whole trajectory.
    `seed` may be an int or a numpy SeedSequence; identical seeds reproduce
    the trace bit for bit.  The per-BS streams are the children of a first
    spawn of `seed`, built without spawning from it, so a SeedSequence
    passed twice gives the same trace and is left unchanged.

    Every user of a scenario shares its trajectory and BS layout, so the
    clamped distances and path gains of every (BS, slot) pair are
    memoized in a bounded cache keyed on the bytes of the trajectory and
    of the BS positions and on min_bs_distance_m; only the shadowing
    draws are per trace.  The memo also checks that the positions are
    finite, so a geometry is checked when first seen, before any draw;
    a call that raises caches nothing, so bad positions raise on every
    call.  The memo evaluates the scalar path loss with
    `math` as before, numpy then only adds the shadowing (one IEEE
    addition per element, the same bits as in Python) and takes the
    argmax (the first of equals wins, as a strict `>` scan does), and the
    capacities keep the scalar `math` `10 **` and `log2` of
    `per_prb_bits`: numpy's versions differ from them by ulps.
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
    # Before the draws, so a non-finite position is reported as such and
    # not by the shadowing sampler.
    distance, path = _geometry(trajectory_m.tobytes(),
                               bs_positions_m.tobytes(),
                               budget.min_bs_distance_m)

    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    children = [np.random.SeedSequence(ss.entropy,
                                       spawn_key=ss.spawn_key + (i,),
                                       pool_size=ss.pool_size)
                for i in range(bs_positions_m.size)]
    # the generator np.random.default_rng(child) builds, without its checks
    shadowing = [ShadowingField(sigma_db, decorrelation_m,
                                np.random.Generator(np.random.PCG64(child))
                                ).sample(trajectory_m)
                 for child in children]
    bs_gain = path + np.array(shadowing)
    serving = bs_gain.argmax(axis=0)       # the first of equals wins
    slots = np.arange(trajectory_m.size)
    gain = bs_gain[serving, slots]

    # Link-budget invariants, evaluated in per_prb_bits's operation order.
    power_w = budget.per_prb_power_w
    denom = budget.snr_gap_linear * budget.noise_plus_interference_w
    slot_hz = spec.slot_duration_s * budget.prb_bandwidth_hz
    log2 = math.log2
    try:
        bits = [slot_hz * log2(1.0 + power_w * 10.0 ** (x / 10.0) / denom)
                for x in gain.tolist()]
    except OverflowError:
        raise ValueError(f"gain_db up to {gain.max():.6g} dB overflows the "
                         "per-PRB capacity") from None
    return ChannelTrace(spec.slot_duration_s, distance[serving, slots],
                        serving, gain, np.array(bits))
