"""Radio link model: path loss, correlated shadowing and per-PRB capacity.

Converts user geometry plus a link budget into the per-slot average channel
gain and the number of bits one PRB can carry in one slot.  Shadowing is
drawn once per trajectory and BS, jointly over all positions.  All
dB/linear conversions happen in double precision; capacities are kept in
plain bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if self.num_system_prbs < 1:
            raise ValueError("num_system_prbs must be >= 1")
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
        if not (math.isfinite(sigma_db) and sigma_db >= 0):
            raise ValueError("sigma_db must be finite and >= 0")
        if not decorrelation_m >= 0:                # NaN fails too
            raise ValueError("decorrelation_m must be >= 0")
        self.sigma_db = sigma_db
        self.decorrelation_m = decorrelation_m
        self._rng = rng

    def sample(self, positions_m) -> np.ndarray:
        """Draw the field jointly at every position; same shape as input.

        Equal positions get equal values.  Each call is a new, independent
        realisation of the field drawn from the generator's stream, and
        sigma_db = 0 returns zeros without drawing.
        """
        positions = np.asarray(positions_m, dtype=float)
        if self.sigma_db == 0.0:
            return np.zeros(positions.shape)
        unique, inverse = np.unique(positions, return_inverse=True)
        z = self._rng.standard_normal(unique.size)
        xs, d_c = unique.tolist(), self.decorrelation_m
        var = self.sigma_db ** 2
        values = []
        v = 0.0
        for k, z_k in enumerate(z.tolist()):
            rho = (math.exp(-(xs[k] - xs[k - 1]) / d_c)
                   if k > 0 and d_c > 0.0 else 0.0)
            v = rho * v + math.sqrt(max(var * (1.0 - rho * rho), 0.0)) * z_k
            values.append(v)
        return np.array(values)[inverse].reshape(positions.shape)


def per_prb_bits(gain_db: float, budget: LinkBudget,
                 slot_duration_s: float) -> float:
    """Bits one PRB carries in one slot at the given average channel gain."""
    if slot_duration_s <= 0:
        raise ValueError("slot_duration_s must be positive")
    sinr = (budget.per_prb_power_w * db_to_linear(gain_db)
            / (db_to_linear(budget.snr_gap_db)
               * budget.noise_plus_interference_w))
    return slot_duration_s * budget.prb_bandwidth_hz * math.log2(1.0 + sinr)


@dataclass(frozen=True)
class ChannelTrace:
    """Per-slot serving-cell geometry, average gain and PRB capacity."""

    slot_duration_s: float
    distances_m: np.ndarray
    serving_bs: np.ndarray
    gain_db: np.ndarray
    bits_per_prb: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.distances_m)
        if n < 1:
            raise ValueError("trace must cover at least one slot")
        for name in ("serving_bs", "gain_db", "bits_per_prb"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        bits = self.bits_per_prb
        if not (np.all(np.isfinite(bits)) and np.all(bits > 0)):
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
    the trace bit for bit.
    """
    trajectory_m = np.asarray(trajectory_m, dtype=float)
    if trajectory_m.size == 0:
        raise ValueError("trajectory must not be empty")
    if trajectory_m.size != spec.num_slots:
        raise ValueError(
            f"trajectory has {trajectory_m.size} slots, video needs "
            f"{spec.num_slots}")
    if not np.all(np.isfinite(trajectory_m)):
        raise ValueError("trajectory positions must be finite")
    bs_positions_m = np.asarray(bs_positions_m, dtype=float)
    if bs_positions_m.size == 0:
        raise ValueError("need at least one BS position")
    if not np.all(np.isfinite(bs_positions_m)):
        raise ValueError("BS positions must be finite")

    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    shadowing = [ShadowingField(sigma_db, decorrelation_m,
                                np.random.default_rng(child)
                                ).sample(trajectory_m).tolist()
                 for child in ss.spawn(bs_positions_m.size)]

    T = trajectory_m.size
    distances = np.empty(T)
    serving = np.empty(T, dtype=int)
    gains = np.empty(T)
    bits = np.empty(T)
    for t, x in enumerate(trajectory_m):
        best_gain = -math.inf
        best_b = 0
        best_d = 0.0
        for b, bx in enumerate(bs_positions_m):
            d_m = max(abs(x - bx), budget.min_bs_distance_m)
            g = -path_loss_db(d_m / 1000.0) + shadowing[b][t]
            if g > best_gain:
                best_gain, best_b, best_d = g, b, d_m
        distances[t] = best_d
        serving[t] = best_b
        gains[t] = best_gain
        bits[t] = per_prb_bits(best_gain, budget, spec.slot_duration_s)
    return ChannelTrace(spec.slot_duration_s, distances, serving, gains, bits)
