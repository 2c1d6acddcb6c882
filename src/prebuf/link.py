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

from ._checks import (MAX_COUNT, POSITIVE, check_array, check_fields,
                      check_int, check_items, check_real, finite_max)


def dbm_to_watts(dbm: float) -> float:
    return db_to_linear(dbm) * 1e-3


def db_to_linear(db: float) -> float:
    """10 ** (db / 10), or inf where that overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


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
        check_fields(self, num_system_prbs=(check_int, 1, MAX_COUNT),
                     **{name: (check_real,) for name in (
                         "total_power_dbm", "noise_psd_dbm_hz",
                         "noise_figure_db", "interference_psd_dbm_hz")},
                     prb_bandwidth_hz=(check_real, POSITIVE),
                     snr_gap_db=(check_real, 0.0),
                     min_bs_distance_m=(check_real, POSITIVE))
        # build_trace scales by the power and divides by the rest.  Finite
        # dB values can still overflow in linear units (to inf) or round
        # to 0.
        noise_dbm = self.noise_psd_dbm_hz + self.noise_figure_db
        for name, source, value in (
            ("per_prb_power_w", "total_power_dbm, num_system_prbs",
             dbm_to_watts(self.total_power_dbm) / self.num_system_prbs),
            ("noise_plus_interference_w",
             "noise_psd_dbm_hz, noise_figure_db, interference_psd_dbm_hz",
             (dbm_to_watts(noise_dbm) + dbm_to_watts(
                 self.interference_psd_dbm_hz)) * self.prb_bandwidth_hz),
            ("snr_gap_linear", "snr_gap_db", db_to_linear(self.snr_gap_db)),
        ):
            check_real(value, f"{name} (from {source})", POSITIVE)
            object.__setattr__(self, name, value)


# Largest shadowing sigma_db whose square, the field's variance, is finite.
MAX_SIGMA_DB = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class ShadowingConfig:
    """Log-normal shadowing: its standard deviation sigma_db, in [0,
    MAX_SIGMA_DB], and its decorrelation distance decorrelation_m, >= 0
    (inf is a fully correlated field); NaN fails both."""

    sigma_db: float = 10.0
    decorrelation_m: float = 50.0

    def __post_init__(self) -> None:
        check_fields(self, sigma_db=(check_real, 0.0, MAX_SIGMA_DB),
                     decorrelation_m=(check_real, 0.0, math.inf))


def path_loss_db(distance_km: float) -> float:
    """Outdoor macro path loss, distance in kilometers."""
    distance_km = check_real(distance_km, "distance_km", POSITIVE)
    return 128.1 + 37.6 * math.log10(distance_km)


class ShadowingField:
    """Log-normal shadowing (in dB) over 1-D position.

    Zero-mean Gaussian with variance sigma_db**2 and exponential spatial
    autocorrelation exp(-delta / decorrelation_m), both from the
    ShadowingConfig.  The field is Markov in position, so along sorted
    positions it is exactly an AR(1) recursion.
    decorrelation_m = 0 gives independent values and an infinite one a
    constant field.
    """

    def __init__(self, rng: np.random.Generator, *,
                 shadowing: ShadowingConfig = ShadowingConfig()):
        self.shadowing = shadowing
        self._rng = rng

    def sample(self, positions_m) -> np.ndarray:
        """Draw the field jointly at every position, one value each.

        Equal positions get equal values.  Each call is a new, independent
        realisation of the field drawn from the generator's stream, and
        sigma_db = 0 returns zeros without drawing.  The positions are
        taken by check_array: a non-empty 1-D array of finite values.

        The AR(1) steps depend only on (positions, decorrelation_m,
        sigma_db), so they are memoized on those values (the positions by
        their bytes) in a bounded cache; a call then draws
        standard_normal(len(rho)) and runs v = rho*v + scale*z over Python
        floats.  rho and scale are computed by the same operations as
        without the memo, so every draw keeps its bits.
        """
        positions = check_array(positions_m, "positions_m")
        shadowing = self.shadowing
        inverse, rho, scale = _ar1_steps(positions.tobytes(),
                                         shadowing.decorrelation_m,
                                         shadowing.sigma_db)
        if shadowing.sigma_db == 0.0:
            return np.zeros(positions.size)
        return np.array(_ar1_path(rho, scale, self._rng))[inverse]


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
    Both callers check that the positions are finite before the lookup.
    """
    unique, inverse = np.unique(np.frombuffer(positions_bytes),
                                return_inverse=True)
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

    build_traces checks both position arrays before the lookup.  The
    path loss takes path_loss_db's scalar `math.log10`, once per
    geometry, since numpy's array log10 need not round as it does.
    """
    trajectory, bs = np.frombuffer(trajectory_bytes), np.frombuffer(bs_bytes)
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
                slot_duration_s: float) -> np.ndarray:
    """Bits one PRB carries in one slot at each gain (dB), as an array.

    numpy does the IEEE arithmetic, which rounds as Python's does, and
    the linear gain 10 ** (gain / 10), since np.float_power calls the C
    library's pow, as math.pow does.  Scalar `math.log2` does the rest,
    since np.log2 need not round as it does.  Over the 307,200 gains of
    the default scenario's seeds 0-3199 (numpy 2.4.6), np.float_power
    differs from math.pow at none, and at none of 2,000,000 uniform
    exponents in [-33, 33]; np.power differs at 15,986 gains and np.log2
    at 41.  tests/test_link.py pins the float_power half.
    A linear gain, an SINR or a capacity that overflows is inf at its own
    slot, and an inf slot bandwidth times a zero rate is NaN, both
    without a numpy warning; both callers refuse either.
    """
    power_w = budget.per_prb_power_w
    denom = budget.snr_gap_linear * budget.noise_plus_interference_w
    slot_hz = slot_duration_s * budget.prb_bandwidth_hz
    tenths = np.asarray(gains_db, dtype=float) / 10.0
    n = tenths.size
    with np.errstate(over="ignore", invalid="ignore"):
        linear = np.float_power(10.0, tenths)
        sinr = power_w * linear / denom
        return slot_hz * np.fromiter(map(math.log2, (1.0 + sinr).tolist()),
                                     float, n)


def per_prb_bits(gain_db: float, budget: LinkBudget,
                 slot_duration_s: float) -> float:
    """Bits one PRB carries in one slot at the given average channel gain.

    A capacity that overflows or is NaN (an inf slot bandwidth times a
    zero rate) is a ValueError naming gain_db and slot_duration_s.
    """
    gain_db = check_real(gain_db, "gain_db")
    slot_duration_s = check_real(slot_duration_s, "slot_duration_s", POSITIVE)
    bits = float(_capacities((gain_db,), budget, slot_duration_s)[0])
    if not bits < math.inf:
        raise ValueError(f"gain_db {gain_db!r} dB with slot_duration_s "
                         f"{slot_duration_s!r} s gives a per-PRB capacity "
                         "that overflows or is not a number")
    return bits


@dataclass(frozen=True)
class ChannelTrace:
    """Per-slot serving-cell distance, average gain and PRB capacity.

    Three float64 arrays of one length, each taken by check_array:
    distances finite and >= 0, gains finite, capacities finite and > 0.
    They are read-only views, so one trace can be shared by several
    planners without one of them changing what another sees.
    build_traces checks a whole block of capacities at once instead.
    """

    distances_m: np.ndarray
    gain_db: np.ndarray
    bits_per_prb: np.ndarray

    def __post_init__(self) -> None:
        size = None                     # set by distances_m
        for name, lo in (("distances_m", 0.0),
                         ("gain_db", -sys.float_info.max),
                         ("bits_per_prb", POSITIVE)):
            view = check_array(getattr(self, name), name, size, lo).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
            size = view.size

    @classmethod
    def _of_block_rows(cls, distances_m, gain_db,
                       bits_per_prb) -> "ChannelTrace":
        """A trace of one row of each of three read-only block arrays whose
        capacities the caller has checked, made without __post_init__."""
        trace = object.__new__(cls)
        trace.__dict__.update(distances_m=distances_m, gain_db=gain_db,
                              bits_per_prb=bits_per_prb)
        return trace

    @property
    def num_slots(self) -> int:
        return len(self.distances_m)


# Blocks with at least this many shadowing streams, one per (seed, BS),
# seed, draw and recur them as arrays; smaller ones go stream by stream.
# The array path pays a few numpy calls per position whatever the stream
# count.  Measured in process at the default 96 positions, in alternating
# rounds over 2 to 32 streams, a stream costs about 30 us on its own, and
# the array path about 230 us per block plus 7 us per stream; they break
# even at 10 streams.  Both sides are in use: a single default trace has
# 2 streams (buffer-sweep and the buffer_sweep benchmark workload), and a
# default admission block has 40 users and 80 streams (multi-user's
# largest default kv, and the service_curve and baseline_admission
# workloads).
_ARRAY_STREAMS = 10

# numpy's SeedSequence hash constants, and PCG64's 128-bit multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2 ** 32 - 1, 2 ** 128 - 1
# The nine hash constants of generate_state(4, uint64), INIT_B times
# MULT_B**j, as a (9, 1) uint32 column.
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, j, 2 ** 32) & _MASK32
                    for j in range(9)], dtype=np.uint32)[:, None]


def _num_words(x) -> int:
    """How many uint32 words numpy's SeedSequence makes of an entropy or a
    spawn key it has accepted: an int one per started 32 bits (0 is one
    word), a string as its int, a sequence the sum over its items."""
    if type(x) is int and 0 <= x <= _MASK32:   # the usual case, one word
        return 1
    if isinstance(x, str):
        x = int(x, 16) if x.startswith("0x") else int(x)
    if isinstance(x, (int, np.integer)):
        return (max(int(x).bit_length(), 1) + 31) // 32
    return sum(map(_num_words, x))


def _stream_states(seeds: list, num_bs: int) -> list:
    """PCG64 (state, inc) of child i < num_bs of a first spawn of each
    seed, seed-major: those of PCG64(SeedSequence(ss.entropy,
    spawn_key=ss.spawn_key + (i,), pool_size=ss.pool_size)).

    A child's entropy words are its seed's, zero-padded to the pool size
    p, and then i (one word, since num_bs < 2**32).  numpy fills a short
    entropy with the same hashes of 0 that zero padding gives, so once
    the seed's words are mixed the child's pool is the seed's own `pool`,
    after n = p * (p + max(E - p, 0) + K) hashes for E entropy and K
    spawn-key words.  The child then mixes i into each pool word with
    the hash constants INIT_A * MULT_A**(n + j), j <= p.  Seeds are
    grouped by pool size, and each step acts on a (pool word, stream)
    uint32 array; generate_state(4, uint64) follows, and then PCG64's
    seeding step.
    The seeds of an admission block share their entropy and the length of
    their spawn keys, so INIT_A * MULT_A**n is computed once per distinct
    n of a group, not once per seed.  PCG64's seeding step runs on object
    arrays of Python ints, one row per 64-bit word, so each stream costs
    no tuple unpack and no interpreted shift: object arrays apply
    Python's own int operators element by element, which are exact, so
    every state keeps its bits.
    """
    groups = {}
    for k, ss in enumerate(seeds):
        groups.setdefault(ss.pool_size, []).append(k)
    states = [None] * (len(seeds) * num_bs)
    for p, ks in groups.items():
        # n of each seed, and the hash constant after its n hashes
        hashes = [p * (p + max(_num_words(seeds[k].entropy) - p, 0)
                       + _num_words(seeds[k].spawn_key)) for k in ks]
        const = {n: _INIT_A * pow(_MULT_A, n, 2 ** 32) & _MASK32
                 for n in set(hashes)}
        first = np.array([const[n] for n in hashes], dtype=np.uint32)
        powers = np.array([pow(_MULT_A, j, 2 ** 32) for j in range(p + 1)],
                          dtype=np.uint32)[:, None]
        consts = np.repeat(powers * first, num_bs, axis=1)
        pool = np.repeat(np.array([seeds[k].pool for k in ks]).T, num_bs,
                         axis=1)
        # pool word j = mix(pool word j, hashmix(i)), hashmix(i) taking
        # constants j and j + 1
        hashed = (np.tile(np.arange(num_bs, dtype=np.uint32), len(ks))
                  ^ consts[:-1]) * consts[1:]
        hashed ^= hashed >> 16
        pool = _MIX_L * pool - _MIX_R * hashed
        pool ^= pool >> 16
        state = pool[[j % p for j in range(8)]] ^ _HASH_B[:8]
        state *= _HASH_B[1:]
        state ^= state >> 16
        s_hi, s_lo, i_hi, i_lo = state.T.astype("<u4", order="C").view(
            "<u8").T.astype(object)
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        pcg = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128
        index = (k * num_bs + i for k in ks for i in range(num_bs))
        for k, pair in zip(index, zip(pcg.tolist(), inc.tolist())):
            states[k] = pair
    return states


def _shadowing_streams(seeds: list, num_bs: int, rho: tuple,
                       scale: tuple) -> np.ndarray:
    """The AR(1) values of every (seed, BS) stream along the sorted
    unique positions: a (seeds * num_bs, len(rho)) array, seed-major.

    Stream (seed, i) draws from the generator np.random.default_rng(child)
    builds for child i of a first spawn of the seed, without spawning
    from it.  Below _ARRAY_STREAMS streams each stream is seeded, drawn
    and recurred on its own (_ar1_path).  Otherwise the streams' PCG64
    states are derived as arrays from their seeds' pools
    (_stream_states); each stream's standard_normal is drawn from one
    generator set to its state; and the recursion runs once per position
    over all streams, multiplying and then adding as _ar1_path does, so
    every value has the same bits.
    Two per-stream and per-position costs are trimmed without moving a
    bit.  The generator is set through one state dict whose two PCG64
    words are rewritten per stream, not through two new dicts; the
    setter copies the words out, so rewriting them for the next stream
    leaves the state it set as it was.
    The recursion walks a list of the rows' views made once per block,
    and np.add writes into the row in place, so a position costs two
    ufunc calls and no item lookup or assignment on the 2-D array; each
    element still takes one rounded product and one rounded sum, in that
    order.
    """
    SeedSequence = np.random.SeedSequence
    count, positions = len(seeds) * num_bs, len(rho)
    if count < _ARRAY_STREAMS:
        # the generator np.random.default_rng(child) builds, without its
        # checks
        draws = [_ar1_path(rho, scale, np.random.Generator(np.random.PCG64(
                     SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                  pool_size=ss.pool_size))))
                 for ss in seeds for i in range(num_bs)]
        return np.fromiter(itertools.chain.from_iterable(draws), float,
                           count * positions).reshape(count, positions)

    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    z = np.empty((count, positions))
    pcg = {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0,
             "uinteger": 0}
    for row, (pcg["state"], pcg["inc"]) in zip(
            z, _stream_states(seeds, num_bs)):
        bit_generator.state = state
        rng.standard_normal(out=row)
    # Row 0 is the field before the first position; row k + 1 starts as
    # scale_k * z_k and gains rho_k * (row k).
    values = np.zeros((positions + 1, count))
    np.multiply(z.T, np.array(scale)[:, None], out=values[1:])
    step, rows = np.empty(count), list(values)
    for prev, row, rho_k in zip(rows, rows[1:], rho):
        np.multiply(prev, rho_k, out=step)
        np.add(row, step, out=row)
    return values[1:].T


def _seed_sequence(seed, name: str) -> np.random.SeedSequence:
    """seed itself if a SeedSequence, else SeedSequence(seed) of an int
    seed >= 0 under check_int's rule; anything else (a bool, a float, a
    negative int, a sequence) is a ValueError naming `name`."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    try:
        return np.random.SeedSequence(check_int(seed, name, 0))
    except ValueError:
        raise ValueError(f"{name} must be an int >= 0 or a numpy "
                         f"SeedSequence, got {seed!r}") from None


def build_trace(trajectory_m, bs_positions_m, budget: LinkBudget,
                slot_duration_s: float, *,
                shadowing: ShadowingConfig = ShadowingConfig(),
                seed=0) -> ChannelTrace:
    """The channel trace of one user: build_traces with one seed."""
    return build_traces(trajectory_m, bs_positions_m, budget,
                        slot_duration_s, shadowing=shadowing,
                        seeds=[_seed_sequence(seed, "seed")])[0]


def build_traces(trajectory_m, bs_positions_m, budget: LinkBudget,
                 slot_duration_s: float, *,
                 shadowing: ShadowingConfig = ShadowingConfig(),
                 seeds) -> list[ChannelTrace]:
    """Build the per-slot channel trace of one user per seed, in one batch.

    The trajectory has one position per slot of slot_duration_s seconds,
    so it sets the number of slots.  Each slot attaches to the BS with
    the highest average received power (path loss plus shadowing).  Each
    BS has its own shadowing stream, drawn once jointly over the whole
    trajectory.
    Each seed may be an int or a numpy SeedSequence; identical seeds
    reproduce the trace bit for bit, whatever block they are built in.
    The per-BS streams are the children of a first spawn of the seed,
    built without spawning from it, so a SeedSequence passed twice gives
    the same trace and is left unchanged.

    Traces are byte-identical to build_trace_loop in tests/oracles.py, a
    slot-by-slot loop that seeds through numpy's own spawn and
    default_rng, on both sides of _ARRAY_STREAMS, and unshadowed ones to
    a rebuild from path_loss_db and per_prb_bits.  The helpers document
    how: _geometry and _ar1_steps (the memoized geometry and AR(1)
    steps), _shadowing_streams and _stream_states (the streams) and
    _capacities.

    slot_duration_s is checked as per_prb_bits checks it, the trajectory
    and BS positions by check_array, and seeds, a non-empty iterable, by
    check_items, on every call and before any memo lookup or draw.  The
    capacities are checked once per block, as one (seeds, slots) array;
    each trace is a row of three block arrays made read-only, and does
    not run ChannelTrace's checks again.
    A capacity that overflows, rounds to 0 or is not finite is a
    ValueError naming gain_db and the inputs that set it, and a seed that
    is neither an int >= 0 nor a SeedSequence is a ValueError naming it,
    as seeds[i].
    """
    slot_duration_s = check_real(slot_duration_s, "slot_duration_s", POSITIVE)
    trajectory_m = check_array(trajectory_m, "trajectory_m")
    bs_positions_m = check_array(bs_positions_m, "bs_positions_m")
    seeds = check_items(seeds, "seeds", _seed_sequence)
    trajectory_bytes = trajectory_m.tobytes()
    distance, path = _geometry(trajectory_bytes, bs_positions_m.tobytes(),
                               budget.min_bs_distance_m)
    inverse, rho, scale = _ar1_steps(trajectory_bytes,
                                     shadowing.decorrelation_m,
                                     shadowing.sigma_db)

    n, (num_bs, T) = len(seeds), path.shape
    if shadowing.sigma_db == 0.0:
        shadow_db = np.zeros((n, num_bs, T))
    else:
        shadow_db = _shadowing_streams(seeds, num_bs, rho, scale).reshape(
            n, num_bs, -1).take(inverse, axis=2)
    bs_gain = path + shadow_db
    # the serving BS's gain and distance; the first of equals wins, as in
    # build_trace_loop's strict > scan
    gain = bs_gain[:, 0].copy()
    distances = np.repeat(distance[:1], n, axis=0)
    for i in range(1, num_bs):
        better = bs_gain[:, i] > gain
        np.copyto(gain, bs_gain[:, i], where=better)
        np.copyto(distances, distance[i], where=better)

    # A capacity that overflows, rounds to 0 or is not finite fails the
    # block's check.  The lengths hold by construction, so this is every
    # check ChannelTrace would run.
    bits = _capacities(gain.ravel(), budget, slot_duration_s).reshape(n, T)
    if finite_max(bits, POSITIVE) < math.inf:
        blocks = (distances, gain, bits)
        for block in blocks:
            block.setflags(write=False)     # so are the row views
        return [ChannelTrace._of_block_rows(*rows) for rows in zip(*blocks)]
    raise ValueError(
        f"gain_db in [{gain.min():.6g}, {gain.max():.6g}] dB gives a "
        "per-PRB capacity that overflows, rounds to 0 or is not finite; "
        "it is set by [link] total_power_dbm, num_system_prbs, "
        "prb_bandwidth_hz, noise_psd_dbm_hz, noise_figure_db, "
        "interference_psd_dbm_hz, snr_gap_db and min_bs_distance_m, "
        "[video] slot_duration_s, [shadowing] sigma_db and [scenario] "
        "bs_positions_m, user_start_m and user_speed_mps")
