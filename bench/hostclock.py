"""Host-speed kernels and the clock that scales a unit's time by them.

On a shared VM the host's speed drifts with other tenants' load, by up to
1.7x over periods of seconds to minutes (measured on a 2-vCPU VM), and
CPU time drifts with it, so no run length or clock averages it away.  A
fixed kernel that runs now and then during a unit measures the host's
current speed, and the unit's time is scaled by it.

Different code slows down by different amounts: on that VM, a pure-Python
loop slowed about half as much as small numpy calls did.  So each kernel
is shaped like the layer that carries one workload's time, and frozen
here, so that a change to the program cannot change it:

- `tableau`: dense-simplex pivots (column choice, ratio test, rank-one
  update of a tableau), as in `prebuf.simplex`.
- `shadowing`: correlated shadowing draws (sorted-list insert, dict,
  `math.exp`, one scalar normal draw each), as in `prebuf.link`.

Between fresh processes, the workload's time over the matching kernel's
varied by about 6%, against 10-15% for a generic kernel (a Python loop
plus rank-one updates) and 40% for the raw time.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

# kernel name -> its time in seconds on an undisturbed host of that VM;
# scaled times read as seconds on such a host
REFERENCE_S = {"tableau": 0.0015, "shadowing": 0.0012}
PROBE_EVERY_S = 0.05

_M0 = np.random.default_rng(0).uniform(0.5, 1.5, (60, 200))
_XB0 = np.random.default_rng(1).uniform(0.0, 1.0, 60)
_D0 = np.random.default_rng(2).normal(size=200)


def _tableau() -> None:
    A, xb, d = _M0.copy(), _XB0.copy(), _D0.copy()
    status = np.zeros(A.shape[1], dtype=np.int8)
    for it in range(25):
        cand = np.flatnonzero((status == 0) & (d < -1e-9)
                              | (status == 1) & (d > 1e-9))
        j = int(cand[np.argmax(np.abs(d[cand]))]) if cand.size else it
        col = A[:, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.where(col > 1e-9,
                          xb / np.where(col > 1e-9, col, 1.0), np.inf)
            hi = np.where(col < -1e-9,
                          (2.0 - xb) / np.where(col < -1e-9, -col, 1.0),
                          np.inf)
        r = int(np.argmin(np.minimum(lo, hi)))
        A[r, :] /= A[r, j]
        factors = A[:, j].copy()
        factors[r] = 0.0
        A -= np.outer(factors, A[r, :]) * 1e-3
        d = d - d[j] * A[r, :] * 1e-3
        np.clip(xb, 0.0, None, out=xb)
        status[j] ^= 1


def _shadowing() -> None:
    rng = np.random.default_rng(1)
    positions: list[float] = []
    values: dict[float, float] = {}
    for i in range(800):
        pos = (i * 7919) % 1000 * 0.5
        k = bisect.bisect_left(positions, pos)
        left = positions[k - 1] if k > 0 else None
        rho = math.exp(-abs(pos - left) / 50.0) if left is not None else 0.0
        values[pos] = (rho * values.get(left, 0.0)
                       + math.sqrt(1.0 - rho * rho) * 10.0
                       * float(rng.standard_normal()))
        positions.insert(k, pos)


KERNELS = {"tableau": _tableau, "shadowing": _shadowing}


def kernel_s(name: str) -> float:
    """Seconds kernel `name` takes: the host's current speed."""
    start = time.perf_counter()
    KERNELS[name]()
    return time.perf_counter() - start


class HostClock:
    """Work time of one unit: raw, and scaled by the host speed the kernel
    sees before, after and every PROBE_EVERY_S during the unit.

    Each stretch of work between two kernel runs is scaled by the
    reference time over the mean of those two runs; the kernel's own time
    is left out.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.raw_s = self.scaled_s = 0.0

    def start(self) -> None:
        self._last = kernel_s(self.kernel)
        self._mark = time.perf_counter()

    def probe(self, force: bool = False) -> None:
        """Close the stretch of work since the last kernel run, if it is
        PROBE_EVERY_S long or `force`."""
        work = time.perf_counter() - self._mark
        if work < PROBE_EVERY_S and not force:
            return
        now = kernel_s(self.kernel)
        self.raw_s += work
        self.scaled_s += work * REFERENCE_S[self.kernel] / (
            (self._last + now) / 2)
        self._last = now
        self._mark = time.perf_counter()

    def stop(self) -> None:
        self.probe(force=True)
