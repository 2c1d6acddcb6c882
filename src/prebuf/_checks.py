"""Input checks shared by the config dataclasses and the array layers."""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np


# Largest count input (slots, requests, seeds, sweep points): each one
# sizes a list or an array, so it is bounded before anything is built.
MAX_COUNT = 2 ** 20

# The least positive float: lo=POSITIVE asks for a value > 0.
POSITIVE = math.ulp(0.0)

_MAX = sys.float_info.max


def check_int(value, name: str, minimum: int, maximum: int | None = None
              ) -> None:
    """Reject anything but an integer in [minimum, maximum] (bools and
    floats too); no maximum by default.

    numpy integers pass; NaN, inf and fractions do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < minimum or (maximum is not None and value > maximum):
        bound = (f">= {minimum}" if maximum is None
                 else f"in [{minimum}, {maximum}]")
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def check_real(value, name: str, lo: float = -_MAX, hi: float = _MAX
               ) -> None:
    """Reject anything but a real number in [lo, hi] (bools too).

    NaN always fails; -inf and inf pass only where lo or hi is infinite,
    so the default bounds ask for a finite value.  ints and numpy floats
    pass.  A float takes one chained comparison before any ABC test,
    since some configs are built in hot loops.
    """
    if type(value) is float and lo <= value <= hi:
        return
    # Other reals are compared as Python floats (ints exactly): against a
    # float32, lo and hi would be cast and round (the least positive float
    # to 0).
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not lo <= (value if isinstance(value, int)
                          else float(value)) <= hi:
        kind = "finite real" if -_MAX <= lo and hi <= _MAX else "real"
        low = {POSITIVE: " > 0", -_MAX: ""}.get(lo, f" >= {lo:.6g}")
        high = {_MAX: "", math.inf: " or inf"}.get(hi, f" up to {hi:.6g}")
        raise ValueError(f"{name} must be a {kind} number{low}{high}, "
                         f"got {value!r}")


def all_finite(x: np.ndarray, lo: float = -sys.float_info.max) -> bool:
    """True iff every element of the non-empty array x is finite and >= lo.

    lo must be finite: the min test is what rejects -inf.  Two reductions
    and no temporary array.  A NaN anywhere fails, because numpy's min and
    max propagate it and every comparison with NaN is False; Python's
    min() over a list would skip one that is not first.
    """
    return bool(x.min() >= lo and x.max() < math.inf)
