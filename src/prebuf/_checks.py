"""Input checks shared by the config dataclasses and the array layers."""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np


# Largest count input (slots, requests, seeds, sweep points): each one
# sizes a list or an array, so it is bounded before anything is built.
MAX_COUNT = 2 ** 20


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


def all_finite(x: np.ndarray, lo: float = -sys.float_info.max) -> bool:
    """True iff every element of the non-empty array x is finite and >= lo.

    lo must be finite: the min test is what rejects -inf.  Two reductions
    and no temporary array.  A NaN anywhere fails, because numpy's min and
    max propagate it and every comparison with NaN is False; Python's
    min() over a list would skip one that is not first.
    """
    return bool(x.min() >= lo and x.max() < math.inf)
