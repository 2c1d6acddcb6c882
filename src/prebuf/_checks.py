"""Input checks shared by the config dataclasses and the array layers."""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np


def check_int(value, name: str, minimum: int) -> None:
    """Reject anything but an integer >= minimum (bools and floats too).

    numpy integers pass; NaN, inf and fractions do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


def all_finite(x: np.ndarray, lo: float = -sys.float_info.max) -> bool:
    """True iff every element of the non-empty array x is finite and >= lo.

    lo must be finite: the min test is what rejects -inf.  Two reductions
    and no temporary array.  A NaN anywhere fails, because numpy's min and
    max propagate it and every comparison with NaN is False; Python's
    min() over a list would skip one that is not first.
    """
    return bool(x.min() >= lo and x.max() < math.inf)
