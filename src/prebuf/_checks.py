"""Input checks shared by the config dataclasses."""

from __future__ import annotations

import numbers


def check_int(value, name: str, minimum: int) -> None:
    """Reject anything but an integer >= minimum (bools and floats too).

    numpy integers pass; NaN, inf and fractions do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
