"""Input checks shared by the config dataclasses and the array layers.

Each check returns what it accepted as a Python int or float, a list of
checked items, or a float64 array, so a checked input is converted
once, here, and no layer converts it again.
"""

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
              ) -> int:
    """Return value as a Python int if it is an integer in [minimum,
    maximum]; anything else (bools and floats too) is a ValueError naming
    `name`.  No maximum by default.

    numpy integers pass; NaN, inf and fractions do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < minimum or (maximum is not None and value > maximum):
        bound = (f">= {minimum}" if maximum is None
                 else f"in [{minimum}, {maximum}]")
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_real(value, name: str, lo: float = -_MAX, hi: float = _MAX
               ) -> float:
    """Return value as a Python float if it is a real number in [lo, hi];
    anything else (bools too) is a ValueError naming `name`.

    NaN always fails; -inf and inf pass only where lo or hi is infinite,
    so the default bounds ask for a finite value.  ints and numpy reals
    pass.  A float takes one chained comparison before any ABC test,
    since some configs are built in hot loops.
    """
    if type(value) is float and lo <= value <= hi:
        return value
    # Other reals are converted first and the float is compared: against
    # a float32, lo and hi would be cast and round (the least positive
    # float to 0).
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
        if lo <= x <= hi:
            return x
    kind = "finite real" if -_MAX <= lo and hi <= _MAX else "real"
    low = {POSITIVE: " > 0", -_MAX: ""}.get(lo, f" >= {lo:.6g}")
    high = {_MAX: "", math.inf: " or inf"}.get(hi, f" up to {hi:.6g}")
    raise ValueError(f"{name} must be a {kind} number{low}{high}, "
                     f"got {value!r}")


def check_fields(obj, **checks) -> None:
    """Check each named field of the frozen dataclass obj, in order, by
    checks[name] = (check_real or check_int, *bounds), and store the
    value the check returns in its place (in the instance's __dict__,
    since a frozen dataclass refuses setattr)."""
    for name, (check, *bounds) in checks.items():
        vars(obj)[name] = check(getattr(obj, name), name, *bounds)


def check_items(values, name: str, check, *bounds) -> list:
    """values as a list whose item i is check(item, f"{name}[{i}]",
    *bounds); a value that is not a non-empty iterable, or is a str or
    bytes, is a ValueError naming `name`.

    The one check of a sequence argument (request volumes, buffer caps,
    BS positions, seeds, planner kinds): it is read once, here, so an
    iterator is consumed once and an error names the item at fault.
    """
    try:
        items = [] if isinstance(values, (str, bytes)) else list(values)
    except TypeError:
        items = []
    if not items:
        raise ValueError(f"{name} must be a non-empty iterable, not a "
                         f"string, got {values!r}")
    return [check(item, f"{name}[{i}]", *bounds)
            for i, item in enumerate(items)]


def real_array(values, name: str) -> np.ndarray:
    """values as a float64 array (itself if it is one); bool and complex
    arrays, and values numpy cannot read as reals, such as an int too
    large for a float, are a ValueError naming `name`."""
    try:
        array = np.asarray(values)
        if array.dtype.kind not in "bc":
            return np.asarray(array, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be real numbers: {exc}") from None
    raise ValueError(f"{name} must be real numbers, got {array.dtype}")


def check_shape(array: np.ndarray, name: str, size: int | None = None
                ) -> np.ndarray:
    """array itself if it is 1-D and non-empty, of `size` elements when
    size is given; anything else is a ValueError naming `name` and the
    shape it got."""
    if array.ndim != 1 or not array.size or size not in (None, array.size):
        want = "at least 1 element" if size is None else f"{size} elements"
        raise ValueError(f"{name} must be 1-D with {want}, got shape "
                         f"{array.shape}")
    return array


def check_array(values, name: str, size: int | None = None,
                lo: float = -_MAX) -> np.ndarray:
    """values as a float64 array (itself if it is one) that passes
    check_shape and whose entries are finite and >= lo; anything else is
    a ValueError naming `name`.  lo must be finite, and lo=POSITIVE asks
    for entries > 0.

    The one check of an array argument: every layer takes its vectors
    (plans, trace columns, positions) through it, so each is checked
    where it enters and nothing downstream checks it again.
    """
    return check_array_max(values, name, size, lo)[0]


def check_array_max(values, name: str, size: int | None = None,
                    lo: float = -_MAX) -> tuple:
    """(check_array(values, name, size, lo), its largest entry as a Python
    float): check_array for a caller that needs the max too, which the
    check has already reduced."""
    array = check_shape(real_array(values, name), name, size)
    top = finite_max(array, lo)
    if top == math.inf:
        bound = {-_MAX: "", 0.0: " and non-negative",
                 POSITIVE: " and positive"}.get(lo, f" and >= {lo:.6g}")
        raise ValueError(f"{name} must be finite{bound}")
    return array, top


def finite_max(x: np.ndarray, lo: float = -sys.float_info.max) -> float:
    """The largest element of the non-empty array x as a Python float if
    every element is finite and >= lo, and inf otherwise.

    lo must be finite: the min test is what rejects -inf.  Two reductions
    and no temporary array.  A NaN anywhere gives inf, because numpy's
    min and max propagate it and every comparison with NaN is False;
    Python's min() over a list would skip one that is not first.
    The reductions are np.minimum.reduce and np.maximum.reduce over the
    whole array, which x.min() and x.max() call after a Python wrapper in
    numpy's _methods module: the same reduction, so the same value, at a
    call's cost less per array checked.
    """
    top = float(np.maximum.reduce(x, axis=None))
    return top if np.minimum.reduce(x, axis=None) >= lo and top < math.inf \
        else math.inf
