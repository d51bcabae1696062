"""Shared exception types and the checks every count and real value go through."""

import math
import numbers


class CapabilityError(ValueError):
    """The request exceeds a documented size cap of an exact routine."""


class NoCrossingError(RuntimeError):
    """A threshold crossing was not found inside the search window."""

    def __init__(self, message: str, window: tuple[int, int]):
        super().__init__(f"{message} (searched N in [{window[0]}, {window[1]}])")
        self.window = window


def check_count(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a plain int, if it is an integer, not a bool, in lo..hi.

    Anything else raises ValueError naming ``name``, so a bool or a float
    such as 5.0 is refused rather than truncated; a missing bound is open.
    """
    # the exact int test spares the common case the slower ABC check
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise ValueError(f"{name} {value!r} is not an integer")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        span = f"{'' if lo is None else lo}..{'' if hi is None else hi}"
        raise ValueError(f"{name} {value} outside {span}")
    return value


def check_real(value, name: str):
    """``value`` itself, if it is a finite real number and not a bool;
    anything else, NaN and +-inf included, raises ValueError naming ``name``."""
    # the exact float test spares the common case the slower ABC check
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} {value!r} is not a number")
    # comparisons, not math.isfinite, so no exact value is made a float
    if value != value or value == math.inf or value == -math.inf:
        raise ValueError(f"{name} {value!r} is not finite")
    return value


def check_float(value, name: str) -> float:
    """:func:`check_real`'s ``value`` as a float; an exact value no float
    holds, such as the JSON integer 10**400, raises ValueError naming ``name``."""
    try:
        return float(check_real(value, name))
    except OverflowError:
        raise ValueError(f"{name} lies outside the float range") from None
