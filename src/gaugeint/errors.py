"""Exception types, the user-callback guard and the input checks of the package."""

import math
import numbers

import numpy as np


class GaugeIntError(Exception):
    """Base class for all errors raised by this package."""


class AssociationError(GaugeIntError):
    """A tag is not an admissible associated point of its cell."""


class IntegrandError(GaugeIntError):
    """The integrand raised, or returned a non-finite value."""


class NoConvergenceError(GaugeIntError):
    """Refinement or extrapolation hit its cap before reaching tolerance."""


class ResourceLimitError(GaugeIntError):
    """A construction exceeded its depth or size cap."""


class ScheduleError(GaugeIntError):
    """An increment schedule or time set is malformed or inconsistent."""


class DimensionCapError(GaugeIntError):
    """A direct multi-dimensional reduction beyond the supported cap."""


class GridTooCoarseError(GaugeIntError):
    """A slice grid cannot resolve the state it is asked to carry."""


class NoMFoundError(GaugeIntError):
    """No partial-sum index within the cap met the uniform closeness test."""


def guarded_call(callback, *args, what: str = "integrand"):
    """callback(*args), with its errors wrapped as guarded_values wraps them."""
    try:
        return callback(*args)
    except (GaugeIntError, AssertionError):
        raise
    except Exception as exc:
        raise IntegrandError(f"{what} raised {exc!r}") from exc


def guarded_values(callback, *args, what: str = "integrand") -> np.ndarray:
    """callback(*args) as a complex array, or IntegrandError.

    Every user callback goes through here (a callback whose result is not
    a number, such as a gauge's time-set requirement, through
    guarded_call).  GaugeIntError and AssertionError propagate unchanged;
    any other exception is wrapped in IntegrandError with the original as
    __cause__; a non-finite value raises IntegrandError.  what names the
    callback in the messages.
    """
    out = guarded_call(
        lambda: np.asarray(callback(*args), dtype=complex), what=what
    )
    if not np.isfinite(out).all():
        raise IntegrandError(f"{what} returned a non-finite value")
    return out


def _require_count(name: str, value, minimum: int) -> int:
    """value as an int; any integer type but bool, and at least minimum."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < minimum
    ):
        raise ValueError(f"{name} must be an integer >= {minimum}")
    return int(value)


def _require_number(name: str, value) -> float:
    """value as a float; any real number type but bool (so no strings)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _require_finite(name: str, value) -> float:
    """value as a float; a number and finite."""
    value = _require_number(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _require_positive(name: str, value) -> float:
    """value as a float; a number, finite and > 0."""
    value = _require_number(name, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a positive real, got {value}")
    return value
