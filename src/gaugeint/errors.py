"""Exception types, the user-callback guard and the input checks of the package."""

import cmath
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
    """Refinement or extrapolation hit its cap before reaching tolerance.

    cap names the limit that stopped the run, as the name of its module
    constant (such as "_MAX_CELLS"), or is None where no cap is named.
    """

    def __init__(self, message: str, cap: str | None = None) -> None:
        super().__init__(message)
        self.cap = cap


class ResourceLimitError(GaugeIntError):
    """A construction exceeded its depth or size cap."""


class ScheduleError(GaugeIntError):
    """An increment schedule or time set is malformed or inconsistent."""


class DimensionCapError(GaugeIntError):
    """A direct multi-dimensional reduction beyond the supported cap."""


class GridTooCoarseError(GaugeIntError):
    """A slice grid cannot resolve the state it is asked to carry.

    mesh_gap and window_gap are the relative moves of the value under the
    half-mesh and three-quarter-window probes, rtol the bound their rule
    broke; each is None when the error is raised without probes.
    """

    def __init__(
        self,
        message: str,
        mesh_gap: float | None = None,
        window_gap: float | None = None,
        rtol: float | None = None,
    ) -> None:
        super().__init__(message)
        self.mesh_gap = mesh_gap
        self.window_gap = window_gap
        self.rtol = rtol


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


def guarded_array(callback, what: str = "integrand"):
    """x -> callback(x) on a float array, as a complex array of x's shape.

    An array call that raises (other than a GaugeIntError) or returns another
    shape marks a scalar-only callback, asked from then on once per point in
    the same guard; a non-finite array result raises at once.
    """
    scalar_only = False

    def values(x: np.ndarray) -> np.ndarray:
        nonlocal scalar_only
        if not scalar_only:
            try:
                out = guarded_values(callback, x, what=what)
                if out.shape == x.shape:
                    return out
            except IntegrandError as exc:
                if exc.__cause__ is None:  # non-finite, or the callback's own error
                    raise
            scalar_only = True
        points = x.ravel().tolist()
        out = guarded_values(lambda: [complex(callback(v)) for v in points], what=what)
        return out.reshape(x.shape)

    return values


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
    if type(value) in (float, int):  # the common case, before the ABC check
        return float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _require_complex(name: str, value) -> complex:
    """value as a complex; a finite number of any type but bool (so no strings)."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Complex) and cmath.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite complex number, got {value!r}")
    return complex(value)


def _require_finite(name: str, value) -> float:
    """value as a float; a number and finite."""
    value = _require_number(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _require_finite_values(name: str, values) -> np.ndarray:
    """values as a float array (a 0-d array for a scalar); every entry finite."""
    out = np.asarray(values, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    return out


def _require_positive(name: str, value) -> float:
    """value as a float; a number, finite and > 0."""
    value = _require_number(name, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a positive real, got {value}")
    return value
