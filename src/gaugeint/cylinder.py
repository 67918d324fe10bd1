"""Time sets and the reduction of cylinder integrals to finite dimension.

A cylinder functional depends on a path only through its values at the
finitely many times of a time set.  Its integral against the free
incremental kernel reduces to a weighted finite-dimensional oscillatory
integral, evaluated here with no damping: exact chirp Filon cells on a
window and a Taylor tail of the integrand against the tails' improper
(Abel-limit) moments past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cells import fsum_complex
from .errors import (
    DimensionCapError,
    IntegrandError,
    NoConvergenceError,
    ScheduleError,
    _require_number,
    _require_positive,
    guarded_values,
)
from .fresnel import ROOT_MINUS_I_OVER_2PI, IncrementSchedule
from .integrate import hk_integrate_1d
from .oscquad import (
    _taylor_tail,
    adaptive_chirp_integral,
    damped_chirp_filon_weights,
)

__all__ = ["TimeSet", "reduce_cylinder_integral"]


@dataclass(frozen=True)
class TimeSet:
    """A nonempty, strictly increasing, finite set of sample times."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(_require_number("time", t) for t in self.times)
        object.__setattr__(self, "times", times)
        if not times:
            raise ScheduleError("a time set needs at least one time")
        if not all(math.isfinite(t) for t in times):
            raise ScheduleError("times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScheduleError("times must be strictly increasing")


# ---------------------------------------------------------------------------
# reduction of path-space integrals to finite dimension
# ---------------------------------------------------------------------------


_RADIUS = 8.0  # half-width R of the first window [-R, R] of each increment
_MAX_RADIUS = 64.0  # widest window of the tail check
_START_CELLS = 16  # Filon cells per increment on the first tensor level
_MAX_POINTS = 1 << 24  # tensor points of one level (n >= 2)
_CHUNK = 1 << 17  # tensor points per integrand call
_DIMENSION_CAP = 4  # largest schedule dimension of the reduction
_TAIL_STEP = 2.0**-6  # sample spacing of the n = 1 tail


def _extended_rule(dt: float, radius: float, cells: int):
    """Nodes and weights for Int e^{i u^2 / (2 dt)} g(u) du over the line:
    Filon cells on [-R, R], and on the six end nodes a cubic Taylor tail
    (_taylor_tail), mirrored at -R."""
    edges = np.linspace(-radius, radius, cells + 1)
    nodes, w = damped_chirp_filon_weights(0.5j / dt, 0.0, edges)
    tail = _taylor_tail(0.5j / dt, radius, nodes[1] - nodes[0], 3, 6)
    w[:6] += tail
    w[:-7:-1] += tail
    return nodes, w


def _window_value(g, dt: float, window: tuple[float, float], tol: float) -> complex:
    """n = 1: the adaptive Filon integral of e^{i u^2 / (2 dt)} g(u) over a
    window, the core [-R, R] or one annulus that the radius check adds."""
    try:
        return adaptive_chirp_integral(g, 0.5 / dt, 0.0, window, tol, max_levels=10)[0]
    except NoConvergenceError:
        # the Filon ladder is first order on a jump; the tag-adaptive
        # window rule bisects a jump chain down to machine width instead
        whole = lambda u: g(u) * np.exp(0.5j / dt * np.square(u))
        return hk_integrate_1d(whole, window, tol).value


def _vectorized_nd(f):
    """Wrap an n-D integrand: (m, n) points to m finite complex values."""

    def fv(points: np.ndarray) -> np.ndarray:
        out = guarded_values(f, points)
        if out.shape != points.shape[:1]:
            raise IntegrandError(
                f"integrand must map (m, {points.shape[1]}) points to (m,) "
                f"values, got shape {out.shape}"
            )
        return out

    return fv


def _tensor_sum(fv, nodes_list, weights_list) -> complex:
    """sum over the tensor grid of prod_j w_j[i_j] * fv(x_{i_1}, ..., x_{i_n}).

    n >= 2 axes; fv maps an (m, n) array of grid points to m values.
    Streamed over chunks of the outer axes so the point buffer holds about
    _CHUNK rows; the partial sums are added exactly.
    """
    n = len(nodes_list)
    last_nodes, last_w = nodes_list[-1], weights_list[-1]
    ln = last_nodes.size
    outer_shape = tuple(nd.size for nd in nodes_list[:-1])
    outer_total = math.prod(outer_shape)
    rows_per_chunk = max(1, _CHUNK // ln)
    partials: list[complex] = []
    for start in range(0, outer_total, rows_per_chunk):
        stop = min(start + rows_per_chunk, outer_total)
        multi = np.unravel_index(np.arange(start, stop), outer_shape)
        rows = stop - start
        points = np.empty((rows * ln, n))
        for axis in range(n - 1):
            points[:, axis] = np.repeat(nodes_list[axis][multi[axis]], ln)
        points[:, n - 1] = np.tile(last_nodes, rows)
        row_sums = fv(points).reshape(rows, ln) @ last_w
        wout = weights_list[0][multi[0]]
        for axis in range(1, n - 1):
            wout = wout * weights_list[axis][multi[axis]]
        partials.append(fsum_complex(row_sums * wout))
    return fsum_complex(partials)


def _tensor_value(fv, sched: IncrementSchedule, radius: float, cells: int,
                  narrow: int = 0) -> complex:
    """n >= 2: the tensor product of the increments' extended rules or, given
    narrow (a multiple of 4) cells of the same width on [-R/1.5, R/1.5], only
    what the wider window adds: prod W'_k - prod W_k = sum_k W_<k (W'_k - W_k)
    W'_>k, and W'_k - W_k lives on the annuli and the six tail nodes at each
    end of the narrow window, where the wide nodes hold the narrow ones."""
    if (3 * cells + 1) ** sched.dim > _MAX_POINTS:
        raise NoConvergenceError(
            f"tensor reduction needs {3 * cells + 1}^{sched.dim} points, over "
            f"_MAX_POINTS ({_MAX_POINTS})", cap="_MAX_POINTS")
    rules = [_extended_rule(dt, radius, cells) for dt in sched.increments]

    def incs(p):  # grid points are increments: summed in place into coordinates
        for k in range(1, p.shape[1]):
            p[:, k] += p[:, k - 1]
        return fv(np.add(p, sched.origin_point, out=p))

    if not narrow:
        return _tensor_sum(incs, *zip(*rules))
    inner = [_extended_rule(dt, radius / 1.5, narrow) for dt in sched.increments]
    off, m = 3 * narrow // 4, 3 * narrow + 1  # wide nodes per annulus, narrow nodes
    added = np.r_[: off + 6, off + m - 6 : 2 * off + m]
    parts = []
    for k, (nodes, w) in enumerate(rules):
        dw = w[added] - np.pad(inner[k][1], off)[added]
        parts.append(_tensor_sum(incs, *zip(*inner[:k], (nodes[added], dw), *rules[k + 1 :])))
    return fsum_complex(parts)


def _reduction(fv, sched: IncrementSchedule, tol: float) -> complex:
    """The undamped reduction, its mesh and its radius each checked.

    Mesh: n = 1 runs adaptive_chirp_integral on the window at inner_tol =
    max(tol 1e-2, 1e-11); n >= 2 doubles the cells until two levels agree
    within 15 inner_tol (the rule is fourth order) and adds their
    Richardson correction.  Tail: R grows by half at the same cell width
    until two radii agree within tol; each step integrates only the annuli
    it adds to [-R, R] and swaps the tails at +-R for those at +-1.5 R.
    NoConvergenceError names the cap, _MAX_POINTS or _MAX_RADIUS, that
    stops a run.
    """
    tol = _require_positive("tol", tol)
    inner_tol = max(tol * 1e-2, 1e-11)  # floor: the windowed chirp core bottoms out
    norm = math.prod(ROOT_MINUS_I_OVER_2PI / math.sqrt(dt) for dt in sched.increments)
    if sched.dim == 1:
        dt = sched.increments[0]
        g = lambda u: fv(sched.origin_point + np.asarray(u, dtype=float)[:, None])
        piece = lambda lo, hi: _window_value(g, dt, (lo, hi), inner_tol)
        tails = lambda r: _taylor_tail(0.5j / dt, r, _TAIL_STEP, 3, 6) @ (
            g(r - _TAIL_STEP * np.arange(6)) + g(_TAIL_STEP * np.arange(6) - r))
        value, correction = norm * (piece(-_RADIUS, _RADIUS) + tails(_RADIUS)), 0.0
        widen = lambda v, r: v + norm * (piece(r, 1.5 * r) + piece(-1.5 * r, -r)
                                         + tails(1.5 * r) - tails(r))
    else:
        cells, prev = _START_CELLS, None
        value = norm * _tensor_value(fv, sched, _RADIUS, cells)
        while prev is None or abs(value - prev) > 15.0 * inner_tol:
            prev, cells = value, 2 * cells
            value = norm * _tensor_value(fv, sched, _RADIUS, cells)
        correction = (value - prev) / 15.0
        def widen(v, r):
            narrow, wide = (round(cells * s / _RADIUS) for s in (r, 1.5 * r))
            if narrow % 4 or 2 * wide != 3 * narrow:  # the wide nodes miss the narrow
                return norm * _tensor_value(fv, sched, 1.5 * r, wide)
            return v + norm * _tensor_value(fv, sched, 1.5 * r, wide, narrow)
    radius = _RADIUS
    while 1.5 * radius <= _MAX_RADIUS:
        wider = widen(value, radius)
        radius *= 1.5
        if abs(wider - value) <= tol:
            return complex(wider + correction)
        value = wider
    raise NoConvergenceError(
        f"tail did not settle to {tol:.3e} by _MAX_RADIUS ({_MAX_RADIUS})",
        cap="_MAX_RADIUS")


def reduce_cylinder_integral(
    f,
    times: TimeSet,
    sched: IncrementSchedule,
    tol: float = 1e-6,
) -> complex:
    """Path-space integral of f (depending on finitely many coordinates)
    against the free incremental kernel, reduced to finite dimension.

    f maps an (m, n) array of coordinate points (values at the sample
    times, in order) to m complex values.  The improper oscillatory
    integral is taken with no damping (_reduction): per increment, exact
    chirp Filon cells on a window [-R, R] and a cubic Taylor tail of f
    past +-R against Abel-limit tail moments, as a tensor product for
    n >= 2.  The radius check grows R by integrating only the added
    annuli.  Discontinuous f is supported for n = 1 (the adaptive path);
    for n >= 2 the tensor rule assumes f smooth.
    """
    if tuple(times.times) != tuple(sched.times):
        raise ScheduleError("the time set must equal the schedule's sample times")
    if sched.dim > _DIMENSION_CAP:
        raise DimensionCapError(f"dimension {sched.dim} exceeds cap {_DIMENSION_CAP}")
    return _reduction(_vectorized_nd(f), sched, tol)
