"""Cylinder cells over path space and reduction to finite dimension.

A path-space cell constrains a path at finitely many times through a
product cell and leaves it free elsewhere.  Gauges on path space pair a
time-set requirement with a width requirement; divisions are finitely many
tagged cylinder cells that tile path space.  Integrals of functionals that
depend on finitely many coordinates reduce to weighted finite-dimensional
oscillatory integrals, evaluated here with no damping: exact chirp Filon
cells on a window and a Taylor tail of the integrand against the tails'
improper (Abel-limit) moments past it.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .cells import (
    Cell1D,
    CellND,
    _is_associated,
    _is_fine,
    _require_associated,
    fsum_complex,
)
from .errors import (
    AssociationError,
    DimensionCapError,
    IntegrandError,
    NoConvergenceError,
    ScheduleError,
    _require_number,
    _require_positive,
    guarded_call,
    guarded_values,
)
from .fresnel import ROOT_MINUS_I_OVER_2PI, IncrementSchedule
from .integrate import hk_integrate_1d
from .oscquad import (
    _taylor_tail,
    adaptive_chirp_integral,
    damped_chirp_filon_weights,
)

__all__ = [
    "TimeSet",
    "CylinderCell",
    "PathSample",
    "GaugeRT",
    "CylinderDivision",
    "is_gamma_fine",
    "refine_to_common_timeset",
    "validate_cylinder_division",
    "cylinder_riemann_sum",
    "reduce_cylinder_integral",
    "timeset_from_json",
    "schedule_from_json",
]


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

    def __len__(self) -> int:
        return len(self.times)

    def __contains__(self, t: float) -> bool:
        return float(t) in self.times

    def issubset(self, other: "TimeSet") -> bool:
        other_set = set(other.times)
        return all(t in other_set for t in self.times)

    @staticmethod
    def union(sets: Iterable["TimeSet"]) -> "TimeSet":
        merged: set[float] = set()
        for ts in sets:
            merged.update(ts.times)
        return TimeSet(tuple(sorted(merged)))


@dataclass(frozen=True)
class CylinderCell:
    """A product constraint at the times of a time set, free elsewhere."""

    times: TimeSet
    factors: CellND

    def __post_init__(self) -> None:
        if self.factors.dim != len(self.times):
            raise ScheduleError(
                f"cell has {self.factors.dim} factors for {len(self.times)} times"
            )


@dataclass(frozen=True)
class PathSample:
    """The restriction of a path to a time set: one extended-real value per
    time.  Infinite values are legitimate (they tag unbounded factors)."""

    times: TimeSet
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(_require_number("path value", v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.times):
            raise ScheduleError("one value per time required")
        if any(math.isnan(v) for v in values):
            raise ScheduleError("path values must not be NaN")


@dataclass(frozen=True)
class GaugeRT:
    """A path-space gauge: a time-set requirement plus a width requirement.

    required_times maps a path sample to the times any enclosing cell's
    time set must contain; delta maps (sample, time set) to a strictly
    positive width bound applied to every factor.
    """

    required_times: Callable[[PathSample], TimeSet]
    delta: Callable[[PathSample, TimeSet], float]


@dataclass(frozen=True)
class CylinderDivision:
    """Finitely many (sample, cell) pairs intended to tile path space.

    Validity (association and the tiling property) is diagnosed by
    validate_cylinder_division, not enforced at construction."""

    items: tuple[tuple[PathSample, CylinderCell], ...]

    def __post_init__(self) -> None:
        items = tuple((x, c) for x, c in self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise ScheduleError("a division needs at least one item")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def _check_sample_matches_cell(x: PathSample, cell: CylinderCell) -> None:
    if x.times != cell.times:
        raise AssociationError(
            "sample and cell are defined on different time sets"
        )
    for t, v, f in zip(x.times.times, x.values, cell.factors.factors):
        if not _is_associated(v, f.lo, f.hi):
            raise AssociationError(
                f"value {v} at time {t} is not an associated point of {f!r}"
            )


def is_gamma_fine(x: PathSample, cell: CylinderCell, gauge: GaugeRT) -> bool:
    """Fineness of one tagged cylinder cell under a path-space gauge.

    The gauge is evaluated once for the item: first the time-set clause
    (the required times must lie inside the cell's time set), then one
    width bound applied to every factor.  Raises AssociationError when the
    sample does not tag the cell or a factor's own tag is not associated
    with it, and IntegrandError when a gauge callback raises or the width
    is not a finite real.
    """
    _check_sample_matches_cell(x, cell)
    required = guarded_call(gauge.required_times, x, what="gauge")
    if not required.issubset(cell.times):
        return False
    out = guarded_values(gauge.delta, x, cell.times, what="gauge")
    if out.imag.any():
        raise IntegrandError("gauge returned a complex value")
    d = float(out.real)
    if not d > 0.0:
        raise ValueError(f"gauge width must be strictly positive, got {d}")
    return all(
        _is_fine(*_require_associated(tag, f), d)
        for tag, f in zip(cell.factors.tags, cell.factors.factors)
    )


def refine_to_common_timeset(
    cells: Sequence[CylinderCell],
) -> list[CylinderCell]:
    """Re-express every cell on the union time set.

    A cylinder cell leaves the path unconstrained off its own times, so
    padding with full-line factors (tagged at +inf) is exact: the refined
    cells describe the same subsets of path space.
    """
    if not cells:
        return []
    union = TimeSet.union(c.times for c in cells)
    out = []
    for c in cells:
        have = {t: i for i, t in enumerate(c.times.times)}
        tags: list[float] = []
        factors: list[Cell1D] = []
        for t in union.times:
            i = have.get(t)
            if i is None:
                tags.append(math.inf)
                factors.append(Cell1D.full_line())
            else:
                tags.append(c.factors.tags[i])
                factors.append(c.factors.factors[i])
        out.append(
            CylinderCell(union, CellND(tuple(tags), tuple(factors)))
        )
    return out


def _axis_probes(factors_per_cell: list[tuple[Cell1D, ...]], axis: int) -> list[float]:
    """Probe points separating all factor boundaries along one axis."""
    cuts: set[float] = set()
    for factors in factors_per_cell:
        f = factors[axis]
        if math.isfinite(f.lo):
            cuts.add(f.lo)
        if math.isfinite(f.hi):
            cuts.add(f.hi)
    edges = sorted(cuts)
    if not edges:
        return [0.0]
    probes = [edges[0] - 1.0]
    for a, b in zip(edges, edges[1:]):
        probes.append(0.5 * (a + b))
    probes.append(edges[-1] + 1.0)
    # boundary points themselves: membership is half-open, so each edge
    # belongs to exactly one side and must be probed too
    probes.extend(edges)
    return probes


def validate_cylinder_division(d: CylinderDivision) -> list[str]:
    """Diagnose association and the tiling property; [] means valid.

    Cells are refined to the common time set; every product of probe
    points (factor boundaries, midpoints between them, and outside
    sentinels) must lie in exactly one refined cell.  For half-open
    product cells whose boundaries are among the probes this test is
    exact, not a sampling heuristic.
    """
    problems: list[str] = []
    for i, (x, cell) in enumerate(d.items):
        try:
            _check_sample_matches_cell(x, cell)
        except AssociationError as exc:
            problems.append(f"item {i}: {exc}")
    refined = refine_to_common_timeset([cell for _, cell in d.items])
    factors_per_cell = [c.factors.factors for c in refined]
    n = len(refined[0].times)
    axes_probes = [_axis_probes(factors_per_cell, k) for k in range(n)]
    total = 1
    for p in axes_probes:
        total *= len(p)
    if total > 400_000:
        problems.append(
            f"tiling check too large ({total} probe points)"
        )
        return problems
    grids = np.meshgrid(*axes_probes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    counts = np.zeros(pts.shape[0], dtype=int)
    for factors in factors_per_cell:
        inside = np.ones(pts.shape[0], dtype=bool)
        for k, f in enumerate(factors):
            col = pts[:, k]
            inside &= (col > f.lo) & (col <= f.hi)
        counts += inside
    if (counts == 0).any():
        j = int(np.argmax(counts == 0))
        problems.append(f"gap: point {tuple(pts[j])} lies in no cell")
    if (counts > 1).any():
        j = int(np.argmax(counts > 1))
        problems.append(
            f"overlap: point {tuple(pts[j])} lies in {counts[j]} cells"
        )
    return problems


def cylinder_riemann_sum(
    h: Callable[[PathSample, TimeSet, CylinderCell], complex],
    d: CylinderDivision,
) -> complex:
    """Compensated sum of h over a valid division's tagged cells."""
    problems = validate_cylinder_division(d)
    if problems:
        raise ValueError("invalid division: " + "; ".join(problems))
    return fsum_complex(
        guarded_values(lambda: complex(h(x, cell.times, cell)), what="summand")
        for x, cell in d.items
    )


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


# ---------------------------------------------------------------------------
# JSON interfaces
# ---------------------------------------------------------------------------


def _json_times(text: str, keys: set[str]) -> tuple[dict, tuple[float, ...]]:
    """A time document holding only the given keys, and its "times" as floats."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("times"), list):
        raise ScheduleError('expected an object with a "times" array')
    unknown = set(obj) - keys
    if unknown:
        raise ScheduleError(f"unknown time document keys: {sorted(unknown)}")
    return obj, tuple(_require_number("time", t) for t in obj["times"])


def timeset_from_json(text: str) -> TimeSet:
    """Parse {"times": [...]} into a TimeSet."""
    return TimeSet(_json_times(text, {"times"})[1])


def schedule_from_json(text: str) -> IncrementSchedule:
    """Parse {"times": [...], "origin_time": t0, "origin_point": x0}."""
    obj, times = _json_times(text, {"times", "origin_time", "origin_point"})
    return IncrementSchedule(
        times=times,
        origin_time=_require_number("origin_time", obj.get("origin_time", 0.0)),
        origin_point=_require_number("origin_point", obj.get("origin_point", 0.0)),
    )
