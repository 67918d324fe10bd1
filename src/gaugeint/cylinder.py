"""Cylinder cells over path space and reduction to finite dimension.

A path-space cell constrains a path at finitely many times through a
product cell and leaves it free elsewhere.  Gauges on path space pair a
time-set requirement with a width requirement; divisions are finitely many
tagged cylinder cells that tile path space.  Integrals of functionals that
depend on finitely many coordinates reduce to weighted finite-dimensional
oscillatory integrals, evaluated here with damped kernels and polynomial
extrapolation of the damping to zero.
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
    Gauge1D,
    TaggedCell1D,
    _gauge_value,
    fsum_complex,
    is_delta_fine,
    tag_is_associated,
)
from .errors import (
    AssociationError,
    DimensionCapError,
    NoConvergenceError,
    ScheduleError,
    _require_number,
    guarded_call,
    guarded_values,
)
from .fresnel import ROOT_MINUS_I_OVER_2PI, IncrementSchedule
from .integrate import (
    _DIMENSION_CAP,
    _damped_extrapolation,
    _tensor_sum,
    _vectorized_nd,
    hk_integrate_1d,
)
from .oscquad import adaptive_chirp_integral, damped_chirp_filon_weights

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
        if not tag_is_associated(v, f):
            raise AssociationError(
                f"value {v} at time {t} is not an associated point of {f!r}"
            )


def is_gamma_fine(x: PathSample, cell: CylinderCell, gauge: GaugeRT) -> bool:
    """Fineness of one tagged cylinder cell under a path-space gauge.

    The gauge is evaluated once for the item: first the time-set clause
    (the required times must lie inside the cell's time set), then one
    width bound applied to every factor.  Raises AssociationError when the
    sample does not tag the cell, and IntegrandError when a gauge callback
    raises or the width is not a finite real.
    """
    _check_sample_matches_cell(x, cell)
    required = guarded_call(gauge.required_times, x, what="gauge")
    if not required.issubset(cell.times):
        return False
    d = _gauge_value(gauge.delta, x, cell.times)
    if not d > 0.0:
        raise ValueError(f"gauge width must be strictly positive, got {d}")
    width_gauge = Gauge1D(lambda _x, _d=d: _d)
    return all(
        is_delta_fine(TaggedCell1D(tag, f), width_gauge)
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


def _graded_edges(eps: float, radius: float, ncells: int) -> np.ndarray:
    """Cell edges graded to the damping scale 1/sqrt(eps): uniform in
    asinh(u sqrt(eps)), so cells are narrow where the damped envelope
    varies and widen geometrically in the tail — while every width still
    shrinks proportionally when ncells doubles (unlike equal-mass grading,
    whose outermost cell never narrows)."""
    s = math.sqrt(eps)
    t = math.asinh(radius * s)
    ts = np.linspace(-t, t, ncells + 1)
    return np.sinh(ts) / s


_MAX_LEVEL = 9  # cell doublings of one damped tensor reduction
_EPS0 = 5e-2  # widest damping of the reduction's schedule


def _damped_reduction(fv, sched: IncrementSchedule, eps: float, tol: float,
                      start_cells: int = 24) -> complex:
    """One damped member: integral of f times the damped incremental
    kernel, all oscillation and damping carried by exact per-cell moments.
    """
    dts = sched.increments
    n = len(dts)
    radius = math.sqrt(34.0 / eps)
    norm = 1.0 + 0j
    for dt in dts:
        norm *= ROOT_MINUS_I_OVER_2PI / math.sqrt(dt)

    if n == 1:
        dt = dts[0]
        beta = 0.5 / dt

        def genv(u):
            pts = sched.origin_point + np.asarray(u, dtype=float)[:, None]
            return fv(pts) * np.exp(-eps * np.square(np.asarray(u)))

        try:
            core, _ = adaptive_chirp_integral(
                genv, beta, 0.0, (-radius, radius), tol, max_levels=10
            )
        except NoConvergenceError:
            # the global Filon ladder is first order on a non-smooth
            # envelope (e.g. an indicator); the tag-adaptive window rule
            # bisects a jump chain down to machine width instead
            def whole(u):
                ua = np.asarray(u, dtype=float)
                pts = sched.origin_point + ua[:, None]
                return fv(pts) * np.exp((-eps + 1j * beta) * np.square(ua))

            report = hk_integrate_1d(whole, (-radius, radius), tol)
            core = report.value
        return norm * core

    def fv_increments(incs):
        # grid points are increments; coordinates are their prefix sums
        return fv(np.cumsum(incs, axis=1) + sched.origin_point)

    prev = None
    ncells = start_cells
    for _level in range(_MAX_LEVEL):
        nodes_list = []
        wfold_list = []
        for dt in dts:
            alpha = complex(-eps, 0.5 / dt)
            edges = _graded_edges(eps, radius, ncells)
            nodes, w = damped_chirp_filon_weights(alpha, 0.0, edges)
            nodes_list.append(nodes)
            wfold_list.append(w)
        value = norm * _tensor_sum(fv_increments, nodes_list, wfold_list, 1 << 17)
        if prev is not None:
            # the rule is fourth order: Richardson-extrapolate the pair
            ext = value + (value - prev) / 15.0
            if abs(value - prev) <= 15.0 * tol:
                return ext
        prev = value
        ncells *= 2
    raise NoConvergenceError(
        f"tensor reduction did not stabilize to {tol:.3e} within "
        f"{_MAX_LEVEL} refinement levels"
    )


def reduce_cylinder_integral(
    f,
    times: TimeSet,
    sched: IncrementSchedule,
    tol: float = 1e-6,
) -> complex:
    """Path-space integral of f (depending on finitely many coordinates)
    against the free incremental kernel, reduced to finite dimension.

    f maps an (m, n) array of coordinate points (values at the sample
    times, in order) to m complex values.  The unbounded oscillatory
    n-dimensional integral is damped by exp(-eps |increments|^2) over a
    geometric schedule in eps and extrapolated polynomially to eps = 0
    (integrate._damped_extrapolation).  Discontinuous f is supported for
    n = 1 (the adaptive path); for n >= 2 the tensor rule assumes f smooth.
    """
    if tuple(times.times) != tuple(sched.times):
        raise ScheduleError(
            "the time set must equal the schedule's sample times"
        )
    n = sched.dim
    if n > _DIMENSION_CAP:
        raise DimensionCapError(f"dimension {n} exceeds cap {_DIMENSION_CAP}")
    fv = _vectorized_nd(f)
    # the damping radius grows like 1/sqrt(eps), so later schedule members
    # need proportionally more cells to resolve the envelope; start them
    # deeper in the ladder rather than re-climbing the coarse levels
    return _damped_extrapolation(
        lambda k, eps, inner_tol: _damped_reduction(
            fv, sched, eps, inner_tol, start_cells=24 * 2 ** (k // 2)
        ),
        _EPS0, 6, tol,
    )


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
