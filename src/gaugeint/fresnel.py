"""Fresnel distribution functions on figures and increment densities on cells.

The distribution of a figure sums, over its product cells, the products of
per-axis incomplete Fresnel integrals sqrt(-i/2pi) Int_I e^{ix^2/2} dx: a
finitely additive complex distribution whose total mass over R^n is exactly 1.

The incremental variants replace coordinates by increments x_j - x_{j-1}
weighted by time steps t_j - t_{j-1}: the finite-dimensional shadow of the
free-particle path measure.  Increment chains couple adjacent coordinates,
so the incremental distribution is evaluated as a nested right-to-left
integral; runs of full-line factors collapse exactly through the semigroup
identity for free quadratic kernels, and only bounded windows are ever
integrated numerically.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cells import (
    KIND_BOUNDED,
    KIND_FULL_LINE,
    Cell1D,
    CellND,
    fsum_complex,
)
from .errors import (
    AssociationError,
    ScheduleError,
    _require_finite_values,
    _require_number,
    _require_positive,
)
from .oscquad import ROOT_MINUS_I_OVER_2PI, adaptive_chirp_integral, fresnel_integral

__all__ = [
    "FigureND",
    "IncrementSchedule",
    "free_increment_factor",
    "fresnel_distribution",
    "incremental_density",
    "incremental_distribution",
]


@dataclass(frozen=True)
class FigureND:
    """A finite union of pairwise disjoint product cells of one dimension."""

    cells: tuple[tuple[Cell1D, ...], ...]

    def __post_init__(self) -> None:
        cells = tuple(tuple(c) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            return
        n = len(cells[0])
        if n == 0:
            raise ValueError("cells must have dimension >= 1")
        for c in cells:
            if len(c) != n:
                raise ValueError("all cells must share one dimension")
            for f in c:
                if not isinstance(f, Cell1D):
                    raise TypeError("figure factors must be Cell1D")
        for i in range(len(cells)):
            for k in range(i + 1, len(cells)):
                if _product_cells_overlap(cells[i], cells[k]):
                    raise ValueError(f"cells {i} and {k} overlap")

    @property
    def dim(self) -> int:
        if not self.cells:
            raise ValueError("empty figure has no dimension")
        return len(self.cells[0])


def _product_cells_overlap(a: tuple[Cell1D, ...], b: tuple[Cell1D, ...]) -> bool:
    # half-open (lo, hi] factors intersect iff max(lo) < min(hi) on every axis
    for fa, fb in zip(a, b):
        if not (max(fa.lo, fb.lo) < min(fa.hi, fb.hi)):
            return False
    return True


@dataclass(frozen=True)
class IncrementSchedule:
    """Strictly increasing sample times with an origin (time, point) anchor."""

    times: tuple[float, ...]
    origin_time: float = 0.0
    origin_point: float = 0.0

    def __post_init__(self) -> None:
        times = tuple(_require_number("time", t) for t in self.times)
        object.__setattr__(self, "times", times)
        for name in ("origin_time", "origin_point"):
            object.__setattr__(self, name, _require_number(name, getattr(self, name)))
        if not times:
            raise ScheduleError("at least one sample time required")
        if not all(math.isfinite(t) for t in times):
            raise ScheduleError("sample times must be finite")
        if not math.isfinite(self.origin_time) or self.origin_time < 0.0:
            raise ScheduleError("origin time must be finite and >= 0")
        if not math.isfinite(self.origin_point):
            raise ScheduleError("origin point must be finite")
        prev = self.origin_time
        for t in times:
            if not t > prev:
                raise ScheduleError("times must be strictly increasing past origin")
            prev = t

    @property
    def dim(self) -> int:
        return len(self.times)

    @property
    def increments(self) -> tuple[float, ...]:
        prev = self.origin_time
        out = []
        for t in self.times:
            out.append(t - prev)
            prev = t
        return tuple(out)


def free_increment_factor(cell: Cell1D, shift, dt: float):
    """sqrt(-i/(2 pi dt)) Int_I e^{(i/2)(x-shift)^2/dt} dx, vectorized in shift.

    The substitution y = (x - shift)/sqrt(dt) reduces the factor to
    sqrt(-i/2pi) (F(u_hi) - F(u_lo)); the sqrt(dt) Jacobian cancels the
    normalizer's 1/sqrt(dt).
    """
    try:
        dt = _require_positive("increment", dt)
    except ValueError as exc:
        raise ScheduleError(str(exc)) from None
    shift_arr = _require_finite_values("shift", shift)
    s = math.sqrt(dt)
    out = ROOT_MINUS_I_OVER_2PI * (
        fresnel_integral((cell.hi - shift_arr) / s)
        - fresnel_integral((cell.lo - shift_arr) / s)
    )
    return out if shift_arr.ndim else complex(out)


def fresnel_distribution(fig: FigureND) -> complex:
    """Distribution value of a figure: additive sum of per-cell products."""
    return fsum_complex([
        math.prod((free_increment_factor(f, 0.0, 1.0) for f in c), start=complex(1.0))
        for c in fig.cells
    ])


def incremental_density(cell: CellND, sched: IncrementSchedule) -> complex:
    """Increment-weighted density mass of one tagged product cell.

    Finite tags x give prod_j sqrt(-i/(2 pi dt_j)) e^{(i/2)(x_j-x_{j-1})^2/dt_j}
    times the volume, with x_0 the schedule's origin point.  Any infinite tag
    switches to the integral branch, which coincides with the incremental
    distribution of the bare cell.
    """
    if cell.dim != sched.dim:
        raise ScheduleError(
            f"schedule has {sched.dim} increments, cell has dimension {cell.dim}"
        )
    if not cell.is_associated():
        raise AssociationError("tags are not associated with the cell")
    if all(math.isfinite(t) for t in cell.tags):
        return complex(_finite_density(np.array(cell.tags), cell.volume(), sched))
    return incremental_distribution(cell.factors, sched)


def _finite_density(tags: np.ndarray, volume, sched: IncrementSchedule) -> np.ndarray:
    """incremental_density's finite-tag branch on arrays: the cells' finite
    tags run along the last axis of tags, their volumes fill volume."""
    prev = sched.origin_point
    phase = 0.0
    norm = complex(1.0)
    for x, dt in zip(np.moveaxis(tags, -1, 0), sched.increments):
        phase = phase + (x - prev) ** 2 / dt
        norm *= ROOT_MINUS_I_OVER_2PI / math.sqrt(dt)
        prev = x
    return norm * np.exp(0.5j * phase) * volume


def incremental_distribution(
    cells: Sequence[Cell1D],
    sched: IncrementSchedule,
    *,
    tol: float = 1e-9,
) -> complex:
    """Nested increment integral of 1 over a chain of 1D windows.

    Evaluates Int_{I_1} k_1(x_1 - x_0) Int_{I_2} k_2(x_2 - x_1) ... dx right
    to left, where k_j is the free quadratic kernel with step dt_j.  Full-line
    factors are removed exactly: a trailing run integrates to 1, and any other
    run merges its time step into the next factor to the right (semigroup
    identity of the free kernels).  The rightmost surviving factor is closed
    form in the incomplete Fresnel integral; factors left of it are evaluated
    by adaptive chirp quadrature and must be bounded windows.
    """
    cells = tuple(cells)
    if len(cells) != sched.dim:
        raise ScheduleError(
            f"schedule has {sched.dim} increments, chain has {len(cells)} cells"
        )
    for c in cells:
        if not isinstance(c, Cell1D):
            raise TypeError("chain factors must be Cell1D")

    # collapse full-line factors into the effective step of the next window
    reduced: list[tuple[Cell1D, float]] = []
    pending = 0.0
    for c, dt in zip(cells, sched.increments):
        if c.kind == KIND_FULL_LINE:
            pending += dt
        else:
            reduced.append((c, pending + dt))
            pending = 0.0
    if not reduced:
        return complex(1.0)

    for c, _ in reduced[:-1]:
        if c.kind != KIND_BOUNDED:
            raise ValueError(
                "unbounded windows are only supported as the rightmost "
                "non-full-line factor of an increment chain"
            )

    last_cell, last_dt = reduced[-1]
    h = lambda x: free_increment_factor(last_cell, x, last_dt)
    inner_tol = tol * 0.3 ** max(len(reduced) - 1, 0)
    for c, dt in reversed(reduced[:-1]):
        h = _coupled_window_factor(c, dt, h, inner_tol)
        inner_tol /= 0.3
    val = h(sched.origin_point)
    return complex(val)


def _coupled_window_factor(cell: Cell1D, dt: float, inner, tol: float):
    """Callable x -> sqrt(-i/(2 pi dt)) Int_cell e^{(i/2)(y-x)^2/dt} inner(y) dy."""
    beta = 0.5 / dt
    norm = ROOT_MINUS_I_OVER_2PI / math.sqrt(dt)
    window = (cell.lo, cell.hi)

    def h(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(xs.shape, dtype=complex)
        for i, c in enumerate(xs.ravel()):
            val, _ = adaptive_chirp_integral(inner, beta, float(c), window, tol)
            out.ravel()[i] = val
        out *= norm
        return out if np.ndim(x) else complex(out[0])

    return h
