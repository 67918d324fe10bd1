"""Witnesses for series convergence without a dominating envelope.

The perturbation series of the sliced propagator converges order by
order (a comparison table makes that measurable), yet the natural
dominating envelope |g0| for the exchange of series and integral fails
every integrability probe: its window integrals grow without bound.
This module produces both halves of that report — growth tables for
envelopes, a bounded-convergence diagnostic that searches for the
convergence order m and probes the envelope separately, and the
comparison table itself.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoMFoundError,
    _require_count,
    _require_finite,
    _require_positive,
    guarded_values,
)
from .fresnel import IncrementSchedule, _finite_density
from .integrate import hk_integrate_1d
from .propagator import (
    PropagatorQuery,
    SliceGrid,
    free_kernel,
    perturbation_partial_sums,
    psi_sliced,
)

__all__ = [
    "GrowthTable",
    "ConvergenceWitness",
    "ExchangeRow",
    "abs_g0_growth",
    "envelope_growth_table",
    "growth_verdict",
    "bounded_convergence_diagnostic",
    "exchange_experiment",
    "partial_sum_family",
    "gaussian_envelope",
    "free_modulus_envelope",
]

_DEFAULT_PROBE_RADII = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_SAMPLE_WINDOW = 8.0  # finite tags of the diagnostic lie in [-8, 8]


# ---------------------------------------------------------------------------
# growth tables
# ---------------------------------------------------------------------------


def _require_radii(radii) -> tuple[float, ...]:
    """radii as a tuple of positive reals, nonempty and strictly increasing."""
    radii = tuple(_require_positive("radii", r) for r in radii)
    if not radii:
        raise ValueError("at least one radius required")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    return radii


@dataclass(frozen=True)
class GrowthTable:
    """Window sums of a nonnegative envelope over expanding radii.

    One row per radius: (radius, Riemann/window sum of the modulus,
    refinement level used to produce it).
    """

    radii: tuple[float, ...]
    values: tuple[float, ...]
    levels: tuple[int, ...]
    dimension: int = 1

    def __post_init__(self) -> None:
        radii = _require_radii(self.radii)
        values = tuple(float(v) for v in self.values)
        levels = tuple(int(k) for k in self.levels)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "levels", levels)
        if not (len(radii) == len(values) == len(levels)):
            raise ValueError("one value and one level per radius required")
        object.__setattr__(
            self, "dimension", _require_count("dimension", self.dimension, 1)
        )


def abs_g0_growth(
    sched: IncrementSchedule,
    radii: Sequence[float],
    *,
    cells_per_axis: int = 4,
) -> GrowthTable:
    """Riemann sums of |free increment density| over boxes [-R, R]^n.

    The modulus of the free density is constant in the tags, so the sum
    is a pure volume count; it is nevertheless computed as an honest
    tagged-division Riemann sum (corner tags) through the same density
    the distributions use, with the tags, volumes and phases of all
    cells_per_axis^n cells of a box as arrays.  The resulting table grows
    like (2R)^n — the standard witness that the density is not absolutely
    integrable.
    """
    n = sched.dim
    if n > 4:
        raise ValueError("growth tables are limited to dimension <= 4")
    cells_per_axis = _require_count("cells_per_axis", cells_per_axis, 1)
    radii = _require_radii(radii)
    multi = np.indices((cells_per_axis,) * n).reshape(n, -1).T  # np.ndindex order
    values = []
    for r in radii:
        edges = np.linspace(-r, r, cells_per_axis + 1)
        volume = np.prod(np.diff(edges)[multi], axis=-1)
        density = _finite_density(edges[multi], volume, sched)  # corner association
        values.append(math.fsum(np.abs(density).tolist()))
    return GrowthTable(radii, tuple(values), (cells_per_axis,) * len(values), n)


def envelope_growth_table(
    envelope: Callable[[np.ndarray], np.ndarray],
    radii: Sequence[float] = _DEFAULT_PROBE_RADII,
    *,
    tol: float = 1e-9,
) -> GrowthTable:
    """Window integrals of |envelope| over [-R, R] for each radius."""
    radii = _require_radii(radii)

    def absolute(x):
        return np.abs(np.asarray(envelope(np.asarray(x, dtype=float))))

    values = []
    levels = []
    for r in radii:
        report = hk_integrate_1d(absolute, (-r, r), tol)
        values.append(float(report.value.real))
        levels.append(int(report.refinements))
    return GrowthTable(radii, tuple(values), tuple(levels), 1)


def growth_verdict(table: GrowthTable) -> str:
    """BOUNDED / UNBOUNDED / INDETERMINATE from the doubling-ratio test.

    Successive window integrals whose ratios fall to 1 witness a finite
    total integral; ratios staying near 2 (or above) under radius
    doubling witness at-least-linear growth.
    """
    if len(table.values) < 2:
        return "INDETERMINATE"
    ratios = [
        b / a if a > 0 else math.inf
        for a, b in zip(table.values, table.values[1:])
    ]
    tail = ratios[-2:] if len(ratios) >= 2 else ratios
    if all(r >= 1.7 for r in tail):
        return "UNBOUNDED"
    if ratios[-1] <= 1.2:
        return "BOUNDED"
    return "INDETERMINATE"


# ---------------------------------------------------------------------------
# bounded-convergence diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceWitness:
    """Outcome of the convergence-order search plus the envelope probe.

    Records the order found, the worst ratio |h_m - h| / beta over the
    sampled tags at that order, and the envelope report.  The envelope's
    positivity and its integrability are separate facts: the convergence
    notion only postulates positivity, while the exchange argument
    additionally needs integrability, and the two can disagree.
    """

    m_found: int
    eps: float
    max_ratio: float
    beta_probe: str
    beta_positive: bool
    beta_window_integrals: tuple[float, ...]
    probe_radii: tuple[float, ...]
    sample_points: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.max_ratio >= 0.0:
            raise ValueError("max ratio must be nonnegative")


def bounded_convergence_diagnostic(
    family: Callable[[int, np.ndarray], np.ndarray],
    limit: Callable[[np.ndarray], np.ndarray],
    beta: Callable[[np.ndarray], np.ndarray],
    samples: int,
    eps: float,
    *,
    m_max: int = 512,
    seed: int = 20260818,
    probe_radii: Sequence[float] = _DEFAULT_PROBE_RADII,
) -> ConvergenceWitness:
    """Smallest m with |h_m - h| <= eps * beta at every sampled tag.

    Tags are drawn uniformly from [-8, 8] plus the two
    infinite tags (the callables must accept +-inf and return their
    limiting values there — the unbounded-cell branch of a full-line
    division).  The envelope is probed separately: positivity at the
    sampled tags, and window-integral growth over the probe radii.
    Raises NoMFoundError when no m below the cap works, and
    IntegrandError when a callable raises or returns a non-finite value.
    """
    samples = _require_count("samples", samples, 1)
    eps = _require_positive("eps", eps)
    probe_radii = _require_radii(probe_radii)
    rng = np.random.default_rng(seed)
    finite = rng.uniform(-_SAMPLE_WINDOW, _SAMPLE_WINDOW, size=samples)
    points = np.concatenate([finite, [-np.inf, np.inf]])

    beta_vals = np.abs(guarded_values(beta, points, what="beta")).real
    beta_positive = bool(np.all(beta_vals > 0.0))
    h_vals = guarded_values(limit, points, what="limit")

    m_found = -1
    max_ratio = math.inf
    for m in range(m_max + 1):
        h_m = guarded_values(family, m, points, what="family")
        gaps = np.abs(h_m - h_vals)
        if np.all(gaps <= eps * beta_vals):
            m_found = m
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(gaps == 0.0, 0.0, gaps / beta_vals)
            max_ratio = float(np.max(ratios))
            break
    if m_found < 0:
        raise NoMFoundError(
            f"no order m <= {m_max} satisfies |h_m - h| <= {eps:g} * beta "
            f"at all {points.size} sampled tags"
        )

    table = envelope_growth_table(beta, probe_radii)
    return ConvergenceWitness(
        m_found=m_found,
        eps=float(eps),
        max_ratio=max_ratio,
        beta_probe=growth_verdict(table),
        beta_positive=beta_positive,
        beta_window_integrals=table.values,
        probe_radii=table.radii,
        sample_points=tuple(float(p) for p in points),
    )


# ---------------------------------------------------------------------------
# reference families
# ---------------------------------------------------------------------------


def partial_sum_family(c: float, tau: float):
    """(family, limit, beta) for the constant-potential partial sums.

    Functions of the end point x for propagation from (0, 0) to (x, tau)
    under V = c: h_m(x) = psi0(x) * sum_{r<=m} (-ic tau)^r / r!, the
    limit carries the full phase factor, and beta is the free density
    modulus (2 pi tau)^{-1/2}, constant in x.  At the infinite tags the
    common quadratic phase is dropped — every comparison this family
    enters is phase-invariant.
    """
    c = _require_finite("c", c)
    tau = _require_positive("tau", tau)
    beta = free_modulus_envelope(tau)

    def psi0_vals(x: np.ndarray) -> np.ndarray:
        xa = np.asarray(x, dtype=float)
        out = beta(xa).astype(complex)
        fin = np.isfinite(xa)
        out[fin] = free_kernel(xa[fin], tau)
        return out

    def family(m: int, x: np.ndarray) -> np.ndarray:
        partial = sum(
            (-1j * c * tau) ** r / math.factorial(r) for r in range(m + 1)
        )
        return psi0_vals(x) * partial

    def limit(x: np.ndarray) -> np.ndarray:
        return psi0_vals(x) * np.exp(-1j * c * tau)

    return family, limit, beta


def free_modulus_envelope(tau: float):
    """The constant envelope |g0| = (2 pi tau)^{-1/2} of the free kernel (hbar = m = 1)."""
    tau = _require_positive("tau", tau)
    modulus = 1.0 / math.sqrt(2.0 * math.pi * tau)

    def beta(x: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(x, dtype=float).shape, modulus)

    return beta


def gaussian_envelope(sigma: float = 1.0):
    """Integrable control envelope e^{-x^2/(2 sigma^2)} (0 at +-inf)."""
    sigma = _require_positive("sigma", sigma)

    def beta(x: np.ndarray) -> np.ndarray:
        xa = np.asarray(x, dtype=float)
        out = np.zeros(xa.shape)
        fin = np.isfinite(xa)
        out[fin] = np.exp(-np.square(xa[fin]) / (2.0 * sigma * sigma))
        return out

    return beta


# ---------------------------------------------------------------------------
# the comparison table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExchangeRow:
    """One order of the series against the sliced propagator."""

    order: int
    partial_sum: complex
    sliced: complex
    difference: float


def exchange_experiment(
    q: PropagatorQuery,
    m_max: int,
    grid: SliceGrid,
    *,
    rtol: float = 1e-3,
) -> list[ExchangeRow]:
    """Partial sums S_m against the sliced propagator, m = 0..m_max.

    The sliced value is computed once; each row records S_m at the
    query's end point and |S_m - sliced|.  For analytic-tag potentials
    the differences decay with m down to the sliced value's own budget
    (its time-slicing plus quadrature error) — convergence that coexists
    with the UNBOUNDED envelope verdict from the growth probes.
    """
    sums = perturbation_partial_sums(m_max, q, grid)
    sliced = psi_sliced(q, grid, rtol=rtol)
    return [
        ExchangeRow(
            order=m, partial_sum=s_m, sliced=sliced, difference=abs(s_m - sliced)
        )
        for m, s_m in enumerate(sums)
    ]
