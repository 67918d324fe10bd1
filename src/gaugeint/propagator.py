"""Quantum propagators built on the oscillatory gauge-integration engine.

Closed-form free and harmonic kernels, time-sliced kernels with a
potential (iterated one-step undamped Fresnel convolutions on a spatial
grid, each slice exact Filon cell weights contracted with the envelope),
and the perturbation expansion in interaction vertices (an exact
complex-Gaussian bridge recursion on polynomial envelopes).  Units
hbar = 1; the particle mass enters every kernel and defaults to 1.

The cell weights of a slice are built on an offset lattice: with
uniform slices the bridge centres are the nodes scaled by j / (j + 1)
about the start point, so every (centre, cell) offset is a multiple of
h / (j + 1) from one origin, and the exact cell moments are computed once
per lattice offset (O(j N) of them) and read off it by the N centres.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .errors import (
    GridTooCoarseError,
    IntegrandError,
    ResourceLimitError,
    _require_count,
    _require_finite,
    _require_finite_values,
    _require_positive,
    guarded_values,
)
from .integrate import fresnel_line_integral
from .oscquad import _damped_cell_weights, _gauss_legendre, _taylor_tail

__all__ = [
    "Potential",
    "PropagatorQuery",
    "SliceGrid",
    "free_kernel",
    "psi0_closed",
    "harmonic_kernel_closed",
    "closed_kernel",
    "psi0_sliced",
    "psi_sliced",
    "perturbation_term",
    "perturbation_terms",
    "perturbation_partial_sum",
    "perturbation_partial_sums",
    "free_kernel_semigroup_residual",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Potential:
    """A real potential V(x, t) with a tag naming its analytic family.

    The tag lets oracles use closed forms (zero, constant, harmonic);
    custom potentials carry only their evaluator.  evaluate takes a float
    ndarray of positions (or, scalar-only, one float) and a float time.
    """

    evaluate: Callable[[np.ndarray, float], np.ndarray]
    analytic_tag: str = "custom"
    constant: float = 0.0
    omega: float = 0.0

    def __post_init__(self) -> None:
        if self.analytic_tag not in ("zero", "constant", "harmonic", "custom"):
            raise ValueError(f"unknown analytic tag {self.analytic_tag!r}")
        object.__setattr__(self, "constant", _require_finite("constant", self.constant))
        check = _require_positive if self.analytic_tag == "harmonic" else _require_finite
        object.__setattr__(self, "omega", check("omega", self.omega))

    @staticmethod
    def zero() -> "Potential":
        return Potential(lambda x, _t: np.zeros_like(np.asarray(x, float)),
                         analytic_tag="zero")

    @staticmethod
    def constant_potential(c: float) -> "Potential":
        return Potential(
            lambda x, _t, _c=c: np.full_like(np.asarray(x, float), _c),
            analytic_tag="constant",
            constant=c,
        )

    @staticmethod
    def harmonic(omega: float) -> "Potential":
        return Potential(
            lambda x, _t, _w=omega: 0.5 * _w * _w * np.square(
                np.asarray(x, float)
            ),
            analytic_tag="harmonic",
            omega=omega,
        )

    @staticmethod
    def custom(func: Callable[[np.ndarray, float], np.ndarray]) -> "Potential":
        return Potential(func, analytic_tag="custom")

    def values(self, x: np.ndarray, t) -> np.ndarray:
        """V(x, t) at one time or an array of times, shaped t.shape + x.shape.

        One guard covers all times; each evaluate call gets its time as a
        float and its own copy of x.  A scalar-only evaluator (its array call
        raises or returns another shape) is called per time and point.
        IntegrandError, naming the potential, unless every value is finite and real.
        """
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        times, call = t.ravel().tolist(), self.evaluate
        try:
            out = guarded_values(lambda: [call(x.copy(), s) for s in times], what="potential")
            scalar_only = out.shape != (len(times),) + x.shape
        except IntegrandError as exc:
            if exc.__cause__ is None:  # non-finite, or the evaluator's own error
                raise
            scalar_only = True
        if scalar_only:
            points = x.ravel().tolist()
            rows = lambda: [[complex(call(v, s)) for v in points] for s in times]
            out = guarded_values(rows, what="potential")
        if np.any(out.imag):
            raise IntegrandError("potential returned a complex value")
        return out.real.reshape(t.shape + x.shape).copy()


@dataclass(frozen=True)
class PropagatorQuery:
    """A transition-amplitude query from (xi_prime, tau_prime) to (xi, tau)."""

    xi_prime: float
    tau_prime: float
    xi: float
    tau: float
    slices: int = 1
    potential: Potential = field(default_factory=Potential.zero)

    def __post_init__(self) -> None:
        for name in ("xi_prime", "tau_prime", "xi", "tau"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if not self.tau > self.tau_prime:
            raise ValueError("tau must exceed tau_prime")
        object.__setattr__(self, "slices", _require_count("slices", self.slices, 1))

    @property
    def duration(self) -> float:
        return self.tau - self.tau_prime


@dataclass(frozen=True)
class SliceGrid:
    """Discretization controls for sliced kernels.

    extent: half-width R of the spatial window per intermediate slice;
    points: grid points per slice (even, >= 16: psi_sliced probes half
    the mesh); damping: checked positive but unused (psi_sliced runs
    undamped), kept for callers that still pass it.
    """

    extent: float
    points: int
    damping: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "extent", _require_positive("extent", self.extent))
        object.__setattr__(self, "points", _require_count("points", self.points, 16))
        if self.points % 2:
            raise ValueError("points must be even")
        object.__setattr__(self, "damping", _require_positive("damping", self.damping))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def free_kernel(displacement, dt: float, *, mass: float = 1.0) -> complex:
    """Free one-step kernel sqrt(m/(2 pi i dt)) e^{i m u^2 / (2 dt)}.

    Vectorized over the displacement; principal square root.
    """
    dt = _require_positive("dt", dt)
    mass = _require_positive("mass", mass)
    u = _require_finite_values("displacement", displacement)
    pref = np.sqrt(mass / (2j * math.pi * dt))
    out = pref * np.exp(0.5j * mass * np.square(u) / dt)
    if out.shape == ():
        return complex(out)
    return out


def psi0_closed(q: PropagatorQuery, *, mass: float = 1.0) -> complex:
    """Free propagator between the query endpoints, closed form."""
    return complex(free_kernel(q.xi - q.xi_prime, q.duration, mass=mass))


def harmonic_kernel_closed(
    q: PropagatorQuery, omega: float, *, mass: float = 1.0
) -> complex:
    """Harmonic-oscillator kernel for 0 < omega * duration < pi.

    sqrt(m w / (2 pi i sin w T)) * exp(i m w ((xi^2 + xi'^2) cos wT
    - 2 xi xi') / (2 sin wT)), principal branch.
    """
    omega = _require_positive("omega", omega)
    mass = _require_positive("mass", mass)
    wt = omega * q.duration
    if not 0.0 < wt < math.pi:
        raise ValueError("queries are restricted to 0 < omega*duration < pi")
    s, c = math.sin(wt), math.cos(wt)
    pref = np.sqrt(mass * omega / (2j * math.pi * s))
    phase = (
        0.5j * mass * omega
        * ((q.xi**2 + q.xi_prime**2) * c - 2.0 * q.xi * q.xi_prime)
        / s
    )
    return complex(pref * np.exp(phase))


def closed_kernel(q: PropagatorQuery, *, mass: float = 1.0) -> complex | None:
    """The closed-form kernel of q's potential; None for a custom potential.

    Zero and constant potentials give psi0_closed e^{-i c T} (exact for
    zero, whose constant is 0.0); harmonic gives harmonic_kernel_closed.
    """
    pot = q.potential
    if pot.analytic_tag == "custom":
        return None
    if pot.analytic_tag == "harmonic":
        return harmonic_kernel_closed(q, pot.omega, mass=mass)
    return psi0_closed(q, mass=mass) * cmath.exp(-1j * pot.constant * q.duration)


# ---------------------------------------------------------------------------
# time-sliced kernels
# ---------------------------------------------------------------------------


_LATTICE_CHUNK = 1 << 14  # lattice entries per moment block (bounds peak memory)
# lattice moments plus cell weights one psi_sliced call may compute;
# criterion 5 (16 slices, 768 points, one member and two probes) needs 2.0e7
_WORK_CAP = 10**10


def _cell_count(points: int) -> int:
    """Filon cells of a member's mesh; its 3 ncell + 1 nodes are near points."""
    return max(4, (points - 1) // 3)


def _member_work(slices: int, points: int) -> int:
    """Lattice moments plus cell weights one _sliced_member computes.

    Slice j = 1 .. slices - 2 builds a lattice of j (npts - 1) +
    3 (j + 1) (ncell - 1) + 1 cells (_lattice_step) and reads 4 ncell
    weights per centre; the final step ncell cells and 4 ncell weights.
    """
    ncell = _cell_count(points)
    npts = 3 * ncell + 1
    inner = max(0, slices - 2)
    jsum = inner * (inner + 1) // 2
    lattice = jsum * (npts - 1) + 3 * (jsum + inner) * (ncell - 1) + inner
    return lattice + inner * 4 * npts * ncell + 5 * ncell


def _contract_cells(cellw, g: np.ndarray, alpha: complex, lo, hi, h: float):
    """Int e^{alpha w^2} g(w) dw per bridge centre: Filon cells plus tails.

    cellw (4, ..., ncell) are the per-cell node weights; weight k of cell i
    meets node 3 i + k of g.  lo and hi are the offsets of the first and
    last node from each bridge centre, h the node spacing.  Past each edge
    the envelope goes on linearly against the Abel-limit tail moments: the
    shared Taylor-tail rule oscquad._taylor_tail, order 1 on the 3 nearest
    nodes, at hi and mirrored at -lo.
    """
    ncell = cellw.shape[-1]
    cells = sum(cellw[k] @ g[k : k + 3 * ncell : 3] for k in range(4))
    left, right = _taylor_tail(alpha, np.stack([-lo, hi]), h, 1, 3)
    return cells + left @ g[:3] + right @ g[:-4:-1]


def _lattice_step(alpha: complex, j: int, xi_prime: float, edges, h: float, g):
    """Int e^{alpha (x - c_q)^2} g dx for each c_q = (j x_q + xi') / (j + 1).

    Each is one _contract_cells row; x_q = edges[0] + h q are the
    3 ncell + 1 nodes, h the node spacing.  The offset of edge e_i from
    centre c_q is w0 + delta L with w0 = (edges[0] - xi') / (j + 1), delta =
    h / (j + 1) and the integer L = 3 (j + 1) i - j q, so every cell of every
    centre is one cell [L, L + step], step = 3 (j + 1), of a single 1-D
    lattice of offsets.  Its Filon cell weights, about 6 j ncell, are
    computed once per lattice entry, not per (centre, cell) pair, in blocks
    of _LATTICE_CHUNK cells that overlap by step points; each offset of a
    block costs one erfc.  Each centre reads its cells as a strided view.
    """
    ncell = edges.size - 1
    npts = 3 * ncell + 1
    step = 3 * (j + 1)  # lattice entries per cell width
    delta = h / (j + 1)
    w0 = (edges[0] - xi_prime) / (j + 1)
    # L runs from -j (npts - 1) (first edge, last centre) to step ncell
    offsets = w0 + delta * np.arange(-j * (npts - 1), step * ncell + 1)
    wa, wb = offsets[:-step], offsets[step:]
    lattice = np.empty((4, wa.size), dtype=complex)
    for start in range(0, wa.size, _LATTICE_CHUNK):
        block = offsets[start : start + _LATTICE_CHUNK + step]
        lattice[:, start : start + _LATTICE_CHUNK] = _damped_cell_weights(alpha, block, step)

    def by_row(a):
        # cell i of centre q is lattice entry step i + j (npts - 1 - q)
        window = sliding_window_view(a, step * (ncell - 1) + 1, axis=-1)
        return window[..., ::-j, ::step]

    lo, hi = by_row(wa)[:, 0], by_row(wb)[:, -1]
    return _contract_cells(by_row(lattice), g, alpha, lo, hi, h)


def _sliced_member(
    q: PropagatorQuery, extent: float, points: int, mass: float
) -> complex:
    """One undamped sliced-kernel evaluation, slices >= 2 (checked by psi_sliced).

    The wavefront is carried as a slow envelope against the exact free
    kernel from the start point (bridge factoring): each intermediate
    integration is a chirp bridge at Re alpha = 0 contracted with exact
    chirp cell moments plus linear-continuation tails, whose moments are
    the Abel limits (an asymptotic Filon endpoint correction, not a
    regularisation), so no grid oscillation is ever sampled pointwise.
    Step j weighs the envelope by the left-point potential
    e^{-i V(x_j) dt}; the cells of an intermediate step come from one
    offset lattice (_lattice_step), O(j ncell) moments for slice j, and
    the final step to the end point has one centre; both contract their
    cells with g (_contract_cells).
    """
    n = q.slices
    dt = q.duration / n
    pot = q.potential
    c = 0.5 * (q.xi + q.xi_prime)
    times = q.tau_prime + dt * np.arange(n)

    ncell = _cell_count(points)
    edges = np.linspace(c - extent, c + extent, ncell + 1)
    nodes = np.linspace(c - extent, c + extent, 3 * ncell + 1)
    h = (edges[-1] - edges[0]) / (3 * ncell)  # node spacing

    # envelope after slice 1: phi_1(z) = K(z - xi'; dt) * chi(z)
    v0 = float(pot.values(np.array([q.xi_prime]), times[0])[0])
    chi = np.full(nodes.size, np.exp(-1j * v0 * dt), dtype=complex)
    for j in range(1, n):
        a = times[j] - q.tau_prime
        big_a = 1.0 / dt + 1.0 / a
        alpha = complex(0.0, 0.5 * mass * big_a)
        pref_b = complex(np.sqrt(mass * big_a / (2j * math.pi)))
        g = np.exp(-1j * pot.values(nodes, times[j]) * dt) * chi
        if j == n - 1:  # final step: bridge to the exact end point
            lam = a / (a + dt)
            center = lam * q.xi + (1.0 - lam) * q.xi_prime
            w = edges - center
            value = _contract_cells(_damped_cell_weights(alpha, w), g, alpha, w[0], w[-1], h)
            return psi0_closed(q, mass=mass) * complex(pref_b * value)
        chi = pref_b * _lattice_step(alpha, j, q.xi_prime, edges, h, g)


def psi_sliced(
    q: PropagatorQuery,
    grid: SliceGrid,
    *,
    mass: float = 1.0,
    rtol: float = 1e-3,
) -> complex:
    """Time-sliced propagator with the query's potential.

    Iterated one-step Fresnel convolutions over the query's slices, taken
    undamped as Henstock integrals (_sliced_member); per-slice potential
    weight e^{-i V(x_{j-1}) dt} at the LEFT increment endpoint.  One slice
    is that weight times the closed-form free kernel.  Otherwise two probe
    members check the value: the half mesh and the window shrunk to three
    quarters.  The member is fourth order in the mesh, so the half-mesh
    gap over (cell ratio)^4 - 1 (about 15) estimates the mesh error;
    GridTooCoarseError when that plus window_gap > rtol (relative).
    """
    rtol = _require_positive("rtol", rtol)
    mass = _require_positive("mass", mass)
    if q.slices == 1:
        v = float(q.potential.values(np.array([q.xi_prime]), q.tau_prime)[0])
        return complex(np.exp(-1j * v * q.duration)) * psi0_closed(q, mass=mass)

    probes = {
        "mesh": (grid.extent, (grid.points // 2) & ~1),
        "window": (0.75 * grid.extent, (3 * grid.points // 4) & ~1),
    }
    member_points = [grid.points] + [points for _, points in probes.values()]
    work = sum(_member_work(q.slices, points) for points in member_points)
    if work > _WORK_CAP:
        raise ResourceLimitError(
            f"{q.slices} slices at {grid.points} points need about {work:.3e} "
            f"lattice moments and cell weights, over the budget "
            f"{_WORK_CAP:.3e}; use fewer slices or points"
        )

    value = _sliced_member(q, grid.extent, grid.points, mass)
    scale = max(abs(value), 1e-300)
    gaps = {
        name: abs(_sliced_member(q, extent, points, mass) - value) / scale
        for name, (extent, points) in probes.items()
    }
    # fourth order in the mesh: the mesh gap is the member's error times
    # (ncell / probe ncell)^4 - 1, which is 15.25 on the default grid
    ratio = (_cell_count(grid.points) / _cell_count(probes["mesh"][1])) ** 4 - 1.0
    if gaps["mesh"] / ratio + gaps["window"] > rtol:
        remedy = (
            "increase points per slice" if gaps["mesh"] / ratio > gaps["window"]
            else "increase the spatial extent"
        )
        raise GridTooCoarseError(
            f"half-mesh gap {gaps['mesh']:.3e} / {ratio:.4g} + three-quarter-window "
            f"gap {gaps['window']:.3e} (relative) exceeds rtol {rtol:.3e}; {remedy}",
            mesh_gap=gaps["mesh"], window_gap=gaps["window"], rtol=rtol,
        )
    return complex(value)


def psi0_sliced(
    q: PropagatorQuery,
    grid: SliceGrid,
    *,
    mass: float = 1.0,
    rtol: float = 1e-3,
) -> complex:
    """Time-sliced FREE propagator (the query's potential is ignored)."""
    free_q = PropagatorQuery(
        xi_prime=q.xi_prime,
        tau_prime=q.tau_prime,
        xi=q.xi,
        tau=q.tau,
        slices=q.slices,
        potential=Potential.zero(),
    )
    return psi_sliced(free_q, grid, mass=mass, rtol=rtol)


# ---------------------------------------------------------------------------
# semigroup / Chapman-Kolmogorov residual
# ---------------------------------------------------------------------------


def free_kernel_semigroup_residual(
    xi_prime: float,
    xi: float,
    s: float,
    t: float,
    *,
    mass: float = 1.0,
    tol: float = 1e-6,
) -> float:
    """|numeric int K(z - xi'; s) K(xi - z; t) dz  -  K(xi - xi'; s+t)|.

    The product of kernels is a pure quadratic-phase line integral; it is
    evaluated with the package's own improper oscillatory engine (two
    half-lines about the stationary point), independently of the closed
    form it is compared against.
    """
    s, t = _require_positive("s", s), _require_positive("t", t)
    mass = _require_positive("mass", mass)
    xi_prime, xi = _require_finite("xi_prime", xi_prime), _require_finite("xi", xi)
    a = 0.5 * mass * (1.0 / s + 1.0 / t)
    z0 = (t * xi_prime + s * xi) / (s + t)
    const_phase = 0.5 * mass * (xi - xi_prime) ** 2 / (s + t)
    pref = complex(
        np.sqrt(mass / (2j * math.pi * s)) * np.sqrt(mass / (2j * math.pi * t))
    )
    numeric = pref * np.exp(1j * const_phase) * fresnel_line_integral(2j * a, tol)
    closed = free_kernel(xi - xi_prime, s + t, mass=mass)
    return abs(complex(numeric) - complex(closed))


# ---------------------------------------------------------------------------
# perturbation expansion: complex-Gaussian bridge recursion
# ---------------------------------------------------------------------------
#
# Write psi_r(z, s) = K0(z - xi'; s - tau') * chi_r(z, s).  The Dyson
# recursion psi_r = -i int_{tau'}^{tau} ds int dz K0(xi - z; tau - s)
# V(z, s) psi_{r-1}(z, s) factorizes through the kernel product
# K0(xi - z; b) K0(z - xi'; a) = K0(xi - xi'; a + b) * B(z), with B a
# normalized complex-Gaussian bridge centered on the straight line.  For
# chi_{r-1} polynomial in z the bridge expectation is an EXACT moment
# computation, so for polynomial potentials the whole tower is exact in
# space; the remaining s-integral is Gauss-Legendre on a Chebyshev time
# grid with barycentric interpolation between levels.

_TIME_NODES = 33
_GL_NODES = 33
_CUSTOM_FIT_DEGREE = 24

# column k: the power-series coefficients of the Chebyshev polynomial T_k,
# by T_k = 2x T_(k-1) - T_(k-2) (the shift moves a zero top entry around)
_CHEB2POLY = np.eye(_CUSTOM_FIT_DEGREE + 1)
for _k in range(2, _CUSTOM_FIT_DEGREE + 1):
    _CHEB2POLY[:, _k] = 2.0 * np.roll(_CHEB2POLY[:, _k - 1], 1) - _CHEB2POLY[:, _k - 2]


@functools.cache
def _custom_fit() -> tuple[np.ndarray, np.ndarray]:
    """Fit nodes t on [-1, 1] and their least-squares Chebyshev fit, as a matrix to powers."""
    t = np.cos(np.linspace(0.0, math.pi, 4 * _CUSTOM_FIT_DEGREE + 1))
    fit = _CHEB2POLY @ np.linalg.pinv(_cheb.chebvander(t, _CUSTOM_FIT_DEGREE))
    t.flags.writeable = fit.flags.writeable = False
    return t, fit


def _chi_levels(
    q: PropagatorQuery,
    rmax: int,
    *,
    mass: float,
    window: float,
) -> list[np.ndarray]:
    """chi_r coefficient tables on the Chebyshev-Lobatto time grid.

    Entry r < rmax is an (nt, r*degV + 1) array: chi_r(u, t_i) = sum_k
    coeffs[i, k] u^k with u the displacement from the start point; entry
    rmax, read only at tau, is that row alone, (1, rmax*degV + 1).  A level
    is array steps on (power, pair) arrays over (time node t_i, Gauss node
    s) pairs, the tau row's pairs alone for the top level and for every
    level when rmax <= 1: interpolate the previous level at s (one complex
    matrix product), multiply by V(., s), take the bridge moments (one
    multiply-add per even power, from tables built for the widest level),
    and sum over s.  A custom potential is fitted per time row from one
    Potential.values call, so the tau row has the same bits in every build.
    ResourceLimitError names the order whose tables or values overflow.
    """
    nt = _TIME_NODES
    t0, t1 = q.tau_prime, q.tau
    theta = np.linspace(0.0, math.pi, nt)
    tnodes = t0 + 0.5 * (t1 - t0) * (1.0 - np.cos(theta))
    bary = np.where(np.arange(nt) % 2 == 0, 1.0, -1.0)
    bary[0] *= 0.5
    bary[-1] *= 0.5

    glx, glp = _gauss_legendre(_GL_NODES)  # cached; column 0 holds the weights
    ti = tnodes[1:, None] if rmax > 1 else tnodes[-1:, None]  # chi_r(., tau') = 0 for r >= 1
    span = ti - t0
    s = t0 + 0.5 * span * (glx + 1.0)
    sweights = (0.5 * span * glp[:, 0].real)[..., None].astype(complex)  # (t_i, s, 1)
    lam = ((s - t0) / span).ravel()
    var = (1j * (ti - s) * (s - t0) / (span * mass)).ravel()

    # barycentric interpolation from the time nodes to every s: one matrix with
    # normalized rows, kept transposed and complex (complex @ complex stays in BLAS)
    diffs = s[..., None] - tnodes
    exact = np.abs(diffs) < 1e-14 * np.maximum(1.0, np.abs(s))[..., None]
    with np.errstate(divide="ignore"):
        interp = bary / diffs
    hit = exact.any(axis=-1)
    interp[hit] = np.eye(nt)[exact[hit].argmax(axis=-1)]  # s on a node
    interp_t = (interp / interp.sum(axis=-1)[..., None]).reshape(-1, nt).T.astype(complex)

    # V(xi' + u, s) as power-series coefficients in u, one row per power: one column
    # for a polynomial potential, one per s for a fit
    pot = q.potential
    if pot.analytic_tag == "zero":
        vcoef = np.zeros((1, 1))
    elif pot.analytic_tag == "constant":
        vcoef = np.array([[pot.constant]])
    elif pot.analytic_tag == "harmonic":
        w2, xp = 0.5 * pot.omega * pot.omega, q.xi_prime
        vcoef = np.array([[w2 * xp * xp], [2.0 * w2 * xp], [w2]])
    else:  # a Chebyshev fit in u / window per time row, every s of it a column
        t, fit = _custom_fit()
        vals = pot.values(q.xi_prime + window * t, s)  # (t_i, s, fit node)
        vcoef = (fit @ vals.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(len(fit), -1)
        vcoef /= window ** np.arange(_CUSTOM_FIT_DEGREE + 1)[:, None]
    degv = vcoef.shape[0] - 1

    # E[(lam u + W)^j] in powers u^p: lam^p sum_m C(p + 2m, p) E[W^2m] pv[p + 2m],
    # for the bridge fluctuation W with E[W^2m] = var^m (2m-1)!!; the tables
    # serve every level up to the widest, rmax * degV + 1; no binomial with
    # p + 2m past it is read, so none tabled exceeds C(wmax - 1, (wmax - 1) // 2)
    wmax, nmom = rmax * degv + 1, rmax * degv // 2 + 1
    # log |var|^M (2M-1)!! = M log(2 |var|) + log Gamma(M + 1/2) / Gamma(1/2), M = nmom - 1
    log_moment = (nmom - 1) * math.log(2.0 * np.abs(var).max())
    log_moment += math.lgamma(nmom - 0.5) - math.lgamma(0.5)
    widest = math.comb(wmax - 1, (wmax - 1) // 2)
    if widest > sys.float_info.max or log_moment > math.log(sys.float_info.max):
        raise ResourceLimitError(
            f"order {rmax} at width {wmax} needs binomials up to 1e{math.log10(widest):.0f} "
            f"and bridge moments up to 1e{log_moment / math.log(10):.0f}, beyond the float "
            "range; ask for fewer orders"
        )
    steps = np.ones((nmom, var.size), dtype=complex)
    steps[1:] = (2 * np.arange(1, nmom) - 1)[:, None] * var
    w_moments = np.cumprod(steps, axis=0)
    comb = np.array([[math.comb(p + 2 * m, p) if p + 2 * m < wmax else 0 for m in range(nmom)]
                     for p in range(wmax)], float)
    lam_powers = lam ** np.arange(wmax)[:, None]

    levels = [np.ones((nt, 1), dtype=complex)]
    for r in range(1, rmax + 1):
        if r == rmax:  # the top order is read at tau alone: its row of pairs is last
            interp_t, vcoef, w_moments, lam_powers = (
                a[:, -_GL_NODES:] for a in (interp_t, vcoef, w_moments, lam_powers)
            )
            sweights = sweights[-1:]
        prev = levels[-1].T
        nprev = prev.shape[0]
        width = nprev + degv
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            at_s = prev @ interp_t
            pv = np.zeros((width, at_s.shape[1]), dtype=complex)
            for k in range(degv + 1):
                pv[k : k + nprev] += vcoef[k] * at_s
            moments = pv.copy()
            for m in range(1, (width + 1) // 2):
                n = width - 2 * m
                moments[:n] += comb[:n, m, None] * w_moments[m] * pv[2 * m :]
            moments *= lam_powers[:width]
            rows = -1j * (moments.reshape(width, len(sweights), 1, -1) @ sweights)[..., 0, 0]
        if not np.isfinite(rows).all():
            raise ResourceLimitError(
                f"order {r} at width {width} is not finite: its terms leave the float range; "
                "ask for fewer orders"
            )
        if r < rmax:  # chi_r(., tau') = 0
            rows = np.concatenate((np.zeros((width, 1)), rows), axis=1)
        levels.append(rows.T)
    return levels


def _end_envelopes(
    m: int, q: PropagatorQuery, grid: SliceGrid | None, mass: float
) -> list[complex]:
    """chi_0, ..., chi_m at the query's end point, from one level build."""
    window = grid.extent if grid is not None else 8.0
    levels = _chi_levels(q, m, mass=mass, window=window)
    u = q.xi - q.xi_prime
    # a level's last row is at tau: the last time node, or the top level's one row
    return [complex(_poly.polyval(u, level[-1])) for level in levels]


def perturbation_term(
    r: int,
    q: PropagatorQuery,
    grid: SliceGrid | None = None,
    *,
    mass: float = 1.0,
) -> complex:
    """The r-th term of the propagator's expansion in interaction vertices.

    r = 0 is the free propagator; r >= 1 integrates r time-ordered
    vertices, each weighted by the potential at the vertex, over free
    propagation between vertices.  Exact in space for polynomial
    potentials; custom potentials are fitted on a window whose half-width
    comes from the grid extent (default 8).
    """
    r = _require_count("r", r, 0)
    base = psi0_closed(q, mass=mass)
    if r == 0:
        return base
    return base * _end_envelopes(r, q, grid, mass)[r]


def perturbation_terms(
    m: int,
    q: PropagatorQuery,
    grid: SliceGrid | None = None,
    *,
    mass: float = 1.0,
) -> list[complex]:
    """The terms T_0, ..., T_m from one build of the expansion levels.

    T_r is perturbation_term(r) bit for bit.
    """
    m = _require_count("m", m, 0)
    base = psi0_closed(q, mass=mass)
    chis = _end_envelopes(m, q, grid, mass)
    return [base] + [base * chi for chi in chis[1:]]


def perturbation_partial_sum(
    m: int,
    q: PropagatorQuery,
    grid: SliceGrid | None = None,
    *,
    mass: float = 1.0,
) -> complex:
    """Sum of the expansion terms through order m."""
    return perturbation_partial_sums(m, q, grid, mass=mass)[-1]


def perturbation_partial_sums(
    m: int,
    q: PropagatorQuery,
    grid: SliceGrid | None = None,
    *,
    mass: float = 1.0,
) -> list[complex]:
    """The partial sums S_0, ..., S_m from one build of the expansion terms.

    S_k is the sum of the terms of order <= k, as perturbation_partial_sum
    returns it, bit for bit.
    """
    m = _require_count("m", m, 0)
    base = psi0_closed(q, mass=mass)
    sums = []
    total = 0.0 + 0.0j
    for chi in _end_envelopes(m, q, grid, mass):
        total += chi
        sums.append(base * total)
    return sums
