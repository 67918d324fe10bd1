"""Adaptive gauge integration on the line and on boxes in R^n.

The 1D engine mimics gauge refinement: cells are bisected wherever the
two-level Riemann-sum (trapezoid) disagreement exceeds the cell's share of
the tolerance, so the mesh tightens only where the integrand demands it.
Window endpoints get special treatment: when refinement stalls against an
endpoint the engine peels geometric annuli off it and accepts the endpoint
cell as tag-value times width once the peeled prefix sums stabilize.  That
is the numerical shadow of a gauge that forces the tag onto the endpoint,
and it is what lets classically troublesome derivatives integrate.

Improper quadratic-phase tails are regularized by Gaussian damping over a
geometric epsilon schedule and extrapolated to zero damping; each damped
tail is evaluated as a finite chirp window plus an analytic by-parts
continuation with a rigorous remainder bound.

All accumulation is exact: math.fsum rounds the true sum once, so a
result does not depend on the order of its terms and is bit-reproducible
for a fixed configuration.
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
    _require_count,
    _require_finite,
    _require_number,
    guarded_values,
)
from .oscquad import adaptive_chirp_integral, gauss_tail

__all__ = [
    "IntegrationReport",
    "OscillatoryTailSpec",
    "hk_integrate_1d",
    "hk_integrate_nd",
    "oscillatory_improper",
    "fresnel_line_integral",
    "alexiewicz_seminorm",
]

_DIMENSION_CAP = 4  # largest box dimension of the direct n-D reductions

# caps of hk_integrate_1d: bisection levels and live cells of one adaptive
# run, and geometric annuli peeled off one window endpoint
_MAX_LEVELS = 42
_MAX_CELLS = 4_000_000
_MAX_PEELS = 48

# hk_integrate_nd: axis doublings, points per axis at level 0, the point
# budget of one level, and the points evaluated per integrand call
_ND_MAX_LEVELS = 11
_ND_MIN_PTS = 9
_ND_MAX_POINTS = 80_000_000
_ND_CHUNK = 1 << 18


@dataclass(frozen=True)
class IntegrationReport:
    """Outcome of one adaptive integration run."""

    value: complex
    abs_error_estimate: float
    refinements: int
    converged: bool

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0.0:
            raise ValueError("error estimate must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "abs_error_estimate": self.abs_error_estimate,
            "refinements": self.refinements,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class OscillatoryTailSpec:
    """One unbounded tail of exp(c x^2 / 2).

    direction +1 integrates over (lower_limit, +inf), -1 over
    (-inf, lower_limit).  The coefficient must have nonpositive real part,
    and nonnegative imaginary part when the real part vanishes.
    """

    phase_quadratic_coefficient: complex
    lower_limit: float
    direction: int

    def __post_init__(self) -> None:
        c = complex(self.phase_quadratic_coefficient)
        object.__setattr__(self, "phase_quadratic_coefficient", c)
        object.__setattr__(
            self, "lower_limit", _require_finite("lower limit", self.lower_limit)
        )
        if c == 0:
            raise ValueError("coefficient must be nonzero")
        if c.real > 0.0:
            raise ValueError("coefficient real part must be <= 0")
        if c.real == 0.0 and c.imag < 0.0:
            raise ValueError("imaginary part must be >= 0 when real part is 0")
        if self.direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")


def _vectorized(f):
    """Wrap an evaluator so it maps float arrays to finite complex arrays.

    An array call that raises (other than a GaugeIntError) or returns the
    wrong shape marks a scalar-only evaluator, which is looped point by
    point; a non-finite array result raises at once.
    """

    def fv(x: np.ndarray) -> np.ndarray:
        try:
            out = guarded_values(f, x)
            if out.shape == x.shape:
                return out
        except IntegrandError as exc:
            if exc.__cause__ is None:  # non-finite, or the evaluator's own error
                raise
        return guarded_values(
            lambda: [complex(f(float(v))) for v in x.ravel()]
        ).reshape(x.shape)

    return fv


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


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(a.size + b.size, dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def _adaptive_core(fv, a, b, tol, min_cells=16):
    """Local-bisection Simpson with per-cell Richardson control.

    Each cell carries values at its endpoints and midpoint; quarter-point
    evaluations compare the cell's Simpson value against its two halves and
    bisect exactly where the disagreement exceeds the cell's tolerance
    share.  Returns (value, est, levels, converged, fail_lo, fail_hi);
    accepted contributions are summed exactly, so in any order.
    """
    edges = np.linspace(a, b, min_cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    fe = fv(edges)
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    flo, fhi = fe[:-1].copy(), fe[1:].copy()
    fm = fv(mids)
    width = b - a
    half_tol_per_width = 0.5 * tol / width

    acc_val: list[np.ndarray] = []
    acc_est: list[np.ndarray] = []
    levels = 0
    converged = False
    for levels in range(1, _MAX_LEVELS + 1):
        w = hi - lo
        m = 0.5 * (lo + hi)
        q1 = 0.5 * (lo + m)
        q3 = 0.5 * (m + hi)
        fq1 = fv(q1)
        fq3 = fv(q3)
        simpson_parent = (w / 6.0) * (flo + 4.0 * fm + fhi)
        simpson_children = (w / 12.0) * (flo + 4.0 * fq1 + 2.0 * fm + 4.0 * fq3 + fhi)
        diff15 = (simpson_children - simpson_parent) / 15.0
        ind = np.abs(diff15)
        accept = ind <= half_tol_per_width * w
        if np.any(accept):
            acc_val.append(simpson_children[accept] + diff15[accept])
            acc_est.append(ind[accept])
        keep = ~accept
        if not np.any(keep):
            converged = True
            lo = hi = np.empty(0)
            break
        if 2 * int(keep.sum()) > _MAX_CELLS:
            lo, hi = lo[keep], hi[keep]
            flo, fm, fhi = flo[keep], fm[keep], fhi[keep]
            break
        lo, hi, mk = lo[keep], hi[keep], m[keep]
        flo, fhi, fmk = flo[keep], fhi[keep], fm[keep]
        fq1k, fq3k = fq1[keep], fq3[keep]
        lo, hi = _interleave(lo, mk), _interleave(mk, hi)
        flo, fhi = _interleave(flo, fmk), _interleave(fmk, fhi)
        fm = _interleave(fq1k, fq3k)

    if not converged:
        # carry the unsettled cells at their current single-cell value
        w = hi - lo
        sp = (w / 6.0) * (flo + 4.0 * fm + fhi)
        acc_val.append(sp)
        acc_est.append(np.abs(sp - 0.5 * w * (flo + fhi)))
    value = fsum_complex(np.concatenate(acc_val))
    est = math.fsum(np.concatenate(acc_est).tolist())
    return value, est, levels, converged, lo, hi


def _adaptive_verified(fv, a, b, tol):
    """Cross-mesh validation of the adaptive core.

    A single adaptive run can alias (accept confidently wrong values) when
    the integrand oscillates below its initial mesh, so runs restart on
    denser start meshes until three consecutive converged rounds agree
    within their combined estimates.  The start counts follow mc -> 2*mc+7
    so successive meshes never nest: nested starts refine to identical
    leaves under deterministic bisection and would rubber-stamp each other.
    Returns the same tuple shape as _adaptive_core.
    """
    history: list[tuple[complex, float]] = []
    total_levels = 0
    mc = 16
    while True:
        v, e, lv, ok, flo, fhi = _adaptive_core(fv, a, b, tol, min_cells=mc)
        total_levels += lv
        if not ok and e > tol:
            # the cap stopped refinement with real mass unsettled; report
            # the live cells for peeling
            return v, e, total_levels, False, flo, fhi
        # a level-capped run whose carried cells contribute less than tol
        # (e.g. a jump chain bisected to negligible width) is a settled
        # measurement and joins the agreement test like any other round
        history.append((v, e))
        if len(history) >= 3:
            (v1, e1), (v2, e2), (v3, e3) = history[-3:]
            drift = max(abs(v1 - v3), abs(v2 - v3))
            if drift <= max(0.5 * tol, 2.0 * (max(e1, e2) + e3)):
                return v3, max(e3, drift), total_levels, True, flo, fhi
        mc = 2 * mc + 7
        if mc > max(64, _MAX_CELLS // 4):
            return v, e, total_levels, False, np.empty(0), np.empty(0)


def hk_integrate_1d(
    f,
    window: tuple[float, float],
    tol: float = 1e-8,
) -> IntegrationReport:
    """Adaptively integrate f over a finite open window.

    f maps a float ndarray to complex values elementwise (scalar-only
    callables are detected and looped).  Refinement bisects exactly the
    cells whose two-level disagreement exceeds their share of tol.  If
    refinement stalls flush against a window endpoint, geometric annuli are
    peeled off that endpoint and the endpoint cell enters as f(endpoint)
    times width once the peeled partial sums stabilize, mirroring a gauge
    that pins the tag to the endpoint.
    """
    a, b = (_require_number("window", x) for x in window)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("window must be finite with lower < upper")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    fv = _vectorized(f)

    value, est, levels, converged, fail_lo, fail_hi = _adaptive_verified(fv, a, b, tol)
    if converged:
        return IntegrationReport(value, est, levels, est <= tol)

    # peel only when refinement is stuck flush against a window endpoint;
    # annulus runs below re-detect interior trouble and fail loudly
    width = b - a
    slack = width * 1e-12
    peel_left = bool(fail_lo.size) and fail_lo.min() <= a + slack
    peel_right = bool(fail_hi.size) and fail_hi.max() >= b - slack
    if not (peel_left or peel_right):
        raise NoConvergenceError(
            f"no convergence after {levels} levels; estimate {est:.3e} > tol {tol:.3e}"
        )

    pieces: list[complex] = []
    ests: list[float] = []
    total_levels = levels
    h0 = width / 8.0
    core_lo = a + h0 if peel_left else a
    core_hi = b - h0 if peel_right else b
    v, e, lv, ok, *_ = _adaptive_verified(fv, core_lo, core_hi, tol / 4)
    total_levels += lv
    if not ok:
        raise NoConvergenceError("interior window failed to converge")
    pieces.append(v)
    ests.append(e)

    peel_ratio = 2.0 ** (1.0 / 3.0)  # thin annuli keep each run under _MAX_CELLS
    for endpoint, sign, active in ((a, +1, peel_left), (b, -1, peel_right)):
        if not active:
            continue
        fa = complex(fv(np.array([endpoint]))[0])
        h_prev = h0
        settled = False
        recent_steps: list[float] = []
        for _ in range(_MAX_PEELS):
            h = h_prev / peel_ratio
            ann_lo = endpoint + h if sign > 0 else endpoint - h_prev
            ann_hi = endpoint + h_prev if sign > 0 else endpoint - h
            v, e, lv, ok, *_ = _adaptive_verified(fv, ann_lo, ann_hi, tol / 20)
            total_levels += lv
            if not ok:
                raise NoConvergenceError(
                    "endpoint annulus failed to converge; the integrand is "
                    "too irregular away from the window endpoint"
                )
            pieces.append(v)
            ests.append(e)
            # prefix stability: the peel step changed the total by the
            # annulus mass minus the tag-value sliver it replaced.  One
            # small step can be a phase accident of an oscillatory prefix,
            # so settling needs three consecutive small steps (successive
            # annuli sample the oscillation at very different phases).
            step = abs(v - fa * (h_prev - h))
            h_prev = h
            recent_steps = (recent_steps + [step])[-3:]
            if len(recent_steps) == 3 and max(recent_steps) <= tol / 12:
                pieces.append(fa * h)
                ests.append(math.fsum(recent_steps) + abs(fa) * h)
                settled = True
                break
        if not settled:
            raise NoConvergenceError(
                "endpoint prefix sums did not stabilize; the integrand does "
                "not appear to be gauge-integrable at the window endpoint"
            )

    value = fsum_complex(pieces)
    est = math.fsum(ests)
    return IntegrationReport(value, est, total_levels, est <= tol)


def hk_integrate_nd(
    f,
    window,
    tol: float = 1e-6,
) -> IntegrationReport:
    """Tensor-trapezoid integration with Richardson acceleration on a box.

    f maps an (m, n) array of points to m complex values.  Levels double
    each axis; a Romberg table over the level values supplies the
    extrapolated result and its stability estimate.
    """
    box = [tuple(_require_number("window", x) for x in axis) for axis in window]
    n = len(box)
    if n < 1:
        raise ValueError("window must have at least one axis")
    if n > _DIMENSION_CAP:
        raise DimensionCapError(f"dimension {n} exceeds cap {_DIMENSION_CAP}")
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("each axis needs finite lower < upper")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    feval = _vectorized_nd(f)

    rows: list[list[complex]] = []
    for level in range(_ND_MAX_LEVELS + 1):
        pts_per_axis = (_ND_MIN_PTS - 1) * (1 << level) + 1
        if pts_per_axis**n > _ND_MAX_POINTS:
            break
        row = [_tensor_trapezoid(feval, box, pts_per_axis)]
        if rows:
            below = rows[-1]
            for k in range(1, len(below) + 1):
                row.append(row[k - 1] + (row[k - 1] - below[k - 1]) / (4.0**k - 1.0))
            est = abs(row[-1] - below[-1])
            if est <= tol:
                return IntegrationReport(row[-1], est, level, True)
        rows.append(row)
    # 17^n points fit the budget for n <= _DIMENSION_CAP, so two levels ran
    est = abs(rows[-1][-1] - rows[-2][-1])
    raise NoConvergenceError(
        f"no convergence after {len(rows) - 1} doublings; estimate {est:.3e}"
    )


def _tensor_trapezoid(feval, box, pts_per_axis: int) -> complex:
    nodes_list, weights_list = [], []
    for lo, hi in box:
        w = np.full(pts_per_axis, (hi - lo) / (pts_per_axis - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        nodes_list.append(np.linspace(lo, hi, pts_per_axis))
        weights_list.append(w)
    return _tensor_sum(feval, nodes_list, weights_list, _ND_CHUNK)


def _tensor_sum(fv, nodes_list, weights_list, chunk: int) -> complex:
    """sum over the tensor grid of prod_j w_j[i_j] * fv(x_{i_1}, ..., x_{i_n}).

    fv maps an (m, n) array of grid points to m values.  Streamed over
    chunks of the outer axes so the point buffer holds about chunk rows;
    the partial sums are added exactly.
    """
    n = len(nodes_list)
    last_nodes, last_w = nodes_list[-1], weights_list[-1]
    ln = last_nodes.size
    if n == 1:
        return fsum_complex(fv(last_nodes[:, None]) * last_w)
    outer_shape = tuple(nd.size for nd in nodes_list[:-1])
    outer_total = math.prod(outer_shape)
    rows_per_chunk = max(1, chunk // ln)
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


def _damped_tail_value(c: complex, lower: float, eps: float, tol: float) -> complex:
    """Int over (lower, inf) of exp((c/2 - eps) x^2) dx, damping included."""
    if c.imag < 0.0:
        # conjugating the coefficient conjugates the integral
        return _damped_tail_value(c.conjugate(), lower, eps, tol).conjugate()
    alpha = 0.5 * c - eps
    decay = -alpha.real
    cut = max(lower + 1.0, math.sqrt(37.0 / decay))
    if c.imag > 0.0:
        beta = 0.5 * c.imag
        genv = lambda x: np.exp((0.5 * c.real - eps) * np.square(x))
        core, _ = adaptive_chirp_integral(
            genv, beta, 0.0, (lower, cut), tol, max_levels=14
        )
    else:
        # pure decay: smooth integrand, plain adaptive core
        rep = hk_integrate_1d(
            lambda x: np.exp(alpha.real * np.square(x)), (lower, cut), tol
        )
        core = rep.value
    tail, _ = gauss_tail(alpha, cut)
    return complex(core + tail)


def oscillatory_improper(
    spec: OscillatoryTailSpec,
    tol: float = 1e-8,
    *,
    eps0: float = 1e-2,
) -> complex:
    """Regularized integral of exp(c x^2/2) over one unbounded tail.

    Gaussian damping exp(-eps x^2) is applied over the geometric schedule
    eps0, eps0/2, ..., each damped value split into a finite quadrature
    window plus an analytic by-parts continuation, and the sequence is
    extrapolated polynomially to eps = 0 (_damped_extrapolation).
    """
    c = spec.phase_quadratic_coefficient
    lower = spec.lower_limit
    if spec.direction < 0:
        # mirror x -> -x maps the (-inf, L) tail onto (-L, inf)
        lower = -lower
    return _damped_extrapolation(
        lambda _k, eps, inner_tol: _damped_tail_value(c, lower, eps, inner_tol),
        eps0, 9, tol,
    )


def _damped_extrapolation(member, eps0: float, members: int, tol: float) -> complex:
    """Extrapolate damped values to zero damping.

    member(k, eps, inner_tol) is evaluated on the schedule eps = eps0 2^-k,
    k < members, with inner_tol = max(tol 1e-2, 1e-11), and the values are
    extrapolated polynomially to eps = 0.  The extrapolant must move by
    less than tol when the last member is added, else NoConvergenceError.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    eps_values = [eps0 * 0.5**k for k in range(members)]
    inner_tol = max(tol * 1e-2, 1e-11)  # floor: the windowed chirp core bottoms out
    vals = [member(k, eps, inner_tol) for k, eps in enumerate(eps_values)]
    prev_extrap = _neville_at_zero(eps_values[:-1], vals[:-1])
    extrap = _neville_at_zero(eps_values, vals)
    if abs(extrap - prev_extrap) > tol:
        raise NoConvergenceError(
            f"damping extrapolation unstable: moved {abs(extrap - prev_extrap):.3e} "
            f"between the last two schedule points (tol {tol:.3e})"
        )
    return complex(extrap)


def _neville_at_zero(xs, ys) -> complex:
    table = list(map(complex, ys))
    n = len(table)
    for k in range(1, n):
        for i in range(n - k):
            x0, xk = xs[i], xs[i + k]
            table[i] = (xk * table[i] - x0 * table[i + 1]) / (xk - x0)
    return table[0]


def fresnel_line_integral(c: complex, tol: float = 1e-8) -> complex:
    """Full-line integral of exp(c x^2/2) by evenness: two equal tails."""
    spec = OscillatoryTailSpec(
        phase_quadratic_coefficient=c, lower_limit=0.0, direction=+1
    )
    return 2.0 * oscillatory_improper(spec, tol)


def alexiewicz_seminorm(
    f,
    interval: tuple[float, float],
    grid: int,
    tol: float = 1e-9,
) -> float:
    """sup over grid points of |prefix integral| from the interval's start."""
    a, b = (_require_number("interval", x) for x in interval)
    grid = _require_count("grid", grid, 2)
    cuts = np.linspace(a, b, grid + 1)
    best = 0.0
    running: list[complex] = []
    for k in range(grid):
        rep = hk_integrate_1d(f, (float(cuts[k]), float(cuts[k + 1])), tol)
        running.append(rep.value)
        best = max(best, abs(fsum_complex(running)))
    return best
