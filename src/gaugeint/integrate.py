"""Adaptive gauge integration on the line.

The 1D engine mimics gauge refinement: each cell carries a 7/13-point
Lobatto-Kronrod pair, whose nodes include the cell's edges, and is bisected
wherever the two values disagree beyond its tolerance share, so the mesh
tightens only where the integrand demands it.  When refinement stalls
against a window endpoint (a growing chain of unsettled cells closing in
on it for several levels), the engine peels geometric annuli off it and
accepts the endpoint cell as tag-value times width once the peeled prefix
sums stabilize: the numerical shadow of a gauge that forces the tag onto
the endpoint, which lets classically troublesome derivatives integrate.
A run that cannot finish raises NoConvergenceError whose cap attribute
names the limit that stopped it.

Improper quadratic-phase tails are taken as Henstock integrals, with no
damping: a window Filon integral with exact chirp moments plus an analytic
by-parts continuation whose rigorous remainder bound places the window's
cut.

All accumulation is exact: math.fsum rounds the true sum once, so a
result does not depend on the order of its terms and is bit-reproducible
for a fixed configuration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cells import fsum_complex
from .errors import (
    NoConvergenceError,
    _require_complex,
    _require_count,
    _require_finite,
    _require_number,
    _require_positive,
    guarded_array,
)
from .oscquad import adaptive_chirp_integral, gauss_tail

__all__ = [
    "IntegrationReport",
    "OscillatoryTailSpec",
    "hk_integrate_1d",
    "oscillatory_improper",
    "fresnel_line_integral",
    "alexiewicz_seminorm",
]

# caps of hk_integrate_1d: bisection levels and live cells of one adaptive
# run, and geometric annuli peeled off one window endpoint
_MAX_LEVELS = 42
_MAX_CELLS = 4_000_000
_MAX_PEELS = 48
# verification rounds of one window (start meshes 16 ... 753,657 cells)
_MAX_ROUNDS = 16
# stall exit of _adaptive_core: this many levels in a row with the live
# cells all within _STALL_REACH of the width from one window endpoint,
# growing by _STALL_GROWTH and closing in on it, while the endpoint cell's
# indicator per unit width does not fall
_STALL_LEVELS = 4
_STALL_REACH = 0.125
_STALL_GROWTH = 1.5


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
    (-inf, lower_limit).  The coefficient must be nonzero with
    nonpositive real part.
    """

    phase_quadratic_coefficient: complex
    lower_limit: float
    direction: int

    def __post_init__(self) -> None:
        c = _require_complex("coefficient", self.phase_quadratic_coefficient)
        object.__setattr__(self, "phase_quadratic_coefficient", c)
        object.__setattr__(
            self, "lower_limit", _require_finite("lower limit", self.lower_limit)
        )
        if c == 0:
            raise ValueError("coefficient must be nonzero")
        if c.real > 0.0:
            raise ValueError("coefficient real part must be <= 0")
        d = self.direction
        if isinstance(d, bool) or not isinstance(d, numbers.Integral) or abs(d) != 1:
            raise ValueError(f"direction must be the integer +1 or -1, got {d!r}")


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(a.size + b.size, dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


# the 7/13-point Lobatto-Kronrod pair on [-1, 1] (Gander & Gautschi, BIT 40 (2000) 84): rows are
# its nodes in ascending order, with the edges first and last, and on them the weights of the
# 13-point rule and of its 7-point subrule, the 4-point Lobatto rule's Kronrod extension
_LK_NODES, _LK_K13, _LK_K7 = np.array([
    [-1.0, -0.9428824156954797, -0.816496580927726, -0.6418533423457813, -0.4472135954999579,
     -0.23638319966214988, 0.0, 0.23638319966214988, 0.4472135954999579, 0.6418533423457813,
     0.816496580927726, 0.9428824156954797, 1.0],
    [0.015827191973480183, 0.09427384021885005, 0.1550719873365854, 0.18882157396018245,
     0.19977340522685852, 0.22492646533333951, 0.24261107190140774, 0.22492646533333951,
     0.19977340522685852, 0.18882157396018245, 0.1550719873365854, 0.09427384021885005,
     0.015827191973480183],
    [0.05238095238095238, 0.0, 0.2938775510204082, 0.0, 0.42517006802721086, 0.0,
     0.45714285714285713, 0.0, 0.42517006802721086, 0.0, 0.2938775510204082, 0.0,
     0.05238095238095238],
])


def _adaptive_core(fv, a, b, tol, min_cells=16):
    """Local bisection with a 7/13-point Lobatto-Kronrod pair per cell.

    A cell's nodes include its edges, so a child takes its edge values from
    its parent's edge and centre values, and each level asks the integrand
    once, for the 11 interior nodes of every live cell.  A cell is accepted
    at its 13-point value when the 7-point value is within tol*w/width of
    it.  Refinement stops early at a stall: for _STALL_LEVELS levels in a
    row the live cells hug one window endpoint (all within _STALL_REACH of
    the width), grow by _STALL_GROWTH or more and close in on it, the
    endpoint cell's indicator per unit width (its acceptance share is a
    fixed rate) has not fallen since the first of those levels, and the
    indicators sum above tol.  A smooth layer's endpoint indicator falls,
    so refinement settles it; the peel restarts from the endpoint, so a
    stalled run's value is never used.

    Returns (value, est, levels, cap, fail_lo, fail_hi).  cap is None when
    every cell settled, else the limit that stopped refinement
    ("_MAX_CELLS", "_MAX_LEVELS" or "_STALL_LEVELS"); the unsettled cells
    are then carried at their 13-point value, with the pair's difference
    as their estimate, and returned as fail_lo/fail_hi.  Accepted
    contributions are summed exactly, so in any order.
    """
    edges = np.linspace(a, b, min_cells + 1)
    fe = fv(edges)
    lo, hi, flo, fhi = edges[:-1], edges[1:], fe[:-1], fe[1:]
    width = b - a
    tol_per_width = tol / width
    acc_val, acc_est = [], []
    stall_levels, stall_rate, prev_live, prev_extent = 0, 0.0, 0, width
    for levels in range(1, _MAX_LEVELS + 1):
        w = hi - lo
        h, m = 0.5 * w, 0.5 * (lo + hi)
        fx = fv((m[:, None] + h[:, None] * _LK_NODES[1:-1]).ravel()).reshape(-1, 11)
        fends = flo + fhi
        k13 = h * (fx @ _LK_K13[1:-1] + _LK_K13[0] * fends)
        ind = np.abs(k13 - h * (fx @ _LK_K7[1:-1] + _LK_K7[0] * fends))
        accept = ind <= tol_per_width * w
        acc_val.append(k13[accept])
        acc_est.append(ind[accept])
        keep = ~accept
        lo, hi, m = lo[keep], hi[keep], m[keep]
        if not lo.size:
            cap = None
            break
        # the live cells are in ascending order, so the endpoint they touch,
        # their reach from it and the endpoint cell (also the first or last
        # of this level's cells) are read off the first and last
        end = 0 if lo[0] == a else -1
        extent = hi[-1] - a if end == 0 else b - lo[0] if hi[-1] == b else width
        closing = (
            extent <= _STALL_REACH * width
            and extent < prev_extent
            and lo.size >= _STALL_GROWTH * prev_live
        )
        stall_levels = stall_levels + 1 if closing else 0
        rate = ind[end] / w[end] if closing else 0.0  # a live cell, so w > 0
        stall_rate = rate if stall_levels == 1 else stall_rate
        prev_live, prev_extent = lo.size, extent
        if 2 * lo.size > _MAX_CELLS:
            cap = "_MAX_CELLS"
        elif levels == _MAX_LEVELS:
            cap = "_MAX_LEVELS"
        elif stall_levels >= _STALL_LEVELS and rate >= stall_rate and np.sum(ind, where=keep) > tol:
            cap = "_STALL_LEVELS"
        else:
            fm = fx[keep, 5]  # the centre, node 6 of 13
            lo, hi = _interleave(lo, m), _interleave(m, hi)
            flo, fhi = _interleave(flo[keep], fm), _interleave(fm, fhi[keep])
            continue
        # carry the unsettled cells at their 13-point value
        acc_val.append(k13[keep])
        acc_est.append(ind[keep])
        break

    value = fsum_complex(np.concatenate(acc_val))
    est = math.fsum(np.concatenate(acc_est).tolist())
    return value, est, levels, cap, lo, hi


def _adaptive_verified(fv, a, b, tol):
    """Cross-mesh validation of the adaptive core.

    A single adaptive run can alias (accept confidently wrong values) when
    the integrand oscillates below its initial mesh, so runs restart on
    denser start meshes until a converged run agrees with the run just
    before it within their combined estimates.  The start counts follow
    mc -> 2*mc+7 so successive meshes never nest: nested starts refine to
    identical leaves under deterministic bisection and would rubber-stamp
    each other.  Returns the same tuple shape as _adaptive_core; cap is None
    on agreement, the core's cap when a run stopped with more than tol
    unsettled, and "_MAX_ROUNDS" when no two successive runs agreed.
    """
    prev_v, prev_e, total_levels, mc = None, 0.0, 0, 16
    for _ in range(_MAX_ROUNDS):
        v, e, lv, cap, flo, fhi = _adaptive_core(fv, a, b, tol, min_cells=mc)
        total_levels += lv
        if cap is not None and e > tol:
            # a cap or a stall stopped refinement with real mass unsettled;
            # report the live cells for peeling
            return v, e, total_levels, cap, flo, fhi
        # a level-capped run whose carried cells contribute less than tol
        # (e.g. a jump chain bisected to negligible width) is a settled
        # measurement and joins the agreement test like any other run
        if prev_v is not None:
            drift = abs(v - prev_v)
            if drift <= max(0.5 * tol, 2.0 * (prev_e + e)):
                return v, max(e, drift), total_levels, None, flo, fhi
        prev_v, prev_e = v, e
        mc = 2 * mc + 7
    return v, e, total_levels, "_MAX_ROUNDS", np.empty(0), np.empty(0)


def _stopped(what: str, cap: str, est: float, tol: float) -> NoConvergenceError:
    return NoConvergenceError(f"{what} stopped at {cap}: estimate {est:.3e}, tol {tol:.3e}", cap=cap)


def hk_integrate_1d(f, window: tuple[float, float], tol: float = 1e-8) -> IntegrationReport:
    """Adaptively integrate f over a finite open window.

    f maps a float ndarray to complex values elementwise (scalar-only
    callables are detected once and looped).  Refinement bisects exactly the
    cells whose 13- and 7-point Lobatto-Kronrod values disagree beyond their
    share of tol, and a run is accepted once it agrees with the run before
    it, from a non-nested start mesh.  If refinement stalls flush against a
    window endpoint (the core's stall exit, or a cap with the unsettled
    cells at the endpoint), geometric annuli are peeled off that endpoint
    and the endpoint cell enters as f(endpoint) times width once the peeled
    partial sums stabilize, mirroring a gauge that pins the tag to the
    endpoint.  A NoConvergenceError names the limit that stopped the run, in
    its message and as its cap attribute: "_MAX_CELLS", "_MAX_LEVELS" or
    "_STALL_LEVELS" of an adaptive run, "_MAX_ROUNDS" of its verification,
    or "_MAX_PEELS".
    """
    a, b = (_require_number("window", x) for x in window)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("window must be finite with lower < upper")
    tol = _require_positive("tol", tol)
    fv = guarded_array(f)

    value, est, levels, cap, fail_lo, fail_hi = _adaptive_verified(fv, a, b, tol)
    if cap is None:
        return IntegrationReport(value, est, levels, est <= tol)

    # peel only when refinement is stuck flush against a window endpoint;
    # annulus runs below re-detect interior trouble and fail loudly
    width = b - a
    slack = width * 1e-12
    peel_left = bool(fail_lo.size) and fail_lo.min() <= a + slack
    peel_right = bool(fail_hi.size) and fail_hi.max() >= b - slack
    if not (peel_left or peel_right):
        raise _stopped(f"window after {levels} levels", cap, est, tol)

    pieces, ests = [], []
    total_levels = levels
    h0 = width / 8.0
    core_lo = a + h0 if peel_left else a
    core_hi = b - h0 if peel_right else b
    v, e, lv, cap, *_ = _adaptive_verified(fv, core_lo, core_hi, tol / 4)
    total_levels += lv
    if cap is not None:
        raise _stopped("interior window", cap, e, tol / 4)
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
            v, e, lv, cap, *_ = _adaptive_verified(fv, ann_lo, ann_hi, tol / 20)
            total_levels += lv
            if cap is not None:
                raise _stopped(
                    f"endpoint annulus ({ann_lo:.6g}, {ann_hi:.6g})", cap, e, tol / 20
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
                "endpoint prefix sums did not stabilize within _MAX_PEELS "
                f"({_MAX_PEELS}) annuli; the integrand does not appear to be "
                "gauge-integrable at the window endpoint",
                cap="_MAX_PEELS",
            )

    value = fsum_complex(pieces)
    est = math.fsum(ests)
    return IntegrationReport(value, est, total_levels, est <= tol)


_CUT_START = 4.0  # first cut of oscillatory_improper, past max(lower, 0)
_CUT_POINTS = 13  # cuts of its doubling ladder; the last is the cap


def oscillatory_improper(spec: OscillatoryTailSpec, tol: float = 1e-8) -> complex:
    """Integral of exp(c x^2/2) over one unbounded tail, with no damping.

    The Henstock value is the limit of the window integrals (Hake's
    theorem), taken directly: a window Filon integral with exact chirp
    moments (adaptive_chirp_integral, or hk_integrate_1d for real c) plus
    gauss_tail's by-parts tail beyond the window.  The cut is the first
    point of a doubling ladder where the tail's rigorous bound is at most
    a tenth of the inner tolerance; NoConvergenceError names the bound
    when no cut up to the ladder's cap is far enough out.
    """
    tol = _require_positive("tol", tol)
    c = spec.phase_quadratic_coefficient
    # conjugating the coefficient conjugates the integral
    flip = c.imag < 0.0
    alpha = 0.5 * (c.conjugate() if flip else c)
    # mirror x -> -x maps the (-inf, L) tail onto (-L, inf)
    lower = spec.direction * spec.lower_limit
    inner_tol = max(tol * 1e-2, 1e-11)  # floor: the windowed chirp core bottoms out
    for k in range(_CUT_POINTS):
        cut = (max(lower, 0.0) + _CUT_START) * 2.0**k
        tail, bound = gauss_tail(alpha, cut)
        if bound <= 0.1 * inner_tol:
            break
    else:
        raise NoConvergenceError(
            f"tail bound {bound:.3e} exceeds {0.1 * inner_tol:.3e} at the "
            f"ladder's cap, cut {cut:.6g}",
            cap="_CUT_POINTS",
        )
    envelope = lambda x: np.exp(alpha.real * np.square(x))
    if alpha.imag > 0.0:
        core, _ = adaptive_chirp_integral(
            envelope, alpha.imag, 0.0, (lower, cut), inner_tol, max_levels=14
        )
    else:
        # pure decay: smooth integrand, plain adaptive core
        core = hk_integrate_1d(envelope, (lower, cut), inner_tol).value
    value = complex(core + tail)
    return value.conjugate() if flip else value


def fresnel_line_integral(c: complex, tol: float = 1e-8) -> complex:
    """Full-line integral of exp(c x^2/2) by evenness: two equal tails."""
    return 2.0 * oscillatory_improper(OscillatoryTailSpec(c, 0.0, +1), tol)


def alexiewicz_seminorm(f, interval: tuple[float, float], grid: int, tol: float = 1e-9) -> float:
    """sup over grid points of |prefix integral| from the interval's start."""
    a, b = (_require_number("interval", x) for x in interval)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("interval must be finite with lower < upper")
    grid = _require_count("grid", grid, 2)
    cuts = np.linspace(a, b, grid + 1)
    best = 0.0
    running: list[complex] = []
    for k in range(grid):
        rep = hk_integrate_1d(f, (float(cuts[k]), float(cuts[k + 1])), tol)
        running.append(rep.value)
        best = max(best, abs(fsum_complex(running)))
    return best
