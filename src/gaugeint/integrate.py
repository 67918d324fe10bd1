"""Adaptive gauge integration on the line.

The 1D engine mimics gauge refinement: a cell is bisected wherever its
Simpson value and its two halves' disagree beyond its tolerance share (an
accepted cell adds the /15 Richardson term), so the mesh tightens only
where the integrand demands it.
Window endpoints get special treatment: when refinement stalls against an
endpoint the engine peels geometric annuli off it and accepts the endpoint
cell as tag-value times width once the peeled prefix sums stabilize.  That
is the numerical shadow of a gauge that forces the tag onto the endpoint,
and it is what lets classically troublesome derivatives integrate.  The
adaptive core recognises the stall itself (a growing chain of unsettled
cells closing in on one endpoint for several levels) and hands it to the
peel at once instead of refining it to the cell cap.  A run that cannot
finish raises NoConvergenceError whose cap attribute names the limit
that stopped it.

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
from functools import partial

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


def _adaptive_core(fv, a, b, tol, min_cells=16):
    """Local-bisection Simpson with per-cell Richardson control.

    Each cell carries values at its endpoints and midpoint; quarter-point
    evaluations compare the cell's Simpson value against its two halves and
    bisect exactly where the disagreement exceeds the cell's tolerance
    share.  Refinement stops early at a stall: for _STALL_LEVELS levels in
    a row the live cells hug one window endpoint (all within _STALL_REACH
    of the width), their count grows by _STALL_GROWTH or more and their
    far edge moves toward the endpoint, the endpoint cell's indicator per
    unit width (its acceptance share is a fixed rate) has not fallen since
    the first of those levels, and the indicators now sum above tol.  A
    smooth layer at the endpoint grows the live count too, but its
    endpoint indicator falls like h^5 and refinement settles it.  The peel
    restarts from the endpoint, so a stalled run's value is never used.

    Returns (value, est, levels, cap, fail_lo, fail_hi).  cap is None when
    every cell settled, else the name of the limit that stopped
    refinement ("_MAX_CELLS", "_MAX_LEVELS" or "_STALL_LEVELS"); the
    unsettled cells are then carried at their single-cell value and
    returned as fail_lo/fail_hi.  Accepted contributions are summed
    exactly, so in any order.
    """
    edges = np.linspace(a, b, min_cells + 1)
    fstart = fv(_interleave(edges, 0.5 * (edges[:-1] + edges[1:])))
    lo, hi = edges[:-1], edges[1:]
    flo, fm, fhi = fstart[:-2:2], fstart[1::2], fstart[2::2]
    width = b - a
    half_tol_per_width = 0.5 * tol / width

    acc_val: list[np.ndarray] = []
    acc_est: list[np.ndarray] = []
    levels = 0
    stall_levels, stall_rate, prev_live, prev_extent = 0, 0.0, 0, width
    for levels in range(1, _MAX_LEVELS + 1):
        w = hi - lo
        m = 0.5 * (lo + hi)
        fq = fv(_interleave(0.5 * (lo + m), 0.5 * (m + hi)))  # q1, q3 of each cell
        fq1, fq3 = fq[0::2], fq[1::2]
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
            cap = None
            lo = hi = np.empty(0)
            break
        lo, hi, m = lo[keep], hi[keep], m[keep]
        flo, fm, fhi = flo[keep], fm[keep], fhi[keep]
        if 2 * lo.size > _MAX_CELLS:
            cap = "_MAX_CELLS"
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
        if stall_levels >= _STALL_LEVELS and rate >= stall_rate and np.sum(ind, where=keep) > tol:
            cap = "_STALL_LEVELS"
            break
        lo, hi = _interleave(lo, m), _interleave(m, hi)
        flo, fhi, fm = (
            _interleave(flo, fm), _interleave(fm, fhi),
            fq.reshape(-1, 2)[keep].ravel(),
        )
    else:
        cap = "_MAX_LEVELS"

    if cap is not None:
        # carry the unsettled cells at their current single-cell value
        w = hi - lo
        sp = (w / 6.0) * (flo + 4.0 * fm + fhi)
        acc_val.append(sp)
        acc_est.append(np.abs(sp - 0.5 * w * (flo + fhi)))
    value = fsum_complex(np.concatenate(acc_val))
    est = math.fsum(np.concatenate(acc_est).tolist())
    return value, est, levels, cap, lo, hi


def _adaptive_verified(fv, a, b, tol):
    """Cross-mesh validation of the adaptive core.

    A single adaptive run can alias (accept confidently wrong values) when
    the integrand oscillates below its initial mesh, so runs restart on
    denser start meshes until three consecutive converged rounds agree
    within their combined estimates.  The start counts follow mc -> 2*mc+7
    so successive meshes never nest: nested starts refine to identical
    leaves under deterministic bisection and would rubber-stamp each other.
    Returns the same tuple shape as _adaptive_core; cap is None on
    agreement, the core's cap when a round stopped with more than tol
    unsettled, and "_MAX_ROUNDS" when the rounds never agreed.
    """
    history: list[tuple[complex, float]] = []
    total_levels = 0
    mc = 16
    for _ in range(_MAX_ROUNDS):
        v, e, lv, cap, flo, fhi = _adaptive_core(fv, a, b, tol, min_cells=mc)
        total_levels += lv
        if cap is not None and e > tol:
            # a cap or a stall stopped refinement with real mass unsettled;
            # report the live cells for peeling
            return v, e, total_levels, cap, flo, fhi
        # a level-capped run whose carried cells contribute less than tol
        # (e.g. a jump chain bisected to negligible width) is a settled
        # measurement and joins the agreement test like any other round
        history.append((v, e))
        if len(history) >= 3:
            (v1, e1), (v2, e2), (v3, e3) = history[-3:]
            drift = max(abs(v1 - v3), abs(v2 - v3))
            if drift <= max(0.5 * tol, 2.0 * (max(e1, e2) + e3)):
                return v3, max(e3, drift), total_levels, None, flo, fhi
        mc = 2 * mc + 7
    return v, e, total_levels, "_MAX_ROUNDS", np.empty(0), np.empty(0)


def _stopped(what: str, cap: str, est: float, tol: float) -> NoConvergenceError:
    return NoConvergenceError(
        f"{what} stopped at {cap}: estimate {est:.3e}, tol {tol:.3e}", cap=cap
    )


def hk_integrate_1d(
    f,
    window: tuple[float, float],
    tol: float = 1e-8,
) -> IntegrationReport:
    """Adaptively integrate f over a finite open window.

    f maps a float ndarray to complex values elementwise (scalar-only
    callables are detected and looped).  Refinement bisects exactly the
    cells whose two-level disagreement exceeds their share of tol.  If
    refinement stalls flush against a window endpoint (the core's stall
    exit, or a cap with the unsettled cells at the endpoint), geometric
    annuli are peeled off that endpoint and the endpoint cell enters as
    f(endpoint) times width once the peeled partial sums stabilize,
    mirroring a gauge that pins the tag to the endpoint.  A
    NoConvergenceError names the limit that stopped the run, in its
    message and as its cap attribute: "_MAX_CELLS", "_MAX_LEVELS" or
    "_STALL_LEVELS" of an adaptive run, "_MAX_ROUNDS" of its
    verification, or "_MAX_PEELS".
    """
    a, b = (_require_number("window", x) for x in window)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("window must be finite with lower < upper")
    tol = _require_positive("tol", tol)
    fv = partial(guarded_array, f)

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

    pieces: list[complex] = []
    ests: list[float] = []
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
