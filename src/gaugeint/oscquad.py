"""Analytic quadrature primitives for quadratic-phase (chirp) integrands.

The incomplete Fresnel integral

    F(u) = Int_0^u exp(i y^2 / 2) dy

is evaluated by a Maclaurin series for |u| <= 6 and by the integration-by-
parts asymptotic expansion of the tail for |u| > 6; at the switch point both
branches are accurate to ~4e-9 (the series is roundoff-limited, the
asymptotic truncates at its minimum term).  F is the building block for
exact chirp moments

    Int_a^b u^k exp(i u^2 / 2) du ,  k = 0..3,

which make piecewise-cubic Filon quadrature of Int exp(i beta (x-c)^2) g(x) dx
possible without ever resolving the chirp on a grid: cells only need to
resolve g.  Far from the stationary point the centered moments are computed
through a plane-wave expansion to avoid catastrophic cancellation.

Also here: the integration-by-parts tail of Int_B^inf exp(alpha x^2) dx for
Re(alpha) <= 0, with a rigorous remainder bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, _require_number, guarded_values

__all__ = [
    "FRESNEL_LIMIT",
    "ROOT_MINUS_I_OVER_2PI",
    "FRESNEL_SWITCH",
    "fresnel_integral",
    "fresnel_tail",
    "phase_exp",
    "chirp_filon_weights",
    "gauss_tail",
    "adaptive_chirp_integral",
]

# F(inf) = sqrt(pi)/2 * (1 + i); twice this is the full-line value
# sqrt(2 pi / -i) = sqrt(pi) (1 + i).
FRESNEL_LIMIT = 0.5 * math.sqrt(math.pi) * (1.0 + 1.0j)

# principal sqrt(-i / (2 pi)) = exp(-i pi/4) / sqrt(2 pi)
ROOT_MINUS_I_OVER_2PI = np.exp(-0.25j * math.pi) / math.sqrt(2.0 * math.pi)

FRESNEL_SWITCH = 6.0

_SERIES_MAX_TERMS = 120
_TAIL_MAX_TERMS = 26


def phase_exp(u):
    """exp(i u^2 / 2) for real u."""
    u = np.asarray(u, dtype=float)
    return np.exp(0.5j * u * u)


def _fresnel_series(u):
    """Maclaurin branch, valid (and roundoff-safe) for |u| <= ~6."""
    u = np.asarray(u, dtype=float)
    u2 = u * u
    a = np.ones(u.shape, dtype=complex)  # (i/2)^k u^{2k} / k!
    total = u * a  # k = 0 term: u / 1
    for k in range(1, _SERIES_MAX_TERMS):
        a = a * (0.5j * u2 / k)
        term = u * a / (2 * k + 1)
        total = total + term
        if np.max(np.abs(term)) < 1e-18:
            break
    return total


def fresnel_tail(u):
    """Int_u^inf exp(i y^2/2) dy for u >= FRESNEL_SWITCH, by parts.

    Terms i (-i)^k (2k-1)!! u^{-(2k+1)} times exp(i u^2/2), truncated at the
    minimum term; the dropped remainder is below the last kept term.
    """
    u = np.asarray(u, dtype=float)
    if u.size and np.min(u) < FRESNEL_SWITCH:
        raise ValueError("fresnel_tail needs u >= FRESNEL_SWITCH")
    inv2 = 1.0 / (u * u)
    term = 1j / u
    total = term.copy()
    prev_mag = np.abs(term)
    active = np.ones(u.shape, dtype=bool)
    for k in range(1, _TAIL_MAX_TERMS):
        term = term * (-1j) * (2 * k - 1) * inv2
        mag = np.abs(term)
        still = active & (mag < prev_mag)
        total = np.where(still, total + term, total)
        active = still
        prev_mag = mag
        if not active.any():
            break
    return phase_exp(u) * total


def fresnel_integral(u):
    """F(u) = Int_0^u exp(i y^2 / 2) dy, odd in u, vectorized."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.empty(u.shape, dtype=complex)
    au = np.abs(u)
    near = au <= FRESNEL_SWITCH
    if near.any():
        out[near] = _fresnel_series(u[near])
    far = ~near
    if far.any():
        t = fresnel_tail(au[far])
        out[far] = np.sign(u[far]) * (FRESNEL_LIMIT - t)
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# chirp moments and Filon weights


_FILON_XI = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
# inverse Vandermonde for nodes xi: coefficients of 1, xi, xi^2, xi^3
_FILON_VINV = np.linalg.inv(np.vander(_FILON_XI, 4, increasing=True))

_NEAR_LIMIT = 10.0  # |u_mid| below which exact F/E moments are safe
_FAR_WIDTH = 1.0  # maximum u-width of a far cell (plane-wave branch)
_PW_TERMS = 12  # j terms in exp(i w^2/2) expansion, width <= 1


def _centred_moments(raw, um):
    """Binomial shift of raw moments Int w^k K dw to Int (w - um)^k K dw.

    raw has shape (4, ...) for k = 0..3.  The shift cancels terms of size
    |um|^k against a centred moment of size hw^k, so its relative round-off
    grows like (|um|/hw)^3; callers keep that ratio modest.
    """
    return np.stack([
        raw[0],
        raw[1] - um * raw[0],
        raw[2] - 2.0 * um * raw[1] + um * um * raw[0],
        raw[3] - 3.0 * um * raw[2] + 3.0 * um**2 * raw[1] - um**3 * raw[0],
    ])


def _cell_weights(mu, hw):
    """Per-cell node weights of the piecewise-cubic Filon rule.

    mu has shape (4, ..., ncell) and hw (..., ncell): each cell's centred
    moments are scaled to xi = w / hw and mapped through the inverse
    Vandermonde to its 4 equally spaced nodes.  Returns (4, ..., ncell).
    """
    hwp = np.stack([np.ones_like(hw), hw, hw * hw, hw**3])
    return np.einsum("k...,kj->j...", mu / hwp, _FILON_VINV)


def _scatter_cells(cellw):
    """Node weights on the 3 ncell + 1 nodes from per-cell weights.

    cellw has shape (4, ..., ncell); neighbouring cells add at their
    shared edge node.  Returns (..., 3 ncell + 1) complex weights.
    """
    ncell = cellw.shape[-1]
    weights = np.zeros(cellw.shape[1:-1] + (3 * ncell + 1,), dtype=complex)
    weights[..., 0:-1:3] += cellw[0]
    weights[..., 1::3] += cellw[1]
    weights[..., 2::3] += cellw[2]
    weights[..., 3::3] += cellw[3]
    return weights


def _moments_near(ua, ub):
    """Centered moments mu_k = Int (u-um)^k exp(iu^2/2) du on [ua, ub]."""
    Fa, Fb = fresnel_integral(ua), fresnel_integral(ub)
    Ea, Eb = phase_exp(ua), phase_exp(ub)
    m0 = Fb - Fa
    m1 = -1j * (Eb - Ea)
    m2 = -1j * (ub * Eb - ua * Ea) + 1j * m0
    m3 = -1j * (ub * ub * Eb - ua * ua * Ea) + 2.0 * (Eb - Ea)
    return _centred_moments(np.stack([m0, m1, m2, m3]), 0.5 * (ua + ub))


def _moments_far(ua, ub):
    """Centered moments via exp(iu^2/2) = E(um) e^{i um w} e^{i w^2/2}.

    Needs |um| >= _NEAR_LIMIT and ub-ua <= _FAR_WIDTH; the w^2 expansion is
    truncated far below roundoff for that width.
    """
    um = 0.5 * (ua + ub)
    hw = 0.5 * (ub - ua)
    om = um  # plane-wave frequency
    pmax = 2 * (_PW_TERMS - 1) + 3
    # P_p = Int_{-hw}^{hw} w^p exp(i om w) dw, upward by-parts recurrence
    eplus = np.exp(1j * om * hw)
    eminus = np.exp(-1j * om * hw)
    iom = 1j * om
    P = np.empty((pmax + 1,) + np.shape(um), dtype=complex)
    P[0] = (eplus - eminus) / iom
    hp_plus = np.ones_like(eplus)  # hw^p e^{i om hw}
    hp_minus = np.ones_like(eminus)  # (-hw)^p e^{-i om hw}
    for p in range(1, pmax + 1):
        hp_plus = hp_plus * hw
        hp_minus = hp_minus * (-hw)
        P[p] = (hp_plus * eplus - hp_minus * eminus) / iom - (p / iom) * P[p - 1]
    mu = np.zeros((4,) + np.shape(um), dtype=complex)
    coef = np.ones(np.shape(um), dtype=complex)  # (i/2)^j / j!
    for j in range(_PW_TERMS):
        if j > 0:
            coef = coef * (0.5j / j)
        for k in range(4):
            mu[k] = mu[k] + coef * P[2 * j + k]
    E_mid = phase_exp(um)
    return E_mid * mu


def _split_far_edges(uedges):
    """Insert edges so cells with |u_mid| > _NEAR_LIMIT have width <= _FAR_WIDTH."""
    out = [uedges[0]]
    for a, b in zip(uedges[:-1], uedges[1:]):
        width = b - a
        mid = 0.5 * (a + b)
        if abs(mid) > _NEAR_LIMIT - 0.5 * width and width > _FAR_WIDTH:
            parts = int(math.ceil(width / _FAR_WIDTH))
            for i in range(1, parts):
                out.append(a + width * i / parts)
        out.append(b)
    return np.asarray(out)


def chirp_filon_weights(beta: float, center: float, edges):
    """Nodes and weights so that  sum w_i g(x_i)  ~=  Int e^{i beta (x-c)^2} g dx.

    edges is an increasing array of cell boundaries in x; each cell carries a
    cubic through 4 equally spaced nodes, integrated against the chirp with
    exact moments.  beta > 0.  Far cells are split internally so the centered
    moments stay stable; the returned nodes reflect the refined cells.
    """
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    s = math.sqrt(2.0 * beta)
    ue = (edges - center) * s
    ue = _split_far_edges(ue)
    ua, ub = ue[:-1], ue[1:]
    um = 0.5 * (ua + ub)
    hw = 0.5 * (ub - ua)

    mu = np.empty((4, ua.size), dtype=complex)
    near = np.abs(um) <= _NEAR_LIMIT
    if near.any():
        mu[:, near] = _moments_near(ua[near], ub[near])
    far = ~near
    if far.any():
        mu[:, far] = _moments_far(ua[far], ub[far])

    nodes = center + (um[None, :] + hw[None, :] * _FILON_XI[:, None]) / s
    weights = _scatter_cells(_cell_weights(mu, hw)) / s
    return np.append(nodes[:3].T.ravel(), nodes[3, -1]), weights


_DAMPED_NEAR_PHASE = 10.0  # |alpha| max(w^2) below which the Maclaurin branch runs
_DAMPED_SERIES_CAP = 90


def _damped_raw_moments(alpha: complex, wa, wb):
    """Raw moments m_k = Int_wa^wb w^k e^{alpha w^2} dw, k = 0..3, vectorized.

    Near cells (|alpha| w^2 small) use the Maclaurin series of the kernel;
    far cells use the complex-erfc closed form for m_0 with by-parts
    recurrences upward.  Re(alpha) <= 0 keeps every exponential bounded.
    """
    from scipy.special import erfc as _cerfc

    wa = np.asarray(wa, dtype=float)
    wb = np.asarray(wb, dtype=float)
    m = np.empty((4,) + wa.shape, dtype=complex)
    scale = np.abs(alpha) * np.maximum(wa * wa, wb * wb)
    near = scale <= _DAMPED_NEAR_PHASE
    if near.any():
        a, b = wa[near], wb[near]
        acc = np.zeros((4,) + a.shape, dtype=complex)
        # row k holds w^(k + 2j + 1) at term j, for all four k at once
        pa = np.stack([a, a * a, a**3, a**4]).astype(complex)
        pb = np.stack([b, b * b, b**3, b**4]).astype(complex)
        k1 = np.arange(1, 5).reshape((4,) + (1,) * a.ndim)  # k + 1
        coef = 1.0 + 0j  # alpha^j / j!
        top = np.zeros(a.shape)
        for j in range(_DAMPED_SERIES_CAP):
            if j > 0:
                coef = coef * alpha / j
            term = coef * (pb - pa) / (k1 + 2 * j)
            acc += term
            # term k is judged against the largest partial sum seen so far,
            # including this term's rows 0..k
            tops = np.maximum(top, np.maximum.accumulate(np.abs(acc), axis=0))
            done = not np.any(np.abs(term) > 1e-18 * np.maximum(tops, 1e-300))
            top = tops[-1]
            pa = pa * (a * a)
            pb = pb * (b * b)
            if done and j > 2:
                break
        m[:, near] = acc
    far = ~near
    if far.any():
        a, b = wa[far], wb[far]
        s = np.sqrt(-alpha)  # principal branch, Re s >= 0
        ea, eb = np.exp(alpha * a * a), np.exp(alpha * b * b)
        m0 = math.sqrt(math.pi) / (2.0 * s) * (_cerfc(s * a) - _cerfc(s * b))
        m1 = (eb - ea) / (2.0 * alpha)
        m2 = (b * eb - a * ea) / (2.0 * alpha) - m0 / (2.0 * alpha)
        m3 = (b * b * eb - a * a * ea) / (2.0 * alpha) - m1 / alpha
        m[0, far], m[1, far], m[2, far], m[3, far] = m0, m1, m2, m3
    return m


def _damped_cell_weights(alpha: complex, wa, wb):
    """Per-cell node weights (4, ...) for Int e^{alpha w^2} g(w) dw on [wa, wb].

    Exact damped-chirp moments, centred on each cell's midpoint and mapped
    to the cell's 4 equally spaced nodes (_cell_weights).
    """
    mu = _centred_moments(_damped_raw_moments(alpha, wa, wb), 0.5 * (wa + wb))
    return _cell_weights(mu, 0.5 * (wb - wa))


def damped_chirp_filon_weights(alpha: complex, center: float, edges):
    """Nodes and weights so that  sum w_i g(x_i)  ~=  Int e^{alpha (x-c)^2} g dx.

    Re(alpha) <= 0 and alpha != 0: the kernel carries both the oscillation
    and the damping, integrated exactly against a per-cell cubic through 4
    equally spaced nodes.  Because the quadratic kernel is exact, cells may
    be wide wherever g itself is smooth — no oscillation-scale splitting.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if alpha.real > 0.0:
        raise ValueError("Re(alpha) must be <= 0")
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    wa = edges[:-1] - center
    wb = edges[1:] - center
    um = 0.5 * (wa + wb)
    hw = 0.5 * (wb - wa)
    nodes = center + um[None, :] + hw[None, :] * _FILON_XI[:, None]
    weights = _scatter_cells(_damped_cell_weights(alpha, wa, wb))
    return np.append(nodes[:3].T.ravel(), nodes[3, -1]), weights


def gauss_tail(alpha: complex, B: float):
    """(value, bound) for Int_B^inf exp(alpha x^2) dx, Re(alpha) <= 0.

    Integration by parts gives exp(alpha B^2) * sum_k c_k B^{-(2k+1)} with
    c_k = -(2k-1)!!/(2 alpha)^{k+1}; truncated at the minimum term.  The
    returned bound dominates the dropped remainder:
    (2K-1)!!/|2 alpha|^K * B^{-(2K-1)}/(2K-1).
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if alpha.real > 1e-15:
        raise ValueError("Re(alpha) must be <= 0")
    B = float(B)
    if B <= 0.0:
        raise ValueError("B must be positive")
    two_a = 2.0 * alpha
    term = -1.0 / (two_a * B)  # t_0
    total = term
    kept = 1
    prev = abs(term)
    while kept < 40:
        term = term * (2 * kept - 1) / (two_a * B * B)
        mag = abs(term)
        if mag >= prev:
            break
        total += term
        prev = mag
        kept += 1
    # after K kept terms the dropped remainder is
    # (2K-1)!!/(2 alpha)^K * Int_B^inf e^{alpha x^2} x^{-2K} dx, and
    # |e^{alpha x^2}| <= e^{Re(alpha) B^2} on [B, inf) bounds the integral
    # by e^{Re(alpha) B^2} B^{1-2K}/(2K-1).
    dfac = 1.0
    for j in range(1, kept + 1):
        dfac *= 2 * j - 1
    bound = dfac / (abs(two_a) ** kept) * B ** (1 - 2 * kept) / (2 * kept - 1)
    bound *= math.exp(min(alpha.real, 0.0) * B * B)
    return np.exp(alpha * B * B) * total, bound


_CHIRP_MIN_CELLS = 8  # cells of the first adaptive_chirp_integral level


def adaptive_chirp_integral(
    g,
    beta: float,
    center: float,
    window: tuple[float, float],
    tol: float,
    *,
    max_levels: int = 12,
):
    """Adaptive Filon evaluation of Int e^{i beta (x-c)^2} g(x) dx on window.

    g must accept numpy arrays (a raising or non-finite g raises
    IntegrandError).  Cells are refined globally (doubling) until
    two successive levels agree within tol.  Returns (value,
    error_estimate).
    """
    lo, hi = (_require_number("window", x) for x in window)
    if not lo < hi:
        raise ValueError("window must have lo < hi")
    ncell = _CHIRP_MIN_CELLS
    if beta != 0.0:
        # the near/far moment split must not hide inside coarse cells:
        # if the near zone intersects the window, start fine enough that
        # level doubling actually refines it (otherwise early levels can
        # share one effective rule and agree without measuring anything)
        nh = math.sqrt(_NEAR_LIMIT / abs(beta))
        if lo < center + nh and hi > center - nh:
            ncell = max(ncell, min(4096, int(math.ceil((hi - lo) / nh))))
    prev = None
    prev_drift = None
    for _ in range(max_levels):
        edges = np.linspace(lo, hi, ncell + 1)
        nodes, wts = chirp_filon_weights(beta, center, edges)
        val = complex(np.dot(wts, guarded_values(g, nodes, what="envelope")))
        if prev is not None:
            drift = abs(val - prev)
            # two consecutive small drifts: a single agreeing pair can be
            # an aliasing coincidence (coarse levels can share the same
            # effective near/far splitting and rubber-stamp each other)
            if prev_drift is not None and max(drift, prev_drift) < tol:
                return val, max(drift, prev_drift)
            prev_drift = drift
        prev = val
        ncell *= 2
    raise NoConvergenceError(
        f"chirp integral did not stabilize to {tol} within {max_levels} levels"
    )
