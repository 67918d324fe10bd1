"""Analytic quadrature primitives for quadratic-phase (chirp) integrands.

The incomplete Fresnel integral

    F(u) = Int_0^u exp(i y^2 / 2) dy

is F(inf) minus the Gaussian tail Int_|u|^inf exp(i y^2 / 2) dy, odd in
u; the tail is _erfc_tail's complex erfc, so F has one code path on the
whole line.  F is the building block for exact chirp moments

    Int_a^b u^k exp(i u^2 / 2) du ,  k = 0..3,

which make piecewise-cubic Filon quadrature of Int exp(i beta (x-c)^2) g(x) dx
possible without ever resolving the chirp on a grid: cells only need to
resolve g.  Far cells of chirp_filon_weights take plane-wave centred moments
against cancellation; far damped cells shift raw moments (_centred_moments).

A Gaussian tail Int_B^inf exp(alpha x^2) dx, Re(alpha) <= 0, is either
gauss_tail's by-parts series with a rigorous bound or _erfc_tail's complex
erfc, the package's one erfc (_erfcx: Weideman's rational approximation of
the Faddeeva function); by parts, _tail_moments' M_k and a far damped cell's
moments follow from it, one erfc per cell edge point.  A near damped cell,
where the parts cancel, takes its centred moments from one Gauss-Legendre
rule (Filon cells: Iserles & Norsett, Proc. R. Soc. A 461 (2005) 1383).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    NoConvergenceError,
    _require_complex,
    _require_count,
    _require_finite,
    _require_positive,
    guarded_values,
)

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

FRESNEL_SWITCH = 6.0  # fresnel_tail's domain bound

_TAIL_MAX_TERMS = 26


def phase_exp(u):
    """exp(i u^2 / 2) for real u."""
    u = np.asarray(u, dtype=float)
    return np.exp(0.5j * u * u)


def fresnel_integral(u):
    """F(u) = Int_0^u exp(i y^2 / 2) dy, odd in u, vectorized, F(+-inf) = +-F(inf)."""
    u = np.asarray(u, dtype=float)
    v = np.atleast_1d(u)  # a scalar u runs the array loops, bit for bit
    finite = np.isfinite(v)  # a NaN u stays NaN through sign(u)
    tail = _erfc_tail(0.5j, np.where(finite, np.abs(v), 0.0))
    out = np.sign(v) * (FRESNEL_LIMIT - np.where(finite, tail, 0.0))
    return out.reshape(u.shape)[()]


def fresnel_tail(u):
    """Int_u^inf exp(i y^2/2) dy by gauss_tail, u >= FRESNEL_SWITCH.

    Unused by the package; FRESNEL_SWITCH is only its domain bound, since
    fresnel_integral takes its tail from _erfc_tail on the whole line.
    """
    u = np.asarray(u, dtype=float)
    if u.size and np.min(u) < FRESNEL_SWITCH:
        raise ValueError("fresnel_tail needs u >= FRESNEL_SWITCH")
    return gauss_tail(0.5j, u)[0]


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


def _by_parts_moments(alpha: complex, a, b, m0, ea, eb):
    """Raw moments m_k = Int_a^b w^k e^{alpha w^2} dw, k = 0..3, from m_0.

    ea, eb = e^{alpha w^2} at a, b; by parts, m_k = (...) / (2 alpha) with
    (...) = [w^(k-1) e^{alpha w^2}]_a^b - (k-1) m_(k-2)."""
    inv = 1.0 / (2.0 * alpha)
    m1 = inv * (eb - ea)
    m2 = inv * (b * eb - a * ea - m0)
    m3 = inv * (b * b * eb - a * a * ea - 2.0 * m1)
    return np.stack([m0, m1, m2, m3])


def _weideman_coefficients(n: int):
    """(L, a) of Weideman's N = n term rational approximation of w(z).

    w(z) ~ 2 sum_k a_k Z^k / (L - iz)^2 + pi^(-1/2) / (L - iz) with
    Z = (L + iz) / (L - iz) for Im z >= 0; the a_k are the Fourier
    coefficients of (L^2 + t^2) e^{-t^2} on t = L tan(theta / 2), taken by
    one FFT (Weideman, SIAM J. Numer. Anal. 31 (1994) 1497).  a runs from
    the highest power down, as complex numbers: adding a complex scalar to
    a complex array is the cheaper numpy call.
    """
    L = math.sqrt(n / math.sqrt(2.0))
    m = 2 * n
    t = L * np.tan(np.arange(1 - m, m) * math.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return L, a[n:0:-1].astype(complex)


# 40 terms: on test_oscquad's [0, 50] grid F is off mpmath by 2.7e-14 at 32
# terms and 2.5e-15 from 36 on
_ERFC_L, _ERFC_COEFFS = _weideman_coefficients(40)


def _erfcx(z):
    """Scaled complex erfc, e^{z^2} erfc(z) = w(iz), for Re z >= 0, vectorized.

    With iz in the upper half plane, Weideman's L - i(iz) is L + z and Z is
    (L - z) / (L + z), |Z| <= 1.
    """
    lz = _ERFC_L + z
    zeta = (_ERFC_L - z) / lz
    # Horner; the sums run in place, but the products do not: numpy's
    # in-place complex product on one element rounds unlike its array loop
    p = _ERFC_COEFFS[0] * zeta
    for c in _ERFC_COEFFS[1:-1]:
        p += c
        p = p * zeta
    p += _ERFC_COEFFS[-1]
    return (2.0 * p / lz + 1.0 / math.sqrt(math.pi)) / lz


def _erfc_tail(alpha: complex, x):
    """Int_x^inf e^{alpha w^2} dw = sqrt(pi)/(2 s) erfc(s x), s = sqrt(-alpha).

    Re(alpha) <= 0 and alpha != 0; vectorized over real x.  Re s > 0, so
    s |x| is on _erfcx's half plane, and erfc(s x) = 2 - erfc(s |x|) for
    x < 0.  erfc(s |x|) = e^{alpha x^2} _erfcx(s |x|) takes the exponent
    from alpha x^2: squaring s |x| leaves a real part of size |s x|^2 eps
    where it should vanish (Re alpha = 0), and e^{that} overflows.
    """
    s = np.sqrt(-alpha)  # principal branch, Re s >= 0
    x = np.asarray(x, dtype=float)
    e = np.exp(alpha * (x * x)) * _erfcx(s * np.abs(x))
    return math.sqrt(math.pi) / (2.0 * s) * np.where(x < 0.0, 2.0 - e, e)


def _tail_moments(alpha: complex, x, order: int) -> list:
    """M_k = Int_x^inf (w - x)^k e^{alpha w^2} dw for k = 0..order >= 1.

    M_0 is _erfc_tail; by parts, M_1 = -e^{alpha x^2} / (2 alpha) - x M_0 and
    M_k = -x M_(k-1) - (k-1) M_(k-2) / (2 alpha).  At Re(alpha) = 0 each is
    the improper (Abel) limit.  Vectorized over real x.
    """
    m = [_erfc_tail(alpha, x)]
    m.append(-np.exp(alpha * x * x) / (2.0 * alpha) - x * m[0])
    for k in range(2, order + 1):
        m.append(-x * m[k - 1] - (k - 1) * m[k - 2] / (2.0 * alpha))
    return m


def _taylor_tail(alpha: complex, x, h: float, order: int, points: int):
    """Weights on f(x - j h), j < points, for Int_x^inf e^{alpha w^2} f(w) dw:
    f's Taylor polynomial of degree order at x, its derivatives those of the
    polynomial through the samples, against the Abel-limit _tail_moments.
    Vectorized over real x, to shape x.shape + (points,); the weights at -x,
    on f(x + j h), are a left tail's.  Stencil row k gives h^k f^(k)(x) / k!."""
    stencil = np.linalg.inv(np.vander(-np.arange(float(points)), points, increasing=True))
    m = np.stack(_tail_moments(alpha, x, order), axis=-1)
    return (m / h ** np.arange(order + 1)) @ stencil[: order + 1]


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


def _require_edges(edges) -> np.ndarray:
    """edges as a float array: 1-D, finite and strictly increasing, >= 2 entries."""
    edges = np.asarray(edges, dtype=float)
    if (
        edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges))
        or np.any(np.diff(edges) <= 0)
    ):
        raise ValueError(
            "edges must be finite and strictly increasing with >= 2 entries"
        )
    return edges


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
    beta = _require_positive("beta", beta)
    center = _require_finite("center", center)
    edges = _require_edges(edges)
    s = math.sqrt(2.0 * beta)
    ue = (edges - center) * s
    ue = _split_far_edges(ue)
    ua, ub = ue[:-1], ue[1:]
    um = 0.5 * (ua + ub)
    hw = 0.5 * (ub - ua)

    mu = np.empty((4, ua.size), dtype=complex)
    near = np.abs(um) <= _NEAR_LIMIT
    if near.any():  # m_0 = F(b) - F(a), centred on the cell midpoint
        a, b = ua[near], ub[near]
        m0 = fresnel_integral(b) - fresnel_integral(a)
        raw = _by_parts_moments(0.5j, a, b, m0, phase_exp(a), phase_exp(b))
        mu[:, near] = _centred_moments(raw, um[near])
    far = ~near
    if far.any():
        mu[:, far] = _moments_far(ua[far], ub[far])

    nodes = center + (um[None, :] + hw[None, :] * _FILON_XI[:, None]) / s
    weights = _scatter_cells(_cell_weights(mu, hw)) / s
    return np.append(nodes[:3].T.ravel(), nodes[3, -1]), weights


# |alpha| max(w^2) at or below which a cell is near: parts would cancel, so
# its moments come from a Gauss-Legendre rule of at most 28 nodes
_DAMPED_NEAR_PHASE = 10.0


@functools.cache
def _gauss_legendre(n: int):
    """Nodes x and P[i, k] = W_i x_i^k, k = 0..3, of the n-node rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, (w[:, None] * x[:, None] ** np.arange(4)).astype(complex)


def _near_moments(alpha: complex, um, hw):
    """Centred moments mu_k = Int_{-hw}^{hw} t^k e^{alpha (um + t)^2} dt, k = 0..3.

    One Gauss-Legendre rule of 12 + 2 ceil(0.8 Phi) nodes serves the 1-D
    batch, Phi <= _DAMPED_NEAR_PHASE its largest |alpha| hw (2 |um| + hw),
    the swing of |alpha w^2| over a cell.  Against mpmath, the worst cell
    (Re alpha = 0, um = 0) is 8e-16 hw^(k+1) off at Phi = 0.75 (14 nodes)
    and 2e-15 at Phi = 10 (28), the rounding of alpha w^2 (Davis &
    Rabinowitz, Methods of Numerical Integration, ch. 2).
    """
    phi = abs(alpha) * float(np.max(hw * (2.0 * np.abs(um) + hw)))
    x, p = _gauss_legendre(12 + 2 * math.ceil(0.8 * phi))
    e = np.exp(alpha * np.square(um[:, None] + hw[:, None] * x))
    return (e @ p).T * hw ** np.arange(1, 5)[:, None]


def _damped_raw_moments(alpha: complex, w, step: int):
    """Raw moments m_k = Int_a^b w^k e^{alpha w^2} dw, k = 0..3, of [a, b] = [w_i, w_(i+step)].

    By parts (m_0 = T(a) - T(b), T = _erfc_tail) from one erfc and one
    exponential per point of the 1-D array w.  Accurate on far cells: the
    parts cancel on near ones.  Re(alpha) <= 0 bounds every exponential.
    """
    t, e = _erfc_tail(alpha, w), np.exp(alpha * w * w)
    m0 = t[:-step] - t[step:]
    return _by_parts_moments(alpha, w[:-step], w[step:], m0, e[:-step], e[step:])


def _damped_cell_weights(alpha: complex, w, step: int = 1):
    """Per-cell node weights (4, ncell) for Int e^{alpha w^2} g(w) dw on [w_i, w_(i+step)].

    Raw moments by parts (_damped_raw_moments, on the whole block), centred
    on each midpoint; near cells (|alpha| max(w^2) <= _DAMPED_NEAR_PHASE)
    replace theirs by _near_moments.  Each cell maps to its 4 nodes.
    """
    a, b = w[:-step], w[step:]
    um, hw = 0.5 * (a + b), 0.5 * (b - a)
    near = abs(alpha) * np.maximum(a * a, b * b) <= _DAMPED_NEAR_PHASE
    if near.all():
        mu = _near_moments(alpha, um, hw)
    else:
        mu = _centred_moments(_damped_raw_moments(alpha, w, step), um)
        if near.any():
            mu[:, near] = _near_moments(alpha, um[near], hw[near])
    return _cell_weights(mu, hw)


def damped_chirp_filon_weights(alpha: complex, center: float, edges):
    """Nodes and weights so that  sum w_i g(x_i)  ~=  Int e^{alpha (x-c)^2} g dx.

    Re(alpha) <= 0 and alpha != 0: the kernel carries both the oscillation
    and the damping, integrated exactly against a per-cell cubic through 4
    equally spaced nodes.  Because the quadratic kernel is exact, cells may
    be wide wherever g itself is smooth — no oscillation-scale splitting.
    """
    alpha = _require_complex("alpha", alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if alpha.real > 0.0:
        raise ValueError("Re(alpha) must be <= 0")
    center = _require_finite("center", center)
    edges = _require_edges(edges)
    w = edges - center
    um, hw = 0.5 * (w[:-1] + w[1:]), 0.5 * (w[1:] - w[:-1])
    nodes = center + um[None, :] + hw[None, :] * _FILON_XI[:, None]
    weights = _scatter_cells(_damped_cell_weights(alpha, w))
    return np.append(nodes[:3].T.ravel(), nodes[3, -1]), weights


def gauss_tail(alpha: complex, B):
    """(value, bound) for Int_B^inf exp(alpha x^2) dx, Re(alpha) <= 0.

    Vectorized over finite B > 0 (numpy scalars for a scalar B).  By parts,
    the value is exp(alpha B^2) sum_k t_k, t_0 = -1/(2 alpha B) and t_k =
    t_(k-1) (2k-1) / (2 alpha B^2), cut at the minimum term or after
    _TAIL_MAX_TERMS.  After K terms the remainder is (2K-1)!!/(2 alpha)^K
    Int_B^inf e^{alpha x^2} x^{-2K} dx, at most e^{Re(alpha) B^2} |t_(K-1)|:
    the returned bound.
    """
    alpha = _require_complex("alpha", alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if alpha.real > 0.0:
        raise ValueError("Re(alpha) must be <= 0")
    shape = np.shape(B)
    B = np.ravel(np.asarray(B, dtype=float))  # one arithmetic path for any shape
    if not np.all((B > 0.0) & (B < math.inf)):  # NaN fails too
        raise ValueError("B must be positive and finite")
    ratio = 1.0 / (2.0 * alpha * B[:, None] ** 2)
    term = -1.0 / (2.0 * alpha * B)  # t_0
    odd = 2.0 * np.arange(1, _TAIL_MAX_TERMS) - 1.0  # t_k = t_(k-1) (2k-1) ratio
    # |t_k / t_(k-1)| grows with k, so the kept terms t_1.. are a prefix; past
    # it the factor 1 freezes the running product at the last kept term
    keep = odd * np.abs(ratio) < 1.0
    terms = term[:, None] * np.cumprod(np.where(keep, odd * ratio, 1.0), axis=-1)
    value = np.exp(alpha * B * B) * (term + np.sum(terms, axis=-1, where=keep))
    bound = np.abs(terms[:, -1]) * np.exp(alpha.real * B * B)
    return value.reshape(shape)[()], bound.reshape(shape)[()]


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
    IntegrandError).  beta, tol > 0 and the window is finite.  Cells are
    refined globally (doubling) until two successive levels agree within
    tol.  Returns (value, error_estimate).
    """
    beta = _require_positive("beta", beta)
    center = _require_finite("center", center)
    lo, hi = (_require_finite("window", x) for x in window)
    if not lo < hi:
        raise ValueError("window must have lo < hi")
    tol = _require_positive("tol", tol)
    max_levels = _require_count("max_levels", max_levels, 1)
    ncell = _CHIRP_MIN_CELLS
    # the near/far moment split must not hide inside coarse cells: if the
    # near zone intersects the window, start fine enough that level
    # doubling actually refines it (otherwise early levels can share one
    # effective rule and agree without measuring anything)
    nh = math.sqrt(_NEAR_LIMIT / beta)
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
        f"chirp integral did not stabilize to {tol}, stopped at max_levels "
        f"({max_levels} levels)",
        cap="max_levels",
    )
