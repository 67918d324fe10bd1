"""Oracle checks for the chirp quadrature primitives.

The incomplete Fresnel evaluator is validated against mpmath (oracle route:
mpmath.fresnels/fresnelc with the u = t sqrt(pi) substitution, i.e.
F(u) = sqrt(pi) (C(u/sqrt(pi)) + i S(u/sqrt(pi)))), and the Filon weights
against direct high-node oscillatory quadrature.
"""

import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import erfcx as scipy_erfcx

from gaugeint.errors import IntegrandError, NoConvergenceError
from gaugeint.oscquad import (
    FRESNEL_LIMIT,
    adaptive_chirp_integral,
    chirp_filon_weights,
    damped_chirp_filon_weights,
    fresnel_integral,
    fresnel_tail,
    gauss_tail,
    phase_exp,
)
from gaugeint.oscquad import (
    _FILON_VINV,
    _FILON_XI,
    _DAMPED_NEAR_PHASE,
    _NEAR_LIMIT,
    _damped_cell_weights,
    _erfc_tail,
    _moments_far,
    _split_far_edges,
    _tail_moments,
    _taylor_tail,
)
from gaugeint.propagator import _lattice_step


def oracle_F(u: float) -> complex:
    with mpmath.workdps(30):  # the argument is squared: 15 digits miss 1e-14
        r = mpmath.sqrt(mpmath.pi)
        return complex(r * (mpmath.fresnelc(u / r) + 1j * mpmath.fresnels(u / r)))


def test_fresnel_limit_value():
    # F(inf) = sqrt(pi)/2 (1+i); the full line doubles it to sqrt(pi)(1+i)
    assert abs(FRESNEL_LIMIT - 0.5 * math.sqrt(math.pi) * (1 + 1j)) == 0.0
    assert abs(2 * FRESNEL_LIMIT - (1.7724538509055159 + 1.7724538509055159j)) < 1e-15


@pytest.mark.parametrize(
    "u",
    [0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 4.5, 5.9, 5.999999999, 6.0, 6.000000001,
     6.1, 7.0, 10.0, 30.0, 100.0, 1000.0, 1e10, 1e15],
)
def test_fresnel_integral_against_mpmath(u):
    got = complex(fresnel_integral(u))
    want = oracle_F(u)
    assert abs(got - want) < 1e-14, (u, got, want)
    # odd symmetry
    assert abs(complex(fresnel_integral(-u)) + want) < 1e-14


def test_fresnel_integral_dense_grid_against_mpmath():
    # one code path on the whole line
    us = np.linspace(0.0, 50.0, 1001)
    got = fresnel_integral(us)
    err = max(abs(complex(g) - oracle_F(float(u))) for g, u in zip(got, us))
    assert err < 1e-14, err
    assert np.array_equal(fresnel_integral(-us), -got)


def test_fresnel_vectorized_matches_scalar():
    us = np.array([-8.0, -2.0, 0.0, 1.5, 6.5, 20.0])
    vec = fresnel_integral(us)
    for i, u in enumerate(us):
        assert vec[i] == complex(fresnel_integral(float(u)))


def oracle_gauss_tail(alpha, B) -> complex:
    """Int_B^inf e^{alpha x^2} dx = sqrt(pi)/(2 s) erfc(s B), s = sqrt(-alpha)."""
    mpmath.mp.dps = 30
    s = mpmath.sqrt(-mpmath.mpc(alpha))
    return complex(mpmath.sqrt(mpmath.pi) / (2 * s) * mpmath.erfc(s * B))


def test_fresnel_tail_consistency():
    # far out, F(inf) - F agrees with the by-parts tail at alpha = i/2
    for u in (8.0, 15.0, 50.0):
        t = complex(gauss_tail(0.5j, u)[0])
        assert abs(t - oracle_gauss_tail(0.5j, u)) < 1e-14
        assert abs(t - (FRESNEL_LIMIT - complex(fresnel_integral(u)))) < 1e-14
        assert fresnel_tail(u) == t
    with pytest.raises(ValueError, match="FRESNEL_SWITCH"):
        fresnel_tail(np.array([8.0, 5.0]))


def test_erfc_tail_seeded_sweep_against_mpmath():
    # Re alpha = 0 (either sign of Im alpha) and Re alpha < 0, x of either
    # sign out to |x| = 200.  The error is measured in erfc units, i.e.
    # divided by |sqrt(pi) / (2 s)|; it grows with |s x|^2 through the
    # rounding of the phase.  Measured on these points: 2.2e-14, and 6.1e-14
    # for scipy's erfc
    mpmath.mp.dps = 30
    rng = np.random.default_rng(2024)
    n = 400
    alphas = 10.0 ** rng.uniform(-2, 1, n) * np.exp(
        1j * rng.uniform(0.5 * math.pi, 1.5 * math.pi, n))
    alphas[: n // 2] = 1j * alphas[: n // 2].imag
    far = rng.random(n) < 0.5
    xs = np.where(far, rng.uniform(0.0, 200.0, n), 10.0 ** rng.uniform(-3, 1, n))
    xs *= rng.choice([-1.0, 1.0], n)
    worst = 0.0
    for alpha, x in zip(alphas, xs):
        s = mpmath.sqrt(-mpmath.mpc(alpha))
        scale = mpmath.sqrt(mpmath.pi) / (2 * s)
        want = complex(scale * mpmath.erfc(s * x))
        got = complex(_erfc_tail(complex(alpha), float(x)))
        worst = max(worst, abs(got - want) / abs(complex(scale)))
    assert worst < 3e-14, worst


@functools.cache
def _rotated_contour(alpha, x, k):
    """M_k = Int_x^inf (w - x)^k e^{alpha w^2} dw along w = x + t e^{i pi/4}:
    there each tail decays like e^{-Im(alpha) t^2}, so mpmath integrates even
    the Abel limits at Re(alpha) = 0 absolutely."""
    mpmath.mp.dps = 30
    rot = mpmath.exp(0.25j * mpmath.pi)
    return rot ** (k + 1) * mpmath.quad(
        lambda t: t**k * mpmath.exp(alpha * (x + t * rot) ** 2), [0, mpmath.inf])


def _full_line(alpha, x, k):
    """Int (w - x)^k e^{alpha w^2} dw over the line, binomially from the
    even moments Gamma((j + 1) / 2) / s^(j + 1), s = sqrt(-alpha)."""
    s = mpmath.sqrt(-mpmath.mpc(alpha))
    return sum(mpmath.binomial(k, j) * (-x) ** (k - j) * mpmath.gamma((j + 1) / 2)
               / s ** (j + 1) for j in range(0, k + 1, 2))


TAIL_ALPHAS = [complex(-0.4, 0.7), 0.5j, 1j / 3.0]
TAIL_CUTS = [0.0, 1.5, 8.0]


@pytest.mark.parametrize("alpha", TAIL_ALPHAS)
@pytest.mark.parametrize("x", TAIL_CUTS)
def test_tail_moments_against_a_rotated_contour(alpha, x):
    got = _tail_moments(alpha, x, 3)
    for k in range(4):
        want = complex(_rotated_contour(alpha, x, k))
        # the forward recurrence cancels terms of size x^k |M_0|
        slack = 1e-10 * abs(want) + 1e-13 * (1.0 + x) ** k * abs(got[0])
        assert abs(got[k] - want) <= slack, (k, got[k], want)


@pytest.mark.parametrize("order, points", [(1, 3), (3, 6)])
@pytest.mark.parametrize("alpha", TAIL_ALPHAS)
@pytest.mark.parametrize("x", TAIL_CUTS)
def test_taylor_tail_is_exact_on_its_polynomials(alpha, x, order, points):
    # f(w) = (w - x)^k, k <= order, is its own Taylor polynomial at x, so
    # its samples f(x - j h) against the weights give M_k, and the weights at
    # -x on f(x + j h) the left tail Int_-inf^x, the line less M_k
    mpmath.mp.dps = 30
    h = 2.0**-6
    jh = h * np.arange(points)
    right, left = _taylor_tail(alpha, np.array([x, -x]), h, order, points)
    assert right.shape == left.shape == (points,)
    for k in range(order + 1):
        m_k = _rotated_contour(alpha, x, k)
        wants = (complex(m_k), complex(_full_line(alpha, x, k) - m_k))
        for weights, samples, want in zip((right, left), ((-jh) ** k, jh**k), wants):
            got = weights @ samples
            # the recurrence's cancellation, as above, and the stencil's
            # rounding on samples of size (jh)^k, scaled by h^-k
            slack = 1e-10 * abs(want) + 1e-13 * (1.0 + x) ** k * abs(weights[0])
            assert abs(got - want) <= slack, (k, got, want)


@pytest.mark.parametrize("dt, radius, h", [
    (0.5, 8.0, 2.0**-6), (0.25, 12.0, 1.0 / 6.0), (1.3, 27.0, 27.0 / 96.0)])
def test_taylor_tail_pins_the_cubic_cylinder_tail(dt, radius, h):
    # the six-point cubic tail written out: M_k / h^k against rows 0..3 of
    # the inverse Vandermonde on the nodes 0, -1, ..., -5
    stencil = np.linalg.inv(np.vander(-np.arange(6.0), 6, increasing=True))[:4]
    want = (_tail_moments(0.5j / dt, radius, 3) / h ** np.arange(4)) @ stencil
    assert np.array_equal(_taylor_tail(0.5j / dt, radius, h, 3, 6), want)


def test_fresnel_integral_keeps_nan():
    assert cmath.isnan(fresnel_integral(math.nan))
    out = fresnel_integral(np.array([1.0, math.nan, -7.0]))
    assert cmath.isnan(out[1])
    assert out[0] == fresnel_integral(1.0) and out[2] == fresnel_integral(-7.0)


def test_fresnel_integral_at_infinity_is_the_limit():
    assert fresnel_integral(math.inf) == FRESNEL_LIMIT
    assert fresnel_integral(-math.inf) == -FRESNEL_LIMIT
    out = fresnel_integral(np.array([-math.inf, 1.0, math.inf]))
    assert out[0] == -FRESNEL_LIMIT and out[2] == FRESNEL_LIMIT
    assert out[1] == fresnel_integral(1.0)


def oracle_chirp(g, beta, center, lo, hi):
    """High-precision oscillatory quadrature via mpmath with subintervals."""
    f = lambda x: g(float(x)) * mpmath.e ** (1j * beta * (x - center) ** 2)
    # split so each piece holds few oscillations
    span = hi - lo
    n = max(8, int(span * math.sqrt(beta) * 2))
    pts = [lo + span * k / n for k in range(n + 1)]
    return complex(mpmath.quad(f, pts))


@pytest.mark.parametrize(
    "beta,center,lo,hi",
    [
        (0.5, 0.0, -3.0, 4.0),
        (2.0, 1.0, -2.0, 5.0),
        (1.0, -20.0, -6.0, 6.0),  # far from stationary point: plane-wave cells
    ],
)
def test_filon_weights_polynomial_and_smooth(beta, center, lo, hi):
    edges = np.linspace(lo, hi, 33)
    nodes, wts = chirp_filon_weights(beta, center, edges)

    # cubic g integrates essentially exactly
    g = lambda x: 0.3 - 0.2 * x + 0.05 * x**2 + 0.01 * x**3
    got = np.dot(wts, g(nodes))
    want = oracle_chirp(g, beta, center, lo, hi)
    assert abs(got - want) < 2e-8

    # smooth non-polynomial g
    g2 = lambda x: np.exp(-0.1 * np.asarray(x) ** 2)
    got2 = np.dot(wts, g2(nodes))
    want2 = oracle_chirp(lambda x: math.exp(-0.1 * x * x), beta, center, lo, hi)
    assert abs(got2 - want2) < 5e-6  # 33 cells, cubic error only from g


def test_filon_telescoping_constant():
    # g = 1 telescopes to pure F differences: machine-accurate
    beta, center = 0.7, 0.3
    edges = np.linspace(-5.0, 5.0, 11)
    nodes, wts = chirp_filon_weights(beta, center, edges)
    got = np.dot(wts, np.ones_like(nodes))
    s = math.sqrt(2 * beta)
    want = (
        complex(fresnel_integral((5.0 - center) * s))
        - complex(fresnel_integral((-5.0 - center) * s))
    ) / s
    assert abs(got - want) < 1e-13


def test_filon_far_window_stability():
    # window entirely in the far zone; moments must stay stable
    beta = 1.0
    edges = np.linspace(40.0, 60.0, 41)
    nodes, wts = chirp_filon_weights(beta, 0.0, edges)
    g = lambda x: np.ones_like(x)
    got = np.dot(wts, g(nodes))
    s = math.sqrt(2.0)
    want = (
        complex(fresnel_integral(60.0 * s)) - complex(fresnel_integral(40.0 * s))
    ) / s
    assert abs(got - want) < 1e-10


def chirp_tail_constant(beta: float, center: float, edge: float, side: int):
    """Int of e^{i beta (x-c)^2} from edge to +inf (side=+1) or -inf (side=-1).

    Used for constant continuation of g beyond a finite window: multiply by
    the edge value of g.
    """
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    s = math.sqrt(2.0 * beta)
    u = (edge - center) * s
    if side > 0:
        val = FRESNEL_LIMIT - fresnel_integral(u)
    else:
        val = FRESNEL_LIMIT + fresnel_integral(u)  # F(-inf..u) = F_inf + F(u)
    return val / s


def test_chirp_tail_constant_full_line():
    # window + two constant tails of g=1 reassemble the full-line value
    beta, center = 0.5, 0.0
    edges = np.linspace(-8.0, 8.0, 17)
    nodes, wts = chirp_filon_weights(beta, center, edges)
    total = np.dot(wts, np.ones_like(nodes))
    total += chirp_tail_constant(beta, center, 8.0, +1)
    total += chirp_tail_constant(beta, center, -8.0, -1)
    want = 2 * FRESNEL_LIMIT / math.sqrt(2 * beta)  # Int e^{i beta x^2} dx
    assert abs(total - want) < 1e-9


def test_gauss_tail_oscillatory():
    # alpha = i/2: tail of the unit Fresnel chirp
    val, bound = gauss_tail(0.5j, 9.0)
    want = complex(FRESNEL_LIMIT) - oracle_F(9.0)
    assert abs(val - want) < 1e-12 + bound
    assert bound < 1e-14


def test_gauss_tail_damped():
    # alpha = -1: Int_B^inf e^{-x^2} = sqrt(pi)/2 erfc(B)
    val, bound = gauss_tail(-1.0, 2.0)
    want = complex(mpmath.sqrt(mpmath.pi) / 2 * mpmath.erfc(2.0))
    assert abs(val - want) <= bound * 1.01 + 1e-16
    assert bound < 1e-3  # by-parts at B=2 is coarse but bounded


def test_gauss_tail_rejects_growth():
    with pytest.raises(ValueError):
        gauss_tail(1.0, 2.0)
    with pytest.raises(ValueError):
        gauss_tail(0.0, 2.0)
    # a real part this small still grows: the tail diverges
    with pytest.raises(ValueError, match="Re"):
        gauss_tail(1e-16 + 1j, 5.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_gauss_tail_rejects_arrays_with_bad_cuts(bad):
    with pytest.raises(ValueError, match="B must be positive"):
        gauss_tail(0.5j, np.array([1.0, bad, 9.0]))
    with pytest.raises(ValueError, match="B must be positive"):
        gauss_tail(0.5j, bad)


@pytest.mark.parametrize(
    "alpha, B",
    [
        (complex(math.nan, 1.0), 2.0),
        (complex(-math.inf, 1.0), 2.0),
        (0.5j, math.inf),
        (0.5j, np.array([1.0, math.inf])),
    ],
)
def test_gauss_tail_checks_its_numbers(alpha, B):
    with pytest.raises(ValueError):
        gauss_tail(alpha, B)


CUTS = np.array([0.5, 0.9, 1.7, 3.0, 6.0, 7.5, 9.0, 12.0, 20.0, 33.0, 50.0])


@pytest.mark.parametrize("alpha", [0.5j, complex(-0.1, 0.6), 0.005j])
def test_gauss_tail_vectorized_matches_scalar(alpha):
    values, bounds = gauss_tail(alpha, CUTS)
    assert values.shape == bounds.shape == CUTS.shape
    grid = gauss_tail(alpha, CUTS[:10].reshape(2, 5))
    assert np.array_equal(grid[0], values[:10].reshape(2, 5))
    for i, B in enumerate(CUTS):
        value, bound = gauss_tail(alpha, float(B))
        assert np.ndim(value) == np.ndim(bound) == 0
        assert values[i] == value and bounds[i] == bound


@pytest.mark.parametrize("alpha", [0.5j, complex(-0.1, 0.6), 0.005j])
def test_gauss_tail_bound_dominates_error(alpha):
    values, bounds = gauss_tail(alpha, CUTS)
    for B, value, bound in zip(CUTS, values, bounds):
        err = abs(value - oracle_gauss_tail(alpha, float(B)))
        # the bound is rigorous; on top of it comes the round-off of the
        # phase alpha B^2 in exp(alpha B^2) and of the kept sum
        roundoff = 4 * 2.0**-52 * (1.0 + abs(alpha) * B * B) * abs(value)
        assert err <= bound + roundoff, (B, err, bound)


def test_adaptive_chirp_integral_converges():
    beta, center = 0.5, 0.0
    g = lambda x: np.exp(-0.5 * np.asarray(x) ** 2)
    val, err = adaptive_chirp_integral(g, beta, center, (-10.0, 10.0), 1e-10)
    want = oracle_chirp(lambda x: math.exp(-0.5 * x * x), beta, center, -10.0, 10.0)
    assert abs(val - want) < 5e-9
    assert err < 1e-9


def test_adaptive_chirp_integral_rejects_bad_envelopes():
    with pytest.raises(IntegrandError, match="non-finite"):
        adaptive_chirp_integral(
            lambda x: np.full(np.shape(x), np.nan), 0.5, 0.0, (-1.0, 1.0), 1e-8
        )

    def raising(x):
        return 1.0 / 0.0

    with pytest.raises(IntegrandError) as info:
        adaptive_chirp_integral(raising, 0.5, 0.0, (-1.0, 1.0), 1e-8)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


@pytest.mark.parametrize(
    "envelope, array_form",
    [
        (lambda x: 1.0, np.ones_like),
        (lambda x: math.exp(-x * x), lambda x: np.exp(-x * x)),  # scalar-only
    ],
    ids=["constant", "scalar_only"],
)
def test_adaptive_chirp_integral_takes_scalar_envelopes(envelope, array_form):
    # each once escaped as a bare TypeError or an IntegrandError
    got, _ = adaptive_chirp_integral(envelope, 0.5, 0.0, (-1.0, 1.0), 1e-6)
    want, _ = adaptive_chirp_integral(array_form, 0.5, 0.0, (-1.0, 1.0), 1e-6)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_adaptive_chirp_integral_names_its_level_cap():
    g = lambda x: np.sign(np.asarray(x) - 0.3)  # a jump: first order at best
    with pytest.raises(NoConvergenceError, match="max_levels") as info:
        adaptive_chirp_integral(g, 0.5, 0.0, (-1.0, 1.0), 1e-12, max_levels=3)
    assert info.value.cap == "max_levels"


@pytest.mark.parametrize(
    "change",
    [
        {"tol": 0.0},
        {"tol": -1e-8},
        {"tol": math.nan},
        {"beta": "0.5"},
        {"beta": math.inf},
        {"center": math.nan},
        {"window": (0.0, math.inf)},
        {"max_levels": 0},
        {"max_levels": 2.5},
    ],
)
def test_adaptive_chirp_integral_checks_its_numbers(change):
    args = {"beta": 0.5, "center": 0.0, "window": (-1.0, 1.0), "tol": 1e-8}
    g = lambda x: np.exp(-np.square(np.asarray(x)))
    with pytest.raises(ValueError):
        adaptive_chirp_integral(g, **{**args, "max_levels": 12, **change})


def test_phase_exp():
    u = np.array([0.0, 1.0, -3.0])
    np.testing.assert_allclose(phase_exp(u), np.exp(0.5j * u * u), rtol=0, atol=0)


# ---------------------------------------------------------------------------
# damped chirp quadrature: kernel e^{alpha (x-c)^2} with Re(alpha) <= 0
# ---------------------------------------------------------------------------


def oracle_damped(g, alpha, center, a, b, pieces=200):
    """mpmath complex quadrature with the interval subdivided so each
    piece holds a bounded amount of phase."""
    mpmath.mp.dps = 30
    pts = [a + (b - a) * k / pieces for k in range(pieces + 1)]

    def f(x):
        w = x - center
        return g(float(x)) * mpmath.exp(alpha * w * w)

    return complex(mpmath.quad(f, pts))


def test_damped_weights_constant_is_exact():
    # sum of weights must equal the closed-form kernel integral
    mpmath.mp.dps = 30
    for alpha in [complex(-0.05, 2.5), complex(-1.0, 0.0), complex(-0.3, 0.7)]:
        a, b, center = -4.0, 9.0, 0.5
        nodes, w = damped_chirp_filon_weights(alpha, center, np.linspace(a, b, 41))
        got = complex(np.sum(w))
        s = complex(mpmath.sqrt(-mpmath.mpc(alpha)))
        want = complex(
            mpmath.sqrt(mpmath.pi)
            / (2 * s)
            * (mpmath.erfc(s * (a - center)) - mpmath.erfc(s * (b - center)))
        )
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_damped_weights_smooth_envelope():
    alpha = complex(-0.1, 2.5)
    center = 0.0
    a, b = -20.0, 20.0
    g = lambda x: math.exp(-((x / 7.0) ** 2)) * (1.0 + 0.3 * math.sin(x))
    want = oracle_damped(g, alpha, center, a, b, pieces=400)
    nodes, w = damped_chirp_filon_weights(alpha, center, np.linspace(a, b, 241))
    gv = np.array([g(float(x)) for x in nodes])
    got = complex(np.sum(w * gv))
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_damped_weights_wide_far_cells():
    # far from center the kernel damps; wide graded cells must stay
    # accurate because the quadratic kernel is exact in the moments
    alpha = complex(-0.1, 2.5)
    center = 0.0
    edges = np.concatenate([np.linspace(5.0, 9.0, 17), np.geomspace(9.0, 40.0, 24)[1:]])
    g = lambda x: 1.0 / (1.0 + 0.01 * x * x)
    want = oracle_damped(g, alpha, center, 5.0, 40.0, pieces=600)
    nodes, w = damped_chirp_filon_weights(alpha, center, edges)
    gv = np.array([g(float(x)) for x in nodes])
    got = complex(np.sum(w * gv))
    assert abs(got - want) < 1e-9


def test_damped_weights_matches_pure_chirp_core():
    # at Re(alpha) = 0 the damped rule must agree with the pure-chirp rule
    beta = 0.5
    alpha = complex(0.0, beta)
    g = lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)
    want, _ = adaptive_chirp_integral(g, beta, 0.0, (-10.0, 10.0), 1e-12)
    nodes, w = damped_chirp_filon_weights(alpha, 0.0, np.linspace(-10.0, 10.0, 641))
    got = complex(np.sum(w * g(nodes)))
    assert abs(got - want) < 1e-9


def test_damped_weights_refinement_telescopes():
    # splitting cells must leave the constant-envelope total unchanged
    alpha = complex(-0.2, 1.7)
    e1 = np.linspace(-6.0, 6.0, 13)
    e2 = np.linspace(-6.0, 6.0, 97)
    _, w1 = damped_chirp_filon_weights(alpha, 0.3, e1)
    _, w2 = damped_chirp_filon_weights(alpha, 0.3, e2)
    assert abs(complex(np.sum(w1)) - complex(np.sum(w2))) < 1e-13


def _near_cell_sweep(seed, count):
    """(alpha, a, b) near cells, |alpha| max(a^2, b^2) <= _DAMPED_NEAR_PHASE:
    Re alpha = 0 and < 0, cells across 0, cells at the near/far boundary
    and the widest near cell [-r, r], r = sqrt(_DAMPED_NEAR_PHASE / |alpha|)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        arg = math.pi / 2 if i % 2 else rng.uniform(math.pi / 2, math.pi)
        alpha = 10.0 ** rng.uniform(-1.0, 2.0) * cmath.exp(1j * arg)
        r = math.sqrt(_DAMPED_NEAR_PHASE / abs(alpha))
        while abs(alpha) * r * r > _DAMPED_NEAR_PHASE:
            r = math.nextafter(r, 0.0)
        kind = i % 3
        if kind == 0:  # across 0
            a, b = -r * rng.uniform(0.05, 1.0), r * rng.uniform(0.05, 1.0)
        elif kind == 1:  # one edge on the boundary
            b = r
            a = b - 2.0 * r * rng.uniform(0.01, 1.0)
            a, b = (-b, -a) if rng.random() < 0.5 else (a, b)
        else:
            a, b = -r, r
        yield alpha, a, b


@pytest.mark.parametrize("alpha, a, b", list(_near_cell_sweep(24, 36)))
def test_near_cell_moments_against_mpmath(alpha, a, b):
    # centred moments mu_k = Int_-hw^hw t^k e^{alpha (um + t)^2} dt, read
    # back from the cell weights through the Vandermonde of the nodes
    cellw = _damped_cell_weights(alpha, np.array([a, b]))[:, 0]
    um, hw = 0.5 * (a + b), 0.5 * (b - a)
    got = hw ** np.arange(4) * (np.vander(_FILON_XI, 4, increasing=True).T @ cellw)
    with mpmath.workdps(30):
        al, mid, half = mpmath.mpc(alpha), mpmath.mpf(um), mpmath.mpf(hw)
        want = [
            complex(mpmath.quad(lambda t: t**k * mpmath.exp(al * (mid + t) ** 2),
                                mpmath.linspace(-half, half, 9)))
            for k in range(4)
        ]
    # units of hw^(k+1) max|e^{alpha w^2}|; the largest modulus is at the
    # w of the cell nearest 0
    w0 = 0.0 if a < 0.0 < b else min(abs(a), abs(b))
    scale = hw ** np.arange(1, 5) * math.exp(alpha.real * w0 * w0)
    err = np.max(np.abs(got - np.array(want)) / scale)
    assert err <= 1e-14, err


def test_damped_weights_validation():
    with pytest.raises(ValueError):
        damped_chirp_filon_weights(complex(0.1, 1.0), 0.0, [0.0, 1.0])
    with pytest.raises(ValueError):
        damped_chirp_filon_weights(0j, 0.0, [0.0, 1.0])
    with pytest.raises(ValueError):
        damped_chirp_filon_weights(1j, 0.0, [1.0, 0.0])


EDGES = np.linspace(-2.0, 2.0, 9)


@pytest.mark.parametrize(
    "alpha, center, edges",
    [
        (complex(math.nan, 1.0), 0.0, EDGES),
        (complex(-math.inf, 1.0), 0.0, EDGES),
        ("-0.1+1j", 0.0, EDGES),
        (complex(-0.1, 1.0), math.nan, EDGES),
        (complex(-0.1, 1.0), 0.0, [0.0, 1.0, math.inf]),
        (complex(-0.1, 1.0), 0.0, [-math.inf, 0.0, 1.0]),
    ],
)
def test_damped_weights_check_their_numbers(alpha, center, edges):
    with pytest.raises(ValueError):
        damped_chirp_filon_weights(alpha, center, edges)


@pytest.mark.parametrize(
    "beta, center, edges",
    [
        (math.inf, 0.0, EDGES),
        ("1", 0.0, EDGES),
        (1.0, math.nan, EDGES),
        (1.0, math.inf, EDGES),
        (1.0, 0.0, [0.0, 1.0, math.inf]),
    ],
)
def test_chirp_weights_check_their_numbers(beta, center, edges):
    with pytest.raises(ValueError):
        chirp_filon_weights(beta, center, edges)


# ---------------------------------------------------------------------------
# the shared moment -> weight fold against the per-function construction it
# replaced: binomial shift, einsum through the inverse Vandermonde, and
# np.add.at onto the shared edge nodes, written out once per weight function


def _reference_scatter(cellw):
    """Per-cell node weights (4, ..., ncell) added onto shared edge nodes."""
    ncell = cellw.shape[-1]
    weights = np.zeros(cellw.shape[1:-1] + (3 * ncell + 1,), dtype=complex)
    idx = np.arange(ncell) * 3
    for j in range(4):
        np.add.at(weights, (Ellipsis, idx + j), cellw[j])
    return weights


@np.vectorize
def _mpmath_erfcx(z):
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        return complex(mpmath.exp(z * z) * mpmath.erfc(z))


def _reference_tail(alpha, x, erfcx=scipy_erfcx):
    """Int_x^inf e^{alpha w^2} dw = sqrt(pi)/(2 s) erfc(s x), s = sqrt(-alpha).

    erfc(s |x|) = e^{alpha x^2} erfcx(s |x|), reflected as 2 - erfc for
    x < 0.  scipy's erfc itself squares s x and is ~2e-15 off at |s x|
    ~ 10; its erfcx is up to 1e-14 off (relative) there, against 7e-16 for
    the package's, so a reference for single far-cell weights, which the
    binomial shift amplifies by (|u_m| / hw)^3 ~ 1e7, takes mpmath's.
    """
    s = np.sqrt(-alpha)
    x = np.asarray(x, dtype=float)
    e = np.exp(alpha * (x * x)) * erfcx(s * np.abs(x))
    return math.sqrt(math.pi) / (2.0 * s) * np.where(x < 0.0, 2.0 - e, e)


def _reference_raw(alpha, wa, wb, erfcx=scipy_erfcx):
    """Raw moments Int_wa^wb w^k e^{alpha w^2} dw, k = 0..3, per cell:
    m_0 from _reference_tail at both edges of every cell, the rest by
    parts (the kernel under test shares one erfc per point)."""
    inv = 1.0 / (2.0 * alpha)
    ea, eb = np.exp(alpha * wa * wa), np.exp(alpha * wb * wb)
    m0 = _reference_tail(alpha, wa, erfcx) - _reference_tail(alpha, wb, erfcx)
    m1 = inv * (eb - ea)
    m2 = inv * (wb * eb - wa * ea - m0)
    m3 = inv * (wb * wb * eb - wa * wa * ea - 2.0 * m1)
    return np.stack([m0, m1, m2, m3])


def _reference_bridge_rows(alpha, centers, edges):
    cs = centers[:, None]
    wa = edges[None, :-1] - cs
    wb = edges[None, 1:] - cs
    um = 0.5 * (wa + wb)
    hw = 0.5 * (wb - wa)
    raw = _reference_raw(alpha, wa, wb)
    mu = np.stack([
        raw[0],
        raw[1] - um * raw[0],
        raw[2] - 2.0 * um * raw[1] + um * um * raw[0],
        raw[3] - 3.0 * um * raw[2] + 3.0 * um**2 * raw[1] - um**3 * raw[0],
    ])
    mu = np.stack([mu[0], mu[1] / hw, mu[2] / (hw * hw), mu[3] / hw**3])
    rows = _reference_scatter(np.einsum("kqc,kj->jqc", mu, _FILON_VINV))
    # linear continuation past each edge, one centre at a time: the
    # envelope g(e) + g'(e) (w - e) with g' the one-sided 3-point slope
    h = (edges[-1] - edges[0]) / (3 * (edges.size - 1))
    for q, c in enumerate(centers):
        lo, hi = edges[0] - c, edges[-1] - c
        t_lo = _reference_tail(alpha, -lo)  # Int_-inf^lo e^{alpha w^2} dw
        t_hi = _reference_tail(alpha, hi)  # Int_hi^inf e^{alpha w^2} dw
        # Int_-inf^lo (w - lo) e^{alpha w^2} dw and its right-hand mirror
        m_lo = cmath.exp(alpha * lo * lo) / (2 * alpha) - lo * t_lo
        m_hi = -cmath.exp(alpha * hi * hi) / (2 * alpha) - hi * t_hi
        rows[q, :3] += t_lo * np.array([1, 0, 0]) + m_lo * np.array([-3, 4, -1]) / (2 * h)
        rows[q, -3:] += t_hi * np.array([0, 0, 1]) + m_hi * np.array([1, -4, 3]) / (2 * h)
    return rows


def _reference_damped(alpha, center, edges):
    """(nodes, weights, shift round-off bound) as damped_chirp_filon_weights
    built them before the fold was shared, from mpmath's erfcx by parts."""
    wa = edges[:-1] - center
    wb = edges[1:] - center
    um = 0.5 * (wa + wb)
    hw = 0.5 * (wb - wa)
    raw = _reference_raw(alpha, wa, wb, _mpmath_erfcx)
    mu = np.stack([
        raw[0],
        raw[1] - um * raw[0],
        raw[2] - 2.0 * um * raw[1] + um * um * raw[0],
        raw[3] - 3.0 * um * raw[2] + 3.0 * um * um * raw[1] - um**3 * raw[0],
    ])
    nodes = center + um[None, :] + hw[None, :] * _FILON_XI[:, None]
    flat = np.append(nodes[:3].T.ravel(), nodes[3, -1])
    hwp = np.stack([np.ones_like(hw), hw, hw * hw, hw**3])
    cellw = np.einsum("kc,kj->jc", mu / hwp, _FILON_VINV)
    return flat, _reference_scatter(cellw), _shift_bound(um, hw)


def _reference_chirp(beta, center, edges):
    """(nodes, weights, shift round-off bound) as chirp_filon_weights built
    them before the fold was shared."""
    s = math.sqrt(2.0 * beta)
    ue = _split_far_edges((edges - center) * s)
    ua, ub = ue[:-1], ue[1:]
    um = 0.5 * (ua + ub)
    hw = 0.5 * (ub - ua)
    mu = np.empty((4, ua.size), dtype=complex)
    near = np.abs(um) <= _NEAR_LIMIT
    a, b, m = ua[near], ub[near], um[near]
    Fa, Fb = fresnel_integral(a), fresnel_integral(b)
    Ea, Eb = phase_exp(a), phase_exp(b)
    m0 = Fb - Fa
    m1 = -1j * (Eb - Ea)
    m2 = -1j * (b * Eb - a * Ea) + 1j * m0
    m3 = -1j * (b * b * Eb - a * a * Ea) + 2.0 * (Eb - Ea)
    mu[:, near] = np.stack([
        m0,
        m1 - m * m0,
        m2 - 2.0 * m * m1 + m * m * m0,
        m3 - 3.0 * m * m2 + 3.0 * m * m * m1 - m**3 * m0,
    ])
    mu[:, ~near] = _moments_far(ua[~near], ub[~near])
    nodes = center + (um[None, :] + hw[None, :] * _FILON_XI[:, None]) / s
    flat = np.append(nodes[:3].T.ravel(), nodes[3, -1])
    hwp = np.stack([np.ones_like(hw), hw, hw * hw, hw**3])
    cellw = np.einsum("kc,kj->jc", mu / hwp, _FILON_VINV) / s
    return flat, _reference_scatter(cellw), _shift_bound(um, hw, 1.0 / s)


def _shift_bound(um, hw, scale=1.0):
    """Largest weight change from re-associating 3 um^2 raw_1 in mu_3.

    |K| <= 1, so |raw_1| <= (|um| + hw) 2 hw.  The product and the partial
    sum it feeds each round once (2 ulps of 3 um^2 |raw_1|); mu_3 / hw^3
    enters a node weight with a cubic Lagrange coefficient of at most
    27/16, and an edge node sums two cells.  scale maps cell widths to x.
    """
    per_cell = (np.abs(um) + hw) ** 3 / hw**2 * 2.0
    return 2 * 3 * (27 / 16) * 2 * 2.0**-52 * float(np.max(per_cell)) * scale


def _assert_within(got, want, bound):
    dev = float(np.max(np.abs(got - want)))
    assert dev <= bound, (dev, bound)


# The lattice bridge step contracts cell weights read off the offset lattice
# with the envelope; the per-centre rows above, applied to the same
# envelope, are its oracle.  Single weights are not compared: the binomial
# shift of far cells (|u_m| / hw ~ 500) leaves round-off up to ~1e-5 max|w|
# in both constructions, which the contraction with a smooth envelope
# averages out.


def _sliced_geometry(j, xi_prime, c, ncell=255, extent=16.0, dt=0.125, eps=1e-3):
    edges = np.linspace(c - extent, c + extent, ncell + 1)
    nodes = np.linspace(c - extent, c + extent, 3 * ncell + 1)
    alpha = complex(-eps, 0.5 * (1.0 / dt + 1.0 / (j * dt)))
    centers = (j * nodes + xi_prime) / (j + 1)
    return alpha, edges, nodes, centers


@pytest.mark.parametrize("j", [1, 2, 3, 8])
def test_lattice_bridge_rows_match_per_centre_oracle(j):
    dt, omega = 0.125, 0.7
    alpha, edges, nodes, centers = _sliced_geometry(j, 0.37, -0.41, dt=dt)
    h = (edges[-1] - edges[0]) / (nodes.size - 1)
    rows = _reference_bridge_rows(alpha, centers, edges)
    for g in (
        np.ones(nodes.size, dtype=complex),
        np.exp(-0.02 * np.square(nodes - 1.0)) * (1.0 + 0.3j * np.sin(nodes)),
        np.exp(-0.5j * omega**2 * np.square(nodes) * dt),
    ):
        got = _lattice_step(alpha, j, 0.37, edges, h, g)
        want = rows @ g
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("j", [1, 2, 8])
def test_lattice_bridge_step_moment_count(j, monkeypatch):
    import gaugeint.oscquad as oscquad

    counted = []
    erfc_tail = oscquad._erfc_tail

    def counting(alpha, x):
        counted.append(np.size(x))
        return erfc_tail(alpha, x)

    monkeypatch.setattr(oscquad, "_erfc_tail", counting)
    ncell = 255
    alpha, edges, nodes, _ = _sliced_geometry(j, 0.2, 0.1, ncell=ncell)
    h = (edges[-1] - edges[0]) / (nodes.size - 1)
    _lattice_step(alpha, j, 0.2, edges, h, np.ones(nodes.size, dtype=complex))
    # at most one erfc per lattice offset, not one per (centre, cell) pair
    # nor one per cell edge, plus the two tail ends of each centre
    offsets = 3 * (j + 1) * ncell + j * (nodes.size - 1) + 1
    assert sum(counted) <= offsets + 2 * nodes.size


@pytest.mark.parametrize(
    "alpha, center, edges",
    [
        (complex(-1e-3, 2.0), 0.3, np.linspace(-16.0, 16.0, 256)),
        (complex(-1e-3, 0.5), 0.3, np.linspace(-16.0, 16.0, 256)),
        (complex(-0.5, 1.0), -1.2, np.linspace(-3.0, 5.0, 41)),
        (complex(-5e-2, 0.5), 0.0, np.sinh(np.linspace(-3.3, 3.3, 97)) / 0.2236),
        (complex(-1e-2, 4.0), 2.0, np.linspace(-40.0, 40.0, 129)),
    ],
)
def test_damped_weights_fold_within_shift_roundoff(alpha, center, edges):
    nodes, w = damped_chirp_filon_weights(alpha, center, edges)
    ref_nodes, ref_w, bound = _reference_damped(alpha, center, edges)
    assert nodes.tobytes() == ref_nodes.tobytes()
    _assert_within(w, ref_w, bound)


@pytest.mark.parametrize(
    "beta, center, edges",
    [
        (0.5, 0.0, np.linspace(-4.0, 4.0, 33)),
        (3.0, 0.7, np.linspace(-2.0, 6.0, 65)),
        (0.5, -20.0, np.linspace(-6.0, 6.0, 25)),
        (40.0, 0.1, np.linspace(-1.0, 1.0, 200)),
    ],
)
def test_chirp_weights_fold_within_shift_roundoff(beta, center, edges):
    nodes, w = chirp_filon_weights(beta, center, edges)
    ref_nodes, ref_w, bound = _reference_chirp(beta, center, edges)
    assert nodes.tobytes() == ref_nodes.tobytes()
    _assert_within(w, ref_w, bound)
