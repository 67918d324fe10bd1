"""Tests for the adaptive one- and multi-dimensional integrators.

Oracle policy: every nontrivial expected value is produced by an
independent route — closed forms differentiated by hand, mpmath
quadrature on subdivided smooth pieces, or the incomplete Fresnel
function validated in test_oscquad.py — never by the code under test.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeint.errors import (
    DimensionCapError,
    IntegrandError,
    NoConvergenceError,
)
from gaugeint.integrate import (
    IntegrationReport,
    OscillatoryTailSpec,
    alexiewicz_seminorm,
    fresnel_line_integral,
    hk_integrate_1d,
    hk_integrate_nd,
    oscillatory_improper,
)
from gaugeint.oscquad import FRESNEL_LIMIT, fresnel_integral

mp.mp.dps = 30


def classic_derivative(x):
    """d/dx [x^2 sin(1/x^2)] extended by 0 at the origin.

    The primitive x^2 sin(1/x^2) is differentiable everywhere, so the
    fundamental theorem forces the integral over (0, 1) to equal sin(1),
    even though the derivative is unbounded near 0 and absolutely
    non-integrable there.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x, dtype=complex)
    nz = x != 0.0
    xs = x[nz]
    out[nz] = 2.0 * xs * np.sin(1.0 / xs**2) - (2.0 / xs) * np.cos(1.0 / xs**2)
    return out


# ---------------------------------------------------------------------------
# finite-window adaptive integration
# ---------------------------------------------------------------------------


def test_polynomial_is_exact():
    rep = hk_integrate_1d(lambda x: x.astype(complex), (0.0, 1.0), 1e-10)
    assert rep.converged
    assert abs(rep.value - 0.5) < 1e-12


def test_smooth_gaussian():
    rep = hk_integrate_1d(
        lambda x: np.exp(-x * x).astype(complex), (-6.0, 6.0), 1e-12
    )
    # oracle: erf(6) ~ 1 to below 1e-16, so the window integral is sqrt(pi)
    assert rep.converged
    assert abs(rep.value - math.sqrt(math.pi)) < 1e-11
    assert abs(rep.value - math.sqrt(math.pi)) <= rep.abs_error_estimate + 1e-13


def test_finite_chirp_window_against_mpmath():
    exact = complex(
        mp.quad(lambda t: mp.cos(t**2), [0, 1, 3, 6, 10, 15, 21, 30])
    )
    rep = hk_integrate_1d(
        lambda x: np.cos(x * x).astype(complex), (0.0, 30.0), 1e-8
    )
    assert rep.converged
    assert abs(rep.value - exact) < 1e-8
    assert abs(rep.value - exact) <= rep.abs_error_estimate + 1e-12


def test_unbounded_derivative_integrates_to_sin_one():
    # The endpoint-peeling path: refinement can never finish near 0, the
    # engine peels geometric annuli and anchors the origin cell at its tag
    # value 0.  Tolerance 1e-4 keeps the deepest needed annulus around
    # width 1e-3 (oscillation period there ~ pi x^3), a few 1e4 cells.
    rep = hk_integrate_1d(classic_derivative, (0.0, 1.0), 1e-4)
    exact = math.sin(1.0)
    assert rep.converged
    assert abs(rep.value - exact) < 1e-4
    assert abs(rep.value - exact) <= rep.abs_error_estimate


def test_report_fields_and_json_dict():
    rep = hk_integrate_1d(lambda x: x.astype(complex), (0.0, 2.0), 1e-10)
    assert isinstance(rep, IntegrationReport)
    assert rep.abs_error_estimate >= 0.0
    assert rep.refinements >= 0
    d = rep.to_json_dict()
    assert d["value"] == [rep.value.real, rep.value.imag]
    assert d["abs_error_estimate"] == rep.abs_error_estimate
    assert d["refinements"] == rep.refinements
    assert d["converged"] is True


def test_same_call_is_deterministic():
    args = (lambda x: np.exp(1j * x * x), (0.0, 9.0), 1e-9)
    r1 = hk_integrate_1d(*args)
    r2 = hk_integrate_1d(*args)
    assert r1.value == r2.value
    assert r1.abs_error_estimate == r2.abs_error_estimate


def _bits(rep):
    return (
        rep.value.real.hex(), rep.value.imag.hex(),
        rep.abs_error_estimate.hex(), rep.refinements, rep.converged,
    )


def test_adaptive_values_are_pinned_bit_for_bit():
    # a jump at 1/3: the adaptive core stops at its level cap three times
    # and carries the unsettled cells into the sum
    rep = hk_integrate_1d(lambda x: (x > 1 / 3) * np.exp(1j * x), (0.0, 1.0), 1e-10)
    assert _bits(rep) == (
        "0x1.074f38bc3cc8ep-1", "0x1.9e5dc93b92345p-2",
        "0x1.358c3eb4e3d40p-42", 126, True,
    )
    # smooth: every round converges
    rep = hk_integrate_1d(lambda x: np.exp(1j * x) / (1 + x * x), (0.0, 2.0), 1e-10)
    assert _bits(rep) == (
        "0x1.750266f9fcbdep-1", "0x1.4138515a0be97p-1",
        "0x1.2d725037c84fbp-36", 10, True,
    )


def test_window_validation():
    with pytest.raises(ValueError):
        hk_integrate_1d(lambda x: x, (1.0, 0.0))
    with pytest.raises(ValueError):
        hk_integrate_1d(lambda x: x, (0.0, math.inf))
    with pytest.raises(ValueError):
        hk_integrate_1d(lambda x: x, (0.0, 1.0), tol=0.0)


def test_raising_integrand_is_wrapped():
    def bad(x):
        raise RuntimeError("boom")

    with pytest.raises(IntegrandError):
        hk_integrate_1d(bad, (0.0, 1.0), 1e-6)


def test_non_finite_integrand_is_reported():
    with pytest.raises(IntegrandError):
        hk_integrate_1d(
            lambda x: np.where(x > 0.5, np.nan, 1.0).astype(complex),
            (0.0, 1.0),
            1e-6,
        )


def test_interior_singularity_fails_loudly():
    # 1/(x - 1/2) is not integrable across the interior pole; the engine
    # must refuse rather than return a number (either by seeing the pole
    # value or by failing to converge).
    def pole(x):
        with np.errstate(divide="ignore"):
            return (1.0 / (x - 0.5)).astype(complex)

    with pytest.raises((IntegrandError, NoConvergenceError)):
        hk_integrate_1d(pole, (0.0, 1.0), 1e-6)


def test_scalar_only_callable_is_accepted():
    rep = hk_integrate_1d(lambda x: float(x) ** 2, (0.0, 1.0), 1e-10)
    assert abs(rep.value - 1.0 / 3.0) < 1e-11


# ---------------------------------------------------------------------------
# linearity / conjugation / additivity properties
# ---------------------------------------------------------------------------

coeffs = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@st.composite
def smooth_integrand(draw):
    """A random cubic polynomial plus a mild chirp term."""
    c = [draw(coeffs) for _ in range(4)]
    w = draw(st.floats(min_value=0.0, max_value=4.0))

    def f(x, c=c, w=w):
        x = np.asarray(x, dtype=float)
        poly = c[0] + x * (c[1] + x * (c[2] + x * c[3]))
        return poly + np.exp(1j * w * x * x)

    return f


@settings(max_examples=25, deadline=None)
@given(smooth_integrand(), smooth_integrand(), coeffs, coeffs)
def test_linearity(f, g, a, b):
    window = (-1.0, 2.0)
    lhs = hk_integrate_1d(
        lambda x: a * f(x) + b * g(x), window, 1e-10
    ).value
    rhs = a * hk_integrate_1d(f, window, 1e-10).value
    rhs += b * hk_integrate_1d(g, window, 1e-10).value
    assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(a) + abs(b))


@settings(max_examples=25, deadline=None)
@given(smooth_integrand())
def test_conjugation(f):
    window = (-1.0, 2.0)
    lhs = hk_integrate_1d(lambda x: np.conj(f(x)), window, 1e-10).value
    rhs = hk_integrate_1d(f, window, 1e-10).value.conjugate()
    assert abs(lhs - rhs) < 1e-9


@settings(max_examples=25, deadline=None)
@given(smooth_integrand(), st.floats(min_value=0.1, max_value=0.9))
def test_additivity_over_adjacent_windows(f, split):
    a, b = -1.0, 2.0
    m = a + (b - a) * split
    whole = hk_integrate_1d(f, (a, b), 1e-10).value
    parts = (
        hk_integrate_1d(f, (a, m), 1e-10).value
        + hk_integrate_1d(f, (m, b), 1e-10).value
    )
    assert abs(whole - parts) < 1e-8


# ---------------------------------------------------------------------------
# improper oscillatory integrals via damping + extrapolation
# ---------------------------------------------------------------------------


def test_full_line_unit_chirp():
    # closed form: integral over R of e^{i x^2 / 2} dx = sqrt(2 pi i)
    v = fresnel_line_integral(1j, 1e-8)
    assert abs(v - cmath.sqrt(2j * math.pi)) < 1e-6 * abs(v)


def test_full_line_modulus_and_argument():
    v = fresnel_line_integral(1j, 1e-8)
    assert abs(abs(v) - math.sqrt(2.0 * math.pi)) < 1e-6
    assert abs(cmath.phase(v) - math.pi / 4.0) < 1e-6


def test_half_line_chirp_cos_sin_split():
    # one tail of the unit chirp: sqrt(2 pi i)/2, whose real and
    # imaginary parts are both sqrt(pi)/2
    spec = OscillatoryTailSpec(
        phase_quadratic_coefficient=1j, lower_limit=0.0, direction=+1
    )
    v = oscillatory_improper(spec, 1e-8)
    assert abs(v - cmath.sqrt(2j * math.pi) / 2.0) < 1e-7
    assert abs(v.real - math.sqrt(math.pi) / 2.0) < 1e-7
    assert abs(v.imag - math.sqrt(math.pi) / 2.0) < 1e-7


def test_pure_decay_tail():
    # c = -2: integral over (0, inf) of e^{-x^2} dx = sqrt(pi)/2
    spec = OscillatoryTailSpec(
        phase_quadratic_coefficient=-2.0, lower_limit=0.0, direction=+1
    )
    v = oscillatory_improper(spec, 1e-10)
    assert abs(v - math.sqrt(math.pi) / 2.0) < 1e-9


def test_left_tail_against_incomplete_fresnel():
    # integral over (-inf, -1] of e^{i x^2} dx equals, after mirroring and
    # y = x sqrt(2), (F(inf) - F(sqrt 2)) / sqrt 2 with F the incomplete
    # Fresnel function validated independently in test_oscquad.py
    exact = (FRESNEL_LIMIT - fresnel_integral(math.sqrt(2.0))) / math.sqrt(2.0)
    spec = OscillatoryTailSpec(
        phase_quadratic_coefficient=2j, lower_limit=-1.0, direction=-1
    )
    v = oscillatory_improper(spec, 1e-8)
    assert abs(v - exact) < 1e-8


def test_negative_imaginary_coefficient_conjugates():
    spec_p = OscillatoryTailSpec(
        phase_quadratic_coefficient=complex(-0.2, 1.0),
        lower_limit=0.0,
        direction=+1,
    )
    spec_m = OscillatoryTailSpec(
        phase_quadratic_coefficient=complex(-0.2, -1.0),
        lower_limit=0.0,
        direction=+1,
    )
    vp = oscillatory_improper(spec_p, 1e-9)
    vm = oscillatory_improper(spec_m, 1e-9)
    assert abs(vm - vp.conjugate()) < 1e-9


def test_damping_schedule_shift_consistency():
    # halving the leading damping strength must not move the extrapolated
    # value beyond tolerance: the answer belongs to the limit, not the path
    spec = OscillatoryTailSpec(
        phase_quadratic_coefficient=1j, lower_limit=0.5, direction=+1
    )
    v1 = oscillatory_improper(spec, 1e-8, eps0=1e-2)
    v2 = oscillatory_improper(spec, 1e-8, eps0=5e-3)
    assert abs(v1 - v2) < 2e-8


def test_damped_line_matches_gaussian_closed_form():
    # Re c < 0 makes the integral absolutely convergent with closed form
    # sqrt(2 pi / (-c)) on the principal branch
    c = complex(-0.3, 1.0)
    v = fresnel_line_integral(c, 1e-9)
    assert abs(v - cmath.sqrt(2.0 * math.pi / (-c))) < 1e-8


def test_tail_spec_validation():
    with pytest.raises(ValueError):
        OscillatoryTailSpec(
            phase_quadratic_coefficient=0.0, lower_limit=0.0, direction=+1
        )
    with pytest.raises(ValueError):
        OscillatoryTailSpec(
            phase_quadratic_coefficient=1.0, lower_limit=0.0, direction=+1
        )  # growing exponential
    with pytest.raises(ValueError):
        OscillatoryTailSpec(
            phase_quadratic_coefficient=1j, lower_limit=0.0, direction=0
        )
    with pytest.raises(ValueError):
        OscillatoryTailSpec(
            phase_quadratic_coefficient=1j, lower_limit=math.inf, direction=+1
        )


# ---------------------------------------------------------------------------
# multi-dimensional boxes
# ---------------------------------------------------------------------------


def test_nd_constant_unit_box():
    rep = hk_integrate_nd(
        lambda p: np.ones(p.shape[0], dtype=complex), [(0, 1), (0, 1)], 1e-10
    )
    assert rep.converged
    assert abs(rep.value - 1.0) < 1e-12


def test_nd_odd_integrand_vanishes():
    rep = hk_integrate_nd(
        lambda p: (p[:, 0] * p[:, 1]).astype(complex), [(-1, 1), (-1, 1)], 1e-10
    )
    assert abs(rep.value) < 1e-12


def test_nd_one_axis_matches_1d():
    f1 = lambda x: np.exp(-x * x).astype(complex)
    rep_n = hk_integrate_nd(lambda p: f1(p[:, 0]), [(-5, 5)], 1e-10)
    rep_1 = hk_integrate_1d(f1, (-5.0, 5.0), 1e-12)
    assert abs(rep_n.value - rep_1.value) < 1e-9


def test_nd_damped_chirp_product_factorizes():
    # separable integrand: the box value must equal the square of the
    # damped line value, which itself matches sqrt(2 pi / -c)
    eps = 0.15
    c = complex(-2.0 * eps, 1.0)
    line = cmath.sqrt(2.0 * math.pi / (-c))

    def f2(p):
        s = np.square(p).sum(axis=1)
        return np.exp((0.5j - eps) * s)

    rep = hk_integrate_nd(f2, [(-20, 20), (-20, 20)], 1e-8)
    assert rep.converged
    assert abs(rep.value - line**2) < 1e-6 * abs(line**2)


def test_nd_dimension_cap():
    with pytest.raises(DimensionCapError):
        hk_integrate_nd(
            lambda p: np.ones(p.shape[0], dtype=complex), [(0, 1)] * 5, 1e-6
        )


def test_nd_window_validation():
    with pytest.raises(ValueError):
        hk_integrate_nd(lambda p: p[:, 0], [], 1e-6)
    with pytest.raises(ValueError):
        hk_integrate_nd(lambda p: p[:, 0], [(0.0, math.inf)], 1e-6)


# ---------------------------------------------------------------------------
# Alexiewicz seminorm (sup of prefix integrals)
# ---------------------------------------------------------------------------


def test_alexiewicz_constant():
    v = alexiewicz_seminorm(
        lambda x: np.ones_like(x, dtype=complex), (0.0, 1.0), 64
    )
    assert abs(v - 1.0) < 1e-10


def test_alexiewicz_sine_peak():
    # prefix integral of sin peaks at x = pi with value 2
    v = alexiewicz_seminorm(
        lambda x: np.sin(x).astype(complex), (0.0, 2.0 * math.pi), 256
    )
    assert abs(v - 2.0) < 1e-8


def test_alexiewicz_grid_must_be_a_count():
    for grid in (2.5, True, 1):
        with pytest.raises(ValueError, match="grid must be an integer >= 2"):
            alexiewicz_seminorm(
                lambda x: np.ones_like(x, dtype=complex), (0.0, 1.0), grid
            )


def test_alexiewicz_chirp_grid_stability():
    f = lambda x: np.cos(x * x).astype(complex)
    v1 = alexiewicz_seminorm(f, (0.0, 40.0), 128)
    v2 = alexiewicz_seminorm(f, (0.0, 40.0), 256)
    assert abs(v1 - v2) < 1e-3
