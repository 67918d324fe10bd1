"""Tests for the adaptive one-dimensional integrator and improper chirp tails.

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

from gaugeint.errors import IntegrandError, NoConvergenceError
from gaugeint import integrate
from gaugeint.integrate import (
    IntegrationReport,
    OscillatoryTailSpec,
    alexiewicz_seminorm,
    fresnel_line_integral,
    hk_integrate_1d,
    oscillatory_improper,
)
from gaugeint.oscquad import FRESNEL_LIMIT, fresnel_integral, gauss_tail

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
    # a jump at 1/3: the adaptive core stops at its level cap twice and
    # carries the unsettled cells into the sum (1.1e-16 off)
    rep = hk_integrate_1d(lambda x: (x > 1 / 3) * np.exp(1j * x), (0.0, 1.0), 1e-10)
    assert _bits(rep) == (
        "0x1.074f38bc3cc8ap-1", "0x1.9e5dc93b92342p-2",
        "0x1.4d34156bbfd20p-52", 84, True,
    )
    # smooth: both runs converge (exact to the last bit)
    rep = hk_integrate_1d(lambda x: np.exp(1j * x) / (1 + x * x), (0.0, 2.0), 1e-10)
    assert _bits(rep) == (
        "0x1.750266f9fcbe8p-1", "0x1.4138515a0be9bp-1",
        "0x1.d43dac5a4369cp-54", 2, True,
    )
    # the peel: the first run stops at the endpoint stall, and only its
    # level count may move with the stall rule (3.4e-5 off)
    rep = hk_integrate_1d(classic_derivative, (0.0, 1.0), 1e-3)
    assert _bits(rep)[:3] + _bits(rep)[4:] == (
        "0x1.aed9c4d9d8063p-1", "0x0.0p+0", "0x1.7542c1e42a1e7p-13", True,
    )
    # no false stalls: a single endpoint chain (2.1e-8 off), and resolvable
    # oscillation crowded at an endpoint (1.6e-16 off), refine exactly as
    # without the stall rule
    rep = hk_integrate_1d(_inverse_sqrt, (0.0, 1.0), 1e-6)
    assert _bits(rep) == (
        "0x1.ffffffa4c855ep+0", "0x0.0p+0", "0x1.34431f9885da2p-26", 84, True,
    )
    rep = hk_integrate_1d(
        lambda x: np.cos(200.0 / (x + 0.05)).astype(complex), (0.0, 1.0), 1e-8
    )
    assert _bits(rep) == (
        "-0x1.4d5d8267130fcp-8", "0x0.0p+0", "0x1.831014817b6a8p-30", 23, True,
    )
    # nor a smooth layer exp(-x/eps) at either endpoint: its live cells
    # crowd the endpoint for levels, but the endpoint cell's indicator
    # falls with h, so refinement settles it with nothing peeled (each
    # value is within 4.2e-18 of eps (1 - exp(-1/eps)))
    for eps, tol, left, right, est_left, est_right, levels in (
        (1e-3, 1e-9, "0x1.0624dd2f1a9fdp-10", "0x1.0624dd2f1a9eap-10",
         "0x1.11b24493f6379p-37", "0x1.11b23a8a32979p-37", 11),
        (1e-3, 1e-10, "0x1.0624dd2f1a9fbp-10", "0x1.0624dd2f1a9e9p-10",
         "0x1.4f8a1e86321c9p-42", "0x1.4f88e003fa767p-42", 11),
        (1e-4, 1e-10, "0x1.a36e2eb1c432fp-14", "0x1.a36e2eb1c4295p-14",
         "0x1.6942ac3464fe5p-45", "0x1.693bfa666dde5p-45", 18),
    ):
        rep = hk_integrate_1d(lambda x: np.exp(-x / eps), (0.0, 1.0), tol)
        assert _bits(rep) == (left, "0x0.0p+0", est_left, levels, True)
        rep = hk_integrate_1d(lambda x: np.exp((x - 1.0) / eps), (0.0, 1.0), tol)
        assert _bits(rep) == (right, "0x0.0p+0", est_right, levels, True)


def _inverse_sqrt(x):
    """x^(-1/2), set to 0 at the origin."""
    out = np.zeros_like(x, dtype=complex)
    nz = x != 0.0
    out[nz] = 1.0 / np.sqrt(x[nz])
    return out


def test_endpoint_stall_goes_to_the_peel_at_once():
    # the first run stops at its first stall, a few thousand points in,
    # rather than refining the chain at the origin to 2^16 live cells (or,
    # with no stall exit at all, about 2.6M cells and 17.5M points); the
    # peel then costs about 109k points in all
    points = 0

    def counted(x):
        nonlocal points
        points += x.size
        return classic_derivative(x)

    rep = hk_integrate_1d(counted, (0.0, 1.0), 1e-3)
    assert abs(rep.value - math.sin(1.0)) < 1e-3
    assert points <= 130_000


@pytest.mark.parametrize(
    "f, b, tol, cap",
    [
        (lambda x: np.exp(1j * x * x - x), 3.0, 1e-10, None),
        (lambda x: (x > 1 / 3) * np.exp(1j * x), 1.0, 1e-10, "_MAX_LEVELS"),
        (classic_derivative, 1.0, 1e-3, "_STALL_LEVELS"),
    ],
    ids=["settled", "level_cap", "stall"],
)
def test_adaptive_core_calls_the_integrand_once_per_level(f, b, tol, cap):
    # the start edges come from one call, and each level's interior nodes
    # from one more: 11 a live cell, since a cell shares its edges with
    # its neighbours and its children take theirs from it
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return np.asarray(f(x), dtype=complex)

    _, _, levels, got_cap, _, _ = integrate._adaptive_core(counted, 0.0, b, tol)
    assert got_cap == cap
    assert len(sizes) == levels + 1
    assert sizes[:2] == [17, 176]  # 16 cells: 17 edges, then 11 nodes in each
    assert all(size % 11 == 0 for size in sizes[1:])
    assert all(later <= 2 * earlier for earlier, later in zip(sizes[1:], sizes[2:]))


def test_lobatto_kronrod_rule_is_exact_to_its_degree():
    # against mpmath: the 13-point rule integrates x^k over [-1, 1] exactly
    # up to k = 18 and its 7-point subrule up to k = 8 (odd k by symmetry)
    nodes = [mp.mpf(float(t)) for t in integrate._LK_NODES]
    assert [-t for t in reversed(nodes)] == nodes
    for weights, degree in ((integrate._LK_K13, 18), (integrate._LK_K7, 8)):
        for k in range(degree + 1):
            got = mp.fsum(mp.mpf(float(w)) * t**k for w, t in zip(weights, nodes))
            assert abs(got - (mp.mpf(2) / (k + 1) if k % 2 == 0 else 0)) <= 1e-15
    # the 7-point rule sits on the 4-point Lobatto nodes and their Kronrod
    # extension, the weights 11/210, 72/245, 125/294 and 16/35
    on = [t for t, w in zip(nodes, integrate._LK_K7) if w != 0.0]
    assert on[3:] == [0, mp.mpf(float(1 / mp.sqrt(5))), mp.mpf(float(mp.sqrt(mp.mpf(2) / 3))), 1]
    for w, want in zip(integrate._LK_K7[6:], (16 / 35, 0.0, 125 / 294, 0.0, 72 / 245, 0.0, 11 / 210)):
        assert w == want


def _zero_at(point, g):
    """g, set to 0 at the point where it is singular."""

    def f(x):
        out = np.zeros_like(x, dtype=complex)
        regular = x != point
        out[regular] = g(x[regular])
        return out

    return f


def _integral_of_cos_over(a, u0):
    """Integral of cos(a/u) over (u0, u0 + 1), from u cos(a/u) + a Si(a/u)."""
    primitive = lambda u: u * mp.cos(a / u) + a * mp.si(a / u)
    return float(primitive(mp.mpf(u0) + 1) - primitive(mp.mpf(u0)))


def _integral_of_exp(z, eps):
    """Integral of exp(-z x / eps) over (0, 1)."""
    return complex(eps / z * -mp.expm1(-mp.mpc(z) / eps))


# the endpoint sweep on (0, 1): name -> (integrand, its closed form, tols)
_SINGULAR = (1e-2, 1e-5, 1e-9)
_SWEEP = {
    **{
        f"x^-{p}": (_zero_at(0.0, lambda x, p=p: x**-p), 1.0 / (1.0 - p), _SINGULAR)
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    },
    "log(x)": (_zero_at(0.0, np.log), -1.0, _SINGULAR),
    "(1-x)^-1/2": (_zero_at(1.0, lambda x: (1.0 - x) ** -0.5), 2.0, _SINGULAR),
    "cos(200/(x+0.05))": (
        lambda x: np.cos(200.0 / (x + 0.05)), _integral_of_cos_over(200, 0.05), _SINGULAR
    ),
    "cos(30/(1.02-x))": (
        lambda x: np.cos(30.0 / (1.02 - x)), _integral_of_cos_over(30, 0.02), _SINGULAR
    ),
    # the derivative below tol 1e-2 takes seconds
    "x^2 sin(x^-2)'": (classic_derivative, math.sin(1.0), (1e-2,)),
    **{
        f"exp({sign}x/{eps:g})": (
            lambda x, eps=eps, sign=sign: np.exp(-x / eps if sign == "-" else (x - 1.0) / eps),
            _integral_of_exp(1.0, eps),
            (1e-6, 1e-7, 1e-8, 1e-9, 1e-10),
        )
        for eps in (1e-2, 1e-3, 1e-4)
        for sign in ("-", "1-")
    },
    **{
        f"exp(-x/{eps:g})": (
            lambda x, eps=eps: np.exp(-x / eps), _integral_of_exp(1.0, eps), (1e-6, 1e-8, 1e-10)
        )
        for eps in (1e-5, 1e-6)
    },
    **{
        name: (f, exact, (1e-6, 1e-8, 1e-10))
        for eps in (1e-3, 1e-4)
        for name, f, exact in (
            (f"(1+x/{eps:g})^-2", lambda x, eps=eps: (1.0 + x / eps) ** -2, eps / (1.0 + eps)),
            (
                f"exp(-(1+20i)x/{eps:g})",
                lambda x, eps=eps: np.exp(-(1 + 20j) * x / eps),
                _integral_of_exp(1 + 20j, eps),
            ),
            (
                f"sqrt(1-x+{eps:g})",
                lambda x, eps=eps: np.sqrt(1.0 - x + eps),
                2.0 / 3.0 * ((1.0 + eps) ** 1.5 - eps**1.5),
            ),
        )
    },
    # aliasing: an integer number of periods, which a lattice of start
    # meshes can sample at zeros only
    "sin(212160 pi x)^2": (lambda x: np.sin(212160 * np.pi * x) ** 2, 0.5, (1e-8,)),
}
# the cases whose prefix sums do not settle, with the Lobatto-Kronrod
# cells as with the Simpson cells before them (which also raised for
# x^-0.4 at 1e-9)
_SWEEP_CAPS = {
    ("x^-0.5", 1e-9): "_MAX_PEELS",
    ("x^-0.6", 1e-9): "_MAX_PEELS",
    ("x^-0.7", 1e-5): "_MAX_PEELS",
    ("x^-0.7", 1e-9): "_MAX_PEELS",
    ("x^-0.8", 1e-5): "_MAX_PEELS",
    ("x^-0.8", 1e-9): "_MAX_PEELS",
    ("x^-0.9", 1e-2): "_MAX_PEELS",
    ("x^-0.9", 1e-5): "_MAX_PEELS",
    ("x^-0.9", 1e-9): "_MAX_PEELS",
    ("(1-x)^-1/2", 1e-9): "_MAX_PEELS",
}


@pytest.mark.parametrize(
    "name, tol",
    [(name, tol) for name, (_, _, tols) in _SWEEP.items() for tol in tols],
    ids=lambda v: f"{v:g}" if isinstance(v, float) else v,
)
def test_endpoint_sweep_lands_within_tol_or_names_the_cap(name, tol):
    f, exact, _ = _SWEEP[name]
    cap = _SWEEP_CAPS.get((name, tol))
    if cap is not None:
        with pytest.raises(NoConvergenceError) as info:
            hk_integrate_1d(f, (0.0, 1.0), tol)
        assert info.value.cap == cap
        return
    rep = hk_integrate_1d(f, (0.0, 1.0), tol)
    assert rep.converged
    assert abs(rep.value - exact) <= tol


def test_no_convergence_names_the_cap(monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_CELLS", 20_000)
    with pytest.raises(NoConvergenceError, match="_MAX_CELLS") as info:
        hk_integrate_1d(classic_derivative, (0.0, 1.0), 1e-4)
    assert info.value.cap == "_MAX_CELLS"


def test_two_agreeing_runs_settle_a_window(monkeypatch):
    runs = []  # the start mesh of each adaptive run
    core = integrate._adaptive_core

    def counted(fv, a, b, tol, min_cells=16):
        runs.append(min_cells)
        return core(fv, a, b, tol, min_cells)

    monkeypatch.setattr(integrate, "_adaptive_core", counted)
    # a smooth integrand: the second run, from 39 cells, agrees with the
    # first, from 16
    rep = hk_integrate_1d(lambda x: np.exp(1j * x) / (1 + x * x), (0.0, 2.0), 1e-10)
    assert rep.converged
    assert runs == [16, 39]
    # the first pair disagrees, so a third run from 85 cells is needed,
    # and it agrees with the second
    runs.clear()
    rep = hk_integrate_1d(lambda x: np.cos(200.0 / (x + 0.05)), (0.0, 1.0), 1e-2)
    assert rep.converged
    assert runs == [16, 39, 85]
    assert abs(rep.value - _integral_of_cos_over(200, 0.05)) <= 1e-2


def test_runs_that_never_agree_name_the_rounds_cap(monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_ROUNDS", 2)
    with pytest.raises(NoConvergenceError, match="_MAX_ROUNDS") as info:
        hk_integrate_1d(lambda x: np.cos(200.0 / (x + 0.05)), (0.0, 1.0), 1e-2)
    assert info.value.cap == "_MAX_ROUNDS"


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


@pytest.mark.parametrize(
    "f, tol, exact",
    [
        (lambda x: x * x, 1e-10, 1.0 / 3.0),
        (lambda x: 2 * x * math.sin(x**-2) - 2 / x * math.cos(x**-2) if x else 0.0, 1e-2, math.sin(1.0)),
    ],
    ids=["smooth", "peeled"],
)
def test_scalar_only_integrand_refuses_one_array_per_call(f, tol, exact):
    # the first array offered is refused; every later level, round, core
    # and annulus of the same call asks point by point
    refused = 0

    def scalar_only(x):
        nonlocal refused
        if isinstance(x, np.ndarray):
            refused += 1
            raise TypeError("scalar only")
        return f(x)

    for calls in (1, 2):
        rep = hk_integrate_1d(scalar_only, (0.0, 1.0), tol)
        assert abs(rep.value - exact) <= tol
        assert refused == calls


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
# improper oscillatory integrals: a window Filon integral plus a bounded
# by-parts tail, with no damping
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
    # on the imaginary axis too: exp(-i x^2/2) is as Henstock-integrable
    # as exp(i x^2/2)
    v = fresnel_line_integral(-1j, 1e-8)
    assert v == fresnel_line_integral(1j, 1e-8).conjugate()
    assert abs(v - cmath.sqrt(2.0 * math.pi / 1j)) < 1e-8


def test_tail_additivity():
    # the Henstock integral is additive over intervals: the tail from 0
    # minus the tail from 0.5 is the finite integral over (0, 0.5)
    tail = lambda lower: oscillatory_improper(OscillatoryTailSpec(1j, lower, +1), 1e-8)
    assert abs(tail(0.0) - tail(0.5) - fresnel_integral(0.5)) < 1e-12


def test_weak_chirp_tail():
    # a slow chirp needs a far cut; a damping ladder once refused it
    v = oscillatory_improper(OscillatoryTailSpec(0.01j, 0.0, +1), 1e-8)
    assert abs(v - cmath.sqrt(2j * math.pi / 0.01) / 2.0) < 1e-8


def test_far_lower_limit_tail():
    # a tail starting far out is small and fast; a damping ladder once
    # refused it
    v = oscillatory_improper(OscillatoryTailSpec(1j, 50.0, +1), 1e-8)
    assert abs(v - gauss_tail(0.5j, 50.0)[0]) < 1e-8


def _reciprocal_about(pole):
    """1 / |x - pole|, with the value 0 at the pole itself."""

    def f(x):
        d = np.abs(np.asarray(x, dtype=float) - pole)
        return np.divide(1.0, d, out=np.zeros_like(d), where=d != 0.0)

    return f


def test_endpoint_pole_stops_at_the_peel_cap():
    # 1/x is not integrable at 0: the peeled prefix sums grow like log
    with pytest.raises(NoConvergenceError, match="_MAX_PEELS") as info:
        hk_integrate_1d(_reciprocal_about(0.0), (0.0, 1.0), 1e-3)
    assert info.value.cap == "_MAX_PEELS"


def test_interior_pole_stops_at_the_level_cap():
    # an interior singularity is no endpoint stall, so nothing is peeled
    stopped = r"window after \d+ levels stopped at _MAX_LEVELS"
    with pytest.raises(NoConvergenceError, match=stopped) as info:
        hk_integrate_1d(_reciprocal_about(0.3), (0.0, 1.0), 1e-3)
    assert info.value.cap == "_MAX_LEVELS"


def test_tiny_coefficient_hits_cut_cap(monkeypatch):
    # no cut on the ladder bounds the tail of so slow a chirp: the cap
    # error names the bound before any window is integrated
    def no_window(*_args, **_kw):
        raise AssertionError("window integrated before the cut was found")

    monkeypatch.setattr(integrate, "adaptive_chirp_integral", no_window)
    with pytest.raises(NoConvergenceError, match="tail bound") as info:
        oscillatory_improper(OscillatoryTailSpec(1e-12j, 0.0, +1), 1e-8)
    assert info.value.cap == "_CUT_POINTS"


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
    # strings, bools and non-finite numbers once passed through complex()
    # or compared equal to +1
    bad = [complex(math.nan, 1.0), complex(-math.inf, 1.0), complex(0.0, math.inf)]
    for coefficient in ["2j", True, *bad]:
        with pytest.raises(ValueError, match="coefficient must be a finite complex"):
            OscillatoryTailSpec(coefficient, 0.0, +1)
    for direction in [True, 1.0, "1"]:
        with pytest.raises(ValueError, match="direction must be the integer"):
            OscillatoryTailSpec(1j, 0.0, direction)


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


def test_alexiewicz_interval_must_be_finite_and_ordered():
    for interval in ((0.0, math.inf), (1.0, 0.0), (0.0, 0.0)):
        with pytest.raises(ValueError, match="interval"):
            alexiewicz_seminorm(
                lambda x: np.ones_like(x, dtype=complex), interval, 4
            )


def test_alexiewicz_chirp_grid_stability():
    f = lambda x: np.cos(x * x).astype(complex)
    v1 = alexiewicz_seminorm(f, (0.0, 40.0), 128)
    v2 = alexiewicz_seminorm(f, (0.0, 40.0), 256)
    assert abs(v1 - v2) < 1e-3
