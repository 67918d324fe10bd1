"""The benchmark's oracles against independent limits and against each other."""

import cmath
import math

import mpmath
import numpy as np
import pytest

import gaugeint as g
import oracles


@pytest.mark.parametrize("slices", [1, 2, 4, 9])
def test_harmonic_oracle_reduces_to_free_kernel(slices):
    xi_prime, xi, tau = 0.3, -0.7, 0.8
    q = g.PropagatorQuery(xi_prime, 0.0, xi, tau, slices=slices)
    got = oracles.harmonic_left_point(xi_prime, xi, tau, slices, 1e-9)
    assert abs(got - g.psi0_closed(q)) < 1e-14


def test_harmonic_oracle_tends_to_mehler_at_first_order():
    xi_prime, xi, tau, omega = 0.2, -0.4, 1.0, 0.6
    mehler = oracles.harmonic_mehler(xi_prime, xi, tau, omega)
    q = g.PropagatorQuery(xi_prime, 0.0, xi, tau, potential=g.Potential.harmonic(omega))
    assert abs(mehler - g.harmonic_kernel_closed(q, omega)) < 1e-15
    errs = [abs(oracles.harmonic_left_point(xi_prime, xi, tau, n, omega) - mehler)
            for n in (16, 64, 256, 1024)]
    for coarse, fine in zip(errs, errs[1:]):
        # O(dt): quartering the step divides the gap by about four
        assert 3.0 < coarse / fine < 5.0
    assert errs[-1] < 1e-5


def test_gaussian_cylinder_at_one_dimension_is_the_line_formula():
    # completing the square by hand: K(x; dt) e^{-a x^2 / 2} integrates to
    # sqrt(1 / (2 pi i dt)) sqrt(2 pi / (a - i / dt))
    for a, dt in [(0.7, 1.0), (1.3, 0.4), (0.5, 1.5)]:
        line = cmath.sqrt(1.0 / (2j * math.pi * dt)) * cmath.sqrt(
            2.0 * math.pi / (a - 1j / dt))
        got = oracles.gaussian_cylinder(np.array([[a]]), [dt])
        assert abs(got - line) < 1e-14


def test_gaussian_cylinder_matches_direct_determinant():
    a_matrix = np.array([[1.0, 0.3], [0.3, 1.2]])
    times = [0.5, 1.0]
    dts = np.diff([0.0, *times])
    d = np.eye(2) - np.eye(2, k=-1)
    m = a_matrix - 1j * d.T @ np.diag(1.0 / dts) @ d
    norm = np.prod([1.0 / np.sqrt(2j * math.pi * dt) for dt in dts])
    # the direct principal root is the right branch here (small det phase)
    want = norm * 2.0 * math.pi / np.sqrt(np.linalg.det(m))
    assert abs(oracles.gaussian_cylinder(a_matrix, times) - want) < 1e-14


def test_primitive_difference_agrees_with_mpmath_quadrature():
    rng = np.random.default_rng(7)
    coef = rng.normal(size=4) + 1j * rng.normal(size=4)
    gamma = complex(-rng.uniform(0.3, 1.0), rng.uniform(0.0, 3.0))
    a, b = float(rng.uniform(-3.0, -0.5)), float(rng.uniform(0.5, 3.0))
    prim, deriv = oracles.chirped_primitive(coef, gamma)
    mpmath.mp.dps = 30
    p = [mpmath.mpc(c.real, c.imag) for c in coef]
    gm = mpmath.mpc(gamma.real, gamma.imag)

    def fprime(x):
        px = sum(c * x**k for k, c in enumerate(p))
        dpx = sum(k * c * x ** (k - 1) for k, c in enumerate(p) if k)
        return (dpx + 2 * gm * x * px) * mpmath.exp(gm * x * x)

    numeric = complex(mpmath.quad(fprime, [a, 0, b]))
    assert abs(numeric - (complex(prim(b)) - complex(prim(a)))) < 1e-13
    xs = np.linspace(a, b, 7)
    assert np.allclose(deriv(xs), [complex(fprime(mpmath.mpf(x))) for x in xs],
                       rtol=1e-13, atol=0)


def test_sin_oracle_matches_package_on_the_narrow_window():
    # on extent 8 the degree-24 fit of sin is accurate, so the package and
    # the oracle must agree; on extent 16 they do not (the known defect)
    xi_prime, xi, tau = 0.2, -0.4, 0.8
    q = g.PropagatorQuery(xi_prime, 0.0, xi, tau, slices=2,
                          potential=g.Potential.custom(lambda x, _t: np.sin(x)))
    want = oracles.first_order_sin_term(xi_prime, xi, tau)
    got = g.perturbation_term(1, q, g.SliceGrid(8.0, 768, 1e-3))
    assert abs(got - want) / abs(want) < 1e-6


def test_constant_truncated_sum_converges_to_the_phase():
    psi0 = oracles.free_kernel(0.5, 1.0)
    assert abs(oracles.constant_truncated_sum(psi0, 1.5, 1.0, 40)
               - psi0 * np.exp(-1.5j)) < 1e-15
