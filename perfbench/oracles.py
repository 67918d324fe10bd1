"""Reference values the benchmark checks gaugeint against.

Every function here is a closed form or a small dense linear-algebra
computation that shares no code with gaugeint, so a defect in the
package cannot hide in its own oracle.  Units hbar = 1; all kernels
use the principal square root, as gaugeint does.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import integrate as _sint


def free_kernel(u: float, dt: float, mass: float = 1.0) -> complex:
    """sqrt(m / (2 pi i dt)) e^{i m u^2 / (2 dt)}."""
    return cmath.sqrt(mass / (2j * math.pi * dt)) * cmath.exp(
        0.5j * mass * u * u / dt
    )


def constant_truncated_sum(psi0: complex, c: float, tau: float, m: int) -> complex:
    """psi0 * sum_{r<=m} (-i c tau)^r / r!: the exact order-m partial sum for V = c."""
    x = -1j * c * tau
    return psi0 * sum(x**r / math.factorial(r) for r in range(m + 1))


def harmonic_mehler(xi_prime: float, xi: float, tau: float, omega: float,
                    mass: float = 1.0) -> complex:
    """Continuum harmonic-oscillator kernel, 0 < omega tau < pi."""
    s, c = math.sin(omega * tau), math.cos(omega * tau)
    pref = cmath.sqrt(mass * omega / (2j * math.pi * s))
    return pref * cmath.exp(
        0.5j * mass * omega * ((xi**2 + xi_prime**2) * c - 2.0 * xi * xi_prime) / s
    )


def harmonic_left_point(xi_prime: float, xi: float, tau: float, slices: int,
                        omega: float, mass: float = 1.0) -> complex:
    """Exact value of the left-point time-sliced harmonic kernel.

    The slices-fold product of free kernels times e^{-i V(x_j) dt} for
    j = 0..slices-1, V = omega^2 x^2 / 2, integrated over the interior
    points.  The exponent is (i/2) y^T A y + i b^T y + const with A
    tridiagonal, so the Gaussian integral is (2 pi)^{k/2} / sqrt(det(-iA))
    times e^{-(i/2) b^T A^{-1} b}; sqrt(det) is the product of principal
    square roots of the eigenvalues of -iA (the limit of vanishing
    Gaussian damping).  This is the value psi_sliced approximates for any
    slice count, so the gap measures quadrature error, not Trotter error.
    """
    n = int(slices)
    dt = tau / n
    # accumulate in logs: for many slices the prefactor and the determinant
    # separately overflow a double
    log_val = n * cmath.log(cmath.sqrt(mass / (2j * math.pi * dt))) - 0.5j * (
        omega * omega * xi_prime * xi_prime * dt
    )
    k = n - 1
    if k == 0:
        return cmath.exp(log_val + 0.5j * mass * (xi - xi_prime) ** 2 / dt)
    a = (
        np.diag(np.full(k, 2.0 * mass / dt - dt * omega * omega))
        - np.diag(np.full(k - 1, mass / dt), 1)
        - np.diag(np.full(k - 1, mass / dt), -1)
    )
    b = np.zeros(k)
    b[0] -= mass * xi_prime / dt
    b[-1] -= mass * xi / dt
    lam = np.linalg.eigvalsh(a)
    log_sqrt_det = 0.5 * complex(np.sum(np.log(-1j * lam)))
    quad = float(b @ np.linalg.solve(a, b))
    c0 = 0.5 * mass * (xi_prime**2 + xi**2) / dt
    return cmath.exp(
        log_val + 0.5 * k * math.log(2.0 * math.pi) - log_sqrt_det
        + 1j * c0 - 0.5j * quad
    )


def gaussian_cylinder(a_matrix: np.ndarray, times, mass: float = 1.0) -> complex:
    """Path integral of e^{-(x - x0)^T A (x - x0) / 2} against the free kernel.

    x are the path values at the sample times (t_0 = 0 at the origin x0),
    so the integral is the n-dimensional complex Gaussian
    prod_j (2 pi i dt_j / m)^{-1/2} (2 pi)^{n/2} / sqrt(det(A - i B)),
    B = D^T diag(m / dt) D with D the difference operator.  With A = L L^T,
    det(A - iB) = det(A) prod(1 - i c_k) for c_k the eigenvalues of
    L^{-1} B L^{-T}; each factor has real part 1, so the principal root
    is the continuous branch.
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    dts = np.diff(np.concatenate([[0.0], np.asarray(times, dtype=float)]))
    n = dts.size
    d = np.eye(n) - np.eye(n, k=-1)
    b_matrix = d.T @ np.diag(mass / dts) @ d
    chol = np.linalg.cholesky(a_matrix)
    linv = np.linalg.inv(chol)
    ck = np.linalg.eigvalsh(linv @ b_matrix @ linv.T)
    sqrt_det = math.sqrt(float(np.linalg.det(a_matrix))) * complex(
        np.prod(np.sqrt(1.0 - 1j * ck))
    )
    norm = complex(np.prod([cmath.sqrt(mass / (2j * math.pi * dt)) for dt in dts]))
    return norm * (2.0 * math.pi) ** (0.5 * n) / sqrt_det


def chirped_primitive(coef, gamma: complex):
    """(F, F') for F(x) = p(x) e^{gamma x^2}, p with coefficients coef (low first)."""
    p = np.polynomial.Polynomial(np.asarray(coef, dtype=complex))
    dp = p.deriv()
    lin = np.polynomial.Polynomial([0.0, 2.0 * gamma])

    def f(x):
        x = np.asarray(x, dtype=float)
        return p(x) * np.exp(gamma * x * x)

    def fprime(x):
        x = np.asarray(x, dtype=float)
        return (dp(x) + lin(x) * p(x)) * np.exp(gamma * x * x)

    return f, fprime


def first_order_sin_term(xi_prime: float, xi: float, tau: float,
                         mass: float = 1.0) -> complex:
    """First perturbation term for V(x) = sin x, from (xi', 0) to (xi, tau).

    -i psi0 Int_0^tau E[sin(mu(s) + W)] ds, where the bridge point has mean
    mu(s) = xi' + (s / tau)(xi - xi') and complex variance
    v(s) = i s (tau - s) / (tau m), so E[sin(mu + W)] = sin(mu) e^{-v/2}.
    Integrated with scipy's adaptive quadrature (real and imaginary parts).
    """
    def integrand(s):
        mu = xi_prime + (s / tau) * (xi - xi_prime)
        v = 1j * s * (tau - s) / (tau * mass)
        return math.sin(mu) * cmath.exp(-0.5 * v)

    re, _ = _sint.quad(lambda s: integrand(s).real, 0.0, tau, epsabs=0.0,
                       epsrel=1e-13, limit=200)
    im, _ = _sint.quad(lambda s: integrand(s).imag, 0.0, tau, epsabs=0.0,
                       epsrel=1e-13, limit=200)
    return -1j * free_kernel(xi - xi_prime, tau, mass) * complex(re, im)
