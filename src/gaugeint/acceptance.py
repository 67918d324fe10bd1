"""Acceptance suite: one runnable check per advertised capability.

Each criterion function performs its measurements against independently
computed references (closed forms, factorial remainder bounds, the
Mehler kernel, error-function window masses) and returns a
CriterionResult with a pass/fail flag, a one-line detail and its own
elapsed time.  The CLI selftest and the acceptance tests both drive
these runners.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .cells import (
    Cell1D,
    Gauge1D,
    cousin_division,
    division_from_json,
    division_to_json,
    validate_division,
)
from .config import RunConfig
from .exchange import (
    _DEFAULT_PROBE_RADII,
    abs_g0_growth,
    envelope_growth_table,
    gaussian_envelope,
    growth_verdict,
)
from .fresnel import FigureND, IncrementSchedule, fresnel_distribution, incremental_distribution
from .integrate import hk_integrate_1d
from .propagator import (
    Potential,
    PropagatorQuery,
    closed_kernel,
    free_kernel_semigroup_residual,
    perturbation_partial_sums,
    perturbation_terms,
    psi0_closed,
    psi0_sliced,
    psi_sliced,
)
from .reports import exchange_documents, fresnel_references, fresnel_table

__all__ = [
    "CriterionResult",
    "criterion_1_fresnel_values",
    "criterion_2_distribution_normalization",
    "criterion_3_free_propagator",
    "criterion_4_perturbation_series",
    "criterion_5_harmonic_cross_check",
    "criterion_6_growth_witness",
    "criterion_7_property_suites",
    "criterion_8_coexistence_report",
    "ALL_CRITERIA",
    "format_line",
]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    elapsed_seconds: float


def _criterion(number: int, title: str):
    """Turn body(cfg) -> (failures, detail) into criterion `number`.

    The criterion takes cfg=None for the default RunConfig, times the
    body, and fails exactly when the body reports failures, which then
    form its detail, joined by "; ".
    """

    def decorate(body):
        @functools.wraps(body)
        def run(cfg: RunConfig | None = None) -> CriterionResult:
            cfg = cfg or RunConfig()
            start = time.perf_counter()
            failures, detail = body(cfg)
            elapsed = time.perf_counter() - start
            return CriterionResult(
                number, title, not failures, "; ".join(failures) or detail, elapsed
            )

        return run

    return decorate


# ---------------------------------------------------------------------------


@_criterion(1, "oscillatory closed forms")
def criterion_1_fresnel_values(cfg: RunConfig):
    """Quadratic-phase line integrals match their closed forms.

    The rows of the fresnel report; the error is relative for the
    full-line values (|reference| > 1) and absolute for the half-line ones.
    """
    failures = []
    worst = 0.0
    for label, numeric, reference in fresnel_references(None, cfg.integrator.tol):
        err = abs(numeric - reference) / max(abs(reference), 1.0)
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(f"{label}: err {err:.3e} > 1e-6")
    return failures, f"4 values, worst deviation {worst:.3e} (tol 1e-6)"


@_criterion(2, "distribution normalization")
def criterion_2_distribution_normalization(cfg: RunConfig):
    """Full-space mass of the oscillatory distributions is exactly one."""
    failures = []
    worst = 0.0

    for n in (1, 2, 3):
        fig = FigureND(cells=(tuple(Cell1D.full_line() for _ in range(n)),))
        err = abs(fresnel_distribution(fig) - 1.0)
        worst = max(worst, err)
        if err > 1e-8:
            failures.append(f"G_{n}(full space): err {err:.3e} > 1e-8")

    rng = np.random.default_rng(cfg.lab.seed + 2)
    for k in range(5):
        n = int(rng.integers(1, 5))
        increments = rng.uniform(0.2, 2.0, size=n)
        times = tuple(np.cumsum(increments))
        sched = IncrementSchedule(times)
        cells = tuple(Cell1D.full_line() for _ in range(n))
        err = abs(incremental_distribution(cells, sched) - 1.0)
        worst = max(worst, err)
        if err > 1e-8:
            failures.append(
                f"incremental mass, schedule {k} (n={n}): err {err:.3e} > 1e-8"
            )

    return failures, (
        f"n=1,2,3 plus 5 random schedules, worst deviation {worst:.3e} (tol 1e-8)"
    )


@_criterion(3, "free propagator")
def criterion_3_free_propagator(cfg: RunConfig):
    """Sliced free kernels match the closed form; kernels compose."""
    grid = cfg.slice_grid()
    mass = cfg.pathint.mass
    failures = []
    worst_rel = 0.0

    points = [(0.0, 1.0), (0.5, 1.0), (1.0, 0.8), (-0.7, 1.5), (0.3, 0.6)]
    for n in (2, 4, 8):
        for xi, tau in points:
            q = PropagatorQuery(
                xi_prime=0.0, tau_prime=0.0, xi=xi, tau=tau, slices=n
            )
            got = psi0_sliced(q, grid, mass=mass)
            want = psi0_closed(q, mass=mass)
            rel = abs(got - want) / abs(want)
            worst_rel = max(worst_rel, rel)
            if rel > 1e-3:
                failures.append(
                    f"psi0_sliced n={n}, (xi={xi}, tau={tau}): rel {rel:.3e} > 1e-3"
                )

    rng = np.random.default_rng(cfg.lab.seed + 3)
    worst_res = 0.0
    for _ in range(3):
        s = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(0.3, 2.0))
        xi_prime = float(rng.uniform(-1.0, 1.0))
        xi = float(rng.uniform(-1.0, 1.0))
        res = free_kernel_semigroup_residual(xi_prime, xi, s, t, mass=mass)
        worst_res = max(worst_res, res)
        if res > 1e-4:
            failures.append(
                f"composition residual at (s={s:.3f}, t={t:.3f}): {res:.3e} > 1e-4"
            )

    return failures, (
        f"15 sliced queries worst rel {worst_rel:.3e} (tol 1e-3); "
        f"3 composition residuals worst {worst_res:.3e} (tol 1e-4)"
    )


def _remainder_checks(c: float, tau: float, mass: float):
    """The constant-potential query and (m, gap, bound) for m <= 12.

    gap is |S_m - psi0 e^{-i c tau}| at xi = 0.3 and bound the factorial
    remainder (|c| tau)^(m+1) / (m+1)! |psi0| plus 1e-6.
    """
    q = PropagatorQuery(
        xi_prime=0.0,
        tau_prime=0.0,
        xi=0.3,
        tau=tau,
        slices=1,
        potential=Potential.constant_potential(c),
    )
    base = psi0_closed(q, mass=mass)
    target = closed_kernel(q, mass=mass)
    x = abs(c) * tau
    checks = []
    for m, s_m in enumerate(perturbation_partial_sums(12, q, mass=mass)):
        bound = x ** (m + 1) / math.factorial(m + 1) * abs(base) + 1e-6
        checks.append((m, abs(s_m - target), bound))
    return q, checks


@_criterion(4, "perturbation series")
def criterion_4_perturbation_series(cfg: RunConfig):
    """Constant-potential partial sums obey the factorial remainder bound."""
    mass = cfg.pathint.mass
    failures = []
    worst_margin = 0.0
    worst_ratio = 0.0

    for c in (1.0, 2.0):
        tau = 1.0  # |c| * tau = 1 and 2
        q, checks = _remainder_checks(c, tau, mass)
        for m, gap, bound in checks:
            worst_margin = max(worst_margin, gap / bound)
            if gap > bound:
                failures.append(
                    f"c={c}, m={m}: |S_m - target| {gap:.3e} > bound {bound:.3e}"
                )

        terms = perturbation_terms(6, q, mass=mass)
        for r, (prev, term) in enumerate(zip(terms, terms[1:]), start=1):
            got = term / prev
            want = (-1j * c * tau) / r
            rel = abs(got - want) / abs(want)
            worst_ratio = max(worst_ratio, rel)
            if rel > 1e-5:
                failures.append(
                    f"c={c}, ratio r={r}: rel err {rel:.3e} > 1e-5"
                )

    return failures, (
        f"m<=12 remainder bounds (worst margin {worst_margin:.3f} of bound); "
        f"term ratios r<=6 worst rel {worst_ratio:.3e} (tol 1e-5)"
    )


@_criterion(5, "harmonic cross-check")
def criterion_5_harmonic_cross_check(cfg: RunConfig):
    """Sliced harmonic-oscillator kernel matches the closed kernel."""
    mass = cfg.pathint.mass
    q = PropagatorQuery(
        xi_prime=0.0,
        tau_prime=0.0,
        xi=0.3,
        tau=0.5,
        slices=16,
        potential=Potential.harmonic(0.5),
    )
    got = psi_sliced(q, cfg.slice_grid(), mass=mass)
    want = closed_kernel(q, mass=mass)
    rel = abs(got - want) / abs(want)
    failures = [] if rel <= 1e-2 else [f"rel err {rel:.3e} > 1e-2"]
    return failures, f"16 slices, omega=0.5, tau=0.5: rel err {rel:.3e} (tol 1e-2)"


@_criterion(6, "non-integrability witness")
def criterion_6_growth_witness(cfg: RunConfig):
    """|g0| window sums grow linearly; a Gaussian control stays bounded."""
    failures = []
    radii = _DEFAULT_PROBE_RADII

    dt = 1.0
    table = abs_g0_growth(IncrementSchedule((dt,)), radii)
    worst = 0.0
    for r, v in zip(table.radii, table.values):
        err = abs(v - 2.0 * r / math.sqrt(2.0 * math.pi * dt))
        worst = max(worst, err)
        if err > 1e-10:
            failures.append(f"row R={r}: err {err:.3e} > 1e-10")
    verdict = growth_verdict(table)
    if verdict != "UNBOUNDED":
        failures.append(f"|g0| verdict {verdict}, expected UNBOUNDED")

    control = growth_verdict(envelope_growth_table(gaussian_envelope(1.0), radii))
    if control != "BOUNDED":
        failures.append(f"Gaussian control verdict {control}, expected BOUNDED")

    return failures, (
        f"7 rows worst deviation {worst:.3e} (tol 1e-10); "
        f"|g0| {verdict}, Gaussian control {control}"
    )


@_criterion(7, "property suites")
def criterion_7_property_suites(cfg: RunConfig):
    """Random-input property suites: divisions, integrator laws, determinism."""
    failures = []

    # -- 500 random gauges: build, validate, JSON round-trip
    rng = np.random.default_rng(cfg.lab.seed + 7)
    bad_divisions = 0
    for k in range(500):
        a = float(10.0 ** rng.uniform(-1.3, 0.2))
        b = float(rng.uniform(0.0, 4.0))

        def delta(x, a=a, b=b):
            if math.isinf(x):
                return a
            return a + b / (1.0 + x * x)

        gauge = Gauge1D(delta)
        division = cousin_division(gauge)
        report = validate_division(division, gauge)
        text = division_to_json(division)
        reparsed = division_from_json(text)
        ok = (
            report.ok
            and reparsed == division
            and division_to_json(reparsed) == text
        )
        if not ok:
            bad_divisions += 1
            if bad_divisions <= 3:
                failures.append(
                    f"gauge {k} (a={a:.3f}, b={b:.3f}): "
                    + ("; ".join(v.detail for v in report.violations[:2]) or "round-trip mismatch")
                )
    if bad_divisions:
        failures.append(f"{bad_divisions}/500 division round-trips failed")

    # -- 200 random integrand pairs: linearity, conjugation, additivity
    rng = np.random.default_rng(cfg.lab.seed + 70)
    tol = 1e-9
    budget = 1e-7
    bad_pairs = 0

    def random_integrand():
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        s = rng.uniform(0.3, 2.0)
        w = rng.uniform(0.0, 6.0)

        def f(x, p=p, s=s, w=w):
            return (p[0] + p[1] * x + p[2] * x * x) * np.exp(
                -s * x * x + 1j * w * x
            )

        return f

    for k in range(200):
        f = random_integrand()
        g = random_integrand()
        a = float(rng.uniform(-3.0, -0.5))
        b = float(rng.uniform(0.5, 3.0))
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())

        int_f = hk_integrate_1d(f, (a, b), tol).value
        int_g = hk_integrate_1d(g, (a, b), tol).value
        combo = hk_integrate_1d(
            lambda x: alpha * f(x) + beta * g(x), (a, b), tol
        ).value
        lin_err = abs(combo - alpha * int_f - beta * int_g)

        conj_val = hk_integrate_1d(lambda x: np.conj(f(x)), (a, b), tol).value
        conj_err = abs(conj_val - np.conj(int_f))

        c = float(rng.uniform(a + 0.1, b - 0.1))
        left = hk_integrate_1d(f, (a, c), tol).value
        right = hk_integrate_1d(f, (c, b), tol).value
        add_err = abs(left + right - int_f)

        scale = 1.0 + abs(alpha) + abs(beta)
        if lin_err > budget * scale or conj_err > budget or add_err > budget:
            bad_pairs += 1
            if bad_pairs <= 3:
                failures.append(
                    f"pair {k}: linearity {lin_err:.2e}, conjugation "
                    f"{conj_err:.2e}, additivity {add_err:.2e} (budget {budget:g})"
                )
    if bad_pairs:
        failures.append(f"{bad_pairs}/200 integrand pairs broke a law")

    # -- determinism: identical config + seed => identical bytes
    q = PropagatorQuery(
        xi_prime=0.0,
        tau_prime=0.0,
        xi=0.3,
        tau=1.0,
        slices=4,
        potential=Potential.constant_potential(1.0),
    )
    if exchange_documents(q, 6, cfg) != exchange_documents(q, 6, cfg):
        failures.append("exchange documents differ between identical runs")
    tables = [fresnel_table(None, cfg.integrator.tol) for _ in range(2)]
    if tables[0] != tables[1]:
        failures.append("oscillatory-value tables differ between identical runs")

    return failures, (
        "500 division round-trips, 200 integrand-pair law checks, "
        "byte-identical repeated reports"
    )


@_criterion(8, "coexistence report")
def criterion_8_coexistence_report(cfg: RunConfig):
    """Series convergence coexists with an unbounded dominating envelope.

    The exchange of the series and the integral is not decidable
    numerically; what is checkable is that the partial sums converge
    (factorial remainder bound) while the natural envelope |g0| fails
    the integrability probe.  This criterion re-asserts both facts and
    passes exactly when they coexist.
    """
    mass = cfg.pathint.mass
    failures = []

    tau = 1.0
    _, checks = _remainder_checks(1.0, tau, mass)
    for m, gap, bound in checks:
        if gap > bound:
            failures.append(f"partial sum m={m} misses its remainder bound")

    table = abs_g0_growth(IncrementSchedule((tau,)), _DEFAULT_PROBE_RADII)
    verdict = growth_verdict(table)
    if verdict != "UNBOUNDED":
        failures.append(f"|g0| growth verdict {verdict}, expected UNBOUNDED")

    return failures, (
        "series converges (remainder bounds m<=12) while |g0| growth is "
        f"{verdict}: the dominating-function hypothesis fails, so the "
        "series/integral exchange stays numerically undecided"
    )


ALL_CRITERIA = (
    criterion_1_fresnel_values,
    criterion_2_distribution_normalization,
    criterion_3_free_propagator,
    criterion_4_perturbation_series,
    criterion_5_harmonic_cross_check,
    criterion_6_growth_witness,
    criterion_7_property_suites,
    criterion_8_coexistence_report,
)


def format_line(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return (
        f"criterion {result.number} [{status}] {result.title} "
        f"({result.elapsed_seconds:.1f}s): {result.detail}"
    )
