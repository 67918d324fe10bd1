"""Acceptance suite: one runnable check per advertised capability.

Each criterion function performs its measurements against independently
computed references (closed forms, factorial remainder bounds, the
Mehler kernel, error-function window masses) and returns a
CriterionResult with a pass/fail flag, a one-line detail and its own
elapsed time.  The CLI selftest and the acceptance tests both drive
these runners.
"""

from __future__ import annotations

import cmath
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
from .integrate import (
    OscillatoryTailSpec,
    fresnel_line_integral,
    hk_integrate_1d,
    oscillatory_improper,
)
from .propagator import (
    Potential,
    PropagatorQuery,
    free_kernel_semigroup_residual,
    harmonic_kernel_closed,
    perturbation_partial_sums,
    perturbation_terms,
    psi0_closed,
    psi0_sliced,
    psi_sliced,
)
from .reports import exchange_documents, fresnel_table

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
    "run_all",
    "format_line",
]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    elapsed_seconds: float


def _result(number, title, start, failures, detail_ok):
    elapsed = time.perf_counter() - start
    if failures:
        return CriterionResult(number, title, False, "; ".join(failures), elapsed)
    return CriterionResult(number, title, True, detail_ok, elapsed)


# ---------------------------------------------------------------------------


def criterion_1_fresnel_values(cfg: RunConfig | None = None) -> CriterionResult:
    """Quadratic-phase line integrals match their closed forms."""
    cfg = cfg or RunConfig()
    start = time.perf_counter()
    tol = cfg.integrator.tol
    failures = []
    worst = 0.0

    checks = [
        ("exp(ix^2/2) full line", fresnel_line_integral(1j, tol),
         cmath.sqrt(2.0 * math.pi / (-1j))),
        ("exp(iy^2) full line", fresnel_line_integral(2j, tol),
         cmath.sqrt(1j * math.pi)),
    ]
    for label, numeric, reference in checks:
        rel = abs(numeric - reference) / abs(reference)
        worst = max(worst, rel)
        if rel > 1e-6:
            failures.append(f"{label}: rel err {rel:.3e} > 1e-6")

    half = oscillatory_improper(
        OscillatoryTailSpec(
            phase_quadratic_coefficient=2j, lower_limit=0.0, direction=+1
        ),
        tol,
    )
    quarter = 0.5 * math.sqrt(0.5 * math.pi)
    for label, numeric in [("cos(u^2) half line", half.real),
                           ("sin(u^2) half line", half.imag)]:
        err = abs(numeric - quarter)
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(f"{label}: err {err:.3e} > 1e-6")

    return _result(
        1, "oscillatory closed forms", start, failures,
        f"4 values, worst deviation {worst:.3e} (tol 1e-6)",
    )


def criterion_2_distribution_normalization(
    cfg: RunConfig | None = None,
) -> CriterionResult:
    """Full-space mass of the oscillatory distributions is exactly one."""
    cfg = cfg or RunConfig()
    start = time.perf_counter()
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

    return _result(
        2, "distribution normalization", start, failures,
        f"n=1,2,3 plus 5 random schedules, worst deviation {worst:.3e} (tol 1e-8)",
    )


def criterion_3_free_propagator(cfg: RunConfig | None = None) -> CriterionResult:
    """Sliced free kernels match the closed form; kernels compose."""
    cfg = cfg or RunConfig()
    start = time.perf_counter()
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

    return _result(
        3, "free propagator", start, failures,
        f"15 sliced queries worst rel {worst_rel:.3e} (tol 1e-3); "
        f"3 composition residuals worst {worst_res:.3e} (tol 1e-4)",
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
    target = base * cmath.exp(-1j * c * tau)
    x = abs(c) * tau
    checks = []
    for m, s_m in enumerate(perturbation_partial_sums(12, q, mass=mass)):
        bound = x ** (m + 1) / math.factorial(m + 1) * abs(base) + 1e-6
        checks.append((m, abs(s_m - target), bound))
    return q, checks


def criterion_4_perturbation_series(
    cfg: RunConfig | None = None,
) -> CriterionResult:
    """Constant-potential partial sums obey the factorial remainder bound."""
    cfg = cfg or RunConfig()
    start = time.perf_counter()
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

    return _result(
        4, "perturbation series", start, failures,
        f"m<=12 remainder bounds (worst margin {worst_margin:.3f} of bound); "
        f"term ratios r<=6 worst rel {worst_ratio:.3e} (tol 1e-5)",
    )


def criterion_5_harmonic_cross_check(
    cfg: RunConfig | None = None,
) -> CriterionResult:
    """Sliced harmonic-oscillator kernel matches the closed kernel."""
    cfg = cfg or RunConfig()
    start = time.perf_counter()
    grid = cfg.slice_grid()
    mass = cfg.pathint.mass
    omega, tau = 0.5, 0.5
    q = PropagatorQuery(
        xi_prime=0.0,
        tau_prime=0.0,
        xi=0.3,
        tau=tau,
        slices=16,
        potential=Potential.harmonic(omega),
    )
    got = psi_sliced(q, grid, mass=mass)
    want = harmonic_kernel_closed(q, omega, mass=mass)
    rel = abs(got - want) / abs(want)
    failures = [] if rel <= 1e-2 else [f"rel err {rel:.3e} > 1e-2"]
    return _result(
        5, "harmonic cross-check", start, failures,
        f"16 slices, omega=0.5, tau=0.5: rel err {rel:.3e} (tol 1e-2)",
    )


def criterion_6_growth_witness(cfg: RunConfig | None = None) -> CriterionResult:
    """|g0| window sums grow linearly; a Gaussian control stays bounded."""
    cfg = cfg or RunConfig()
    start = time.perf_counter()
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

    return _result(
        6, "non-integrability witness", start, failures,
        f"7 rows worst deviation {worst:.3e} (tol 1e-10); "
        f"|g0| {verdict}, Gaussian control {control}",
    )


def criterion_7_property_suites(cfg: RunConfig | None = None) -> CriterionResult:
    """Random-input property suites: divisions, integrator laws, determinism."""
    cfg = cfg or RunConfig()
    start = time.perf_counter()
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
    docs_a = exchange_documents(q, 6, cfg)
    docs_b = exchange_documents(q, 6, cfg)
    table_a = fresnel_table(None, cfg.integrator.tol)
    table_b = fresnel_table(None, cfg.integrator.tol)
    if any(docs_a[k].encode() != docs_b[k].encode() for k in docs_a):
        failures.append("exchange documents differ between identical runs")
    if table_a.encode() != table_b.encode():
        failures.append("oscillatory-value tables differ between identical runs")

    return _result(
        7, "property suites", start, failures,
        "500 division round-trips, 200 integrand-pair law checks, "
        "byte-identical repeated reports",
    )


def criterion_8_coexistence_report(
    cfg: RunConfig | None = None,
) -> CriterionResult:
    """Series convergence coexists with an unbounded dominating envelope.

    The exchange of the series and the integral is not decidable
    numerically; what is checkable is that the partial sums converge
    (factorial remainder bound) while the natural envelope |g0| fails
    the integrability probe.  This criterion re-asserts both facts and
    passes exactly when they coexist.
    """
    cfg = cfg or RunConfig()
    start = time.perf_counter()
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

    detail = (
        "series converges (remainder bounds m<=12) while |g0| growth is "
        f"{verdict}: the dominating-function hypothesis fails, so the "
        "series/integral exchange stays numerically undecided"
    )
    return _result(8, "coexistence report", start, failures, detail)


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


def run_all(cfg: RunConfig | None = None) -> list[CriterionResult]:
    cfg = cfg or RunConfig()
    return [criterion(cfg) for criterion in ALL_CRITERIA]


def format_line(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return (
        f"criterion {result.number} [{status}] {result.title} "
        f"({result.elapsed_seconds:.1f}s): {result.detail}"
    )
