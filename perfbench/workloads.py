"""The three benchmark workloads, generated from a seed.

Each workload function returns a list of Op: a call into gaugeint's public API
(timed), an untimed extraction of the values it produced, and oracle
values computed here, before any timing.  The cost-setting parameters
of every workload (slice counts, grids, orders, tolerances) are fixed;
the seed draws end points, potential strengths, windows and integrands,
which change the answers but not the amount of work, so run-to-run
spread reflects the machine rather than the inputs.
"""

from __future__ import annotations

import cmath
import csv
import dataclasses
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import oracles

SIN_FIT_DEFECT = (
    "custom potentials are fitted by an unchecked degree-24 Chebyshev "
    "polynomial; sin(x) on the extent-16 window is off by ~4e-4 (ROADMAP item 4)"
)
# The documented size of that defect, with headroom across seeds.  A raise,
# a non-finite value or a larger error is a new failure, not the defect.
SIN_FIT_CEILING = 1e-2


class CheckFailed(Exception):
    """A produced result has the wrong structure or a wrong categorical value."""


@dataclass
class Op:
    """One timed call into gaugeint and how to check what it returned."""

    kind: str
    run: Callable[[], object]
    values: Callable[[object], list]
    reference: list
    tol: list
    scale: list = field(default_factory=list)
    graded: bool = True  # has a numeric oracle, so it counts in accuracy_digits
    known_defect: str = ""
    defect_ceiling: float = 0.0  # largest error the known defect excuses

    def error(self, vals: list) -> tuple[float, bool]:
        """(largest scaled error, every value within its tolerance); NaN counts as inf."""
        if len(vals) != len(self.reference):
            raise CheckFailed(f"{len(vals)} values, expected {len(self.reference)}")
        worst, ok = 0.0, True
        for i, (v, r) in enumerate(zip(vals, self.reference)):
            s = self.scale[i] if self.scale else max(abs(r), 1e-300)
            err = abs(complex(v) - complex(r)) / s
            if math.isnan(err):
                err = math.inf
            worst = max(worst, err)
            ok = ok and err <= self.tol[i]
        return worst, ok

    def excused(self, error: float | None) -> bool:
        """Whether a failure is the known defect at its documented size."""
        return bool(self.known_defect) and error is not None and error <= self.defect_ceiling


class Callback:
    """A callable handed to gaugeint (integrand or potential).

    While the tracer is active each call opens a span named kind and adds
    the number of points evaluated to the kind's point counter.
    """

    def __init__(self, kind: str, fn, tracer):
        self.kind, self.fn, self.tracer = kind, fn, tracer

    def __call__(self, x, *rest):
        tracer = self.tracer
        if tracer is None or not tracer.active:
            return self.fn(x, *rest)
        tracer.points[self.kind] += np.size(x)
        return tracer.span(self.kind, self.fn, x, *rest)


def _potential(tracer, tagged):
    """A gaugeint Potential whose evaluator reports to the tracer."""
    return dataclasses.replace(
        tagged, evaluate=Callback("potential", tagged.evaluate, tracer)
    )


def _csv_column(text: str, column: str) -> list[complex]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][0] != "format_version":
        raise CheckFailed("report lacks its format_version line")
    header = rows[1]
    if column not in header:
        raise CheckFailed(f"report has no column {column!r}")
    j = header.index(column)
    return [complex(r[j]) for r in rows[2:]]


# ---------------------------------------------------------------------------
# sliced


def sliced(g, seed: int, tracer=None) -> list[Op]:
    """Four psi_sliced queries: free, constant, harmonic, free on twice the points.

    Slice counts 3-4 keep a pass near ten seconds at the seed: each slice
    adds one dense N x N bridge step, so these counts exercise the same
    kernel as longer queries, in proportion.
    """
    rng = np.random.default_rng(seed)
    grid = g.SliceGrid(16.0, 768, 1e-3)
    fine = g.SliceGrid(16.0, 1536, 1e-3)
    ops = []
    # (potential kind, slices, grid, duration): durations are fixed because
    # they set how many cells fall in the Maclaurin branch of the moments
    for kind, slices, gr, tau in (
        ("free", 4, grid, 1.0),
        ("constant", 4, grid, 1.0),
        ("harmonic", 4, grid, 0.5),
        ("free", 3, fine, 1.0),
    ):
        xi_prime, xi = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        psi0 = oracles.free_kernel(xi - xi_prime, tau)
        if kind == "free":
            pot = g.Potential.zero()
            ref = psi0
        elif kind == "constant":
            c = float(rng.uniform(0.5, 2.0))
            pot = g.Potential.constant_potential(c)
            ref = psi0 * cmath.exp(-1j * c * tau)
        else:
            # omega * tau stays well inside (0, pi); at tau = 0.5 the default
            # window passes psi_sliced's own truncation probe for |xi| <= 1
            omega = float(rng.uniform(0.3, 0.8))
            pot = g.Potential.harmonic(omega)
            ref = oracles.harmonic_left_point(xi_prime, xi, tau, slices, omega)
        q = g.PropagatorQuery(
            xi_prime, 0.0, xi, tau, slices=slices, potential=_potential(tracer, pot)
        )
        ops.append(Op(
            kind=f"sliced.{kind}.n{slices}.p{gr.points}",
            run=lambda q=q, gr=gr: g.psi_sliced(q, gr),
            values=lambda v: [v],
            reference=[ref],
            tol=[1e-3],
        ))
    return ops


# ---------------------------------------------------------------------------
# series


def series(g, seed: int, tracer=None) -> list[Op]:
    """Perturbation tables and exchange reports (slices 2) plus custom fits."""
    from gaugeint import config, reports

    rng = np.random.default_rng(seed)
    cfg = config.RunConfig()
    grid = g.SliceGrid(cfg.pathint.extent, cfg.pathint.points, cfg.integrator.damping)

    def endpoints():
        xi_prime, xi = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        tau = float(rng.uniform(0.5, 1.0))
        return xi_prime, xi, tau

    def query(xi_prime, xi, tau, pot):
        return g.PropagatorQuery(
            xi_prime, 0.0, xi, tau, slices=2, potential=_potential(tracer, pot)
        )

    ops = []

    # perturb_table, constant V, m <= 12: every row against the exact
    # truncated sum
    xi_prime, xi, tau = endpoints()
    c = float(rng.uniform(0.5, 2.0))
    q = query(xi_prime, xi, tau, g.Potential.constant_potential(c))
    psi0 = oracles.free_kernel(xi - xi_prime, tau)
    ops.append(Op(
        kind="series.perturb_table.constant.m12",
        run=lambda q=q: reports.perturb_table(q, 12, cfg),
        values=lambda text: _csv_column(text, "partial_sum"),
        reference=[oracles.constant_truncated_sum(psi0, c, tau, m) for m in range(13)],
        tol=[1e-6] * 13,
    ))

    # exchange documents, constant V, m <= 12: partial sums, the 2-slice
    # value (exact for constant V) and the verdict
    xi_prime, xi, tau = endpoints()
    c = float(rng.uniform(0.5, 2.0))
    q = query(xi_prime, xi, tau, g.Potential.constant_potential(c))
    psi0 = oracles.free_kernel(xi - xi_prime, tau)

    def exchange_values(docs, m_found_expected):
        verdict = json.loads(docs["verdict.json"])
        if verdict["beta_probe"] != "UNBOUNDED":
            raise CheckFailed(f"beta_probe {verdict['beta_probe']}, expected UNBOUNDED")
        if m_found_expected(verdict["m_found"]) is False:
            raise CheckFailed(f"unexpected m_found {verdict['m_found']}")
        sums = _csv_column(docs["comparison.csv"], "partial_sum")
        sliced_val = _csv_column(docs["comparison.csv"], "sliced")[0]
        return sums + [sliced_val]

    ops.append(Op(
        kind="series.exchange.constant.m12",
        run=lambda q=q: reports.exchange_documents(q, 12, cfg),
        values=lambda docs: exchange_values(docs, lambda m: m >= 0),
        reference=[oracles.constant_truncated_sum(psi0, c, tau, m) for m in range(13)]
        + [psi0 * cmath.exp(-1j * c * tau)],
        tol=[1e-6] * 13 + [1e-3],
    ))

    # exchange documents, harmonic V, m <= 10: the order-10 sum against the
    # continuum kernel, the 2-slice value against its exact discrete value.
    # tau = 0.5 as in the sliced workload: near tau = 0.9 the default window
    # lets through 2-slice errors just above rtol (the truncation probe
    # allows 2 rtol), and at tau = 1 the probe raises GridTooCoarseError.
    xi_prime, xi, _ = endpoints()
    tau = 0.5
    omega = float(rng.uniform(0.3, 0.8))
    q = query(xi_prime, xi, tau, g.Potential.harmonic(omega))
    ops.append(Op(
        kind="series.exchange.harmonic.m10",
        run=lambda q=q: reports.exchange_documents(q, 10, cfg),
        values=lambda docs: [exchange_values(docs, lambda m: m == -1)[i] for i in (10, 11)],
        reference=[
            oracles.harmonic_mehler(xi_prime, xi, tau, omega),
            oracles.harmonic_left_point(xi_prime, xi, tau, 2, omega),
        ],
        tol=[1e-6, 1e-3],
    ))

    # a constant given as a custom potential takes the degree-24 fit path;
    # the fit is exact for it, so the first-order sum must be exact too
    xi_prime, xi, tau = endpoints()
    c = float(rng.uniform(0.5, 2.0))
    q = query(xi_prime, xi, tau, g.Potential.custom(
        lambda x, _t, _c=c: np.full_like(np.asarray(x, dtype=float), _c)))
    psi0 = oracles.free_kernel(xi - xi_prime, tau)
    ops.append(Op(
        kind="series.custom_constant.sum1",
        run=lambda q=q: g.perturbation_partial_sum(1, q, grid),
        values=lambda v: [v],
        reference=[oracles.constant_truncated_sum(psi0, c, tau, 1)],
        tol=[1e-6],
    ))

    # custom sin on the default window: the known fit defect, kept visible.
    # The error is scaled by |psi0| tau sup|V|, the size bound of a
    # first-order term, because the term itself can nearly cancel.
    xi_prime, xi, tau = endpoints()
    q = query(xi_prime, xi, tau, g.Potential.custom(lambda x, _t: np.sin(x)))
    ops.append(Op(
        kind="series.custom_sin.term1",
        run=lambda q=q: g.perturbation_term(1, q, grid),
        values=lambda v: [v],
        reference=[oracles.first_order_sin_term(xi_prime, xi, tau)],
        scale=[abs(oracles.free_kernel(xi - xi_prime, tau)) * tau],
        tol=[1e-6],
        known_defect=SIN_FIT_DEFECT,
        defect_ceiling=SIN_FIT_CEILING,
    ))
    return ops


# ---------------------------------------------------------------------------
# quad


def _classic_derivative(x):
    """d/dx [x^2 sin(1/x^2)], extended by 0 at the origin; integral over (0, 1) is sin 1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x, dtype=complex)
    nz = x != 0.0
    xs = x[nz]
    out[nz] = 2.0 * xs * np.sin(1.0 / xs**2) - (2.0 / xs) * np.cos(1.0 / xs**2)
    return out


def _gauge_roundtrip(g, a: float, b: float) -> list:
    """1 if the Cousin division validates and survives JSON exactly, else 0."""

    def delta(x, a=a, b=b):
        if math.isinf(x):
            return a
        return a + b / (1.0 + x * x)

    gauge = g.Gauge1D(delta)
    division = g.cousin_division(gauge)
    report = g.validate_division(division, gauge)
    text = g.division_to_json(division)
    back = g.division_from_json(text)
    return [1.0 if report.ok and back == division and g.division_to_json(back) == text else 0.0]


def quad(g, seed: int, tracer=None) -> list[Op]:
    """Fresnel lines, chirped-Gaussian and peeled 1-D integrals, cylinder
    reductions at n = 1, 2, and Cousin divisions of seeded gauges."""
    rng = np.random.default_rng(seed)
    ops = []

    for k in range(2):
        c = complex(-rng.uniform(0.0, 0.1), rng.uniform(0.8, 1.5))
        ops.append(Op(
            kind="quad.fresnel_line",
            run=lambda c=c: g.fresnel_line_integral(c, 1e-8),
            values=lambda v: [v],
            reference=[cmath.sqrt(2.0 * math.pi / (-c))],
            tol=[1e-6],
        ))

    for k in range(12):
        coef = rng.normal(size=4) + 1j * rng.normal(size=4)
        gamma = complex(-rng.uniform(0.3, 1.0), rng.uniform(0.0, 3.0))
        a, b = float(rng.uniform(-3.0, -0.5)), float(rng.uniform(0.5, 3.0))
        prim, deriv = oracles.chirped_primitive(coef, gamma)
        fa, fb = complex(prim(a)), complex(prim(b))
        f = Callback("integrand", deriv, tracer)
        ops.append(Op(
            kind="quad.hk_chirped",
            run=lambda f=f, a=a, b=b: g.hk_integrate_1d(f, (a, b), 1e-9),
            values=lambda rep: [rep.value],
            reference=[fb - fa],
            # the primitive's size sets the scale: F(b) - F(a) alone can cancel
            scale=[max(abs(fa), abs(fb), abs(fb - fa))],
            tol=[1e-7],
        ))

    peel = Callback("integrand", _classic_derivative, tracer)
    ops.append(Op(
        kind="quad.hk_peel",
        run=lambda: g.hk_integrate_1d(peel, (0.0, 1.0), 1e-3),
        values=lambda rep: [rep.value],
        reference=[complex(math.sin(1.0))],
        tol=[1e-3],
    ))

    # cylinder reductions of e^{-(x - x0)^T A (x - x0) / 2}
    for n, tol in ((1, 1e-6), (2, 1e-4)):
        x0 = float(rng.uniform(-1.0, 1.0))
        if n == 1:
            a_matrix = np.array([[rng.uniform(0.5, 1.5)]])
            times = (float(rng.uniform(0.5, 1.5)),)
        else:
            rot = np.linalg.qr(rng.normal(size=(2, 2)))[0]
            a_matrix = rot @ np.diag(rng.uniform(0.6, 1.2, size=2)) @ rot.T
            t1 = float(rng.uniform(0.5, 0.7))
            times = (t1, t1 + float(rng.uniform(0.5, 0.9)))

        def gaussian(p, a_matrix=a_matrix, x0=x0):
            d = p - x0
            return np.exp(-0.5 * np.einsum("mi,ij,mj->m", d, a_matrix, d))

        f = Callback("integrand", gaussian, tracer)
        sched = g.IncrementSchedule(times, origin_point=x0)
        ops.append(Op(
            kind=f"quad.cylinder.n{n}",
            run=lambda f=f, times=times, sched=sched, tol=tol: g.reduce_cylinder_integral(
                f, g.TimeSet(times), sched, tol),
            values=lambda v: [v],
            reference=[oracles.gaussian_cylinder(a_matrix, times)],
            scale=[1.0],
            tol=[tol],
        ))

    for k in range(32):
        a = float(10.0 ** rng.uniform(-1.3, 0.2))
        b = float(rng.uniform(0.0, 4.0))
        ops.append(Op(
            kind="quad.division",
            run=lambda a=a, b=b: _gauge_roundtrip(g, a, b),
            values=lambda v: v,
            reference=[1.0],
            tol=[0.0],
            graded=False,
        ))
    return ops


WORKLOADS = {"sliced": sliced, "series": series, "quad": quad}
