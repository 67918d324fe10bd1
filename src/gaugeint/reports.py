"""Deterministic text reports: CSV tables and JSON verdict documents.

Everything here turns computed results into strings — no printing, no
argument parsing — so identical configuration and seed yield
byte-identical documents.  All numbers are rendered with 12 significant
digits and every document carries a format_version field.
"""

from __future__ import annotations

import cmath
import json
import math

from .config import FORMAT_VERSION, RunConfig
from .errors import _require_number
from .exchange import (
    abs_g0_growth,
    bounded_convergence_diagnostic,
    envelope_growth_table,
    exchange_experiment,
    free_modulus_envelope,
    growth_verdict,
    partial_sum_family,
)
from .fresnel import IncrementSchedule
from .integrate import OscillatoryTailSpec, fresnel_line_integral, oscillatory_improper
from .propagator import (
    Potential,
    PropagatorQuery,
    closed_kernel,
    perturbation_partial_sums,
    psi_sliced,
)

__all__ = [
    "sig",
    "sig_complex",
    "parse_potential",
    "parse_coefficient",
    "query_from_json_dict",
    "fresnel_references",
    "fresnel_table",
    "kernel_table",
    "perturb_table",
    "exchange_documents",
]


def sig(x: float) -> str:
    """12-significant-digit rendering of a real number."""
    return f"{float(x):.12g}"


def sig_complex(z: complex) -> str:
    """12-significant-digit a+bj / a-bj rendering of a complex number."""
    z = complex(z)
    op = "+" if z.imag >= 0 or math.isnan(z.imag) else "-"
    return f"{sig(z.real)}{op}{sig(abs(z.imag))}j"


def parse_coefficient(text: str) -> complex:
    """Parse a phase coefficient such as 'i', '-i', '2i' or '0.5i'."""
    cleaned = text.strip().replace("I", "i")
    if cleaned in {"i", "+i"}:
        return 1j
    if cleaned == "-i":
        return -1j
    try:
        if cleaned.endswith(("i", "j")):
            return float(cleaned[:-1]) * 1j
        return complex(float(cleaned))
    except ValueError:
        raise ValueError(f"cannot parse coefficient {text!r}") from None


def parse_potential(spec: str) -> Potential:
    """Parse a potential spec: zero | const:<c> | harmonic:<omega>."""
    name, _, arg = spec.strip().partition(":")
    name = name.lower()
    if name == "zero":
        if arg:
            raise ValueError("zero potential takes no argument")
        return Potential.zero()
    if name in {"const", "constant"}:
        return Potential.constant_potential(float(arg))
    if name == "harmonic":
        return Potential.harmonic(float(arg))
    raise ValueError(
        f"unknown potential {spec!r}; use zero, const:<c> or harmonic:<omega>"
    )


def query_from_json_dict(doc: dict) -> PropagatorQuery:
    """Build a propagator query from a JSON object.

    Recognised keys: xi_prime, tau_prime, xi, tau, slices, potential
    (a spec string as for parse_potential).  Missing keys default to a
    unit-duration free query from the origin.
    """
    if not isinstance(doc, dict):
        raise ValueError("query document must be a JSON object")
    known = {"xi_prime", "tau_prime", "xi", "tau", "slices", "potential"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown query keys: {sorted(unknown)}")
    potential = parse_potential(str(doc.get("potential", "zero")))
    reals = {"xi_prime": 0.0, "tau_prime": 0.0, "xi": 0.0, "tau": 1.0}
    return PropagatorQuery(
        **{k: _require_number(k, doc.get(k, v)) for k, v in reals.items()},
        slices=doc.get("slices", 1),
        potential=potential,
    )


def _csv(lines: list[str]) -> str:
    return "\n".join([f"format_version,{FORMAT_VERSION}", *lines]) + "\n"


# ---------------------------------------------------------------------------
# fresnel


def fresnel_references(
    c: complex | None = None, tol: float = 1e-8
) -> list[tuple[str, complex, complex]]:
    """(quantity, numeric, reference) rows of oscillatory integrals.

    With a coefficient c: one row for the full-line integral of
    exp(c x^2 / 2) against sqrt(2 pi / (-c)).  Without: the classic
    quadratic-phase values, two full lines and the two half-line Fresnel
    integrals of cos(u^2) and sin(u^2).
    """
    if c is not None:
        return [
            ("full_line_exp_half_c_x2", fresnel_line_integral(c, tol),
             cmath.sqrt(2.0 * math.pi / (-c))),
        ]
    half = oscillatory_improper(
        OscillatoryTailSpec(
            phase_quadratic_coefficient=2j, lower_limit=0.0, direction=+1
        ),
        tol,
    )
    quarter = complex(0.5 * math.sqrt(0.5 * math.pi))
    return [
        ("full_line_exp_ix2_over_2", fresnel_line_integral(1j, tol),
         cmath.sqrt(2.0 * math.pi / (-1j))),
        # fresnel_line_integral(2j, tol) is this same tail, doubled
        ("full_line_exp_iy2", 2.0 * half, cmath.sqrt(1j * math.pi)),
        ("halfline_cos_u2", complex(half.real), quarter),
        ("halfline_sin_u2", complex(half.imag), quarter),
    ]


def fresnel_table(c: complex | None = None, tol: float = 1e-8) -> str:
    """CSV of fresnel_references: numeric value, closed form, distance."""
    rows = [
        f"{label},{sig_complex(numeric)},{sig_complex(reference)},"
        f"{sig(abs(numeric - reference))}"
        for label, numeric, reference in fresnel_references(c, tol)
    ]
    return _csv(["quantity,numeric,reference,abs_diff", *rows])


# ---------------------------------------------------------------------------
# kernel and perturbation tables

def kernel_table(q: PropagatorQuery, cfg: RunConfig) -> str:
    """CSV with the closed form, the sliced value and their distance."""
    closed = closed_kernel(q)
    sliced = psi_sliced(q, cfg.slice_grid())
    lines = ["quantity,value,abs_diff_vs_closed"]
    diff = "nan"
    if closed is not None:
        tag = q.potential.analytic_tag
        label = "psi0_closed" if tag == "zero" else f"{tag}_closed"
        lines.append(f"{label},{sig_complex(closed)},0")
        diff = sig(abs(sliced - closed))
    lines.append(f"psi_sliced,{sig_complex(sliced)},{diff}")
    return _csv(lines)


def perturb_table(q: PropagatorQuery, m_max: int, cfg: RunConfig) -> str:
    """CSV of partial sums S_m, with the closed target for zero and constant V."""
    target = None  # harmonic V keeps its fixed m,partial_sum table format
    if q.potential.analytic_tag != "harmonic":
        target = closed_kernel(q)
    lines = ["m,partial_sum" + ("" if target is None else ",abs_diff_vs_closed")]
    sums = perturbation_partial_sums(m_max, q, cfg.slice_grid())
    for m, s_m in enumerate(sums):
        row = f"{m},{sig_complex(s_m)}"
        lines.append(row if target is None else f"{row},{sig(abs(s_m - target))}")
    return _csv(lines)


# ---------------------------------------------------------------------------
# the exchange report: growth table + comparison table + verdict document


def exchange_documents(
    q: PropagatorQuery,
    m_max: int,
    cfg: RunConfig,
) -> dict[str, str]:
    """All exchange-lab documents for one query, as named text blobs.

    Returns {"growth.csv": ..., "comparison.csv": ..., "verdict.json":
    ...}.  The growth table probes the free increment density for the
    query's slice schedule; the verdict searches for the convergence
    order of the constant-potential partial sums (other potentials
    report the envelope probe with m_found = -1, meaning not searched).
    """
    grid = cfg.slice_grid()
    lab = cfg.lab

    dt = q.duration / q.slices
    sched = IncrementSchedule(
        tuple(q.tau_prime + dt * (j + 1) for j in range(min(q.slices, 4))),
        origin_time=q.tau_prime,
        origin_point=q.xi_prime,
    )
    growth = abs_g0_growth(sched, lab.radii)
    growth_lines = ["radius,riemann_sum,refinement_level"]
    for r, v, k in zip(growth.radii, growth.values, growth.levels):
        growth_lines.append(f"{sig(r)},{sig(v)},{k}")
    growth_csv = _csv(growth_lines)

    rows = exchange_experiment(q, m_max, grid)
    comp_lines = ["m,partial_sum,sliced,abs_difference"]
    for row in rows:
        comp_lines.append(
            ",".join(
                [
                    str(row.order),
                    sig_complex(row.partial_sum),
                    sig_complex(row.sliced),
                    sig(row.difference),
                ]
            )
        )
    comparison_csv = _csv(comp_lines)

    verdict: dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "eps": float(lab.eps),
        "seed": int(lab.seed),
    }
    if q.potential.analytic_tag == "constant":
        family, limit, beta = partial_sum_family(q.potential.constant, q.duration)
        witness = bounded_convergence_diagnostic(
            family,
            limit,
            beta,
            samples=lab.samples,
            eps=lab.eps,
            m_max=lab.m_max,
            seed=lab.seed,
            probe_radii=lab.radii,
        )
        verdict["beta_probe"] = witness.beta_probe
        verdict["m_found"] = witness.m_found
        verdict["max_ratio"] = float(witness.max_ratio)
        verdict["beta_positive"] = witness.beta_positive
    else:
        table = envelope_growth_table(free_modulus_envelope(q.duration), lab.radii)
        verdict["beta_probe"] = growth_verdict(table)
        verdict["m_found"] = -1
        verdict["beta_positive"] = True
    verdict_json = json.dumps(verdict, sort_keys=True, indent=2) + "\n"

    return {
        "growth.csv": growth_csv,
        "comparison.csv": comparison_csv,
        "verdict.json": verdict_json,
    }
