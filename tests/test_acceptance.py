"""Acceptance gate: every advertised capability, one check each.

Each test runs one criterion end to end at its stated tolerance, prints
a single pass/fail line and enforces the criterion's runtime budget.
"""

import pytest

from gaugeint import reports
from gaugeint.acceptance import (
    criterion_1_fresnel_values,
    criterion_2_distribution_normalization,
    criterion_3_free_propagator,
    criterion_4_perturbation_series,
    criterion_5_harmonic_cross_check,
    criterion_6_growth_witness,
    criterion_7_property_suites,
    criterion_8_coexistence_report,
    format_line,
)
from gaugeint.config import RunConfig


@pytest.fixture(scope="module")
def cfg():
    return RunConfig()


def _check(result, budget_seconds):
    print(format_line(result))
    assert result.passed, result.detail
    assert result.elapsed_seconds < budget_seconds, (
        f"criterion {result.number} took {result.elapsed_seconds:.1f}s, "
        f"budget {budget_seconds}s"
    )


def test_criterion_1_oscillatory_closed_forms(cfg):
    _check(criterion_1_fresnel_values(cfg), 10.0)


def test_criterion_2_distribution_normalization(cfg):
    _check(criterion_2_distribution_normalization(cfg), 30.0)


def test_criterion_3_free_propagator(cfg):
    _check(criterion_3_free_propagator(cfg), 120.0)


def test_criterion_4_perturbation_series(cfg):
    _check(criterion_4_perturbation_series(cfg), 120.0)


def test_criterion_5_harmonic_cross_check(cfg):
    _check(criterion_5_harmonic_cross_check(cfg), 120.0)


def test_criterion_6_growth_witness(cfg):
    _check(criterion_6_growth_witness(cfg), 10.0)


def test_criterion_7_property_suites(cfg):
    _check(criterion_7_property_suites(cfg), 300.0)


def test_criterion_8_coexistence_report(cfg):
    _check(criterion_8_coexistence_report(cfg), 120.0)


def test_failing_criterion_1_names_the_table_quantity(monkeypatch):
    exact = reports.fresnel_line_integral
    monkeypatch.setattr(
        reports, "fresnel_line_integral", lambda c, tol: exact(c, tol) + 1e-3
    )
    result = criterion_1_fresnel_values()
    assert not result.passed
    assert result.detail.startswith("full_line_exp_ix2_over_2: err ")
    assert "; full_line_exp_iy2: err " in result.detail
    assert "halfline" not in result.detail
