"""Tests for the series-vs-integral exchange witnesses.

Derived rows get their oracles computed inline: factorial remainder
bounds for the constant-potential partial sums, the error function for
Gaussian window integrals, and the closed harmonic-oscillator kernel
for the cross-validated comparison table.
"""

import math

import numpy as np
import pytest

from gaugeint.cells import Cell1D, CellND
from gaugeint.config import LabConfig
from gaugeint.errors import IntegrandError, NoMFoundError
from gaugeint.exchange import (
    ConvergenceWitness,
    GrowthTable,
    abs_g0_growth,
    bounded_convergence_diagnostic,
    envelope_growth_table,
    exchange_experiment,
    free_modulus_envelope,
    gaussian_envelope,
    growth_verdict,
    partial_sum_family,
)
from gaugeint.fresnel import IncrementSchedule, incremental_density
from gaugeint.propagator import (
    Potential,
    PropagatorQuery,
    SliceGrid,
    harmonic_kernel_closed,
    psi0_closed,
)

GRID = SliceGrid(extent=16.0, points=768, damping=1e-3)
DOUBLING_RADII = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class TestGrowthTable:
    def test_rejects_unsorted_radii(self):
        with pytest.raises(ValueError):
            GrowthTable((2.0, 1.0), (1.0, 2.0), (1, 1))

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            GrowthTable((0.0, 1.0), (1.0, 2.0), (1, 1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            GrowthTable((1.0, 2.0), (1.0,), (1, 1))
        with pytest.raises(ValueError):
            GrowthTable((1.0, 2.0), (1.0, 2.0), (1,))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GrowthTable((1.0,), (1.0,), (1,), dimension=0)

    def test_single_row_is_indeterminate(self):
        table = GrowthTable((1.0,), (1.0,), (4,))
        assert growth_verdict(table) == "INDETERMINATE"


def _counted(calls, func):
    def wrapped(*args):
        calls.append(args)
        return func(*args)

    return wrapped


def _bad_radii_cases():
    """(call, message) pairs, one per function that takes radii; each call
    records the work it does in the list it is given."""
    family, limit, beta = partial_sum_family(1.0, 1.0)
    return {
        "LabConfig": (lambda calls: LabConfig(radii=()), "at least one radius"),
        "GrowthTable": (
            lambda calls: GrowthTable(("1", "2"), (1.0, 2.0), (1, 1)),
            "radii must be a number",
        ),
        "abs_g0_growth_inf": (
            lambda calls: abs_g0_growth(IncrementSchedule((1.0,)), [math.inf]),
            "radii must be a positive real",
        ),
        "abs_g0_growth_negative": (
            lambda calls: abs_g0_growth(IncrementSchedule((1.0,)), [-1.0]),
            "radii must be a positive real",
        ),
        "envelope_growth_table_zero": (
            lambda calls: envelope_growth_table(
                _counted(calls, gaussian_envelope()), [0.0]
            ),
            "radii must be a positive real",
        ),
        "envelope_growth_table_unsorted": (
            lambda calls: envelope_growth_table(
                _counted(calls, gaussian_envelope()), [2.0, 1.0]
            ),
            "radii must be strictly increasing",
        ),
        "bounded_convergence_diagnostic": (
            lambda calls: bounded_convergence_diagnostic(
                _counted(calls, family), limit, beta, 5, 1e-3,
                probe_radii=(2.0, 1.0),
            ),
            "radii must be strictly increasing",
        ),
    }


@pytest.mark.parametrize("case", sorted(_bad_radii_cases()))
def test_radii_are_refused_before_any_work(case):
    call, message = _bad_radii_cases()[case]
    calls = []
    with pytest.raises(ValueError, match=message):
        call(calls)
    assert calls == []


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tau": 0.0}, "tau"),
        ({"tau": -1.0}, "tau"),
        ({"tau": math.nan}, "tau"),
        ({"tau": 1.0, "mass": -1.0}, "mass"),
        ({"tau": 1.0, "mass": math.inf}, "mass"),
    ],
)
def test_free_modulus_envelope_checks_its_numbers(kwargs, message):
    with pytest.raises(ValueError, match=message):
        free_modulus_envelope(**kwargs)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((math.nan, 1.0), {}, "c must be finite"),
        ((math.inf, 1.0), {}, "c must be finite"),
        ((1.0, 1.0), {"mass": math.nan}, "mass"),
        ((1.0, 1.0), {"mass": 0.0}, "mass"),
    ],
)
def test_partial_sum_family_checks_its_numbers(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        partial_sum_family(*args, **kwargs)


def _per_cell_growth(sched, r, cells_per_axis):
    """One row of abs_g0_growth cell by cell: a CellND with corner tags and
    one incremental_density call per cell of the box [-r, r]^n."""
    edges = np.linspace(-r, r, cells_per_axis + 1)
    total = 0.0
    for multi in np.ndindex(*([cells_per_axis] * sched.dim)):
        factors = tuple(Cell1D.bounded(edges[k], edges[k + 1]) for k in multi)
        tags = tuple(edges[k] for k in multi)
        total += abs(incremental_density(CellND(tags, factors), sched))
    return total


class TestAbsG0Growth:
    @pytest.mark.parametrize(
        "times",
        [(0.45,), (0.45, 0.6), (0.45, 0.6, 1.3), (0.45, 0.6, 1.3, 1.35)],
        ids=["n1", "n2", "n3", "n4"],
    )
    def test_rows_match_the_per_cell_density_loop(self, times):
        # uneven increments 0.25, 0.15, 0.7, 0.05 from a nonzero origin
        sched = IncrementSchedule(times, origin_time=0.2, origin_point=-0.7)
        radii = (0.5, 1.5, 3.0)
        for cells in (1, 3, 4):
            table = abs_g0_growth(sched, radii, cells_per_axis=cells)
            for r, v in zip(radii, table.values):
                want = _per_cell_growth(sched, r, cells)
                assert abs(v - want) <= 1e-13 * want, (cells, r, v, want)

    def test_unit_schedule_rows_match_closed_form(self):
        sched = IncrementSchedule((1.0,))
        table = abs_g0_growth(sched, DOUBLING_RADII)
        for r, v in zip(table.radii, table.values):
            exact = 2.0 * r / math.sqrt(2.0 * math.pi)
            assert abs(v - exact) < 1e-10, (r, v, exact)
        assert growth_verdict(table) == "UNBOUNDED"

    def test_pinned_unit_window_value(self):
        table = abs_g0_growth(IncrementSchedule((1.0,)), [1.0])
        assert abs(table.values[0] - 2.0 / math.sqrt(2.0 * math.pi)) < 1e-12

    def test_radius_ten_is_ten_times_radius_one(self):
        table = abs_g0_growth(IncrementSchedule((1.0,)), [1.0, 10.0])
        assert abs(table.values[1] - 10.0 * table.values[0]) < 1e-12

    def test_doubling_radius_doubles_entry_exactly(self):
        table = abs_g0_growth(IncrementSchedule((0.7,)), DOUBLING_RADII)
        for a, b in zip(table.values, table.values[1:]):
            assert abs(b - 2.0 * a) <= 1e-12 * abs(b)

    def test_time_step_enters_through_the_modulus(self):
        table = abs_g0_growth(IncrementSchedule((0.25,)), [3.0])
        exact = 2.0 * 3.0 / math.sqrt(2.0 * math.pi * 0.25)
        assert abs(table.values[0] - exact) < 1e-10

    def test_two_step_schedule_grows_like_area(self):
        sched = IncrementSchedule((0.5, 1.0))  # time increments 0.5, 0.5
        table = abs_g0_growth(sched, [1.0, 2.0, 4.0])
        for r, v in zip(table.radii, table.values):
            exact = (2.0 * r) ** 2 / math.sqrt(
                (2.0 * math.pi) ** 2 * 0.5 * 0.5
            )
            assert abs(v - exact) < 1e-9 * max(1.0, exact)
        assert table.dimension == 2

    def test_division_fineness_does_not_change_the_sum(self):
        sched = IncrementSchedule((1.0,))
        coarse = abs_g0_growth(sched, [5.0], cells_per_axis=1)
        fine = abs_g0_growth(sched, [5.0], cells_per_axis=16)
        assert abs(coarse.values[0] - fine.values[0]) < 1e-12
        assert coarse.levels == (1,) and fine.levels == (16,)

    def test_dimension_cap(self):
        sched = IncrementSchedule((1.0, 2.0, 3.0, 4.0, 5.0))
        with pytest.raises(ValueError):
            abs_g0_growth(sched, [1.0])

    def test_cells_per_axis_validation(self):
        with pytest.raises(ValueError):
            abs_g0_growth(IncrementSchedule((1.0,)), [1.0], cells_per_axis=0)


class TestEnvelopeProbe:
    def test_gaussian_control_is_bounded(self):
        table = envelope_growth_table(gaussian_envelope(1.0))
        assert growth_verdict(table) == "BOUNDED"
        # windows beyond a few sigma capture the whole mass sqrt(2 pi)
        assert abs(table.values[-1] - math.sqrt(2.0 * math.pi)) < 1e-8

    def test_gaussian_window_matches_error_function(self):
        table = envelope_growth_table(gaussian_envelope(1.0), [2.0])
        exact = math.sqrt(2.0 * math.pi) * math.erf(2.0 / math.sqrt(2.0))
        assert abs(table.values[0] - exact) < 1e-8

    def test_free_modulus_envelope_is_unbounded(self):
        table = envelope_growth_table(free_modulus_envelope(1.0))
        assert growth_verdict(table) == "UNBOUNDED"
        assert abs(table.values[0] - 2.0 / math.sqrt(2.0 * math.pi)) < 1e-8


class TestDiagnostic:
    def test_constant_potential_partial_sums(self):
        family, limit, beta = partial_sum_family(1.0, 1.0)
        eps = 1e-3
        witness = bounded_convergence_diagnostic(
            family, limit, beta, samples=40, eps=eps
        )
        # oracle: |S_m - e^{-ic tau} psi0| / |psi0| is the tail of the
        # exponential series; find the first m whose tail drops under eps
        def tail(m):
            return abs(
                sum((-1j) ** r / math.factorial(r) for r in range(m + 1))
                - np.exp(-1j)
            )

        expected = next(m for m in range(50) if tail(m) <= eps)
        assert witness.m_found == expected == 6
        assert witness.max_ratio <= eps
        assert witness.beta_probe == "UNBOUNDED"
        assert witness.beta_positive is True

    def test_tighter_eps_needs_more_terms(self):
        family, limit, beta = partial_sum_family(1.0, 1.0)
        w1 = bounded_convergence_diagnostic(
            family, limit, beta, samples=20, eps=1e-3
        )
        w2 = bounded_convergence_diagnostic(
            family, limit, beta, samples=20, eps=1e-6
        )
        assert w2.m_found > w1.m_found
        assert w2.max_ratio <= 1e-6

    def test_constant_family_converges_at_zero(self):
        ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
        witness = bounded_convergence_diagnostic(
            lambda m, x: ones(x), ones, ones, samples=20, eps=1e-9
        )
        assert witness.m_found == 0
        assert witness.max_ratio == 0.0

    @pytest.mark.parametrize("eps", [0.25, 0.3, 1e-2])
    def test_reciprocal_family_selects_ceil_reciprocal_eps(self, eps):
        _, limit, _ = partial_sum_family(1.0, 1.0)
        g0 = free_modulus_envelope(1.0)

        def family(m, x):
            scale = 1.0 if m == 0 else 1.0 / m
            return limit(x) + scale * g0(x)

        witness = bounded_convergence_diagnostic(
            family, limit, g0, samples=10, eps=eps, m_max=2000
        )
        assert witness.m_found == math.ceil(1.0 / eps)

    def test_no_m_found_raises(self):
        _, limit, _ = partial_sum_family(1.0, 1.0)
        g0 = free_modulus_envelope(1.0)

        def stuck(m, x):
            return limit(x) + g0(x)

        with pytest.raises(NoMFoundError):
            bounded_convergence_diagnostic(
                stuck, limit, g0, samples=5, eps=1e-3, m_max=8
            )

    def test_nan_family_is_an_integrand_error(self):
        _, limit, beta = partial_sum_family(1.0, 1.0)

        def nan_family(m, x):
            return np.full(np.shape(x), np.nan)

        with pytest.raises(IntegrandError, match="family"):
            bounded_convergence_diagnostic(
                nan_family, limit, beta, samples=5, eps=1e-3, m_max=8
            )

    def test_seeded_samples_are_deterministic(self):
        family, limit, beta = partial_sum_family(1.0, 1.0)
        w1 = bounded_convergence_diagnostic(
            family, limit, beta, samples=15, eps=1e-2
        )
        w2 = bounded_convergence_diagnostic(
            family, limit, beta, samples=15, eps=1e-2
        )
        assert w1 == w2
        w3 = bounded_convergence_diagnostic(
            family, limit, beta, samples=15, eps=1e-2, seed=7
        )
        assert w3.sample_points != w1.sample_points

    def test_samples_include_both_infinite_tags(self):
        family, limit, beta = partial_sum_family(1.0, 1.0)
        witness = bounded_convergence_diagnostic(
            family, limit, beta, samples=5, eps=1e-2
        )
        assert math.inf in witness.sample_points
        assert -math.inf in witness.sample_points
        assert len(witness.sample_points) == 7

    def test_input_validation(self):
        family, limit, beta = partial_sum_family(1.0, 1.0)
        with pytest.raises(ValueError):
            bounded_convergence_diagnostic(family, limit, beta, 0, 1e-3)
        with pytest.raises(ValueError):
            bounded_convergence_diagnostic(family, limit, beta, 5, -1.0)

    def test_witness_rejects_negative_ratio(self):
        with pytest.raises(ValueError):
            ConvergenceWitness(
                m_found=0,
                eps=1e-3,
                max_ratio=-1.0,
                beta_probe="BOUNDED",
                beta_positive=True,
                beta_window_integrals=(1.0,),
                probe_radii=(1.0,),
                sample_points=(0.0,),
            )


class TestExchangeExperiment:
    def test_zero_potential_rows_collapse_to_free_value(self):
        q = PropagatorQuery(
            xi_prime=0.0, tau_prime=0.0, xi=0.4, tau=1.0, slices=4
        )
        rows = exchange_experiment(q, 3, GRID)
        base = psi0_closed(q)
        for row in rows:
            assert abs(row.partial_sum - base) < 1e-12
            assert row.difference < 1e-6

    def test_constant_potential_differences_follow_factorial_decay(self):
        q = PropagatorQuery(
            xi_prime=0.0,
            tau_prime=0.0,
            xi=0.7,
            tau=1.0,
            slices=8,
            potential=Potential.constant_potential(1.0),
        )
        rows = exchange_experiment(q, 12, GRID)
        scale = abs(psi0_closed(q))
        for row in rows:
            bound = scale / math.factorial(row.order + 1) + 1e-6
            assert row.difference <= bound, (row.order, row.difference, bound)
        assert rows[-1].difference < 1e-8
        diffs = [row.difference for row in rows]
        assert all(
            diffs[i + 1] <= diffs[i] + 1e-12 for i in range(2, len(diffs) - 1)
        )

    def test_stronger_constant_still_nonincreasing_past_two(self):
        q = PropagatorQuery(
            xi_prime=0.0,
            tau_prime=0.0,
            xi=0.0,
            tau=1.0,
            slices=8,
            potential=Potential.constant_potential(2.0),
        )
        rows = exchange_experiment(q, 12, GRID)
        diffs = [row.difference for row in rows]
        assert all(
            diffs[i + 1] <= diffs[i] + 1e-12 for i in range(2, len(diffs) - 1)
        )
        scale = abs(psi0_closed(q))
        for row in rows:
            bound = scale * 2.0 ** (row.order + 1) / math.factorial(
                row.order + 1
            ) + 1e-6
            assert row.difference <= bound

    def test_harmonic_differences_decay_to_the_slicing_budget(self):
        q = PropagatorQuery(
            xi_prime=0.0,
            tau_prime=0.0,
            xi=0.3,
            tau=0.5,
            slices=16,
            potential=Potential.harmonic(0.5),
        )
        rows = exchange_experiment(q, 4, GRID)
        exact = harmonic_kernel_closed(q, 0.5)
        # the series itself is strictly monotone against the closed kernel
        oracle = [abs(row.partial_sum - exact) for row in rows]
        assert all(b < a for a, b in zip(oracle, oracle[1:]))
        # against the sliced value the differences fall until they reach
        # the sliced value's own time-slicing budget and stay there
        budget = abs(rows[0].sliced - exact)
        diffs = [row.difference for row in rows]
        assert diffs[0] > 10.0 * budget
        assert diffs[1] < diffs[0] / 10.0
        for d in diffs[1:]:
            assert abs(d - budget) <= budget
        assert diffs[-1] < 3e-4

    def test_rejects_negative_order_cap(self):
        q = PropagatorQuery(xi_prime=0.0, tau_prime=0.0, xi=0.0, tau=1.0)
        with pytest.raises(ValueError):
            exchange_experiment(q, -1, GRID)
        with pytest.raises(ValueError):
            exchange_experiment(q, True, GRID)
