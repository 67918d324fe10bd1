"""Tests for path-space cells, gauges, divisions, and the reduction of
path integrals of finitely-based functionals to finite dimension."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeint.cells import Cell1D, CellND
from gaugeint.cylinder import (
    CylinderCell,
    CylinderDivision,
    GaugeRT,
    PathSample,
    TimeSet,
    cylinder_riemann_sum,
    is_gamma_fine,
    reduce_cylinder_integral,
    refine_to_common_timeset,
    schedule_from_json,
    timeset_from_json,
    validate_cylinder_division,
)
from gaugeint.errors import (
    AssociationError,
    DimensionCapError,
    IntegrandError,
    ScheduleError,
)
from gaugeint.fresnel import IncrementSchedule, incremental_distribution

INF = math.inf


def cell_on(times, factors, tags):
    ts = TimeSet(tuple(times))
    return CylinderCell(ts, CellND(tuple(tags), tuple(factors)))


def sample_on(times, values):
    return PathSample(TimeSet(tuple(times)), tuple(values))


# ---------------------------------------------------------------------------
# domain type validation
# ---------------------------------------------------------------------------


def test_timeset_validation():
    with pytest.raises(ScheduleError):
        TimeSet(())
    with pytest.raises(ScheduleError):
        TimeSet((1.0, 1.0))
    with pytest.raises(ScheduleError):
        TimeSet((2.0, 1.0))
    with pytest.raises(ScheduleError):
        TimeSet((0.5, math.inf))
    ts = TimeSet((0.5, 1.0))
    assert len(ts) == 2
    assert 0.5 in ts and 0.75 not in ts
    assert TimeSet((0.5,)).issubset(ts)
    assert not ts.issubset(TimeSet((0.5,)))
    assert TimeSet.union([TimeSet((1.0,)), TimeSet((0.5, 1.0))]).times == (0.5, 1.0)


def test_cylinder_cell_dimension_mismatch():
    with pytest.raises(ScheduleError):
        CylinderCell(
            TimeSet((0.5, 1.0)),
            CellND((0.0,), (Cell1D.bounded(0.0, 1.0),)),
        )


def test_path_sample_validation():
    with pytest.raises(ScheduleError):
        sample_on((0.5, 1.0), (0.0,))
    with pytest.raises(ScheduleError):
        sample_on((0.5,), (math.nan,))
    s = sample_on((0.5, 1.0), (-INF, INF))
    assert s.values == (-INF, INF)


def test_division_needs_items():
    with pytest.raises(ScheduleError):
        CylinderDivision(())


# ---------------------------------------------------------------------------
# gamma-fineness
# ---------------------------------------------------------------------------


def narrow_cell_pair():
    """A two-time cell with narrow bounded factors tagged at endpoints."""
    factors = (Cell1D.bounded(0.0, 0.25), Cell1D.bounded(0.5, 0.75))
    cell = cell_on((0.5, 1.0), factors, (0.25, 0.5))
    x = sample_on((0.5, 1.0), (0.25, 0.5))
    return x, cell


def test_gamma_fine_true_when_included_and_narrow():
    x, cell = narrow_cell_pair()
    gauge = GaugeRT(
        required_times=lambda _x: TimeSet((1.0,)),
        delta=lambda _x, _n: 1.0,
    )
    assert is_gamma_fine(x, cell, gauge) is True


def test_gamma_fine_false_when_required_time_missing():
    x, cell = narrow_cell_pair()
    gauge = GaugeRT(
        required_times=lambda _x: TimeSet((0.25,)),
        delta=lambda _x, _n: 100.0,  # width clause would pass easily
    )
    assert is_gamma_fine(x, cell, gauge) is False


def test_gamma_fine_false_when_factor_too_wide():
    x, cell = narrow_cell_pair()
    gauge = GaugeRT(
        required_times=lambda _x: x.times,  # inclusion clause holds
        delta=lambda _x, _n: 0.2,  # second factor has width 0.25
    )
    assert is_gamma_fine(x, cell, gauge) is False


def test_gamma_fine_rejects_unassociated_sample():
    _, cell = narrow_cell_pair()
    gauge = GaugeRT(lambda _x: TimeSet((1.0,)), lambda _x, _n: 1.0)
    wrong_times = sample_on((0.25, 1.0), (0.25, 0.5))
    with pytest.raises(AssociationError):
        is_gamma_fine(wrong_times, cell, gauge)
    wrong_tag = sample_on((0.5, 1.0), (0.1, 0.5))
    with pytest.raises(AssociationError):
        is_gamma_fine(wrong_tag, cell, gauge)


def test_gamma_fine_gauge_errors_are_integrand_errors():
    x, cell = narrow_cell_pair()

    def broken(*_args):
        raise RuntimeError("boom")

    for gauge in (
        GaugeRT(required_times=lambda _x: TimeSet((1.0,)), delta=broken),
        GaugeRT(required_times=broken, delta=lambda _x, _n: 1.0),
    ):
        with pytest.raises(IntegrandError) as info:
            is_gamma_fine(x, cell, gauge)
        assert isinstance(info.value.__cause__, RuntimeError)
    complex_width = GaugeRT(lambda _x: TimeSet((1.0,)), lambda _x, _n: 1j)
    with pytest.raises(IntegrandError, match="complex"):
        is_gamma_fine(x, cell, complex_width)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gamma_fine_inclusion_clause_is_monotone(data):
    """Enlarging the cell's time set never flips the verdict to False when
    the width clause is unaffected (constant-width gauge, full-line pads)."""
    base = sorted(
        data.draw(
            st.sets(
                st.floats(0.1, 4.0, allow_nan=False, allow_infinity=False),
                min_size=1,
                max_size=4,
            )
        )
    )
    extra = sorted(
        data.draw(
            st.sets(
                st.floats(4.5, 8.0, allow_nan=False, allow_infinity=False),
                min_size=1,
                max_size=3,
            )
        )
    )
    required = data.draw(st.sets(st.sampled_from(base), max_size=len(base)))

    def full_line_cell(times):
        n = len(times)
        return cell_on(times, (Cell1D.full_line(),) * n, (INF,) * n)

    def full_line_sample(times):
        return sample_on(times, (INF,) * len(times))

    gauge = GaugeRT(
        required_times=lambda _x: TimeSet(tuple(sorted(required)) or (base[0],)),
        delta=lambda _x, _n: 1.0,
    )
    small = is_gamma_fine(
        full_line_sample(base), full_line_cell(base), gauge
    )
    big_times = sorted(set(base) | set(extra))
    big = is_gamma_fine(
        full_line_sample(big_times), full_line_cell(big_times), gauge
    )
    if small:
        assert big


# ---------------------------------------------------------------------------
# refinement to a common time set and division validation
# ---------------------------------------------------------------------------


def test_refine_single_cell_is_identity():
    c = cell_on((1.0,), (Cell1D.bounded(0.0, 1.0),), (0.0,))
    out = refine_to_common_timeset([c])
    assert out == [c]


def test_refine_pads_missing_times_with_full_lines():
    c1 = cell_on((1.0,), (Cell1D.bounded(0.0, 1.0),), (0.0,))
    c2 = cell_on((2.0,), (Cell1D.neg_tail(0.0),), (-INF,))
    r1, r2 = refine_to_common_timeset([c1, c2])
    assert r1.times.times == (1.0, 2.0) and r2.times.times == (1.0, 2.0)
    assert r1.factors.factors[0] == Cell1D.bounded(0.0, 1.0)
    assert r1.factors.factors[1] == Cell1D.full_line()
    assert r1.factors.tags[1] == INF
    assert r2.factors.factors[0] == Cell1D.full_line()
    assert r2.factors.factors[1] == Cell1D.neg_tail(0.0)


def test_half_line_split_is_a_valid_partition():
    d = CylinderDivision(
        (
            (
                sample_on((1.0,), (-INF,)),
                cell_on((1.0,), (Cell1D.neg_tail(0.0),), (-INF,)),
            ),
            (
                sample_on((1.0,), (INF,)),
                cell_on((1.0,), (Cell1D.pos_tail(0.0),), (INF,)),
            ),
        )
    )
    assert validate_cylinder_division(d) == []


def test_partition_across_different_timesets_is_valid():
    # one cell constrains only t=1; the complementary pair constrains t=1
    # and t=2, splitting the remaining half-space
    d = CylinderDivision(
        (
            (
                sample_on((1.0,), (-INF,)),
                cell_on((1.0,), (Cell1D.neg_tail(0.0),), (-INF,)),
            ),
            (
                sample_on((1.0, 2.0), (INF, -INF)),
                cell_on(
                    (1.0, 2.0),
                    (Cell1D.pos_tail(0.0), Cell1D.neg_tail(1.0)),
                    (INF, -INF),
                ),
            ),
            (
                sample_on((1.0, 2.0), (INF, INF)),
                cell_on(
                    (1.0, 2.0),
                    (Cell1D.pos_tail(0.0), Cell1D.pos_tail(1.0)),
                    (INF, INF),
                ),
            ),
        )
    )
    assert validate_cylinder_division(d) == []


def test_validator_reports_gap_and_overlap():
    gap = CylinderDivision(
        (
            (
                sample_on((1.0,), (-INF,)),
                cell_on((1.0,), (Cell1D.neg_tail(0.0),), (-INF,)),
            ),
            (
                sample_on((1.0,), (INF,)),
                cell_on((1.0,), (Cell1D.pos_tail(1.0),), (INF,)),
            ),
        )
    )
    problems = validate_cylinder_division(gap)
    assert any("gap" in p for p in problems)

    overlap = CylinderDivision(
        (
            (
                sample_on((1.0,), (-INF,)),
                cell_on((1.0,), (Cell1D.neg_tail(0.5),), (-INF,)),
            ),
            (
                sample_on((1.0,), (INF,)),
                cell_on((1.0,), (Cell1D.pos_tail(0.0),), (INF,)),
            ),
        )
    )
    problems = validate_cylinder_division(overlap)
    assert any("overlap" in p for p in problems)


def test_validator_reports_broken_association():
    d = CylinderDivision(
        (
            (
                sample_on((1.0,), (0.3,)),  # 0.3 tags neither endpoint
                cell_on((1.0,), (Cell1D.bounded(0.0, 1.0),), (0.0,)),
            ),
            (
                sample_on((1.0,), (-INF,)),
                cell_on((1.0,), (Cell1D.neg_tail(0.0),), (-INF,)),
            ),
            (
                sample_on((1.0,), (INF,)),
                cell_on((1.0,), (Cell1D.pos_tail(1.0),), (INF,)),
            ),
        )
    )
    problems = validate_cylinder_division(d)
    assert any("item 0" in p for p in problems)


# ---------------------------------------------------------------------------
# cylindrical Riemann sums
# ---------------------------------------------------------------------------


def full_line_division():
    return CylinderDivision(
        (
            (
                sample_on((1.0,), (INF,)),
                cell_on((1.0,), (Cell1D.full_line(),), (INF,)),
            ),
        )
    )


def test_riemann_sum_of_zero_summand():
    assert cylinder_riemann_sum(lambda x, n, c: 0.0, full_line_division()) == 0.0


def test_riemann_sum_of_distribution_over_full_line_is_one():
    sched = IncrementSchedule(times=(1.0,))

    def h(_x, _n, cell):
        return incremental_distribution(cell.factors.factors, sched)

    v = cylinder_riemann_sum(h, full_line_division())
    assert abs(v - 1.0) < 1e-8


def test_riemann_sum_distribution_additivity_under_split():
    sched = IncrementSchedule(times=(1.0,))
    split = CylinderDivision(
        (
            (
                sample_on((1.0,), (-INF,)),
                cell_on((1.0,), (Cell1D.neg_tail(0.0),), (-INF,)),
            ),
            (
                sample_on((1.0,), (INF,)),
                cell_on((1.0,), (Cell1D.pos_tail(0.0),), (INF,)),
            ),
        )
    )

    def h(_x, _n, cell):
        return incremental_distribution(cell.factors.factors, sched)

    v = cylinder_riemann_sum(h, split)
    assert abs(v - 1.0) < 1e-7


def test_riemann_sum_rejects_invalid_division():
    gap = CylinderDivision(
        (
            (
                sample_on((1.0,), (-INF,)),
                cell_on((1.0,), (Cell1D.neg_tail(0.0),), (-INF,)),
            ),
        )
    )
    with pytest.raises(ValueError):
        cylinder_riemann_sum(lambda x, n, c: 1.0, gap)


def test_riemann_sum_integrand_errors():
    d = full_line_division()

    def raises(_x, _n, _c):
        raise RuntimeError("boom")

    with pytest.raises(IntegrandError):
        cylinder_riemann_sum(raises, d)
    with pytest.raises(IntegrandError):
        cylinder_riemann_sum(lambda x, n, c: complex(math.inf, 0.0), d)


def test_riemann_sum_keeps_summand_gaugeint_errors():
    def refuses(_x, _n, _c):
        raise AssociationError("summand checks its own tags")

    with pytest.raises(AssociationError):
        cylinder_riemann_sum(refuses, full_line_division())


# ---------------------------------------------------------------------------
# reduction to finite dimension
# ---------------------------------------------------------------------------


def test_reduce_ones_is_one_for_random_schedules():
    rng = np.random.default_rng(20260818)
    for n in (1, 2, 3):
        times = tuple(np.sort(rng.uniform(0.2, 1.5, size=n)))
        while len(set(times)) != n or min(np.diff(times), default=1.0) < 0.05:
            times = tuple(np.sort(rng.uniform(0.2, 1.5, size=n)))
        origin = float(rng.uniform(-1.0, 1.0))
        sched = IncrementSchedule(times=times, origin_point=origin)
        ones = lambda p: np.ones(p.shape[0], dtype=complex)
        v = reduce_cylinder_integral(ones, TimeSet(times), sched, 1e-6)
        assert abs(v - 1.0) < 1e-6, (n, times, origin, v)


def test_reduce_indicator_matches_distribution():
    x0 = 0.35
    sched = IncrementSchedule(times=(0.6,), origin_point=-0.1)
    f = lambda p: (p[:, 0] <= x0).astype(complex)
    v = reduce_cylinder_integral(f, TimeSet((0.6,)), sched, 1e-6)
    want = incremental_distribution([Cell1D.neg_tail(x0)], sched)
    assert abs(v - want) < 1e-6


def test_reduce_free_characteristic_function():
    a = 1.3
    tau = 0.7
    xi = -0.2
    sched = IncrementSchedule(times=(tau / 2.0, tau), origin_point=xi)
    f = lambda p: np.exp(1j * a * p[:, 1])
    v = reduce_cylinder_integral(f, TimeSet((tau / 2.0, tau)), sched, 1e-6)
    want = cmath.exp(1j * a * xi) * cmath.exp(-1j * a * a * tau / 2.0)
    assert abs(v - want) < 1e-6


def test_reduce_marginal_consistency():
    # f depends only on the first coordinate: integrating the second out
    # must reproduce the one-dimensional reduction on the truncated schedule
    g = lambda p: np.exp(-0.5 * np.square(p[:, 0])) * (1.0 + 0.2 * p[:, 0])
    sched2 = IncrementSchedule(times=(0.3, 0.55), origin_point=0.05)
    sched1 = IncrementSchedule(times=(0.3,), origin_point=0.05)
    v2 = reduce_cylinder_integral(g, TimeSet((0.3, 0.55)), sched2, 1e-6)
    v1 = reduce_cylinder_integral(g, TimeSet((0.3,)), sched1, 1e-6)
    assert abs(v2 - v1) < 1e-5


def test_reduce_bounded_box_sanity_bound():
    # |f| <= 1 supported on [-1, 1]: the reduction is bounded by the total
    # kernel mass over the box, width / sqrt(2 pi dt)
    dt = 0.5
    sched = IncrementSchedule(times=(dt,))
    f = lambda p: (np.abs(p[:, 0]) <= 1.0).astype(complex)
    v = reduce_cylinder_integral(f, TimeSet((dt,)), sched, 1e-6)
    bound = 2.0 / math.sqrt(2.0 * math.pi * dt)
    assert abs(v) <= bound + 1e-9


def test_reduce_dimension_cap():
    times = (0.1, 0.2, 0.3, 0.4, 0.5)
    sched = IncrementSchedule(times=times)
    with pytest.raises(DimensionCapError):
        reduce_cylinder_integral(
            lambda p: np.ones(p.shape[0], dtype=complex),
            TimeSet(times),
            sched,
            1e-6,
        )


def test_reduce_requires_matching_times():
    sched = IncrementSchedule(times=(0.6,))
    with pytest.raises(ScheduleError):
        reduce_cylinder_integral(
            lambda p: np.ones(p.shape[0], dtype=complex),
            TimeSet((0.5,)),
            sched,
            1e-6,
        )


# ---------------------------------------------------------------------------
# JSON interfaces
# ---------------------------------------------------------------------------


def test_timeset_json_roundtrip():
    ts = timeset_from_json('{"times": [0.25, 0.5, 1.0]}')
    assert ts.times == (0.25, 0.5, 1.0)
    with pytest.raises(ScheduleError):
        timeset_from_json('[0.25]')
    with pytest.raises(ScheduleError):
        timeset_from_json('{"times": []}')


def test_schedule_json_parsing():
    sched = schedule_from_json(
        '{"times": [0.5, 1.0], "origin_time": 0.25, "origin_point": -1.5}'
    )
    assert sched.times == (0.5, 1.0)
    assert sched.origin_time == 0.25
    assert sched.origin_point == -1.5
    sched = schedule_from_json('{"times": [0.5]}')
    assert sched.origin_time == 0.0 and sched.origin_point == 0.0
    with pytest.raises(ScheduleError):
        schedule_from_json('{"origin_time": 0.0}')


@pytest.mark.parametrize("times", ['[false, "2"]', "[true]", '["0.5"]'])
def test_time_documents_take_only_numbers(times):
    text = f'{{"times": {times}}}'
    for reader in (timeset_from_json, schedule_from_json):
        with pytest.raises(ValueError, match="time must be a number"):
            reader(text)


@pytest.mark.parametrize(
    "reader, text",
    [
        (timeset_from_json, '{"times": [1.0], "origin_time": 0.0}'),
        (schedule_from_json, '{"times": [1.0], "origin_pint": 0.5}'),
        (schedule_from_json, '{"times": [1.0], "format_version": 1}'),
    ],
)
def test_time_documents_reject_unknown_keys(reader, text):
    # a misspelt origin_point once defaulted silently to 0.0
    with pytest.raises(ScheduleError, match="unknown time document keys"):
        reader(text)


def test_time_documents_need_a_times_array():
    for reader in (timeset_from_json, schedule_from_json):
        with pytest.raises(ScheduleError, match='"times" array'):
            reader('{"times": 1.0}')


@pytest.mark.parametrize("field", ["origin_time", "origin_point"])
@pytest.mark.parametrize("value", ['"1"', "true", "null"])
def test_schedule_origin_takes_only_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        schedule_from_json(f'{{"times": [2.0], "{field}": {value}}}')
