"""Tests for path-space cells, gauges, divisions, and the reduction of
path integrals of finitely-based functionals to finite dimension."""

import cmath
import math
import time

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
    GaugeIntError,
    IntegrandError,
    NoConvergenceError,
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


def test_gamma_fine_rejects_an_unassociated_factor_tag():
    # the sample tags the cell, but the cell's own second tag is interior
    factors = (Cell1D.bounded(0.0, 0.25), Cell1D.bounded(0.5, 0.75))
    cell = cell_on((0.5, 1.0), factors, (0.25, 0.6))
    x = sample_on((0.5, 1.0), (0.25, 0.5))
    gauge = GaugeRT(lambda _x: TimeSet((1.0,)), lambda _x, _n: 1.0)
    with pytest.raises(
        AssociationError,
        match=r"^tag 0\.6 is not an associated point of Cell1D\(0\.5, 0\.75\]$",
    ):
        is_gamma_fine(x, cell, gauge)


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


@pytest.mark.parametrize("times", [(0.7,), (0.3, 0.7), (0.2, 0.5, 0.7)])
def test_reduce_polynomial_moments_of_the_free_kernel(times):
    # f = x_n^k grows, so only the improper (Abel) tails give the moments
    # E[x^2] = x0^2 + i tau and E[x^3] = x0^3 + 3 i tau x0
    x0, tau = 0.4, times[-1]
    sched = IncrementSchedule(times=times, origin_point=x0)
    for k, want in ((2, x0**2 + 1j * tau), (3, x0**3 + 3j * tau * x0)):
        f = lambda p, k=k: p[:, -1] ** k
        v = reduce_cylinder_integral(f, TimeSet(times), sched, 1e-6)
        assert abs(v - want) < 1e-6, (times, k, v)


def test_tensor_reduction_names_its_point_cap(monkeypatch):
    import gaugeint.cylinder as cylinder

    # the first level (49^2 points) is already over the budget
    monkeypatch.setattr(cylinder, "_MAX_POINTS", 48**2)
    sched = IncrementSchedule(times=(0.5, 1.0))
    ones = lambda p: np.ones(p.shape[0], dtype=complex)
    with pytest.raises(NoConvergenceError, match="_MAX_POINTS") as info:
        reduce_cylinder_integral(ones, TimeSet((0.5, 1.0)), sched, 1e-6)
    assert info.value.cap == "_MAX_POINTS"


def test_tensor_reduction_of_a_jump_stops_at_its_point_budget():
    # the tensor rule is first order across a jump, so its mesh ladder
    # never settles; the point budget stops it within seconds
    sched = IncrementSchedule(times=(0.5, 1.0))
    f = lambda p: (p[:, 0] <= 0.3).astype(complex)
    start = time.perf_counter()
    with pytest.raises(NoConvergenceError, match="_MAX_POINTS") as info:
        reduce_cylinder_integral(f, TimeSet((0.5, 1.0)), sched, 1e-6)
    assert info.value.cap == "_MAX_POINTS"
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("times", [(1.5,), (0.75, 1.5)])
def test_reduction_names_its_radius_cap(monkeypatch, times):
    import gaugeint.cylinder as cylinder

    # e^{2ix} does not decay: at tau = 1.5 its Taylor tail is off by far
    # more than tol at R = 8, so the one check R = 8 against 12 fails
    monkeypatch.setattr(cylinder, "_MAX_RADIUS", 12.0)
    sched = IncrementSchedule(times=times)
    f = lambda p: np.exp(2j * p[:, -1])
    with pytest.raises(NoConvergenceError, match="_MAX_RADIUS") as info:
        reduce_cylinder_integral(f, TimeSet(times), sched, 1e-6)
    assert info.value.cap == "_MAX_RADIUS"


def test_reduce_plane_waves_land_within_tol_or_name_a_cap():
    # f = e^{i a x_n} does not decay, the hardest tail: its reduction is
    # the free characteristic function e^{i a xi} e^{-i a^2 tau / 2}
    rng = np.random.default_rng(20261019)
    tol = 1e-6
    for n in (1, 2) * 6:
        a = float(rng.uniform(-2.0, 2.0))
        tau = float(rng.uniform(0.3, 1.5))
        xi = float(rng.uniform(-1.0, 1.0))
        times = (tau,) if n == 1 else (tau * float(rng.uniform(0.2, 0.8)), tau)
        sched = IncrementSchedule(times=times, origin_point=xi)
        f = lambda p, a=a: np.exp(1j * a * p[:, -1])
        want = cmath.exp(1j * a * xi) * cmath.exp(-1j * a * a * tau / 2.0)
        try:
            v = reduce_cylinder_integral(f, TimeSet(times), sched, tol)
        except GaugeIntError as exc:
            assert getattr(exc, "cap", None) is not None, (n, a, tau, exc)
        else:
            assert abs(v - want) < tol, (n, a, tau, abs(v - want))


def gaussian_cylinder(a_matrix, times):
    """Closed form of the reduction of e^{-(x - x0)^T A (x - x0) / 2} with
    origin x0: the complex Gaussian prod_j (2 pi i dt_j)^{-1/2} (2 pi)^{n/2}
    / sqrt(det(A - i B)), B = D^T diag(1 / dt) D for D the difference
    operator; each eigenvalue factor of L^{-1} (A - i B) L^{-T} has real
    part 1, so the principal roots multiply continuously."""
    dts = np.diff(np.concatenate([[0.0], times]))
    d = np.eye(dts.size) - np.eye(dts.size, k=-1)
    linv = np.linalg.inv(np.linalg.cholesky(a_matrix))
    ck = np.linalg.eigvalsh(linv @ (d.T @ np.diag(1.0 / dts) @ d) @ linv.T)
    root_det = math.sqrt(np.linalg.det(a_matrix)) * complex(np.prod(np.sqrt(1.0 - 1j * ck)))
    norm = complex(np.prod([cmath.sqrt(1.0 / (2j * math.pi * dt)) for dt in dts]))
    return norm * (2.0 * math.pi) ** (0.5 * dts.size) / root_det


@pytest.mark.parametrize("a_matrix, x0, times, tol, budget", [
    # the radius check used to integrate [-1.5 R, 1.5 R] whole: 18,455
    # points at n = 1 and 530,213 at n = 2 on these Gaussians
    ([[0.97]], 0.94, (0.88,), 1e-6, 18_455 // 2),
    ([[0.84, 0.003], [0.003, 0.84]], 0.58, (0.63, 1.29), 1e-4, 0.8 * 530_213),
])
def test_radius_check_integrates_only_the_added_annuli(a_matrix, x0, times, tol, budget):
    a_matrix = np.array(a_matrix)
    points = []

    def gaussian(p):
        points.append(p.shape[0])
        d = p - x0
        return np.exp(-0.5 * np.einsum("mi,ij,mj->m", d, a_matrix, d))

    sched = IncrementSchedule(times=times, origin_point=x0)
    v = reduce_cylinder_integral(gaussian, TimeSet(times), sched, tol)
    assert abs(v - gaussian_cylinder(a_matrix, times)) < tol
    assert sum(points) <= budget, sum(points)


def test_radius_step_sums_a_wider_grid_whole_when_it_misses_the_narrow_nodes(monkeypatch):
    import gaugeint.cylinder as cylinder

    # 18 cells on [-8, 8] give 27 on [-12, 12] at the same width, and the
    # annuli of 4.5 cells put the wide nodes between the narrow ones
    monkeypatch.setattr(cylinder, "_START_CELLS", 9)
    calls = []
    tensor_value = cylinder._tensor_value
    monkeypatch.setattr(cylinder, "_tensor_value",
                        lambda *args: calls.append(args[2:]) or tensor_value(*args))
    x0, times = 0.4, (0.3, 0.7)
    sched = IncrementSchedule(times=times, origin_point=x0)
    v = reduce_cylinder_integral(lambda p: p[:, -1] ** 2, TimeSet(times), sched, 1e-6)
    assert calls == [(8.0, 9), (8.0, 18), (12.0, 27)]
    assert abs(v - (x0**2 + 0.7j)) < 1e-6


@pytest.mark.parametrize("times", [(0.4, 0.9), (0.3, 0.8, 1.4)])
def test_tensor_points_are_prefix_sums_of_the_increments(times):
    import gaugeint.cylinder as cylinder

    rng = np.random.default_rng(20261020)
    x0 = float(rng.uniform(-1.0, 1.0))
    k = rng.normal(size=len(times))
    sched = IncrementSchedule(times=times, origin_point=x0)
    fv = lambda p: np.exp(1j * (p @ k) - 0.1 * np.sum(p * p, axis=1))
    nodes, weights = zip(*(cylinder._extended_rule(dt, 8.0, 16) for dt in sched.increments))
    want = cylinder._tensor_sum(lambda p: fv(np.cumsum(p, axis=1) + x0), nodes, weights)
    assert cylinder._tensor_value(fv, sched, 8.0, 16) == want


def test_reduce_indicator_with_a_jump_in_the_first_annulus(monkeypatch):
    import mpmath

    import gaugeint.cylinder as cylinder

    # the jump at 10 lies in the annulus (8, 12) that the first radius step
    # adds; the Filon ladder cannot settle on it, so that piece alone falls
    # back to the tag-adaptive window rule
    windows = []
    hk = cylinder.hk_integrate_1d
    monkeypatch.setattr(cylinder, "hk_integrate_1d",
                        lambda f, window, tol: windows.append(window) or hk(f, window, tol))
    dt, tol = 1.05, 1e-6
    sched = IncrementSchedule(times=(dt,))
    f = lambda p: (p[:, 0] <= 10.0).astype(complex)
    # Int_{-inf}^{10} (2 pi i dt)^{-1/2} e^{i u^2 / (2 dt)} du by Fresnel C and S
    z = 10.0 / mpmath.sqrt(mpmath.pi * dt)
    half = mpmath.sqrt(mpmath.pi) * (mpmath.mpf(0.5) + 0.5j + mpmath.fresnelc(z) + 1j * mpmath.fresnels(z))
    want = complex(half / mpmath.sqrt(2j * mpmath.pi))
    try:
        v = reduce_cylinder_integral(f, TimeSet((dt,)), sched, tol)
    except GaugeIntError as exc:
        assert getattr(exc, "cap", None) is not None, exc
    else:
        assert abs(v - want) < tol, abs(v - want)
    assert (8.0, 12.0) in windows


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
