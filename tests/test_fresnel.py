"""Measure-layer checks: figure distributions, increment densities and chains.

Closed-form values are pinned against direct mpmath quadrature of the
quadratic-phase kernel; coupled increment chains against nested quadrature.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeint.cells import Cell1D, CellND
from gaugeint.errors import ScheduleError
from gaugeint.fresnel import (
    FigureND,
    IncrementSchedule,
    free_increment_factor,
    fresnel_distribution,
    incremental_density,
    incremental_distribution,
)
from gaugeint.oscquad import FRESNEL_LIMIT, ROOT_MINUS_I_OVER_2PI, fresnel_integral

ROOT = complex(ROOT_MINUS_I_OVER_2PI)


def quad_chirp(lo, hi, sign=+1):
    """mpmath oracle for Int e^{sign i x^2/2} dx over [lo, hi]."""
    f = lambda x: mpmath.e ** (sign * 0.5j * x * x)
    pieces = max(4, int(abs(hi - lo) * max(abs(lo), abs(hi), 1.0) / 4))
    pts = [lo + (hi - lo) * k / pieces for k in range(pieces + 1)]
    return complex(mpmath.quad(f, pts))


def test_distribution_positive_tail_worked_example():
    # mass of (u, inf) is 1/2 - sqrt(-i/2pi) Int_0^u e^{iy^2/2} dy
    u = 1.3
    got = fresnel_distribution(FigureND(cells=((Cell1D.pos_tail(u),),)))
    want = 0.5 - ROOT * quad_chirp(0.0, u)
    assert abs(got - want) < 1e-10

    half = fresnel_distribution(FigureND(cells=((Cell1D.pos_tail(0.0),),)))
    assert abs(half - 0.5) < 1e-12


def test_distribution_of_one_cell_is_the_product_of_its_factors():
    factors = (Cell1D.bounded(-1.0, 2.0), Cell1D.pos_tail(3.0))
    got = fresnel_distribution(FigureND(cells=(factors,)))
    want = (ROOT * (fresnel_integral(2.0) - fresnel_integral(-1.0))) * (
        ROOT * (FRESNEL_LIMIT - fresnel_integral(3.0))
    )
    assert got == want


def test_distribution_full_space_is_one():
    for n in (1, 2, 3):
        fig = FigureND(cells=(tuple(Cell1D.full_line() for _ in range(n)),))
        assert abs(fresnel_distribution(fig) - 1.0) < 1e-8


def test_distribution_halves_sum_to_one():
    left = FigureND(cells=((Cell1D.neg_tail(0.0),),))
    right = FigureND(cells=((Cell1D.pos_tail(0.0),),))
    total = fresnel_distribution(left) + fresnel_distribution(right)
    assert abs(total - 1.0) < 1e-12


def test_distribution_empty_figure_is_zero():
    assert fresnel_distribution(FigureND(cells=())) == 0.0


def test_figure_rejects_overlap():
    with pytest.raises(ValueError):
        FigureND(cells=((Cell1D.bounded(0.0, 2.0),), (Cell1D.bounded(1.0, 3.0),)))
    # touching at an edge is disjoint under (lo, hi]
    FigureND(cells=((Cell1D.bounded(0.0, 1.0),), (Cell1D.bounded(1.0, 2.0),)))


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-4.0, 0.0),
    width=st.floats(0.5, 5.0),
    frac=st.floats(0.05, 0.95),
)
def test_distribution_additivity_on_splits(lo, width, frac):
    hi = lo + width
    mid = lo + width * frac
    if mid <= lo or mid >= hi:
        return
    whole = FigureND(cells=((Cell1D.bounded(lo, hi),),))
    split = FigureND(
        cells=((Cell1D.bounded(lo, mid),), (Cell1D.bounded(mid, hi),))
    )
    a = fresnel_distribution(whole)
    b = fresnel_distribution(split)
    assert abs(a - b) < 1e-10


def test_distribution_additivity_2d():
    whole = FigureND(
        cells=((Cell1D.bounded(-1.0, 1.0), Cell1D.bounded(0.0, 2.0)),)
    )
    quarters = FigureND(
        cells=(
            (Cell1D.bounded(-1.0, 0.0), Cell1D.bounded(0.0, 1.0)),
            (Cell1D.bounded(-1.0, 0.0), Cell1D.bounded(1.0, 2.0)),
            (Cell1D.bounded(0.0, 1.0), Cell1D.bounded(0.0, 1.0)),
            (Cell1D.bounded(0.0, 1.0), Cell1D.bounded(1.0, 2.0)),
        )
    )
    assert abs(fresnel_distribution(whole) - fresnel_distribution(quarters)) < 1e-10


def test_distribution_conjugation_flips_kernel_sign():
    u, v = -0.7, 1.9
    g = fresnel_distribution(FigureND(cells=((Cell1D.bounded(u, v),),)))
    flipped = complex(mpmath.sqrt(1j / (2 * mpmath.pi))) * quad_chirp(u, v, sign=-1)
    assert abs(g.conjugate() - flipped) < 1e-10


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        IncrementSchedule(times=())
    with pytest.raises(ScheduleError):
        IncrementSchedule(times=(1.0, 1.0))
    with pytest.raises(ScheduleError):
        IncrementSchedule(times=(2.0, 1.0))
    with pytest.raises(ScheduleError):
        IncrementSchedule(times=(1.0,), origin_time=-0.5)
    with pytest.raises(ScheduleError):
        IncrementSchedule(times=(1.0,), origin_time=1.0)
    s = IncrementSchedule(times=(0.5, 1.25), origin_time=0.25, origin_point=2.0)
    assert s.increments == (0.25, 0.75)
    assert s.dim == 2


def test_incremental_density_zero_increment():
    sched = IncrementSchedule(times=(1.0,), origin_point=0.0)
    h = 0.37
    cell = CellND(tags=(0.0,), factors=(Cell1D.bounded(0.0, h),))
    got = incremental_density(cell, sched)
    assert abs(got - ROOT * h) < 1e-17


def test_incremental_density_modulus_identity():
    rng = np.random.default_rng(3)
    times = (0.4, 0.9, 2.0)
    sched = IncrementSchedule(times=times, origin_point=rng.normal())
    dts = sched.increments
    for _ in range(10):
        los = rng.normal(size=3)
        widths = rng.uniform(0.1, 1.5, size=3)
        cell = CellND(
            tags=tuple(los),
            factors=tuple(Cell1D.bounded(l, l + w) for l, w in zip(los, widths)),
        )
        got = abs(incremental_density(cell, sched))
        want = cell.volume() * math.prod(1.0 / math.sqrt(2 * math.pi * d) for d in dts)
        assert abs(got - want) < 1e-15 * max(1.0, want)


def test_incremental_density_matches_plain_density_after_substitution():
    # y_j = (x_j - x_{j-1})/sqrt(dt_j) carries the increment form onto the
    # plain quadratic-phase form, volumes scaling by prod sqrt(dt_j)
    sched = IncrementSchedule(times=(0.5, 1.7), origin_point=0.4)
    d1, d2 = sched.increments
    x1, x2 = 1.1, 0.2
    w1, w2 = 0.3, 0.8
    inc_cell = CellND(
        tags=(x1, x2),
        factors=(Cell1D.bounded(x1, x1 + w1), Cell1D.bounded(x2, x2 + w2)),
    )
    y1 = (x1 - 0.4) / math.sqrt(d1)
    y2 = (x2 - x1) / math.sqrt(d2)
    got = incremental_density(inc_cell, sched)
    want = ROOT**2 * cmath.exp(0.5j * (y1 * y1 + y2 * y2)) * (w1 * w2 / math.sqrt(d1 * d2))
    assert abs(got - want) < 1e-15


def test_incremental_density_infinite_tag_delegates_to_distribution():
    sched = IncrementSchedule(times=(1.0, 2.0), origin_point=0.0)
    factors = (Cell1D.bounded(0.0, 1.0), Cell1D.pos_tail(2.0))
    cell = CellND(tags=(0.0, math.inf), factors=factors)
    got = incremental_density(cell, sched)
    want = incremental_distribution(factors, sched)
    assert got == want


def test_incremental_density_dimension_mismatch():
    sched = IncrementSchedule(times=(1.0,))
    cell = CellND(
        tags=(0.0, 0.0),
        factors=(Cell1D.bounded(0.0, 1.0), Cell1D.bounded(0.0, 1.0)),
    )
    with pytest.raises(ScheduleError):
        incremental_density(cell, sched)


def test_incremental_distribution_full_lines_is_exactly_one():
    rng = np.random.default_rng(19)
    for _ in range(25):
        dts = rng.uniform(0.1, 2.0, size=5)
        times = tuple(np.cumsum(dts))
        sched = IncrementSchedule(times=times, origin_point=rng.normal())
        cells = tuple(Cell1D.full_line() for _ in range(5))
        assert incremental_distribution(cells, sched) == 1.0


def test_incremental_distribution_halves_sum_to_one():
    sched = IncrementSchedule(times=(0.7,), origin_point=1.3)
    c = 1.3
    left = incremental_distribution((Cell1D.neg_tail(c),), sched)
    right = incremental_distribution((Cell1D.pos_tail(c),), sched)
    assert abs(left + right - 1.0) < 1e-12


def test_incremental_distribution_single_window_closed_form():
    sched = IncrementSchedule(times=(0.8,), origin_point=0.5)
    cell = Cell1D.bounded(-0.3, 1.4)
    got = incremental_distribution((cell,), sched)
    k = complex(mpmath.sqrt(-1j / (2 * mpmath.pi * 0.8)))
    f = lambda x: mpmath.e ** (0.5j * (x - 0.5) ** 2 / 0.8)
    want = k * complex(mpmath.quad(f, [-0.3, 1.4]))
    assert abs(got - want) < 1e-10


def test_incremental_distribution_semigroup_merging():
    # a full-line factor merges its step into the next window to the right
    sched3 = IncrementSchedule(times=(0.5, 1.0, 1.6), origin_point=0.2)
    cells3 = (Cell1D.full_line(), Cell1D.bounded(0.0, 1.0), Cell1D.full_line())
    merged = IncrementSchedule(times=(1.0,), origin_point=0.2)
    got = incremental_distribution(cells3, sched3)
    want = incremental_distribution((Cell1D.bounded(0.0, 1.0),), merged)
    assert abs(got - want) < 1e-14


def test_incremental_distribution_coupled_vs_nested_quadrature():
    d1, d2 = 0.7, 0.4
    xi = 0.3
    sched = IncrementSchedule(times=(d1, d1 + d2), origin_point=xi)
    cells = (Cell1D.bounded(0.0, 1.5), Cell1D.bounded(-1.0, 1.0))
    got = incremental_distribution(cells, sched, tol=1e-10)

    k1 = mpmath.sqrt(-1j / (2 * mpmath.pi * d1))
    k2 = mpmath.sqrt(-1j / (2 * mpmath.pi * d2))

    def inner(x1):
        f = lambda x2: mpmath.e ** (0.5j * (x2 - x1) ** 2 / d2)
        return k2 * mpmath.quad(f, [-1.0, 0.0, 1.0])

    outer = mpmath.quad(
        lambda x1: k1 * mpmath.e ** (0.5j * (x1 - xi) ** 2 / d1) * inner(x1),
        [0.0, 0.75, 1.5],
    )
    assert abs(got - complex(outer)) < 1e-7


def test_incremental_distribution_scaling_invariance():
    # times scaled by lam with all spatial data scaled by sqrt(lam) is exact
    lam = 2.3
    s = math.sqrt(lam)
    base_t = (0.6, 1.1)
    cells = (Cell1D.bounded(-0.5, 0.9), Cell1D.bounded(0.2, 1.3))
    a = incremental_distribution(
        cells,
        IncrementSchedule(times=base_t, origin_point=0.25),
        tol=1e-10,
    )
    scaled_cells = tuple(Cell1D.bounded(c.lo * s, c.hi * s) for c in cells)
    b = incremental_distribution(
        scaled_cells,
        IncrementSchedule(times=tuple(t * lam for t in base_t), origin_point=0.25 * s),
        tol=1e-10,
    )
    assert abs(a - b) < 1e-7


def test_incremental_distribution_rejects_interior_tails():
    sched = IncrementSchedule(times=(1.0, 2.0))
    with pytest.raises(ValueError):
        incremental_distribution(
            (Cell1D.neg_tail(0.0), Cell1D.bounded(0.0, 1.0)), sched
        )


@pytest.mark.parametrize(
    "shift, dt, error, text",
    [
        (math.nan, 1.0, ValueError, "shift must be finite"),
        (np.array([0.0, math.inf]), 1.0, ValueError, "shift must be finite"),
        (0.0, math.inf, ScheduleError, "increment must be a positive real"),
        (0.0, "1", ScheduleError, "increment must be a number"),
    ],
)
def test_free_increment_factor_checks_its_numbers(shift, dt, error, text):
    with pytest.raises(error, match=text):
        free_increment_factor(Cell1D.bounded(0.0, 1.0), shift, dt)


def test_free_increment_factor_vectorized():
    cell = Cell1D.bounded(-1.0, 2.0)
    xs = np.array([-0.5, 0.0, 1.0])
    vec = free_increment_factor(cell, xs, 0.6)
    for i, x in enumerate(xs):
        # batch series evaluation may differ from scalar in the last bit
        assert abs(vec[i] - free_increment_factor(cell, float(x), 0.6)) < 1e-14
