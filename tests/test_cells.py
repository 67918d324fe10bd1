"""Core cell/division semantics: volumes, association, fineness, Cousin
construction, validation, Riemann sums and JSON round-trips."""

import math
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeint.cells import (
    Cell1D,
    Division1D,
    Gauge1D,
    TaggedCell1D,
    cell_volume,
    cousin_division,
    division_from_json,
    division_to_json,
    fsum_complex,
    is_delta_fine,
    riemann_sum,
    tag_is_associated,
    validate_division,
)
from gaugeint.errors import AssociationError, IntegrandError, ResourceLimitError


def test_cell_constructors_and_kinds():
    assert Cell1D.bounded(0.0, 1.0).kind == "bounded"
    assert Cell1D.neg_tail(-3.0).kind == "neg_tail"
    assert Cell1D.pos_tail(5.0).kind == "pos_tail"
    assert Cell1D.full_line().kind == "full_line"
    with pytest.raises(ValueError):
        Cell1D.bounded(1.0, 1.0)
    with pytest.raises(ValueError):
        Cell1D.bounded(2.0, 1.0)
    with pytest.raises(ValueError):
        Cell1D(float("nan"), 1.0)


def test_cell_volume():
    assert cell_volume(Cell1D.bounded(-1.5, 2.0)) == 3.5
    assert cell_volume(Cell1D.neg_tail(-2.0)) == 0.0
    assert cell_volume(Cell1D.pos_tail(7.0)) == 0.0
    assert cell_volume(Cell1D.full_line()) == 0.0


def test_membership_half_open():
    c = Cell1D.bounded(0.0, 1.0)
    assert not c.contains(0.0)
    assert c.contains(1.0)
    assert c.contains(0.5)
    assert Cell1D.neg_tail(0.0).contains(0.0)
    assert not Cell1D.neg_tail(0.0).contains(0.1)
    assert not Cell1D.pos_tail(0.0).contains(0.0)
    assert Cell1D.pos_tail(0.0).contains(0.1)


def test_association_rules():
    b = Cell1D.bounded(0.0, 1.0)
    assert tag_is_associated(0.0, b)
    assert tag_is_associated(1.0, b)
    assert not tag_is_associated(0.5, b)
    assert not tag_is_associated(inf, b)
    nt = Cell1D.neg_tail(-2.0)
    assert tag_is_associated(-inf, nt)
    assert not tag_is_associated(-2.0, nt)
    pt = Cell1D.pos_tail(3.0)
    assert tag_is_associated(inf, pt)
    assert not tag_is_associated(3.0, pt)
    fl = Cell1D.full_line()
    assert tag_is_associated(inf, fl) and tag_is_associated(-inf, fl)
    assert not tag_is_associated(0.0, fl)


def test_delta_fineness():
    g = Gauge1D(lambda x: 0.5)
    assert is_delta_fine(TaggedCell1D(0.0, Cell1D.bounded(0.0, 0.4)), g)
    assert not is_delta_fine(TaggedCell1D(0.0, Cell1D.bounded(0.0, 0.5)), g)  # strict
    # tails: a < -1/delta = -2, b > 2
    assert is_delta_fine(TaggedCell1D(-inf, Cell1D.neg_tail(-2.5)), g)
    assert not is_delta_fine(TaggedCell1D(-inf, Cell1D.neg_tail(-2.0)), g)
    assert is_delta_fine(TaggedCell1D(inf, Cell1D.pos_tail(2.5)), g)
    assert not is_delta_fine(TaggedCell1D(inf, Cell1D.pos_tail(1.0)), g)
    assert is_delta_fine(TaggedCell1D(inf, Cell1D.full_line()), g)
    with pytest.raises(AssociationError):
        is_delta_fine(TaggedCell1D(0.25, Cell1D.bounded(0.0, 0.5)), g)


def test_gauge_evaluated_at_tag_only():
    # gauge small away from tags; only the tag value matters
    def delta(x):
        if x == 0.0:
            return 1.0
        return 1e-9

    g = Gauge1D(delta)
    assert is_delta_fine(TaggedCell1D(0.0, Cell1D.bounded(0.0, 0.9)), g)


def test_gauge_must_be_positive():
    g = Gauge1D(lambda x: 0.0)
    with pytest.raises(ValueError):
        is_delta_fine(TaggedCell1D(0.0, Cell1D.bounded(0.0, 0.5)), g)


def test_gauge_callback_errors_are_integrand_errors():
    def broken(x):
        raise RuntimeError("boom")

    with pytest.raises(IntegrandError) as info:
        cousin_division(Gauge1D(broken), tails=(-2.0, 2.0))
    assert isinstance(info.value.__cause__, RuntimeError)
    for bad in (math.inf, math.nan, 1j):
        with pytest.raises(IntegrandError):
            Gauge1D(lambda x, _bad=bad: _bad)(0.0)


def test_cousin_constant_gauge_forced_tails():
    g = Gauge1D(lambda x: 0.3)
    d = cousin_division(g, tails=(-4.0, 4.0))
    report = validate_division(d, g)
    assert report.ok, report.violations
    # bounded middle tiles (-4, 4] with cells shorter than 0.3
    widths = [it.cell.hi - it.cell.lo for it in d if it.cell.is_bounded]
    assert all(w < 0.3 for w in widths)
    assert math.isclose(sum(widths), 8.0, rel_tol=0, abs_tol=1e-12)


def test_cousin_unit_gauge_default_tails():
    g = Gauge1D(lambda x: 1.0)
    d = cousin_division(g)
    assert validate_division(d, g).ok
    kinds = [it.cell.kind for it in d]
    assert kinds[0] == "neg_tail" and kinds[-1] == "pos_tail"


def test_cousin_variable_gauge():
    # delta(x) = max(|x|/2, 0.1) forces fine cells near the origin
    g = Gauge1D(lambda x: 0.05 if math.isinf(x) else max(abs(x) / 2.0, 0.1))
    d = cousin_division(g)
    assert validate_division(d, g).ok
    near = [it for it in d if it.cell.is_bounded and abs(it.cell.lo) < 0.2]
    far = [it for it in d if it.cell.is_bounded and it.cell.lo >= 4.0]
    assert near and far
    assert max(it.cell.hi - it.cell.lo for it in near) <= min(
        it.cell.hi - it.cell.lo for it in far
    )


def test_cousin_left_endpoint_preference():
    g = Gauge1D(lambda x: 1.0)
    d = cousin_division(g, tails=(-2.0, 2.0))
    for it in d:
        if it.cell.is_bounded:
            # both endpoints certify for a constant gauge; left must win
            assert it.tag == it.cell.lo


def test_cousin_depth_cap():
    g = Gauge1D(lambda x: 1e-30 if not math.isinf(x) else 1.0)
    with pytest.raises(ResourceLimitError):
        cousin_division(g, tails=(-2.0, 2.0), max_depth=40)


def test_validator_flags_bad_divisions():
    # association violation: interior tag
    d = Division1D(
        (
            TaggedCell1D(-inf, Cell1D.neg_tail(0.0)),
            TaggedCell1D(0.5, Cell1D.bounded(0.0, 1.0)),
            TaggedCell1D(inf, Cell1D.pos_tail(1.0)),
        )
    )
    rep = validate_division(d)
    assert [v.kind for v in rep.violations] == ["association"]

    # gap between 1 and 2
    d = Division1D(
        (
            TaggedCell1D(-inf, Cell1D.neg_tail(0.0)),
            TaggedCell1D(1.0, Cell1D.bounded(0.0, 1.0)),
            TaggedCell1D(2.0, Cell1D.bounded(2.0, 3.0)),
            TaggedCell1D(inf, Cell1D.pos_tail(3.0)),
        )
    )
    kinds = {v.kind for v in validate_division(d).violations}
    assert kinds == {"gap"}

    # overlap
    d = Division1D(
        (
            TaggedCell1D(-inf, Cell1D.neg_tail(0.0)),
            TaggedCell1D(0.0, Cell1D.bounded(0.0, 2.0)),
            TaggedCell1D(1.0, Cell1D.bounded(1.0, 3.0)),
            TaggedCell1D(inf, Cell1D.pos_tail(3.0)),
        )
    )
    kinds = {v.kind for v in validate_division(d).violations}
    assert kinds == {"overlap"}

    # missing tails
    d = Division1D((TaggedCell1D(0.0, Cell1D.bounded(0.0, 1.0)),))
    kinds = {v.kind for v in validate_division(d).violations}
    assert kinds == {"coverage"}

    # single full-line cell is a valid division
    d = Division1D((TaggedCell1D(inf, Cell1D.full_line()),))
    assert validate_division(d).ok


def test_riemann_sum_matches_closed_form():
    g = Gauge1D(lambda x: 0.5)
    d = cousin_division(g, tails=(-3.0, 3.0))

    def h(tag, cell):
        return cell_volume(cell) * (1.0 + 2.0j)

    total = riemann_sum(h, d)
    assert abs(total - 6.0 * (1.0 + 2.0j)) < 1e-12


def test_riemann_sum_compensation():
    # many tiny cells alternating signs: fsum keeps this exact
    items = [TaggedCell1D(-inf, Cell1D.neg_tail(0.0))]
    x = 0.0
    for k in range(1000):
        items.append(TaggedCell1D(x, Cell1D.bounded(x, x + 0.001)))
        x += 0.001
    items.append(TaggedCell1D(inf, Cell1D.pos_tail(x)))
    d = Division1D(tuple(items))

    def h(tag, cell):
        if not cell.is_bounded:
            return 0.0
        return 1e16 if int(round(tag / 0.001)) % 2 == 0 else -1e16

    assert riemann_sum(h, d) == 0.0


def test_riemann_sum_integrand_error():
    d = Division1D(
        (
            TaggedCell1D(-inf, Cell1D.neg_tail(0.0)),
            TaggedCell1D(0.0, Cell1D.bounded(0.0, 1.0)),
            TaggedCell1D(inf, Cell1D.pos_tail(1.0)),
        )
    )
    with pytest.raises(IntegrandError):
        riemann_sum(lambda t, c: 1.0 / 0.0, d)
    with pytest.raises(IntegrandError):
        riemann_sum(lambda t, c: float("nan"), d)


def test_riemann_sum_rejects_infinite_summand():
    d = Division1D((TaggedCell1D(-inf, Cell1D.full_line()),))
    with pytest.raises(IntegrandError, match="item 0"):
        riemann_sum(lambda t, c: math.inf, d)


def test_fsum_complex():
    vals = [1e16 + 1e16j, 1.0 + 1.0j, -1e16 - 1e16j]
    assert fsum_complex(vals) == 1.0 + 1.0j


def test_fsum_complex_is_correctly_rounded_in_any_order():
    # terms over 400 decades that cancel in pairs down to a sum near 1e-9;
    # a plain float sum of this array is off by about 1e184
    rng = np.random.default_rng(7)
    big = 10.0 ** rng.uniform(-200, 200, 3000) * rng.choice([-1.0, 1.0], 3000)
    big = big + 1j * big[::-1]
    small = (10.0 ** rng.uniform(-40, -10, 1000)) * (1.0 - 2.0j)
    values = np.concatenate([big, -big, small])
    rng.shuffle(values)
    # the per-element construction of the sum, and the exact rational sum
    # rounded once
    per_element = [complex(v) for v in values]
    expected = complex(
        math.fsum(v.real for v in per_element), math.fsum(v.imag for v in per_element)
    )
    exact = complex(
        float(sum(map(Fraction, values.real.tolist()))),
        float(sum(map(Fraction, values.imag.tolist()))),
    )
    total = fsum_complex(values)
    assert total == expected == exact
    assert (total.real.hex(), total.imag.hex()) == (
        "0x1.8a2c1f782e446p-30", "-0x1.8a2c1f782e446p-29"
    )
    assert fsum_complex(values[::-1]) == total
    assert fsum_complex(v for v in per_element) == total
    assert fsum_complex(np.array([])) == 0j


def test_division_json_round_trip_exact():
    g = Gauge1D(lambda x: 0.3)
    d = cousin_division(g, tails=(-4.0, 4.0))
    text = division_to_json(d)
    d2 = division_from_json(text)
    assert d2 == d
    assert division_to_json(d2) == text


# -- property tests ---------------------------------------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def divisions(draw):
    """Random valid divisions built from sorted breakpoints."""
    n = draw(st.integers(min_value=0, max_value=8))
    pts = sorted(set(draw(st.lists(finite, min_size=2, max_size=2 + n))))
    if len(pts) < 2:
        pts = [pts[0], pts[0] + 1.0]
    items = [TaggedCell1D(-inf, Cell1D.neg_tail(pts[0]))]
    for u, v in zip(pts[:-1], pts[1:]):
        side = draw(st.booleans())
        items.append(TaggedCell1D(u if side else v, Cell1D.bounded(u, v)))
    items.append(TaggedCell1D(inf, Cell1D.pos_tail(pts[-1])))
    return Division1D(tuple(items))


@settings(max_examples=200, deadline=None)
@given(divisions())
def test_json_round_trip_property(d):
    assert division_from_json(division_to_json(d)) == d


@settings(max_examples=100, deadline=None)
@given(divisions())
def test_random_valid_divisions_validate(d):
    assert validate_division(d).ok


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.02, max_value=1.0, allow_nan=False),
)
def test_cousin_output_always_validates(scale, floor):
    g = Gauge1D(lambda x, s=scale, f=floor: f if math.isinf(x) else max(abs(x) * s * 0.1, f * 0.1))
    d = cousin_division(g)
    assert validate_division(d, g).ok
