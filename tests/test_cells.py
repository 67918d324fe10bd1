"""Core cell/division semantics: volumes, association, fineness, Cousin
construction, validation, Riemann sums and JSON round-trips."""

import json
import math
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugeint.cells
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
    assert not tag_is_associated(-inf, b)
    nt = Cell1D.neg_tail(-2.0)
    assert tag_is_associated(-inf, nt)
    assert not tag_is_associated(-2.0, nt)
    assert not tag_is_associated(inf, nt)
    pt = Cell1D.pos_tail(3.0)
    assert tag_is_associated(inf, pt)
    assert not tag_is_associated(3.0, pt)
    assert not tag_is_associated(-inf, pt)
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


def test_cousin_depth_cap(monkeypatch):
    monkeypatch.setattr(gaugeint.cells, "_MAX_DEPTH", 40)
    g = Gauge1D(lambda x: 1e-30 if not math.isinf(x) else 1.0)
    with pytest.raises(ResourceLimitError):
        cousin_division(g, tails=(-2.0, 2.0))


def test_cousin_asks_the_gauge_once_per_point():
    rng = np.random.default_rng(5)
    a, b = float(rng.uniform(0.05, 0.1)), float(rng.uniform(1.0, 4.0))
    asked = []

    def delta(x):
        asked.append(x)
        return a if math.isinf(x) else a + b / (1.0 + x * x)

    d = cousin_division(Gauge1D(delta))
    # math.isinf refuses the arrays of two or more points that the builder
    # offers first; a single point is asked as a float, never as an array
    floats = [x for x in asked if type(x) is float]
    assert all(x.size > 1 for x in asked if type(x) is not float)
    edges = {e for it in d for e in (it.cell.lo, it.cell.hi)}
    assert len(floats) == len(set(floats)) == len(edges)
    assert set(floats) == edges


def test_scalar_only_gauge_refuses_one_array_per_build():
    # the first array that cousin_division offers is refused, and the rest
    # of that build asks point by point; the validator offers one array
    refused = 0

    def delta(x):
        nonlocal refused
        if isinstance(x, np.ndarray):
            refused += 1
            raise TypeError("scalar only")
        return 0.05 if math.isinf(x) else 0.05 + 3.0 / (1.0 + x * x)

    gauge = Gauge1D(delta)
    for builds in (1, 2):
        d = cousin_division(gauge)
        assert refused == builds
    assert len(d) > 100
    assert validate_division(d, gauge).ok
    assert refused == 3


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


def test_validator_reports_an_unassociated_item_once_with_a_gauge():
    d = Division1D(
        (
            TaggedCell1D(-inf, Cell1D.neg_tail(-1.0)),
            TaggedCell1D(0.0, Cell1D.bounded(-1.0, 1.0)),
            TaggedCell1D(inf, Cell1D.pos_tail(1.0)),
        )
    )
    # the tails are fine; the bounded cell would be coarse under either edge tag
    rep = validate_division(d, Gauge1D(lambda x: 10.0 if math.isinf(x) else 0.01))
    assert [(v.kind, v.index) for v in rep.violations] == [("association", 1)]


def test_validator_flags_a_full_line_cell_beside_others():
    d = Division1D(
        (
            TaggedCell1D(inf, Cell1D.full_line()),
            TaggedCell1D(0.0, Cell1D.bounded(0.0, 1.0)),
        )
    )
    kinds = [v.kind for v in validate_division(d).violations]
    assert "structure" in kinds


def test_validator_flags_a_coarser_gauge():
    d = cousin_division(Gauge1D(lambda x: 0.5))
    assert validate_division(d, Gauge1D(lambda x: 0.5)).ok
    rep = validate_division(d, Gauge1D(lambda x: 0.1))
    assert rep.violations
    assert {v.kind for v in rep.violations} == {"fineness"}
    assert all(v.detail == f"item {v.index} is not delta-fine" for v in rep.violations)


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


# -- the array-backed builder, validator and JSON against scalar references --


def _depth_first_rows(delta, tails):
    """The (tag, lo, hi) rows the depth-first construction gives, asking
    delta one float at a time: the builder's specification."""
    if tails is None:
        a, b = -(1.0 / delta(-inf) + 1.0), 1.0 / delta(inf) + 1.0
    else:
        a, b = tails
    rows = [(-inf, -inf, a)]
    stack = [(a, b, delta(a), delta(b))]
    while stack:
        u, v, du, dv = stack.pop()
        if v - u < du:
            rows.append((u, u, v))
        elif v - u < dv:
            rows.append((v, u, v))
        else:
            mid = 0.5 * (u + v)
            dm = delta(mid)
            stack += [(mid, v, dm, dv), (u, mid, du, dm)]
    return rows + [(inf, b, inf)]


def _rows_of(division):
    return np.stack((division.tags, division.lo, division.hi), axis=1)


def _peak_gauge(a, b, c, vectorised):
    """a + b / (1 + (x - c)^2), a at +-inf; scalar-only (math.isinf refuses
    arrays) or written for arrays.  Both give the same bits at a float."""
    if vectorised:
        return lambda x: a + b / (1.0 + (x - c) * (x - c))
    return lambda x: a if math.isinf(x) else a + b / (1.0 + (x - c) * (x - c))


def test_cousin_matches_the_depth_first_reference_bit_for_bit():
    rng = np.random.default_rng(2024)
    for k in range(200):
        a = float(10.0 ** rng.uniform(-1.3, 0.2))
        b, c = float(rng.uniform(0.0, 4.0)), float(rng.uniform(-2.0, 2.0))
        delta = _peak_gauge(a, b, c, vectorised=k % 2 == 1)
        tails = None if k % 3 else (-(1.0 / a + 1.5), 1.0 / a + 2.5)
        got = _rows_of(cousin_division(Gauge1D(delta), tails=tails))
        want = np.array(_depth_first_rows(delta, tails))
        assert got.tobytes() == want.tobytes(), k


def test_cousin_halves_a_batch_over_the_cap_and_keeps_the_order():
    # 2^16 cells of width 2^-14: level 15 bisects more than _BATCH pieces
    delta = lambda x: 1.0 if math.isinf(x) else 1e-4  # noqa: E731
    d = cousin_division(Gauge1D(delta), tails=(-2.0, 2.0))
    assert len(d) == 2 + 2**16 > 2 + gaugeint.cells._BATCH
    want = np.array(_depth_first_rows(delta, (-2.0, 2.0)))
    assert _rows_of(d).tobytes() == want.tobytes()


def test_cousin_asks_an_array_gauge_once_per_point_and_once_per_level():
    calls, asked = [], []

    def delta(x):
        calls.append(np.size(x))
        asked.extend(np.ravel(x).tolist())
        return 0.05 + 3.0 / (1.0 + x * x)

    d = cousin_division(Gauge1D(delta))
    edges = set(d.lo.tolist()) | set(d.hi.tolist())
    assert len(asked) == len(set(asked)) == len(edges)
    assert set(asked) == edges
    # -inf, +inf, the two tail edges, then the midpoints of each level
    width = d.hi[1:-1] - d.lo[1:-1]
    levels = round(math.log2((d.lo[-1] - d.hi[0]) / width.min()))
    assert calls[:3] == [1, 1, 2] and len(calls) == 3 + levels


def test_division_equality_is_a_bool_and_hash_agrees():
    d = cousin_division(Gauge1D(lambda x: 0.3), tails=(-4.0, 4.0))
    same = division_from_json(division_to_json(d))
    items = list(d)
    items[3] = TaggedCell1D(items[3].cell.hi, items[3].cell)  # the other edge
    moved = Division1D(items)
    shorter = Division1D(items[:-1])
    for other, equal in ((same, True), (moved, False), (shorter, False)):
        assert (d == other) is equal
        assert (d != other) is (not equal)
    assert hash(d) == hash(same)
    assert len({d, same, moved, shorter}) == 3
    assert d != "not a division"
    assert d.items == tuple(d) and isinstance(d.items[0], TaggedCell1D)
    with pytest.raises(ValueError):
        d.tags[0] = 0.0  # read-only


@pytest.mark.parametrize(
    "row",
    [(0.5, math.nan, 1.0), (math.nan, 0.0, 1.0), (1.0, 2.0, 1.0), (inf, inf, inf), (0.0, 1.0, 1.0)],
    ids=["nan-edge", "nan-tag", "lo-above-hi", "all-inf", "empty"],
)
def test_division_rows_must_hold_a_cell_and_a_tag(row):
    good = (-inf, -inf, 0.0)
    with pytest.raises(ValueError, match=r"division row 1 "):
        Division1D(np.array([good, row]))


@pytest.mark.parametrize(
    "text, what",
    [
        ('[{"tag": 1%s, "kind": "bounded", "bounds": [0, 1]}]' % ("0" * 400), "tag is past the float range"),
        ('[{"tag": 0, "kind": "bounded", "bounds": [0, 1%s]}]' % ("0" * 400), "bound is past the float range"),
        ('[{"tag": Infinity, "kind": "pos_tail", "bounds": [0]}]', "number tag must be finite"),
        ('[{"tag": 1e400, "kind": "pos_tail", "bounds": [0]}]', "number tag must be finite"),
        ('[{"tag": -Infinity, "kind": "neg_tail", "bounds": [0]}]', "number tag must be finite"),
    ],
    ids=["huge-int-tag", "huge-int-bound", "Infinity-tag", "1e400-tag", "minus-Infinity-tag"],
)
def test_division_json_refuses_numbers_past_the_float_range(text, what):
    with pytest.raises(ValueError, match=f"division item 0: .*{what}"):
        division_from_json(text)


@pytest.mark.parametrize("vectorised", [False, True])
def test_cousin_refuses_bad_gauges(vectorised):
    def gauge(inner, at_inf=0.5):
        if vectorised:
            return Gauge1D(lambda x: np.where(np.isinf(x), at_inf, inner(np.where(np.isinf(x), 0.0, x))))
        return Gauge1D(lambda x: at_inf if math.isinf(x) else inner(x))

    with pytest.raises(ResourceLimitError):
        cousin_division(gauge(lambda x: 1e-30 + 0.0 * x), tails=(-3.0, 3.0))
    with pytest.raises(ValueError, match="strictly positive, got 0.0 at 0.25"):
        cousin_division(gauge(lambda x: abs(x - 0.25)), tails=(-3.0, 3.0))
    with pytest.raises(ValueError, match="strictly positive"):
        cousin_division(gauge(lambda x: 1.0 + 0.0 * x, at_inf=-1.0))
    with pytest.raises(IntegrandError, match="complex"):
        cousin_division(gauge(lambda x: 0.5 + 0.1j + 0.0 * x))


def _reference_violations(division, delta=None):
    """(kind, detail, index) of every violation, from the item-by-item
    scalar rules, in the validator's order."""
    items = division.items

    def associated(it):
        bounded = math.isfinite(it.cell.lo) and math.isfinite(it.cell.hi)
        return it.tag in (it.cell.lo, it.cell.hi) and (math.isinf(it.tag) or bounded)

    def fine(it, d):
        lo, hi = it.cell.lo, it.cell.hi
        if lo == -inf:
            return hi == inf or hi < -1.0 / d
        return lo > 1.0 / d if hi == inf else hi - lo < d

    bad = [
        ("association", f"tag {it.tag} not associated with {it.cell!r}", i)
        for i, it in enumerate(items)
        if not associated(it)
    ]
    order = sorted(range(len(items)), key=lambda i: (items[i].cell.lo, items[i].cell.hi))
    cells = [items[i].cell for i in order]
    if not (len(cells) == 1 and cells[0].lo == -inf and cells[0].hi == inf):
        bad += [("structure", "full-line cell mixed with others", None)
                for c in cells if c.lo == -inf and c.hi == inf]
        if cells[0].lo != -inf:
            bad.append(("coverage", f"no negative tail; line starts at {cells[0].lo}", order[0]))
        if cells[-1].hi != inf:
            bad.append(("coverage", f"no positive tail; line ends at {cells[-1].hi}", order[-1]))
        for k, (left, right) in enumerate(zip(cells, cells[1:])):
            if left.hi < right.lo:
                bad.append(("gap", f"({left.hi}, {right.lo}] is uncovered", order[k + 1]))
            elif left.hi > right.lo:
                on = f"({right.lo}, {min(left.hi, right.hi)}]"
                bad.append(("overlap", f"{left!r} and {right!r} overlap on {on}", order[k + 1]))
    if delta is not None:
        bad += [("fineness", f"item {i} is not delta-fine", i)
                for i, it in enumerate(items) if associated(it) and not fine(it, delta(it.tag))]
    return bad


quarter = st.integers(min_value=-8, max_value=8).map(lambda k: k / 4)


@st.composite
def item_lists(draw):
    """Short lists of cells of every shape on a coarse grid (so edges often
    touch, overlap or leave gaps), tagged at an edge, inside or at +-inf."""
    items = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        u, v = sorted(draw(st.lists(quarter, min_size=2, max_size=2, unique=True)))
        lo, hi = draw(st.sampled_from([(u, v), (-inf, u), (u, inf), (-inf, inf)]))
        tag = draw(st.sampled_from([lo, hi, 0.5 * (u + v), -inf, inf]))
        items.append(TaggedCell1D(tag, Cell1D(lo, hi)))
    return items


@settings(max_examples=300, deadline=None)
@given(item_lists(), st.sampled_from([None, 0.3, 0.6, 2.0]))
def test_validator_matches_the_scalar_rules(items, width):
    d = Division1D(items)
    delta = None if width is None else (lambda x: width)
    got = validate_division(d, None if delta is None else Gauge1D(delta)).violations
    assert [(v.kind, v.detail, v.index) for v in got] == _reference_violations(d, delta)
    assert all(type(v.index) in (int, type(None)) for v in got)


@settings(max_examples=200, deadline=None)
@given(item_lists())
def test_json_bytes_match_the_item_by_item_encoding(items):
    d = Division1D(items)

    def kind(c):
        if c.lo == -inf:
            return "full_line" if c.hi == inf else "neg_tail"
        return "pos_tail" if c.hi == inf else "bounded"

    want = json.dumps(
        [
            {
                "tag": {inf: "inf", -inf: "-inf"}.get(it.tag, it.tag),
                "kind": kind(it.cell),
                "bounds": [e for e in (it.cell.lo, it.cell.hi) if math.isfinite(e)],
            }
            for it in items
        ],
        sort_keys=True,
    )
    assert division_to_json(d) == want
    assert division_from_json(want) == d
