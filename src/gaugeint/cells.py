"""Tagged cells, gauges and divisions of the extended real line.

Cells come in four shapes: a negative tail (-inf, a], a half-open bounded
cell (u, v], a positive tail (b, inf) and the full line.  Together with the
half-open convention this makes a division an exact tiling of R: one
negative tail, a contiguous chain of bounded cells, one positive tail.

A tag is an admissible associated point of its cell:

    (-inf, a]  -> tag -inf
    (u, v]     -> tag u or tag v
    (b, inf)   -> tag +inf
    full line  -> tag -inf or +inf

A gauge assigns a positive delta to every extended real; a tagged cell is
delta-fine when a bounded cell is shorter than delta(tag), a negative tail
satisfies a < -1/delta(-inf), a positive tail satisfies b > 1/delta(+inf),
and the full line is fine by convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import fsum, inf, isfinite, isnan
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    AssociationError,
    IntegrandError,
    ResourceLimitError,
    _require_finite,
    _require_number,
    guarded_array,
    guarded_values,
)

__all__ = [
    "Cell1D",
    "TaggedCell1D",
    "Gauge1D",
    "Division1D",
    "CellND",
    "DivisionReport",
    "Violation",
    "cell_volume",
    "tag_is_associated",
    "is_delta_fine",
    "cousin_division",
    "validate_division",
    "riemann_sum",
    "fsum_complex",
    "division_to_json",
    "division_from_json",
    "KIND_NEG_TAIL",
    "KIND_BOUNDED",
    "KIND_POS_TAIL",
    "KIND_FULL_LINE",
]

KIND_NEG_TAIL = "neg_tail"
KIND_BOUNDED = "bounded"
KIND_POS_TAIL = "pos_tail"
KIND_FULL_LINE = "full_line"

_MAX_DEPTH = 60  # bisection levels of cousin_division
_BATCH = 1 << 14  # pieces cousin_division bisects together


def _check_extended(x: float, what: str) -> float:
    x = _require_number(what, x)
    if isnan(x):
        raise ValueError(f"{what} must not be NaN")
    return x


@dataclass(frozen=True)
class Cell1D:
    """One cell of the line, stored as the extended interval (lo, hi].

    lo = -inf encodes a negative tail or full line, hi = +inf a positive
    tail or full line; a bounded cell has both edges finite.  Construct via
    the named constructors to make the shape explicit.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = _check_extended(self.lo, "cell lower edge")
        hi = _check_extended(self.hi, "cell upper edge")
        if not lo < hi:
            raise ValueError(f"cell edges must satisfy lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def bounded(cls, u: float, v: float) -> "Cell1D":
        return cls(_require_finite("edge", u), _require_finite("edge", v))

    @classmethod
    def neg_tail(cls, a: float) -> "Cell1D":
        return cls(-inf, _require_finite("edge", a))

    @classmethod
    def pos_tail(cls, b: float) -> "Cell1D":
        return cls(_require_finite("edge", b), inf)

    @classmethod
    def full_line(cls) -> "Cell1D":
        return cls(-inf, inf)

    @property
    def kind(self) -> str:
        return _kind(self.lo, self.hi)

    @property
    def is_bounded(self) -> bool:
        return isfinite(self.lo) and isfinite(self.hi)

    def contains(self, x: float) -> bool:
        """Membership in the point set: (lo, hi] restricted to finite x."""
        return isfinite(x) and self.lo < x <= self.hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cell1D({self.lo}, {self.hi}]"


def _kind(lo: float, hi: float) -> str:
    """The shape of the cell (lo, hi]; only lo can be -inf, only hi +inf."""
    if lo == -inf:
        return KIND_FULL_LINE if hi == inf else KIND_NEG_TAIL
    return KIND_POS_TAIL if hi == inf else KIND_BOUNDED


def cell_volume(cell: Cell1D) -> float:
    """Length of a bounded cell; every unbounded shape has volume 0."""
    if cell.is_bounded:
        return cell.hi - cell.lo
    return 0.0


def _is_associated(tag, lo, hi):
    """The association rule of every shape, on floats or arrays: the tag is
    an edge of its cell (lo, hi], and that edge is infinite unless the cell
    is bounded."""
    return ((tag == lo) | (tag == hi)) & (np.isinf(tag) | (np.isfinite(lo) & np.isfinite(hi)))


def _require_associated(tag: float, cell: Cell1D) -> tuple[float, float]:
    """The cell's edges, or AssociationError when tag is not associated with it."""
    if not _is_associated(tag, cell.lo, cell.hi):
        raise AssociationError(f"tag {tag} is not an associated point of {cell!r}")
    return cell.lo, cell.hi


def _is_fine(lo, hi, d):
    """The fineness rule of every shape of cell (lo, hi] under the width
    bound d, on floats or arrays."""
    return np.where(
        lo == -inf, (hi == inf) | (hi < -1.0 / d), np.where(hi == inf, lo > 1.0 / d, hi - lo < d)
    )


def tag_is_associated(tag: float, cell: Cell1D) -> bool:
    """Whether tag is an admissible associated point of the cell."""
    return bool(_is_associated(_check_extended(tag, "tag"), cell.lo, cell.hi))


@dataclass(frozen=True)
class TaggedCell1D:
    """A cell with its tag.  Association is the documented invariant;
    it is checked by operations that need it, not at construction, so the
    validator can inspect broken items."""

    tag: float
    cell: Cell1D

    def __post_init__(self) -> None:
        object.__setattr__(self, "tag", _check_extended(self.tag, "tag"))


@dataclass(frozen=True)
class Gauge1D:
    """A gauge: strictly positive delta on the extended reals.  delta may
    also map a float array to an array of the same shape (see values)."""

    delta: Callable[[float], float]

    def __call__(self, x: float) -> float:
        return float(self.values(np.array(x, dtype=float)))

    def values(self, x: np.ndarray) -> np.ndarray:
        """delta at every point of the float array x, asked once on the array
        (errors.guarded_array) or, at a single point, on its float;
        IntegrandError if a value is complex, ValueError naming the first
        that is not strictly positive."""
        return self._values(guarded_array(self.delta, what="gauge"), x)

    def _values(self, on_array, x: np.ndarray) -> np.ndarray:
        """values, asking arrays through on_array (a guarded_array, one per build)."""
        if x.size == 1:
            out = guarded_values(self.delta, float(x.flat[0]), what="gauge").reshape(x.shape)
        else:
            out = on_array(x)
        if out.imag.any():
            raise IntegrandError("gauge returned a complex value")
        if not (out.real > 0.0).all():
            i = (~(out.real > 0.0)).argmax()
            raise ValueError(f"gauge must be strictly positive, got {out.real.flat[i]} at {x.flat[i]}")
        return out.real


class Division1D:
    """A finite ordered collection of tagged cells, held as read-only float
    arrays tags, lo and hi (lo = -inf, hi = +inf on the unbounded shapes).

    Built from TaggedCell1D items or an (n, 3) array of rows (tag, lo, hi),
    each with lo < hi and a tag that is not NaN.  Validity (tiling of R,
    association, fineness) is diagnosed by validate_division instead.
    """

    __slots__ = ("tags", "lo", "hi", "_key")

    def __init__(self, items: Iterable[TaggedCell1D] | np.ndarray) -> None:
        if not isinstance(items, np.ndarray):
            items = np.array([(it.tag, it.cell.lo, it.cell.hi) for it in items]).reshape(-1, 3)
        if items.ndim != 2 or items.shape[1] != 3 or len(items) == 0:
            raise ValueError("a division needs at least one item, as (tag, lo, hi) rows")
        table = np.array(items, dtype=float).T.copy()
        bad = ~(table[1] < table[2]) | np.isnan(table[0])
        if bad.any():
            i = int(bad.argmax())
            row = tuple(table[:, i].tolist())
            raise ValueError(f"division row {i} {row} needs lo < hi and a tag that is not NaN")
        table.flags.writeable = False
        self.tags, self.lo, self.hi = table
        self._key = (table + 0.0).tobytes()  # + 0.0: -0.0 equals 0.0, as for floats

    items = property(tuple, doc="The TaggedCell1D items, in order.")

    def __eq__(self, other) -> bool:
        return isinstance(other, Division1D) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __len__(self) -> int:
        return self.tags.size

    def __iter__(self):
        for t, u, v in zip(self.tags.tolist(), self.lo.tolist(), self.hi.tolist()):
            yield TaggedCell1D(t, Cell1D(u, v))


@dataclass(frozen=True)
class CellND:
    """A product cell in R^n with one tag per factor."""

    tags: tuple[float, ...]
    factors: tuple[Cell1D, ...]

    def __post_init__(self) -> None:
        tags = tuple(_check_extended(t, "tag") for t in self.tags)
        factors = tuple(self.factors)
        if len(tags) != len(factors):
            raise ValueError("one tag per factor required")
        if len(factors) == 0:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return len(self.factors)

    def volume(self) -> float:
        vol = 1.0
        for f in self.factors:
            vol *= cell_volume(f)
        return vol

    def is_associated(self) -> bool:
        return all(_is_associated(t, c.lo, c.hi) for t, c in zip(self.tags, self.factors))


def is_delta_fine(item: TaggedCell1D, gauge: Gauge1D) -> bool:
    """Fineness of one tagged cell under the gauge.

    The gauge is evaluated once, at the tag.  Raises AssociationError if
    the tag is not associated with the cell.
    """
    return bool(_is_fine(*_require_associated(item.tag, item.cell), gauge(item.tag)))


def cousin_division(
    gauge: Gauge1D,
    *,
    tails: tuple[float, float] | None = None,
) -> Division1D:
    """Construct a delta-fine division of the line for the given gauge.

    Tail edges default to -(1/delta(-inf) + 1) and 1/delta(+inf) + 1 so the
    two tail cells are fine; pass explicit tails to pin them.  The bounded
    middle is bisected until each piece (u, v] is shorter than delta at one
    of its endpoints, tagging at the certifying endpoint and preferring the
    left endpoint when both certify.  A batch of pieces is bisected a level
    at a time, the gauge asked once per level on the array of midpoints (so
    once per point; a scalar-only gauge refuses one array in all); a batch
    over _BATCH pieces is halved and taken depth first.  Bisection deeper
    than _MAX_DEPTH raises ResourceLimitError.
    """
    if tails is None:
        a = -(1.0 / gauge(-inf) + 1.0)
        b = 1.0 / gauge(inf) + 1.0
    else:
        a, b = (_require_number("tails", x) for x in tails)
        if not (isfinite(a) and isfinite(b) and a < b):
            raise ValueError("tails must be finite with a < b")
        if not a < -1.0 / gauge(-inf):
            raise ValueError(f"tail edge {a} does not certify the negative tail")
        if not b > 1.0 / gauge(inf):
            raise ValueError(f"tail edge {b} does not certify the positive tail")

    on_array = guarded_array(gauge.delta, what="gauge")
    da, db = gauge._values(on_array, np.array([a, b]))
    stack = [(np.array([[a], [b], [da], [db]]), 0)]
    settled = []  # rows lo, hi, dlo of the settled pieces
    while stack:
        piece, depth = stack.pop()  # rows lo, hi, dlo, dhi, left to right
        if depth > _MAX_DEPTH:
            raise ResourceLimitError(f"bisection exceeded depth {_MAX_DEPTH} near ({piece[0, 0]}, {piece[1, 0]}]")
        w = piece[1] - piece[0]
        done = (w < piece[2]) | (w < piece[3])
        settled.append(piece[:3, done])
        piece = piece[:, ~done]
        if piece.size == 0:
            continue
        lo, hi = piece[0], piece[1]
        mid = 0.5 * (lo + hi)
        stuck = (mid <= lo) | (mid >= hi)
        if stuck.any():
            i = stuck.argmax()
            raise ResourceLimitError(f"cell ({lo[i]}, {hi[i]}] cannot be split further; gauge too small")
        # each piece becomes its left half then its right: the left ends at
        # mid (rows hi, dhi) and the right starts there (rows lo, dlo)
        halves = np.repeat(piece, 2, axis=1)
        halves[1::2, 0::2] = halves[0::2, 1::2] = (mid, gauge._values(on_array, mid))
        if halves.shape[1] > _BATCH:  # the right batch waits, so the left is bisected first
            stack.append((halves[:, piece.shape[1]:], depth + 1))
            halves = halves[:, : piece.shape[1]]
        stack.append((halves, depth + 1))
    table = np.concatenate(settled, axis=1)
    lo, hi, dlo = table[:, np.argsort(table[0])]
    middle = np.stack((np.where(hi - lo < dlo, lo, hi), lo, hi), axis=1)  # left tag first
    return Division1D(np.concatenate(([(-inf, -inf, a)], middle, [(inf, b, inf)])))


@dataclass(frozen=True)
class Violation:
    """One defect found by the validator."""

    kind: str  # association | fineness | overlap | gap | coverage | structure
    detail: str
    index: int | None = None


@dataclass(frozen=True)
class DivisionReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def validate_division(division: Division1D, gauge: Gauge1D | None = None) -> DivisionReport:
    """Check association, exact tiling of R and (optionally) fineness.

    Returns a report listing every violation found; an empty report means
    the division is a valid (and, with a gauge, delta-fine) division.  The
    gauge is asked once, on the array of associated tags.
    """
    bad: list[Violation] = []
    tags, lo, hi = division.tags, division.lo, division.hi
    associated = _is_associated(tags, lo, hi)
    for i in np.flatnonzero(~associated).tolist():
        bad.append(Violation("association", f"tag {tags[i]} not associated with {Cell1D(lo[i], hi[i])!r}", i))

    order = np.lexsort((hi, lo))  # by lower edge, then upper, stably
    slo, shi = lo[order], hi[order]
    full = (slo == -inf) & (shi == inf)
    if not (order.size == 1 and full[0]):  # else a single full-line cell covers R
        bad += [Violation("structure", "full-line cell mixed with others", None)] * int(full.sum())
        if slo[0] != -inf:
            bad.append(Violation("coverage", f"no negative tail; line starts at {slo[0]}", int(order[0])))
        if shi[-1] != inf:
            bad.append(Violation("coverage", f"no positive tail; line ends at {shi[-1]}", int(order[-1])))
        for k in np.flatnonzero(shi[:-1] != slo[1:]).tolist():
            index = int(order[k + 1])
            if shi[k] < slo[k + 1]:
                bad.append(Violation("gap", f"({shi[k]}, {slo[k + 1]}] is uncovered", index))
            else:
                left, right = Cell1D(slo[k], shi[k]), Cell1D(slo[k + 1], shi[k + 1])
                on = f"({right.lo}, {min(left.hi, right.hi)}]"
                bad.append(Violation("overlap", f"{left!r} and {right!r} overlap on {on}", index))

    if gauge is not None:  # unassociated items get no fineness check
        where = np.flatnonzero(associated)
        fine = _is_fine(lo[where], hi[where], gauge.values(tags[where]))
        for i in where[~fine].tolist():
            bad.append(Violation("fineness", f"item {i} is not delta-fine", i))
    return DivisionReport(tuple(bad))


def fsum_complex(values: Iterable[complex]) -> complex:
    """Correctly rounded complex sum, so independent of the order of values.

    An ndarray is summed through its real and imaginary parts.
    """
    if not isinstance(values, np.ndarray):
        values = np.array([complex(v) for v in values], dtype=complex)
    return complex(fsum(values.real.tolist()), fsum(values.imag.tolist()))


def riemann_sum(
    h: Callable[[float, Cell1D], complex], division: Division1D
) -> complex:
    """Compensated sum of h(tag, cell) over the division, in item order."""
    return fsum_complex(
        guarded_values(
            lambda: complex(h(it.tag, it.cell)), what=f"integrand on item {i}"
        )
        for i, it in enumerate(division)
    )


# ---------------------------------------------------------------------------
# JSON serialization.  Field names are fixed by schemas/division.schema.json.


_TAG_JSON = {inf: "inf", -inf: "-inf"}


def _edges_from_json(kind: str, bounds: Sequence[float]) -> tuple[float, float]:
    """The edges (lo, hi) of the cell that a JSON item's kind and bounds name."""
    bounds = [_require_number("bound", b) for b in bounds]
    if kind == KIND_FULL_LINE:
        if bounds:
            raise ValueError("full_line cell takes no bounds")
        return -inf, inf
    if kind == KIND_BOUNDED:
        if len(bounds) != 2:
            raise ValueError("bounded cell needs bounds [u, v]")
        lo, hi = (_require_finite("edge", e) for e in bounds)
        if not lo < hi:
            raise ValueError(f"cell edges must satisfy lo < hi, got ({lo}, {hi})")
        return lo, hi
    if kind in (KIND_NEG_TAIL, KIND_POS_TAIL):
        if len(bounds) != 1:
            raise ValueError(f"{kind} cell needs bounds [{'a' if kind == KIND_NEG_TAIL else 'b'}]")
        e = _require_finite("edge", bounds[0])
        return (-inf, e) if kind == KIND_NEG_TAIL else (e, inf)
    raise ValueError(f"unknown cell kind {kind!r}")


def division_to_json(division: Division1D) -> str:
    """Serialize a division as a JSON array of {tag, kind, bounds} objects."""
    rows = zip(division.tags.tolist(), division.lo.tolist(), division.hi.tolist())
    arr = [
        {"tag": _TAG_JSON.get(t, t), "kind": _kind(u, v), "bounds": [e for e in (u, v) if isfinite(e)]}
        for t, u, v in rows
    ]
    return json.dumps(arr, sort_keys=True)


def division_from_json(text: str) -> Division1D:
    """Parse division_to_json output back into a Division1D.

    Each item must be an object with exactly the keys tag, kind and
    bounds (schemas/division.schema.json); a malformed item raises
    ValueError naming its index.
    """
    arr = json.loads(text)
    if not isinstance(arr, list):
        raise ValueError("division JSON must be an array")
    rows = []
    for index, obj in enumerate(arr):
        if not isinstance(obj, dict) or obj.keys() != {"tag", "kind", "bounds"}:
            raise ValueError(
                f"division item {index} must be an object with exactly the "
                f"keys tag, kind and bounds, got {obj!r}"
            )
        try:
            lo, hi = _edges_from_json(obj["kind"], obj["bounds"])
            tag = obj["tag"]
            if tag not in ("inf", "-inf") and not isfinite(tag := _check_extended(tag, "tag")):
                raise ValueError(f'a number tag must be finite (infinite ones are "inf", "-inf"), got {tag}')
            rows.append((float(tag), lo, hi))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"division item {index}: {exc}") from exc
    return Division1D(np.array(rows).reshape(-1, 3))
