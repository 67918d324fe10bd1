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
import math
from dataclasses import dataclass, field
from math import fsum, inf, isfinite, isnan
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    AssociationError,
    IntegrandError,
    ResourceLimitError,
    _require_number,
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
        u, v = _require_number("edge", u), _require_number("edge", v)
        if not (isfinite(u) and isfinite(v)):
            raise ValueError("bounded cell needs finite edges")
        return cls(u, v)

    @classmethod
    def neg_tail(cls, a: float) -> "Cell1D":
        a = _require_number("edge", a)
        if not isfinite(a):
            raise ValueError("negative tail needs a finite edge")
        return cls(-inf, a)

    @classmethod
    def pos_tail(cls, b: float) -> "Cell1D":
        b = _require_number("edge", b)
        if not isfinite(b):
            raise ValueError("positive tail needs a finite edge")
        return cls(b, inf)

    @classmethod
    def full_line(cls) -> "Cell1D":
        return cls(-inf, inf)

    @property
    def kind(self) -> str:
        lo_inf = math.isinf(self.lo)
        hi_inf = math.isinf(self.hi)
        if lo_inf and hi_inf:
            return KIND_FULL_LINE
        if lo_inf:
            return KIND_NEG_TAIL
        if hi_inf:
            return KIND_POS_TAIL
        return KIND_BOUNDED

    @property
    def is_bounded(self) -> bool:
        return self.kind == KIND_BOUNDED

    def contains(self, x: float) -> bool:
        """Membership in the point set: (lo, hi] restricted to finite x."""
        return isfinite(x) and self.lo < x <= self.hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cell1D({self.lo}, {self.hi}]"


def cell_volume(cell: Cell1D) -> float:
    """Length of a bounded cell; every unbounded shape has volume 0."""
    if cell.is_bounded:
        return cell.hi - cell.lo
    return 0.0


def tag_is_associated(tag: float, cell: Cell1D) -> bool:
    """Whether tag is an admissible associated point of the cell."""
    tag = _check_extended(tag, "tag")
    kind = cell.kind
    if kind == KIND_BOUNDED:
        return tag == cell.lo or tag == cell.hi
    if kind == KIND_NEG_TAIL:
        return tag == -inf
    if kind == KIND_POS_TAIL:
        return tag == inf
    return tag == -inf or tag == inf


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
    """A gauge: strictly positive delta on the extended reals."""

    delta: Callable[[float], float]

    def __call__(self, x: float) -> float:
        d = _gauge_value(self.delta, x)
        if not d > 0.0:
            raise ValueError(f"gauge must be strictly positive, got {d} at {x}")
        return d


def _gauge_value(delta: Callable, *args) -> float:
    """delta(*args) as a float; IntegrandError unless it is finite and real."""
    out = guarded_values(delta, *args, what="gauge")
    if out.imag.any():
        raise IntegrandError("gauge returned a complex value")
    return float(out.real)


@dataclass(frozen=True)
class Division1D:
    """A finite ordered collection of tagged cells.

    Validity (tiling of R, association, fineness) is diagnosed by
    validate_division rather than enforced here.
    """

    items: tuple[TaggedCell1D, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) == 0:
            raise ValueError("a division needs at least one item")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


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
        return all(tag_is_associated(t, c) for t, c in zip(self.tags, self.factors))


def is_delta_fine(item: TaggedCell1D, gauge: Gauge1D) -> bool:
    """Fineness of one tagged cell under the gauge.

    The gauge is evaluated once, at the tag.  Raises AssociationError if
    the tag is not associated with the cell.
    """
    if not tag_is_associated(item.tag, item.cell):
        raise AssociationError(
            f"tag {item.tag} is not an associated point of {item.cell!r}"
        )
    kind = item.cell.kind
    if kind == KIND_FULL_LINE:
        return True
    d = gauge(item.tag)
    if kind == KIND_BOUNDED:
        return (item.cell.hi - item.cell.lo) < d
    if kind == KIND_NEG_TAIL:
        return item.cell.hi < -1.0 / d
    return item.cell.lo > 1.0 / d


def cousin_division(
    gauge: Gauge1D,
    *,
    tails: tuple[float, float] | None = None,
    max_depth: int = 60,
) -> Division1D:
    """Construct a delta-fine division of the line for the given gauge.

    Tail edges default to -(1/delta(-inf) + 1) and 1/delta(+inf) + 1 so the
    two tail cells are fine; pass explicit tails to pin them.  The bounded
    middle is bisected until each piece (u, v] is shorter than delta at one
    of its endpoints, tagging at the certifying endpoint and preferring the
    left endpoint when both certify.  Bisection deeper than max_depth raises
    ResourceLimitError.
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

    items: list[TaggedCell1D] = [TaggedCell1D(-inf, Cell1D.neg_tail(a))]
    # Depth-first, left to right, so the output is ordered and deterministic.
    stack: list[tuple[float, float, int]] = [(a, b, 0)]
    while stack:
        u, v, depth = stack.pop()
        if depth > max_depth:
            raise ResourceLimitError(
                f"bisection exceeded depth {max_depth} near ({u}, {v}]"
            )
        w = v - u
        if w < gauge(u):
            items.append(TaggedCell1D(u, Cell1D.bounded(u, v)))
        elif w < gauge(v):
            items.append(TaggedCell1D(v, Cell1D.bounded(u, v)))
        else:
            mid = 0.5 * (u + v)
            if not (u < mid < v):
                raise ResourceLimitError(
                    f"cell ({u}, {v}] cannot be split further; gauge too small"
                )
            # push right first so the left half is processed first
            stack.append((mid, v, depth + 1))
            stack.append((u, mid, depth + 1))
    items.append(TaggedCell1D(inf, Cell1D.pos_tail(b)))
    return Division1D(tuple(items))


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
    the division is a valid (and, with a gauge, delta-fine) division.
    """
    bad: list[Violation] = []
    for i, it in enumerate(division):
        if not tag_is_associated(it.tag, it.cell):
            bad.append(
                Violation("association", f"tag {it.tag} not associated with {it.cell!r}", i)
            )

    order = sorted(range(len(division)), key=lambda i: (division.items[i].cell.lo, division.items[i].cell.hi))
    cells = [division.items[i].cell for i in order]

    if len(cells) == 1 and cells[0].kind == KIND_FULL_LINE:
        pass  # single full-line cell covers R
    else:
        for c in cells:
            if c.kind == KIND_FULL_LINE:
                bad.append(Violation("structure", "full-line cell mixed with others", None))
        if cells[0].lo != -inf:
            bad.append(Violation("coverage", f"no negative tail; line starts at {cells[0].lo}", order[0]))
        if cells[-1].hi != inf:
            bad.append(Violation("coverage", f"no positive tail; line ends at {cells[-1].hi}", order[-1]))
        for k in range(len(cells) - 1):
            left, right = cells[k], cells[k + 1]
            if left.hi < right.lo:
                bad.append(
                    Violation("gap", f"({left.hi}, {right.lo}] is uncovered", order[k + 1])
                )
            elif left.hi > right.lo:
                bad.append(
                    Violation(
                        "overlap",
                        f"{left!r} and {right!r} overlap on ({right.lo}, {min(left.hi, right.hi)}]",
                        order[k + 1],
                    )
                )

    if gauge is not None:
        for i, it in enumerate(division):
            if not tag_is_associated(it.tag, it.cell):
                continue  # already reported; fineness undefined
            if not is_delta_fine(it, gauge):
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


def _tag_to_json(tag: float):
    if tag == inf:
        return "inf"
    if tag == -inf:
        return "-inf"
    return tag


def _tag_from_json(obj) -> float:
    if obj in ("inf", "-inf"):
        return float(obj)
    return _require_number("tag", obj)


def _cell_bounds(cell: Cell1D) -> list[float]:
    kind = cell.kind
    if kind == KIND_BOUNDED:
        return [cell.lo, cell.hi]
    if kind == KIND_NEG_TAIL:
        return [cell.hi]
    if kind == KIND_POS_TAIL:
        return [cell.lo]
    return []


def _cell_from_kind_bounds(kind: str, bounds: Sequence[float]) -> Cell1D:
    bounds = [_require_number("bound", b) for b in bounds]
    if kind == KIND_BOUNDED:
        if len(bounds) != 2:
            raise ValueError("bounded cell needs bounds [u, v]")
        return Cell1D.bounded(bounds[0], bounds[1])
    if kind == KIND_NEG_TAIL:
        if len(bounds) != 1:
            raise ValueError("neg_tail cell needs bounds [a]")
        return Cell1D.neg_tail(bounds[0])
    if kind == KIND_POS_TAIL:
        if len(bounds) != 1:
            raise ValueError("pos_tail cell needs bounds [b]")
        return Cell1D.pos_tail(bounds[0])
    if kind == KIND_FULL_LINE:
        if len(bounds) != 0:
            raise ValueError("full_line cell takes no bounds")
        return Cell1D.full_line()
    raise ValueError(f"unknown cell kind {kind!r}")


def division_to_json(division: Division1D) -> str:
    """Serialize a division as a JSON array of {tag, kind, bounds} objects."""
    arr = [
        {
            "tag": _tag_to_json(it.tag),
            "kind": it.cell.kind,
            "bounds": _cell_bounds(it.cell),
        }
        for it in division
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
    items = []
    for index, obj in enumerate(arr):
        if not isinstance(obj, dict) or obj.keys() != {"tag", "kind", "bounds"}:
            raise ValueError(
                f"division item {index} must be an object with exactly the "
                f"keys tag, kind and bounds, got {obj!r}"
            )
        try:
            cell = _cell_from_kind_bounds(obj["kind"], obj["bounds"])
            items.append(TaggedCell1D(_tag_from_json(obj["tag"]), cell))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"division item {index}: {exc}") from exc
    return Division1D(tuple(items))
