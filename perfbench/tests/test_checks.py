"""The run's checks: a known defect is excused only at its documented size."""

import math

import run
from workloads import Op


def _op(**kw):
    return Op(kind="k", run=lambda: None, values=lambda v: [v],
              reference=[1.0], tol=[1e-6], **kw)


def _unexpected(op, raw):
    return run._unexpected_failures(run._check([op], [raw]))


def test_known_defect_is_excused_only_below_its_ceiling():
    op = _op(known_defect="documented", defect_ceiling=1e-2)
    assert _unexpected(op, 1.0) == []  # passes
    assert _unexpected(op, 1.0 + 6e-4) == []  # the defect at its known size
    assert _unexpected(op, 1.1) == ["k"]  # worse than documented
    assert _unexpected(op, math.nan) == ["k"]
    assert _unexpected(op, complex(math.inf, 0.0)) == ["k"]
    assert _unexpected(op, RuntimeError("broken")) == ["k"]


def test_failures_without_a_known_defect_are_never_excused():
    assert _unexpected(_op(), 1.0 + 6e-4) == ["k"]
    assert _unexpected(_op(defect_ceiling=1.0), 1.0 + 6e-4) == ["k"]


def test_non_finite_values_score_zero_digits():
    op = _op()
    records = run._check([op, op], [math.nan, 1.0 + 1e-3])
    assert records[0]["error"] == math.inf
    assert abs(run._accuracy_digits(records) - (0.0 + 3.0) / 2) < 1e-9
