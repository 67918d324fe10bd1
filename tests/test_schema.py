"""The packaged division schema agrees with the division JSON codec."""

import importlib.resources
import json
import math

import jsonschema
import pytest

from gaugeint.cells import (
    Cell1D,
    Division1D,
    Gauge1D,
    TaggedCell1D,
    cousin_division,
    division_from_json,
    division_to_json,
)

SCHEMA = json.loads(
    importlib.resources.files("gaugeint")
    .joinpath("schemas/division.schema.json")
    .read_text(encoding="utf-8")
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

GOOD_CELL = {"tag": "inf", "kind": "pos_tail", "bounds": [1.0]}

# (document, index of the malformed item): each breaks one schema rule
MALFORMED_ITEMS = [
    ([1], 0),
    (["bounded"], 0),
    ([GOOD_CELL, {"tag": 0.0, "kind": "bounded"}], 1),
    ([{"tag": 0.0, "bounds": [0.0, 1.0]}], 0),
    ([GOOD_CELL, GOOD_CELL, {**GOOD_CELL, "extra": 1}], 2),
    ([{"tag": 0.0, "kind": "bounded", "bounds": [0.0]}], 0),
    ([{"tag": 0.0, "kind": "annulus", "bounds": []}], 0),
    ([{"tag": "inf", "kind": "pos_tail", "bounds": 1.0}], 0),
    ([{"tag": None, "kind": "full_line", "bounds": []}], 0),
    # numbers only: no bool tag, string tag or string bound
    ([GOOD_CELL, {"tag": True, "kind": "full_line", "bounds": []}], 1),
    ([{"tag": "0.5", "kind": "bounded", "bounds": [0.0, 1.0]}], 0),
    ([{"tag": 0.0, "kind": "neg_tail", "bounds": ["0"]}], 0),
    ([{"tag": 0.5, "kind": "bounded", "bounds": [0.0, True]}], 0),
]


@pytest.mark.parametrize(
    "division",
    [
        cousin_division(Gauge1D(lambda x: 0.5)),
        cousin_division(Gauge1D(lambda x: 0.3), tails=(-4.0, 4.0)),
        cousin_division(
            Gauge1D(lambda x: 2.0 if math.isinf(x) else 2.0 / (1.0 + x * x))
        ),
        Division1D((TaggedCell1D(math.inf, Cell1D.full_line()),)),
    ],
    ids=["const", "const-tails", "peaked", "full-line"],
)
def test_codec_output_validates_against_the_schema(division):
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    doc = json.loads(division_to_json(division))
    VALIDATOR.validate(doc)
    assert division_from_json(json.dumps(doc)) == division


@pytest.mark.parametrize("doc, index", MALFORMED_ITEMS)
def test_malformed_items_fail_the_schema_and_the_codec(doc, index):
    assert not VALIDATOR.is_valid(doc)
    with pytest.raises(ValueError, match=f"division item {index}"):
        division_from_json(json.dumps(doc))
