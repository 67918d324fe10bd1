"""Golden outputs of the report commands on cheap inputs.

Each case runs the CLI in-process and compares stdout (and the documents
`exchange` writes) byte for byte with the recorded text.  A refactor of
the numerical core that moves any printed digit fails here; a deliberate
change of the numbers re-records the text and says why in CHANGES.md.
The abs_diff column of the fresnel tables prints an error of ~1e-15 to
12 digits, so the error is itself round-off and any change of the
arithmetic moves it: those rows pin the exact Filon weights and the
by-parts tail.
The 3-slice kernel case is the one that runs a lattice bridge step, so its
last digits pin the round-off of the offset-lattice cell contraction.
The division cases pin the Cousin builder's cells, tags and order (a
constant gauge, and a peaked one that mixes depths and left and right
tags), the JSON bytes of a saved division, and the order and text of
every kind of violation the validator reports.
"""

import contextlib
import io
import json

import pytest

from gaugeint.cli import main

QUERIES = {
    "const2": {"xi": 0.3, "tau": 1.0, "slices": 2, "potential": "const:0.5"},
    "harmonic3": {
        "xi": -0.4, "xi_prime": 0.2, "tau": 0.5, "slices": 3,
        "potential": "harmonic:0.7",
    },
}

COMMANDS = {
    "fresnel": ["fresnel", "--tol", "1e-6"],
    "fresnel_c": ["fresnel", "--c", "2i", "--tol", "1e-6"],
    "perturb_const": [
        "perturb", "--V", "const:1", "--xi", "0.3", "--slices", "2",
        "--mmax", "6",
    ],
    "perturb_harmonic": [
        "perturb", "--V", "harmonic:0.5", "--xi", "0.3", "--tau", "0.5",
        "--slices", "2", "--mmax", "4",
    ],
    "exchange_const": [
        "exchange", "--V", "const:1", "--xi", "0.3", "--slices", "2",
        "--mmax", "6",
    ],
    "exchange_harmonic": [
        "exchange", "--V", "harmonic:0.5", "--xi", "0.3", "--tau", "0.5",
        "--slices", "2", "--mmax", "4",
    ],
}

EXCHANGE_DOCUMENTS = ("comparison.csv", "growth.csv", "verdict.json")

# one of each violation: an interior tag, a full-line cell among others,
# overlaps, a gap and no positive tail
BROKEN_DIVISION = [
    {"tag": "-inf", "kind": "neg_tail", "bounds": [-1.0]},
    {"tag": 0.5, "kind": "bounded", "bounds": [0.0, 1.0]},
    {"tag": 2.0, "kind": "bounded", "bounds": [0.5, 2.0]},
    {"tag": "inf", "kind": "full_line", "bounds": []},
    {"tag": 3.0, "kind": "bounded", "bounds": [2.5, 3.0]},
]

GOLDEN = {
    'fresnel': (
        'format_version,1\n'
        'quantity,numeric,reference,abs_diff\n'
        'full_line_exp_ix2_over_2,1.77245385091+1.77245385091j,1.77245385091+1.77245385091j,6.01162958111e-15\n'
        'full_line_exp_iy2,1.25331413732+1.25331413732j,1.25331413732+1.25331413732j,1.83102671941e-15\n'
        'halfline_cos_u2,0.626657068658+0j,0.626657068658+0j,8.881784197e-16\n'
        'halfline_sin_u2,0.626657068658+0j,0.626657068658+0j,1.11022302463e-16\n'
    ),
    'fresnel_c': (
        'format_version,1\n'
        'quantity,numeric,reference,abs_diff\n'
        'full_line_exp_half_c_x2,1.25331413732+1.25331413732j,1.25331413732+1.25331413732j,1.83102671941e-15\n'
    ),
    'perturb_const': (
        'format_version,1\n'
        'm,partial_sum,abs_diff_vs_closed\n'
        '0,0.294499200741-0.269119237244j,0.382526235307\n'
        '1,0.0253799634979-0.563618437985j,0.193991572984\n'
        '2,-0.121869636873-0.429058819363j,0.0652556956345\n'
        '3,-0.0770164306656-0.37997561924j,0.0164027738632\n'
        '4,-0.0647456306347-0.391188920791j,0.00329176585153\n'
        '5,-0.066988290945-0.393643080798j,0.000549870956935\n'
        '6,-0.0673973176127-0.393269304079j,7.86766542134e-05\n'
    ),
    'perturb_harmonic': (
        'format_version,1\n'
        'm,partial_sum\n'
        '0,0.433184007856-0.361471301104j\n'
        '1,0.434762415874-0.364166184145j\n'
        '2,0.434765876212-0.364181988292j\n'
        '3,0.434765871566-0.364182081316j\n'
        '4,0.434765871413-0.364182081875j\n'
    ),
    'kernel_const2': (
        'format_version,1\n'
        'quantity,value,abs_diff_vs_closed\n'
        'constant_closed,0.129424727797-0.377364787608j,0\n'
        'psi_sliced,0.129424727797-0.377364787608j,2.28878339926e-16\n'
    ),
    'kernel_harmonic3': (
        'format_version,1\n'
        'quantity,value,abs_diff_vs_closed\n'
        'harmonic_closed,0.518037043997-0.237782312358j,0\n'
        'psi_sliced,0.517843009632-0.236666477978j,0.00113257922366\n'
    ),
    'exchange_const': (
        '{\n'
        '  "beta_positive": true,\n'
        '  "beta_probe": "UNBOUNDED",\n'
        '  "eps": 0.001,\n'
        '  "format_version": 1,\n'
        '  "m_found": 6,\n'
        '  "max_ratio": 0.00019721312600481,\n'
        '  "seed": 20260818\n'
        '}\n'
    ),
    'exchange_const/comparison.csv': (
        'format_version,1\n'
        'm,partial_sum,sliced,abs_difference\n'
        '0,0.294499200741-0.269119237244j,-0.0673374323572-0.393218276909j,0.382526235307\n'
        '1,0.0253799634979-0.563618437985j,-0.0673374323572-0.393218276909j,0.193991572984\n'
        '2,-0.121869636873-0.429058819363j,-0.0673374323572-0.393218276909j,0.0652556956345\n'
        '3,-0.0770164306656-0.37997561924j,-0.0673374323572-0.393218276909j,0.0164027738632\n'
        '4,-0.0647456306347-0.391188920791j,-0.0673374323572-0.393218276909j,0.00329176585153\n'
        '5,-0.066988290945-0.393643080798j,-0.0673374323572-0.393218276909j,0.000549870956934\n'
        '6,-0.0673973176127-0.393269304079j,-0.0673374323572-0.393218276909j,7.86766542135e-05\n'
    ),
    'exchange_const/growth.csv': (
        'format_version,1\n'
        'radius,riemann_sum,refinement_level\n'
        '1,1.27323954474,4\n'
        '2,5.09295817894,4\n'
        '4,20.3718327158,4\n'
        '8,81.4873308631,4\n'
        '16,325.949323452,4\n'
        '32,1303.79729381,4\n'
        '64,5215.18917524,4\n'
    ),
    'exchange_const/verdict.json': (
        '{\n'
        '  "beta_positive": true,\n'
        '  "beta_probe": "UNBOUNDED",\n'
        '  "eps": 0.001,\n'
        '  "format_version": 1,\n'
        '  "m_found": 6,\n'
        '  "max_ratio": 0.00019721312600481,\n'
        '  "seed": 20260818\n'
        '}\n'
    ),
    'exchange_harmonic': (
        '{\n'
        '  "beta_positive": true,\n'
        '  "beta_probe": "UNBOUNDED",\n'
        '  "eps": 0.001,\n'
        '  "format_version": 1,\n'
        '  "m_found": -1,\n'
        '  "seed": 20260818\n'
        '}\n'
    ),
    'exchange_harmonic/comparison.csv': (
        'format_version,1\n'
        'm,partial_sum,sliced,abs_difference\n'
        '0,0.433184007856-0.361471301104j,0.434628936652-0.363199169993j,0.00225240984815\n'
        '1,0.434762415874-0.364166184145j,0.434628936652-0.363199169993j,0.000976182909385\n'
        '2,0.434765876212-0.364181988292j,0.434628936652-0.363199169993j,0.00099231257732\n'
        '3,0.434765871566-0.364182081316j,0.434628936652-0.363199169993j,0.000992404070638\n'
        '4,0.434765871413-0.364182081875j,0.434628936652-0.363199169993j,0.000992404603288\n'
    ),
    'exchange_harmonic/growth.csv': (
        'format_version,1\n'
        'radius,riemann_sum,refinement_level\n'
        '1,2.54647908947,4\n'
        '2,10.1859163579,4\n'
        '4,40.7436654315,4\n'
        '8,162.974661726,4\n'
        '16,651.898646904,4\n'
        '32,2607.59458762,4\n'
        '64,10430.3783505,4\n'
    ),
    'exchange_harmonic/verdict.json': (
        '{\n'
        '  "beta_positive": true,\n'
        '  "beta_probe": "UNBOUNDED",\n'
        '  "eps": 0.001,\n'
        '  "format_version": 1,\n'
        '  "m_found": -1,\n'
        '  "seed": 20260818\n'
        '}\n'
    ),
    'division_const': (
        '[{"bounds": [-3.0], "kind": "neg_tail", "tag": "-inf"}, '
        '{"bounds": [-3.0, -2.625], "kind": "bounded", "tag": -3.0}, '
        '{"bounds": [-2.625, -2.25], "kind": "bounded", "tag": -2.625}, '
        '{"bounds": [-2.25, -1.875], "kind": "bounded", "tag": -2.25}, '
        '{"bounds": [-1.875, -1.5], "kind": "bounded", "tag": -1.875}, '
        '{"bounds": [-1.5, -1.125], "kind": "bounded", "tag": -1.5}, '
        '{"bounds": [-1.125, -0.75], "kind": "bounded", "tag": -1.125}, '
        '{"bounds": [-0.75, -0.375], "kind": "bounded", "tag": -0.75}, '
        '{"bounds": [-0.375, 0.0], "kind": "bounded", "tag": -0.375}, '
        '{"bounds": [0.0, 0.375], "kind": "bounded", "tag": 0.0}, '
        '{"bounds": [0.375, 0.75], "kind": "bounded", "tag": 0.375}, '
        '{"bounds": [0.75, 1.125], "kind": "bounded", "tag": 0.75}, '
        '{"bounds": [1.125, 1.5], "kind": "bounded", "tag": 1.125}, '
        '{"bounds": [1.5, 1.875], "kind": "bounded", "tag": 1.5}, '
        '{"bounds": [1.875, 2.25], "kind": "bounded", "tag": 1.875}, '
        '{"bounds": [2.25, 2.625], "kind": "bounded", "tag": 2.25}, '
        '{"bounds": [2.625, 3.0], "kind": "bounded", "tag": 2.625}, '
        '{"bounds": [3.0], "kind": "pos_tail", "tag": "inf"}]\n'
        '{\n'
        '  "format_version": 1,\n'
        '  "items": 18,\n'
        '  "valid": true,\n'
        '  "violations": []\n'
        '}\n'
    ),
    'division_peaked': (
        '[{"bounds": [-2.0], "kind": "neg_tail", "tag": "-inf"}, '
        '{"bounds": [-2.0, -1.875], "kind": "bounded", "tag": -2.0}, '
        '{"bounds": [-1.875, -1.75], "kind": "bounded", "tag": -1.875}, '
        '{"bounds": [-1.75, -1.5], "kind": "bounded", "tag": -1.5}, '
        '{"bounds": [-1.5, -1.25], "kind": "bounded", "tag": -1.5}, '
        '{"bounds": [-1.25, -1.0], "kind": "bounded", "tag": -1.25}, '
        '{"bounds": [-1.0, -0.5], "kind": "bounded", "tag": -0.5}, '
        '{"bounds": [-0.5, 0.0], "kind": "bounded", "tag": -0.5}, '
        '{"bounds": [0.0, 0.5], "kind": "bounded", "tag": 0.0}, '
        '{"bounds": [0.5, 1.0], "kind": "bounded", "tag": 0.5}, '
        '{"bounds": [1.0, 1.25], "kind": "bounded", "tag": 1.0}, '
        '{"bounds": [1.25, 1.5], "kind": "bounded", "tag": 1.25}, '
        '{"bounds": [1.5, 1.75], "kind": "bounded", "tag": 1.5}, '
        '{"bounds": [1.75, 1.875], "kind": "bounded", "tag": 1.75}, '
        '{"bounds": [1.875, 2.0], "kind": "bounded", "tag": 1.875}, '
        '{"bounds": [2.0], "kind": "pos_tail", "tag": "inf"}]\n'
        '{\n'
        '  "format_version": 1,\n'
        '  "items": 16,\n'
        '  "valid": true,\n'
        '  "violations": []\n'
        '}\n'
    ),
    'division_validate': (
        '{\n'
        '  "format_version": 1,\n'
        '  "items": 16,\n'
        '  "valid": true,\n'
        '  "violations": []\n'
        '}\n'
    ),
    'division_broken': (
        '{\n'
        '  "format_version": 1,\n'
        '  "items": 5,\n'
        '  "valid": false,\n'
        '  "violations": [\n'
        '    {\n'
        '      "detail": "tag 0.5 not associated with Cell1D(0.0, 1.0]",\n'
        '      "index": 1,\n'
        '      "kind": "association"\n'
        '    },\n'
        '    {\n'
        '      "detail": "full-line cell mixed with others",\n'
        '      "index": null,\n'
        '      "kind": "structure"\n'
        '    },\n'
        '    {\n'
        '      "detail": "no positive tail; line ends at 3.0",\n'
        '      "index": 4,\n'
        '      "kind": "coverage"\n'
        '    },\n'
        '    {\n'
        '      "detail": "Cell1D(-inf, -1.0] and Cell1D(-inf, inf] overlap on (-inf, -1.0]",\n'
        '      "index": 3,\n'
        '      "kind": "overlap"\n'
        '    },\n'
        '    {\n'
        '      "detail": "Cell1D(-inf, inf] and Cell1D(0.0, 1.0] overlap on (0.0, 1.0]",\n'
        '      "index": 1,\n'
        '      "kind": "overlap"\n'
        '    },\n'
        '    {\n'
        '      "detail": "Cell1D(0.0, 1.0] and Cell1D(0.5, 2.0] overlap on (0.5, 1.0]",\n'
        '      "index": 2,\n'
        '      "kind": "overlap"\n'
        '    },\n'
        '    {\n'
        '      "detail": "(2.0, 2.5] is uncovered",\n'
        '      "index": 4,\n'
        '      "kind": "gap"\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
}


def _run(argv, expected_code=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == expected_code
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_golden(name, tmp_path):
    argv = list(COMMANDS[name])
    if argv[0] == "exchange":
        argv += ["--output-dir", str(tmp_path)]
    assert _run(argv) == GOLDEN[name]
    if argv[0] == "exchange":
        for doc in EXCHANGE_DOCUMENTS:
            text = (tmp_path / doc).read_text(encoding="utf-8")
            assert text == GOLDEN[f"{name}/{doc}"]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_kernel_output_matches_golden(name, tmp_path):
    path = tmp_path / "query.json"
    path.write_text(json.dumps(QUERIES[name]), encoding="utf-8")
    assert _run(["kernel", "--query", str(path)]) == GOLDEN[f"kernel_{name}"]


def test_division_output_matches_golden(tmp_path):
    assert _run(["division", "--gauge", "const:0.5"]) == GOLDEN["division_const"]
    peaked = ["division", "--gauge", "peaked:1.0"]
    assert _run(peaked) == GOLDEN["division_peaked"]
    saved = tmp_path / "peaked.json"
    _run(peaked + ["--out", str(saved)])
    assert saved.read_text(encoding="utf-8") == GOLDEN["division_peaked"].split("\n")[0] + "\n"
    assert _run(["division", "--validate", str(saved)]) == GOLDEN["division_validate"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(BROKEN_DIVISION), encoding="utf-8")
    assert _run(["division", "--validate", str(broken)], 1) == GOLDEN["division_broken"]
