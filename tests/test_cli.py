"""Tests for configuration handling, input checks, report rendering and the CLI."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from gaugeint.cells import Cell1D, Gauge1D, cousin_division
from gaugeint.cli import main
from gaugeint.config import (
    CONFIG_ENV_VAR,
    IntegratorConfig,
    LabConfig,
    PathintConfig,
    RunConfig,
    load_config,
)
from gaugeint.cylinder import PathSample, TimeSet
from gaugeint.errors import _require_number
from gaugeint.exchange import abs_g0_growth
from gaugeint.fresnel import IncrementSchedule
from gaugeint.integrate import (
    OscillatoryTailSpec,
    alexiewicz_seminorm,
    hk_integrate_1d,
)
from gaugeint.oscquad import adaptive_chirp_integral
from gaugeint.propagator import PropagatorQuery
from gaugeint.reports import (
    parse_coefficient,
    parse_potential,
    query_from_json_dict,
    sig,
    sig_complex,
)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        doc = cfg.to_json_dict()
        assert doc["format_version"] == 1
        assert RunConfig.from_json_dict(doc) == cfg

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            RunConfig.from_json_dict({"integrater": {}})

    def test_rejects_unknown_section_fields(self):
        # max_levels and max_cells were integrator fields that nothing read
        for name in ("nope", "max_levels", "max_cells"):
            with pytest.raises(ValueError, match="bad config section"):
                RunConfig.from_json_dict({"integrator": {"tol": 1e-8, name: 1}})

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError):
            RunConfig.from_json_dict({"format_version": 99})

    def test_validates_values(self):
        with pytest.raises(ValueError):
            IntegratorConfig(tol=-1.0)
        for points in (7, 14):
            with pytest.raises(ValueError):
                PathintConfig(points=points)
        with pytest.raises(ValueError):
            PathintConfig(slices=0)
        with pytest.raises(ValueError):
            LabConfig(seed=1 << 64)
        with pytest.raises(ValueError):
            LabConfig(radii=(2.0, 1.0))

    def test_counts_reject_bools(self):
        for section, name in (
            ("pathint", "points"),
            ("pathint", "slices"),
            ("lab", "samples"),
            ("lab", "m_max"),
        ):
            with pytest.raises(ValueError, match=name):
                RunConfig.from_json_dict({section: {name: True}})
        with pytest.raises(ValueError, match="cells_per_axis"):
            abs_g0_growth(IncrementSchedule((1.0,)), [1.0], cells_per_axis=True)

    def test_lab_section_loads_like_the_others(self, capsys, tmp_path):
        for doc in (
            {"lab": 5},
            {"lab": {"bogus": 1}},
            {"lab": {"radii": 5}},
            {"lab": {"seed": True}},
            {"lab": {"seed": -5}},
        ):
            with pytest.raises(ValueError, match="lab|seed"):
                RunConfig.from_json_dict(doc)
        path = tmp_path / "lab.json"
        path.write_text(json.dumps({"lab": 5}), encoding="utf-8")
        assert main(["--config", str(path), "fresnel", "--c", "i"]) == 1
        assert "section 'lab'" in capsys.readouterr().err
        assert main(["--seed", "-5", "fresnel", "--c", "i"]) == 1
        assert "seed must be an integer >= 0" in capsys.readouterr().err

    def test_real_fields_take_only_numbers(self):
        for section, name, value in (
            ("integrator", "damping", True),
            ("integrator", "tol", "1e-8"),
            ("pathint", "mass", "1"),
            ("pathint", "extent", False),
            ("lab", "eps", True),
            ("lab", "radii", [1.0, "2"]),
        ):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                RunConfig.from_json_dict({section: {name: value}})

    @pytest.mark.parametrize("value", [None, 3, ["out"]])
    def test_output_dir_must_be_a_string(self, value):
        # null once became the directory "None"
        with pytest.raises(ValueError, match="output_dir must be a string"):
            RunConfig.from_json_dict({"output_dir": value})

    def test_overrides_skip_none(self):
        cfg = RunConfig()
        out = cfg.with_overrides(
            pathint={"points": 384, "mass": None}, lab={"seed": 7}
        )
        assert out.pathint.points == 384
        assert out.pathint.mass == cfg.pathint.mass
        assert out.lab.seed == 7

    def test_load_from_file_and_env(self, tmp_path, monkeypatch):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"lab": {"seed": 12345}}), encoding="utf-8")
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert load_config(str(path)).lab.seed == 12345
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        assert load_config().lab.seed == 12345
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"lab": {"seed": 999}}), encoding="utf-8")
        # explicit path wins over the environment variable
        assert load_config(str(other)).lab.seed == 999

    def test_defaults_when_nothing_configured(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert load_config() == RunConfig()


class TestParsing:
    def test_coefficients(self):
        assert parse_coefficient("i") == 1j
        assert parse_coefficient("-i") == -1j
        assert parse_coefficient("2i") == 2j
        assert parse_coefficient("0.5j") == 0.5j
        assert parse_coefficient("3") == 3.0 + 0j
        with pytest.raises(ValueError):
            parse_coefficient("banana")

    def test_potentials(self):
        assert parse_potential("zero").analytic_tag == "zero"
        pot = parse_potential("const:2.5")
        assert pot.analytic_tag == "constant" and pot.constant == 2.5
        pot = parse_potential("harmonic:0.5")
        assert pot.analytic_tag == "harmonic" and pot.omega == 0.5
        with pytest.raises(ValueError):
            parse_potential("coulomb:1")
        with pytest.raises(ValueError):
            parse_potential("zero:1")

    def test_query_document(self):
        q = query_from_json_dict({"xi": 0.5, "tau": 2.0, "slices": 4})
        assert q.xi == 0.5 and q.tau == 2.0 and q.slices == 4
        assert q.potential.analytic_tag == "zero"
        with pytest.raises(ValueError):
            query_from_json_dict({"xj": 1.0})
        with pytest.raises(ValueError):
            query_from_json_dict([1, 2])

    def test_query_document_takes_only_numbers(self):
        for doc, message in (
            ({"slices": 2.7}, "slices must be an integer"),
            ({"slices": True}, "slices must be an integer"),
            ({"xi": "0.3"}, "xi must be a number"),
            ({"tau": True}, "tau must be a number"),
            ({"xi_prime": None}, "xi_prime must be a number"),
        ):
            with pytest.raises(ValueError, match=message):
                query_from_json_dict(doc)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PropagatorQuery("0.3", True, "1", 2),
            lambda: TimeSet((True, "2")),
            lambda: IncrementSchedule(("1",), origin_point="0.5"),
            lambda: IncrementSchedule((1.0,), origin_time=False),
            lambda: PathSample(TimeSet((1.0,)), ("2",)),
            lambda: Cell1D.bounded("0", True),
            lambda: Cell1D.neg_tail("1"),
            lambda: Cell1D("0", 1.0),
            lambda: OscillatoryTailSpec(1j, "0", 1),
            lambda: hk_integrate_1d(np.exp, ("0", True)),
            lambda: alexiewicz_seminorm(np.exp, (False, 1.0), 2),
            lambda: adaptive_chirp_integral(np.exp, 1.0, 0.0, ("0", 1.0), 1e-6),
            lambda: cousin_division(Gauge1D(lambda x: 1.0), tails=("-3", 3.0)),
        ],
    )
    def test_domain_types_take_only_numbers(self, build):
        # float() once turned strings and bools into numbers
        with pytest.raises(ValueError, match="must be a number"):
            build()

    def test_number_check_accepts_real_types_but_bool(self):
        # the exact-type fast path must not change which inputs pass
        for value in (0.5, 3, np.float64(0.25), np.int64(7), Fraction(1, 3), -math.inf):
            assert _require_number("x", value) == float(value)
            assert type(_require_number("x", value)) is float
        for value in (True, False, "1", 1 + 0j, None, [1.0], np.bool_(True)):
            with pytest.raises(ValueError, match="x must be a number"):
                _require_number("x", value)

    def test_significant_digit_rendering(self):
        assert sig(1.0) == "1"
        assert sig(0.28209479177387814) == "0.282094791774"
        assert sig_complex(1 - 1j) == "1-1j"
        assert sig_complex(-0.5 + 0.25j) == "-0.5+0.25j"


class TestFresnelCommand:
    def test_reference_table(self, capsys):
        assert main(["fresnel"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("format_version,1\n")
        assert "1.77245385091+1.77245385091j" in out
        assert "halfline_cos_u2" in out and "halfline_sin_u2" in out
        assert "0.626657068658" in out

    def test_single_coefficient_row(self, capsys):
        assert main(["fresnel", "--c", "i"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 3  # version, header, one row
        assert "1.77245385091+1.77245385091j" in lines[2]

    def test_negative_imaginary_coefficient_row(self, capsys):
        assert main(["fresnel", "--c=-i", "--tol", "1e-6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert "1.77245385091-1.77245385091j" in lines[2]

    def test_bad_coefficient_fails_validation(self, capsys):
        assert main(["fresnel", "--c", "banana"]) == 1
        assert "cannot parse" in capsys.readouterr().err


class TestDivisionCommand:
    def test_build_and_validate(self, capsys, tmp_path):
        out_file = tmp_path / "division.json"
        assert main(["division", "--gauge", "const:0.5", "--out", str(out_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True and report["violations"] == []
        assert main(["division", "--validate", str(out_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True

    def test_peaked_gauge(self, capsys):
        assert main(["division", "--gauge", "peaked:2.0"]) == 0
        division_line, report_text = capsys.readouterr().out.split("\n", 1)
        assert json.loads(report_text)["valid"] is True
        assert len(json.loads(division_line)) >= 3

    def test_invalid_division_exits_one(self, capsys, tmp_path):
        # a gap: negative tail to -1, bounded cell starting at 0
        bad = [
            {"tag": "-inf", "kind": "neg_tail", "bounds": [-1.0]},
            {"tag": 0.0, "kind": "bounded", "bounds": [0.0, 1.0]},
            {"tag": "inf", "kind": "pos_tail", "bounds": [1.0]},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["division", "--validate", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert any(v["kind"] == "gap" for v in report["violations"])

    def test_malformed_items_fail_validation(self, capsys, tmp_path):
        cell = {"tag": 0.0, "kind": "bounded", "bounds": [0.0, 1.0]}
        no_bounds = {"tag": 0.0, "kind": "bounded"}
        path = tmp_path / "malformed.json"
        for doc, index in (([1], 0), ([cell, no_bounds], 1)):
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["division", "--validate", str(path)]) == 1
            assert f"division item {index}" in capsys.readouterr().err

    def test_unknown_gauge_spec(self, capsys):
        assert main(["division", "--gauge", "wavelet:1"]) == 1
        assert "unknown gauge" in capsys.readouterr().err


class TestKernelCommand:
    def test_free_query_pinned_value(self, capsys, tmp_path):
        path = tmp_path / "free.json"
        path.write_text(
            json.dumps({"xi": 0.0, "tau": 1.0, "slices": 2}), encoding="utf-8"
        )
        assert main(["kernel", "--query", str(path)]) == 0
        out = capsys.readouterr().out
        assert "psi0_closed,0.282094791774-0.282094791774j" in out
        assert "psi_sliced" in out

    def test_missing_query_file(self, capsys):
        assert main(["kernel", "--query", "/no/such/file.json"]) == 1
        assert capsys.readouterr().err.startswith("gaugeint kernel:")

    def test_harmonic_query(self, capsys, tmp_path):
        path = tmp_path / "harm.json"
        path.write_text(
            json.dumps(
                {
                    "xi": 0.3,
                    "tau": 0.5,
                    "slices": 8,
                    "potential": "harmonic:0.5",
                }
            ),
            encoding="utf-8",
        )
        assert main(["kernel", "--query", str(path)]) == 0
        out = capsys.readouterr().out
        assert "harmonic_closed" in out


class TestPerturbCommand:
    def test_constant_table_decays(self, capsys):
        assert main(
            ["perturb", "--V", "const:1", "--tau", "1", "--mmax", "6", "--xi", "0.3"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "format_version,1"
        assert lines[1] == "m,partial_sum,abs_diff_vs_closed"
        diffs = [float(line.split(",")[-1]) for line in lines[2:]]
        assert len(diffs) == 7
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_overflowing_order_exits_1_naming_it(self, capsys):
        args = ["perturb", "--V", "harmonic:0.3", "--xi", "0.3", "--tau", "100000",
                "--slices", "2", "--mmax", "40"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "order 39 at width 79 is not finite" in captured.err
        assert "nan" not in captured.out

    def test_rejects_negative_mmax(self, capsys):
        assert main(["perturb", "--V", "zero", "--mmax", "-1"]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_constant(self, capsys, value):
        assert main(["perturb", "--V", f"const:{value}", "--mmax", "2"]) == 1
        captured = capsys.readouterr()
        assert "constant must be finite" in captured.err
        assert "nan" not in captured.out


class TestExchangeCommand:
    def test_writes_documents_and_verdict(self, capsys, tmp_path):
        args = [
            "exchange",
            "--V",
            "const:1",
            "--tau",
            "1",
            "--mmax",
            "6",
            "--xi",
            "0.3",
            "--slices",
            "4",
            "--output-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["beta_probe"] == "UNBOUNDED"
        assert verdict["m_found"] == 6
        assert verdict["format_version"] == 1
        for name in ("growth.csv", "comparison.csv", "verdict.json"):
            assert (tmp_path / name).exists()
        growth_lines = (tmp_path / "growth.csv").read_text().splitlines()
        assert growth_lines[0] == "format_version,1"
        comp_lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert comp_lines[1] == "m,partial_sum,sliced,abs_difference"
        diffs = [float(line.split(",")[-1]) for line in comp_lines[2:]]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_identical_runs_are_byte_identical(self, capsys, tmp_path):
        base = [
            "exchange",
            "--V",
            "const:1",
            "--tau",
            "1",
            "--mmax",
            "4",
            "--xi",
            "0.3",
            "--slices",
            "2",
        ]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main([*base, "--output-dir", str(dir_a)]) == 0
        assert main([*base, "--output-dir", str(dir_b)]) == 0
        capsys.readouterr()
        for name in ("growth.csv", "comparison.csv", "verdict.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


class TestSelftestCommand:
    def test_single_criterion(self, capsys):
        assert main(["selftest", "--criterion", "6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("criterion 6 [PASS]")

    def test_criterion_out_of_range(self, capsys):
        assert main(["selftest", "--criterion", "9"]) == 1
        assert "between 1 and 8" in capsys.readouterr().err


class TestUsageAndOverrides:
    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["kernel"])
        assert info.value.code == 2

    def test_invalid_override_fails_validation(self, capsys):
        assert main(["--points", "9", "fresnel"]) == 1
        assert "points" in capsys.readouterr().err

    def test_config_file_flag(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lab": {"seed": 31415}}), encoding="utf-8")
        assert main(["--config", str(path), "selftest", "--criterion", "6"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency: importing the package and
        # running the erfc tails of a sliced query, a Fresnel line and an
        # n = 2 cylinder reduction load no scipy module
        code = (
            "import sys, numpy as np, gaugeint as g\n"
            "q = g.PropagatorQuery(0.0, 0.0, 0.3, 1.0, 4)\n"
            "g.psi_sliced(q, g.SliceGrid(16.0, 768, 1e-3))\n"
            "g.fresnel_line_integral(1j)\n"
            "t = (0.5, 1.0)\n"
            "g.reduce_cylinder_integral(lambda p: np.ones(len(p), complex), "
            "g.TimeSet(t), g.IncrementSchedule(t), 1e-6)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gaugeint", "fresnel", "--c", "i"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "1.77245385091+1.77245385091j" in proc.stdout
