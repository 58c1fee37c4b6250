"""CLI surface: flags, exit codes, JSON round-trips, scan CSV contract."""

import argparse
import csv
import itertools
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest
from reference import render_scan_csv

from hypstar import cli
from hypstar.cli import main, parse_scan_spec
from hypstar.errors import HypstarError, InvalidParams
from hypstar.hypergeom import SeriesSettings
from hypstar.oracles import LineSearchSettings
from hypstar.verifier import DiskGridSettings

FAST_GRID = ["--n-radii", "8", "--n-angles", "90", "--r-max", "0.98"]
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_binomial_point(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--a", "1,0", "--b", "2,0", "--c", "2,0", "--z", "0.5,0")
        assert code == 0
        assert "F  = 2" in out
        assert "q  = 2" in out

    def test_origin(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--a", "1,0", "--b", "1,0", "--c", "2,0", "--z", "0,0", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["F"] == [1.0, 0.0]
        assert data["q"] == [1.0, 0.0]

    def test_invalid_c(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--a", "1,0", "--b", "1,0", "--c", "-2,0", "--z", "0.1,0")
        assert code == 2

    def test_evaluation_error(self, capsys):
        # q undefined at a zero of F
        code, _, _ = run_cli(capsys, "eval", "--a", "-1,0", "--b", "2,0", "--c", "1,0", "--z", "0.5,0")
        assert code == 3

    def test_radius_error(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--a", "1,0", "--b", "1,0", "--c", "2,0", "--z", "0.999,0")
        assert code == 3

    def test_point_that_is_not_finite_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--a", "1,0", "--b", "1,0", "--c", "2,0", "--z", "nan,0"])
        assert exc.value.code == 2
        assert "argument --z: expected 're,im' with finite parts, got 'nan,0'" in capsys.readouterr().err


class TestCertify:
    def test_starlike_order_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--theorem", "starlike-order", "--a", "2,0", "--b", "2,5", "--c", "3,5", "--alpha", "0"
        )
        assert code == 0
        data = json.loads(out)
        values = {c["name"]: float(c["value"]) for c in data["conditions"] if c["name"] in ("L", "M", "N")}
        assert values == pytest.approx({"L": 2.0, "M": 0.0, "N": 2.0})

    def test_strong_starlike_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--theorem", "strong-starlike", "--a", "1,0", "--b", "1,0", "--c", "3,0", "--alpha", "0.5"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_failed_certificate_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--theorem", "starlike-order", "--a", "2,0", "--b", "1,0", "--c", "2,0", "--alpha", "0"
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_precondition_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--theorem", "theorem-a", "--a", "1,0", "--b", "1,0", "--alpha", "0.3")
        assert code == 2

    def test_cor_a2(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--theorem", "cor-a2", "--a", "2,0", "--b", "2,0", "--c", "3,0", "--s", "5"
        )
        assert code == 0
        data = json.loads(out)
        assert data["params"]["b"] == [2.0, 5.0]

    def test_cor_a2_takes_relatively_real_parameters(self, capsys):
        # |Im b| = 1e-10 is within 1e-12 (1 + |b|) for |b| = 1000
        code, out, _ = run_cli(
            capsys, "certify", "--theorem", "cor-a2", "--a", "2,0", "--b", "1000,1e-10", "--c", "1000,0"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
    def test_cor_a2_refuses_a_shift_that_is_not_finite(self, capsys, caplog, s):
        code, out, _ = run_cli(
            capsys, "certify", "--theorem", "cor-a2", "--a", "2,0", "--b", "2,0", "--c", "3,0", f"--s={s}"
        )
        assert code == 2
        assert out == ""
        assert "s must be a finite number" in caplog.text

    # this row's min residual (eps=+1) is -0.312: only a margin below that passes it
    NEGATIVE_MIN_ROW = [
        "--a", "0.45376671117263867,0.2666234339903601", "--b", "1.5051465105936463,-0.005724714829459743",
        "--c", "3.231498593792962,0.26089871916090035", "--alpha", "0.3907673613277947",
    ]

    @pytest.mark.parametrize("flags", [
        ["--ls-min-margin", "-1"],
        ["--ls-min-margin", "nan"],
        ["--ls-min-margin", "inf"],
        ["--ls-refine-iters", "-1"],
        ["--ls-s-max", "inf"],
        ["--ls-s-min", "nan"],
    ])
    def test_line_search_flags_are_checked(self, capsys, caplog, flags):
        code, out, _ = run_cli(capsys, "certify", "--theorem", "strong-starlike", *self.NEGATIVE_MIN_ROW, *flags)
        assert code == 2
        assert out == ""
        code, out, _ = run_cli(capsys, "certify", "--theorem", "strong-starlike", *self.NEGATIVE_MIN_ROW)
        assert code == 1
        data = json.loads(out)
        value = next(c["value"] for c in data["conditions"] if c["name"] == "min residual (eps=+1)")
        assert float(value) == pytest.approx(-0.312, abs=1e-3)

    def test_overflowing_parameters_exit_three(self, capsys, caplog):
        code, _, _ = run_cli(
            capsys, "certify", "--theorem", "strong-starlike", "--a", "1,0", "--b", "1e155,0", "--c", "3,0",
            "--alpha", "0.5",
        )
        assert code == 3
        assert "not finite" in caplog.text
        # m = ab is finite, but (a + b)^2 overflows in RHS - LHS
        code, _, _ = run_cli(
            capsys, "certify", "--theorem", "spirallike-cor2", "--a", "1e160,0", "--b", "1e-160,0",
            "--lambda", "0.3", "--alpha", "0.2",
        )
        assert code == 3

    def test_threads_only_on_scan(self, capsys):
        # scans run on one thread, so no command takes --threads, scan included
        for argv in (["certify", "--theorem", "cor-a2", "--a", "2,0", "--b", "2,0", "--c", "3,0"],
                     ["scan", "--spec", "spec.json", "--out", "scan.csv"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--threads", "2"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--a", "nan,0"), ("--a", "inf,0"), ("--b", "2,-inf"), ("--c", "nan"), ("--c", "3,nan"),
    ])
    def test_parameters_that_are_not_finite_exit_two(self, capsys, flag, value):
        argv = {"--a": "2,0", "--b": "2,5", "--c": "3,5", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--theorem", "starlike-order", *itertools.chain(*argv.items())])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument {flag}: expected 're,im' with finite parts, got '{value}'\n")

    def test_class_is_read_only_by_kinds_that_take_one(self, capsys, caplog):
        bad_class = ["--class", "strongly-starlike", "--alpha", "0", "--a", "2,0", "--b", "2,5", "--c", "3,5"]
        code, out, _ = run_cli(capsys, "certify", "--theorem", "starlike-order", *bad_class)
        assert code == 0
        assert json.loads(out)["passed"] is True
        code, out, _ = run_cli(capsys, "certify", "--theorem", "general", *bad_class)
        assert code == 2
        assert out == ""
        assert "strong starlikeness order alpha must lie in (0, 1)" in caplog.text

    def test_general_needs_class(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--theorem", "general", "--a", "1,0", "--b", "1,0", "--c", "3,0")
        assert code == 2

    def test_general_with_class(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--theorem", "general", "--class", "starlike", "--alpha", "0",
            "--a", "1,0", "--b", "1,0", "--c", "3,0",
        )
        assert code == 0
        assert json.loads(out)["kind"] == "GeneralMain"

    @pytest.mark.parametrize("flag", ["--boundary-points=512", "--theta-min=0.001", "--relaxed"])
    def test_removed_general_flags_exit_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--theorem", "general", "--class", "starlike", "--a", "1,0", "--b", "1,0", "--c", "3,0", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_convexity(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--theorem", "convexity", "--class", "starlike", "--alpha", "0",
            "--a", "1,0", "--b", "1,0", "--c", "2,0",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "ConvexityWrapper"
        assert data["params"]["a"] == [2.0, 0.0]

    def test_convexity_passes_the_line_search_to_its_delegate(self, capsys):
        # the strongly-starlike delegate reads --ls-min-margin, as the check at the shifted triple does
        ls = ["--alpha", "0.5", "--ls-min-margin", "10"]
        code, out, _ = run_cli(capsys, "certify", "--theorem", "convexity", "--class", "strongly-starlike",
                               "--a", "0.2,0", "--b", "0.3,0", "--c", "3,0", *ls)
        shifted_code, shifted, _ = run_cli(capsys, "certify", "--theorem", "strong-starlike",
                                           "--a", "1.2,0", "--b", "1.3,0", "--c", "4,0", *ls)
        assert code == shifted_code == 1
        conditions = json.loads(out)["conditions"]
        assert conditions == json.loads(shifted)["conditions"]
        assert {c["threshold"] for c in conditions if c["name"].startswith("min residual")} == {"> 10"}


class TestVerify:
    def test_consistent(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "starlike", "--alpha", "0",
            "--a", "2,0", "--b", "1,0", "--c", "2,0", *FAST_GRID,
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "Consistent"
        assert data["min_slack"] == pytest.approx(1 / 1.98, abs=1e-4)

    def test_violated(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "starlike", "--alpha", "0.9",
            "--a", "2,0", "--b", "1,0", "--c", "2,0", *FAST_GRID,
        )
        assert code == 1
        assert json.loads(out)["status"] == "Violated"

    def test_degenerate(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "starlike", "--alpha", "0",
            "--a", "-1,0", "--b", "2,0", "--c", "1,0",
            "--n-radii", "3", "--r-max", "0.75", "--n-angles", "8", "--radial-spacing", "uniform",
        )
        assert code == 2
        assert json.loads(out)["status"] == "Degenerate"

    def test_incomplete_exits_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "starlike", "--alpha", "0",
            "--a", "2,0", "--b", "1,0", "--c", "2,0", "--max-terms", "100", *FAST_GRID,
        )
        assert code == 3
        data = json.loads(out)
        assert data["status"] == "Incomplete"
        assert data["n_unevaluated"] > 0

    def test_overflowing_series_is_incomplete_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "verify", "--class", "starlike", "--alpha", "0", "--a", "1e60,0", "--b", "1,0", "--c", "3,0",
                "--n-radii", "4", "--n-angles", "36", "--r-max", "0.9",
            )
        assert code == 3 and "Warning" not in err
        data = json.loads(out)
        assert data["status"] == "Incomplete" and data["n_unevaluated"] == 4 * 36
        assert data["notes"][0].startswith("series failed to settle")

    def test_strongly_starlike(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "strongly-starlike", "--alpha", "0.5",
            "--a", "1,0", "--b", "1,0", "--c", "3,0", *FAST_GRID,
        )
        assert code == 0

    def test_invalid_class_params(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--class", "strongly-starlike", "--alpha", "0",
            "--a", "1,0", "--b", "1,0", "--c", "3,0", *FAST_GRID,
        )
        assert code == 2

    def test_series_tol_that_is_not_finite_exits_two(self, capsys, caplog):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "starlike", "--alpha", "0", "--a", "2,0", "--b", "1,0", "--c", "2,0",
            "--series-tol", "inf", *FAST_GRID,
        )
        assert code == 2
        assert out == ""
        assert "tol must be a finite number > 0" in caplog.text


class TestCrossCheckCommand:
    def test_sound(self, capsys):
        code, out, _ = run_cli(
            capsys, "crosscheck", "--theorem", "strong-starlike",
            "--a", "1,0", "--b", "1,0", "--c", "3,0", "--alpha", "0.5", *FAST_GRID,
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "SOUND"

    def test_info_gap(self, capsys):
        code, out, _ = run_cli(
            capsys, "crosscheck", "--theorem", "strong-starlike",
            "--a", "1,0", "--b", "1,0", "--c", "3,0", "--alpha", "0.05", *FAST_GRID,
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "INFO"

    def test_cor_a2_crosschecks_shifted_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "crosscheck", "--theorem", "cor-a2",
            "--a", "2,0", "--b", "2,0", "--c", "3,0", "--s", "5", *FAST_GRID,
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "SOUND"
        assert data["report"]["params"]["b"] == [2.0, 5.0]


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--class", "starlike"]),
    ("crosscheck", ["--theorem", "starlike-order"]),
])
def test_grid_beyond_radius_cap_exits_two_as_a_scan_does(command, flags, capsys, caplog):
    # refused before any ring is evaluated, with the scan spec's message and no report
    code, out, _ = run_cli(capsys, command, *flags, "--a", "2,0", "--b", "1,0", "--c", "2,0", "--r-max", "0.999")
    assert code == 2
    assert out == ""
    assert "grid r_max = 0.999 exceeds the series radius_cap = 0.995" in caplog.text


SERIES_FLAGS = [("--series-tol", "1e-10"), ("--max-terms", "5"), ("--radius-cap", "0.9")]


@pytest.mark.parametrize("flag, value", SERIES_FLAGS)
@pytest.mark.parametrize("command", ["certify", "scan"])
def test_commands_without_series_settings_refuse_the_series_flags(command, flag, value, tmp_path, capsys):
    # certify sums no series, and a scan takes its series settings from its spec
    spec, out = tmp_path / "spec.json", tmp_path / "scan.csv"
    spec.write_text(json.dumps({**SCAN_SPEC, "verify": True}))
    argv = {"certify": ["certify", "--theorem", "starlike-order", "--a", "1,0", "--b", "1,0", "--c", "3,0"],
            "scan": ["scan", "--spec", str(spec), "--out", str(out), "--json"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--a", "1,0", "--b", "1,0", "--c", "3,0", "--z", "0.5,0", "--json"],
    ["verify", "--class", "starlike", "--a", "1,0", "--b", "1,0", "--c", "3,0"],
    ["crosscheck", "--theorem", "starlike-order", "--a", "1,0", "--b", "1,0", "--c", "3,0"],
])
def test_commands_that_sum_a_series_take_the_series_flags(argv):
    args = cli.build_parser().parse_args([*argv, *(part for pair in SERIES_FLAGS for part in pair)])
    assert cli._settings(args, SeriesSettings) == SeriesSettings(tol=1e-10, max_terms=5, radius_cap=0.9)
    if argv[0] == "eval":
        assert args.json


# each subcommand that takes settings flags: its required flags alone, and its settings types
SETTINGS_COMMANDS = {
    "eval": (["eval", "--a", "1,0", "--b", "1,0", "--z", "0.5,0"], (SeriesSettings,)),
    "certify": (["certify", "--theorem", "starlike-order", "--a", "1,0", "--b", "1,0"], (LineSearchSettings,)),
    "verify": (["verify", "--class", "starlike", "--a", "1,0", "--b", "1,0"], (DiskGridSettings, SeriesSettings)),
    "crosscheck": (["crosscheck", "--theorem", "starlike-order", "--a", "1,0", "--b", "1,0"],
                   (LineSearchSettings, DiskGridSettings, SeriesSettings)),
}
# each settings field's flag, and a valid value other than the field's default
FIELD_FLAGS = {
    "tol": ("--series-tol", 1e-10), "max_terms": ("--max-terms", 5), "radius_cap": ("--radius-cap", 0.9),
    "n_radii": ("--n-radii", 17), "r_max": ("--r-max", 0.9), "n_angles": ("--n-angles", 64),
    "radial_spacing": ("--radial-spacing", "uniform"),
    "s_min": ("--ls-s-min", 1e-6), "s_max": ("--ls-s-max", 1e6), "n_log_points": ("--ls-points", 17),
    "refine_iters": ("--ls-refine-iters", 7), "min_margin": ("--ls-min-margin", 1e-6),
}


@pytest.mark.parametrize("command", sorted(SETTINGS_COMMANDS))
def test_required_flags_alone_build_the_default_settings(command):
    argv, settings_types = SETTINGS_COMMANDS[command]
    args = cli.build_parser().parse_args(argv)
    for settings_cls in settings_types:
        assert cli._settings(args, settings_cls) == settings_cls()


@pytest.mark.parametrize("command", sorted(SETTINGS_COMMANDS))
def test_each_settings_flag_reaches_its_own_field(command):
    argv, settings_types = SETTINGS_COMMANDS[command]
    for settings_cls in settings_types:
        for f in fields(settings_cls):
            flag, value = FIELD_FLAGS[f.name]
            assert value != f.default
            args = cli.build_parser().parse_args([*argv, flag, str(value)])
            built = cli._settings(args, settings_cls)
            assert built == replace(settings_cls(), **{f.name: value})
            assert type(getattr(built, f.name)) is type(value)
            assert all(cli._settings(args, other) == other() for other in settings_types if other is not settings_cls)


def test_the_flag_table_names_exactly_the_settings_fields():
    settings_fields = [f.name for cls in (SeriesSettings, DiskGridSettings, LineSearchSettings) for f in fields(cls)]
    assert list(cli.SETTINGS_FLAGS) == settings_fields
    assert len(set(cli.SETTINGS_FLAGS.values())) == len(settings_fields)


@pytest.mark.parametrize("command", ["verify", "crosscheck"])
def test_radial_spacing_offers_exactly_the_spacings_the_grid_accepts(command, capsys):
    parser = cli.build_parser()
    sub = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    flag = next(action for action in sub.choices[command]._actions if "--radial-spacing" in action.option_strings)
    assert tuple(flag.choices) == DiskGridSettings.RADIAL_SPACINGS == ("uniform", "geometric-toward-boundary")
    for name in flag.choices:
        assert DiskGridSettings(radial_spacing=name).radial_spacing == name
    with pytest.raises(ValueError, match="radial_spacing must be 'uniform' or 'geometric-toward-boundary'"):
        DiskGridSettings(radial_spacing="linear")
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*SETTINGS_COMMANDS[command][0], "--radial-spacing", "linear"])
    assert exc.value.code == 2
    assert "invalid choice: 'linear'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["certify", "--theorem", "starlike-order", "--a", "1,0", "--b", "1,0", "--c", "3,0"],
    ["verify", "--class", "starlike", "--a", "1,0", "--b", "1,0", "--c", "3,0"],
    ["crosscheck", "--theorem", "starlike-order", "--a", "1,0", "--b", "1,0", "--c", "3,0"],
])
def test_commands_that_always_print_json_refuse_the_json_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def _subcommand_flags() -> dict[str, list[str]]:
    """Each subcommand of build_parser() with its long flags, in the order they are defined."""
    parser = cli.build_parser()
    sub = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return {name: [flag for action in command._actions for flag in action.option_strings
                   if flag not in ("-h", "--help")]
            for name, command in sub.choices.items()}


def test_readme_cli_table_names_exactly_the_flags_of_each_subcommand():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI"):]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section[:section.index("\n## ", 1)], re.MULTILINE)
    table = {command: re.findall(r"`(--[\w-]+)`", flags) for command, flags in rows}
    assert table == _subcommand_flags()
    assert sum(map(len, table.values())) == 57


def test_readme_lists_each_settings_default_once():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI"):]
    rows = re.findall(r"^ *\| `(--[\w-]+)` \| `(\w+)\.(\w+)` \| `([^`]+)` \|$",
                      section[:section.index("\n## ", 1)], re.MULTILINE)
    types = {cls.__name__: cls for cls in (SeriesSettings, DiskGridSettings, LineSearchSettings)}
    assert [name for _, _, name, _ in rows] == list(cli.SETTINGS_FLAGS)
    for flag, type_name, name, default in rows:
        field = next(f for f in fields(types[type_name]) if f.name == name)
        assert cli.SETTINGS_FLAGS[name] == flag
        assert type(field.default)(default) == field.default, (flag, default)


SCAN_SPEC = {
    "varying": [
        {"symbol": "b_re", "from": 0.5, "to": 3.0, "steps": 11},
        {"symbol": "c_re", "from": 1.0, "to": 4.0, "steps": 13},
    ],
    "fixed": {"a_re": 2.0},
    "class": {"kind": "starlike", "alpha": 0.0},
    "certificate": "starlike-order",
    "verify": False,
}


class TestScan:
    def write_spec(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_region_and_summary(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, SCAN_SPEC)
        out_csv = str(tmp_path / "out.csv")
        code, out, _ = run_cli(capsys, "scan", "--spec", spec, "--out", out_csv)
        assert code == 0
        assert "143 points" in out
        import csv

        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0].keys() == {"b_re", "c_re", "certificate_passed", "failed_condition", "min_slack", "status"}
        for row in rows:
            b, c = float(row["b_re"]), float(row["c_re"])
            want = b + c > 3 + 1e-9 and c >= b
            assert (row["certificate_passed"] == "true") == want

    def test_deterministic_across_threads(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, SCAN_SPEC)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(capsys, "scan", "--spec", spec, "--out", out1)[0] == 0
        assert run_cli(capsys, "scan", "--spec", spec, "--out", out2)[0] == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_empty_varying_rejected(self, tmp_path, capsys):
        bad = dict(SCAN_SPEC, varying=[])
        code, _, _ = run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, bad), "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_bad_symbol_rejected(self, tmp_path, capsys):
        bad = dict(SCAN_SPEC, varying=[{"symbol": "zeta", "from": 0, "to": 1, "steps": 2}])
        code, _, _ = run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, bad), "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_missing_spec_file(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "scan", "--spec", str(tmp_path / "none.json"), "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_verify_columns(self, tmp_path, capsys):
        spec = {
            "varying": [{"symbol": "alpha", "from": 0.0, "to": 0.9, "steps": 4}],
            "fixed": {"a_re": 2.0, "b_re": 1.0, "c_re": 2.0},
            "class": {"kind": "starlike"},
            "certificate": "starlike-order",
            "verify": True,
            "grid": {"n_radii": 4, "r_max": 0.9, "n_angles": 36},
        }
        out_csv = str(tmp_path / "v.csv")
        code, out, _ = run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, spec), "--out", out_csv)
        assert code == 0
        import csv

        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["status"] in ("Consistent", "Violated") for row in rows)
        # q = 1/(1-z) has min real part 1/(1+r): high orders must be flagged
        assert rows[-1]["status"] == "Violated"
        assert rows[0]["status"] == "Consistent"

    def test_grid_beyond_radius_cap_rejected_at_parse_time(self, tmp_path, capsys):
        spec = dict(SCAN_SPEC, verify=True, grid={"n_radii": 2, "r_max": 0.999, "n_angles": 16})
        with pytest.raises(InvalidParams, match="radius_cap"):
            parse_scan_spec(spec)
        out_csv = tmp_path / "cap.csv"
        code, _, _ = run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, spec), "--out", str(out_csv))
        assert code == 2
        assert not out_csv.exists()

    def test_convexity_scan_passes_the_line_search_to_its_delegate(self, tmp_path, capsys):
        # each convexity row fails the min residual threshold of the spec's line search,
        # as the strong-starlike row at its shifted triple does
        outcomes = []
        for kind, shift in (("convexity", 0.0), ("strong-starlike", 1.0)):
            spec = {
                "varying": [{"symbol": "b_re", "from": 0.3 + shift, "to": 0.5 + shift, "steps": 3}],
                "fixed": {"a_re": 0.2 + shift, "c_re": 3.0 + shift, "alpha": 0.5},
                "class": {"kind": "strongly-starlike", "alpha": 0.5},
                "certificate": kind,
                "line_search": {"min_margin": 10.0},
            }
            out_csv = tmp_path / f"{kind}.csv"
            assert run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, spec), "--out", str(out_csv))[0] == 0
            with open(out_csv, newline="") as fh:
                outcomes.append([row[1:3] for row in list(csv.reader(fh))[1:]])
        assert outcomes[0] == outcomes[1] == [["false", "min residual (eps=+1)"]] * 3

    @pytest.mark.parametrize(
        "malformed",
        [{key: {"bogus": 1}} for key in ("grid", "series", "line_search", "boundary")]
        + [{key: [1]} for key in ("grid", "series", "line_search", "boundary")]
        + [
            {"varying": [{"symbol": "b_re", "to": 1.0, "steps": 2}]},
            {"varying": ["b_re"]},
            {"varying": [{"symbol": "b_re", "from": math.nan, "to": 1.0, "steps": 2}]},
            {"varying": [{"symbol": "b_re", "from": 0.5, "to": math.inf, "steps": 2}]},
            {"fixed": {"a_re": -math.inf}},
            {"line_search": {"min_margin": math.nan}},
            {"series": {"tol": math.inf}},
            {"certificate": "general", "class": {"kind": "starlike", "alpha": math.nan}},
            {"certificate": "convexity", "class": {"kind": "spirallike", "lambda": math.inf}},
            # a misspelt key used to be ignored, and the removed `boundary` key used to be read
            {"verfy": True},
            {"boundary": {}},
        ],
    )
    def test_malformed_spec_exits_2_without_csv(self, tmp_path, capsys, malformed):
        spec = dict(SCAN_SPEC, **malformed)
        with pytest.raises(InvalidParams):
            parse_scan_spec(spec)
        out_csv = tmp_path / "bad.csv"
        code, _, _ = run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, spec), "--out", str(out_csv))
        assert code == 2
        assert not out_csv.exists()

    @pytest.mark.parametrize("line_search", [{"min_margin": -1}, {"min_margin": -1e-300}, {"refine_iters": -1}])
    def test_line_search_settings_are_checked(self, tmp_path, capsys, line_search):
        spec = dict(SCAN_SPEC, certificate="strong-starlike", line_search=line_search)
        with pytest.raises(ValueError):
            parse_scan_spec(spec)
        out_csv = tmp_path / "ls.csv"
        code, _, _ = run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, spec), "--out", str(out_csv))
        assert code == 2
        assert not out_csv.exists()

    def test_incomplete_rows_show_in_status(self, tmp_path, capsys):
        spec = {
            "varying": [{"symbol": "alpha", "from": 0.0, "to": 0.1, "steps": 2}],
            "fixed": {"a_re": 2.0, "b_re": 1.0, "c_re": 2.0},
            "certificate": "starlike-order",
            "verify": True,
            "grid": {"n_radii": 4, "r_max": 0.9, "n_angles": 36},
            "series": {"max_terms": 50},
        }
        out_csv = str(tmp_path / "inc.csv")
        code, _, _ = run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, spec), "--out", out_csv)
        assert code == 0
        import csv

        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["Incomplete", "Incomplete"]

    def test_rows_with_failed_preconditions_stay_in_the_csv(self, tmp_path, capsys):
        spec = {
            "varying": [{"symbol": "alpha", "from": 0.1, "to": 0.9, "steps": 9}],
            "fixed": {"a_re": 1.0, "b_re": 1.0},
            "certificate": "theorem-a",
            "verify": True,
            "grid": {"n_radii": 4, "r_max": 0.9, "n_angles": 36},
        }
        out_csv = str(tmp_path / "ta.csv")
        code, _, _ = run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, spec), "--out", out_csv)
        assert code == 0
        import csv

        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            alpha = float(row["alpha"])
            if alpha < 1 / 3:
                assert row["failed_condition"].startswith("invalid:")
                assert row["status"] == "Invalid" and row["min_slack"] == ""
            else:
                # for a = b = 1 the inequality needs sin^2(pi alpha/2) >= 1/3
                want = math.sin(math.pi * alpha / 2) ** 2 >= 1 / 3
                assert (row["certificate_passed"] == "true") == want

    def test_theorem_scan_pair(self, tmp_path, capsys):
        # wherever the single-inequality checker passes, the minimizer-based
        # checker must pass too on the same alpha slice
        base = {
            "varying": [{"symbol": "alpha", "from": 0.35, "to": 0.95, "steps": 13}],
            "fixed": {"a_re": 1.0, "b_re": 1.0},
            "certificate": "theorem-a",
        }
        import csv

        spec_a = self.write_spec(tmp_path, base)
        csv_a = str(tmp_path / "ta.csv")
        assert run_cli(capsys, "scan", "--spec", spec_a, "--out", csv_a)[0] == 0
        spec_b = self.write_spec(tmp_path, dict(base, certificate="strong-starlike", fixed={"a_re": 1.0, "b_re": 1.0, "c_re": 3.0}))
        csv_b = str(tmp_path / "ss.csv")
        assert run_cli(capsys, "scan", "--spec", spec_b, "--out", csv_b)[0] == 0
        with open(csv_a) as fh:
            rows_a = list(csv.DictReader(fh))
        with open(csv_b) as fh:
            rows_b = list(csv.DictReader(fh))
        assert any(r["certificate_passed"] == "true" for r in rows_a)
        for ra, rb in zip(rows_a, rows_b):
            if ra["certificate_passed"] == "true":
                assert rb["certificate_passed"] == "true"


    def test_row_errors_never_end_a_scan(self, tmp_path, capsys):
        # |b|^2 overflows a double for b = 5e154 and 1e155
        base = {
            "varying": [{"symbol": "b_re", "from": 1, "to": 1e155, "steps": 3}],
            "fixed": {"a_re": 1, "c_re": 3, "alpha": 0.5},
            "certificate": "strong-starlike",
        }
        grid = {"n_radii": 4, "r_max": 0.9, "n_angles": 36}
        for verify in (False, True):
            out_csv = tmp_path / f"overflow-{verify}.csv"
            spec = self.write_spec(tmp_path, dict(base, verify=verify, grid=grid))
            code, _, _ = run_cli(capsys, "scan", "--spec", spec, "--out", str(out_csv))
            assert code == 0
            with open(out_csv) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 3
            assert rows[0]["certificate_passed"] == "true"
            for row in rows[1:]:
                assert row["certificate_passed"] == "false"
                assert row["failed_condition"].startswith("invalid: ")
                assert row["status"] == ("Invalid" if verify else "")
            assert rows[0]["status"] == ("Consistent" if verify else "")

    def test_overflowing_verify_row_never_ends_a_scan(self, tmp_path, capsys):
        # the checker accepts a = 1e60, but its series overflows long double on every ring
        spec = {
            "varying": [{"symbol": "a_re", "from": 1, "to": 1e60, "steps": 2}],
            "fixed": {"b_re": 1, "c_re": 3, "alpha": 0.5},
            "certificate": "strong-starlike",
            "verify": True,
            "grid": {"n_radii": 4, "r_max": 0.9, "n_angles": 36},
        }
        out_csv = tmp_path / "overflow.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, spec), "--out", str(out_csv))
        assert code == 0 and "Warning" not in err
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["a_re"], row["status"]) for row in rows] == [("1", "Consistent"), ("1e+60", "Incomplete")]
        assert rows[1]["failed_condition"] != "" and not rows[1]["failed_condition"].startswith("invalid: ")

    def test_pinned_c_at_minus_infinity_is_a_refused_row(self, tmp_path, capsys):
        # c = a + b + 1 overflows to -inf in the first row
        spec = {
            "varying": [{"symbol": "a_re", "from": -1e308, "to": 1, "steps": 3}],
            "fixed": {"b_re": -1e308, "alpha": 0.2, "lambda": 0.3},
            "certificate": "spirallike",
        }
        out_csv = tmp_path / "inf.csv"
        code, _, _ = run_cli(capsys, "scan", "--spec", self.write_spec(tmp_path, spec), "--out", str(out_csv))
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["failed_condition"] for row in rows] == [
            "invalid: c must be finite, got (-inf+0j)",
            "invalid: c is a nonpositive integer",
            "invalid: ab must be nonzero",
        ]


# scans per kind: axes straddle the conditions' boundaries and cross refused
# inputs (ab = 0, alpha or lambda outside its range, c or a + b + 1 at 0 and
# -1, and each kind's own refusals noted above its specs)
AGREEMENT_SPECS = {
    "starlike-order": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "c_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7}],
         "fixed": {"b_re": 1.5}},
        {"varying": [{"symbol": "a_im", "from": -1, "to": 1, "steps": 5},
                     {"symbol": "c_im", "from": -1, "to": 1, "steps": 5},
                     {"symbol": "b_re", "from": 0.2, "to": 3, "steps": 8}],
         "fixed": {"a_re": 2, "b_im": 0.5, "c_re": 3, "alpha": 0.1}},
    ],
    "spirallike": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "lambda", "from": -2, "to": 2, "steps": 9},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7}],
         "fixed": {"b_re": -2}},
        {"varying": [{"symbol": "a_im", "from": -1, "to": 1, "steps": 5},
                     {"symbol": "b_re", "from": 0.2, "to": 2.5, "steps": 6},
                     {"symbol": "lambda", "from": -1.2, "to": 1.2, "steps": 5}],
         "fixed": {"a_re": 1, "b_im": 0.3, "alpha": 0.2}},
    ],
    "sst-cor-max": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "a_im", "from": -1, "to": 1, "steps": 5},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7}],
         "fixed": {"b_re": -2}},
        {"varying": [{"symbol": "a_re", "from": 0.2, "to": 2.5, "steps": 8},
                     {"symbol": "b_re", "from": 0.2, "to": 2.5, "steps": 8},
                     {"symbol": "alpha", "from": 0.05, "to": 0.95, "steps": 7}],
         "fixed": {"a_im": 0.1}},
    ],
    "strong-starlike": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 5},
                     {"symbol": "c_re", "from": -1, "to": 3, "steps": 5},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7}],
         "fixed": {"b_re": 1}},
        {"varying": [{"symbol": "b_re", "from": 0.5, "to": 2, "steps": 6},
                     {"symbol": "c_im", "from": -0.2, "to": 0.2, "steps": 3},
                     {"symbol": "alpha", "from": 0.05, "to": 0.95, "steps": 5}],
         "fixed": {"a_re": 1, "c_re": 3}},
    ],
    "sst-cor-p0": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 5},
                     {"symbol": "a_im", "from": -0.5, "to": 0.5, "steps": 3},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7}],
         "fixed": {"b_re": -2}},
        {"varying": [{"symbol": "a_re", "from": 0.3, "to": 2.5, "steps": 6},
                     {"symbol": "b_re", "from": 0.3, "to": 2.5, "steps": 6},
                     {"symbol": "alpha", "from": 0.1, "to": 0.9, "steps": 5}],
         "fixed": {"a_im": 0.2, "b_im": -0.2}},
    ],
    # c + is at 0 and -1, a, b or c off the real axis
    "cor-a2": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "b_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "c_re", "from": -1, "to": 3, "steps": 9}]},
        {"varying": [{"symbol": "a_im", "from": -1, "to": 1, "steps": 3},
                     {"symbol": "b_im", "from": -1, "to": 1, "steps": 3},
                     {"symbol": "c_im", "from": -1, "to": 1, "steps": 3}],
         "fixed": {"a_re": 1, "b_re": 1, "c_re": 2.5, "s": 0.5}},
    ],
    # b = e^{i pi/6} at lam = pi/6 makes e^{-i lam} ab = a; lam at 0 and beyond pi/2
    "spirallike-cor1": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7}],
         "fixed": {"b_re": 0.8660254037844387, "b_im": 0.49999999999999994, "lambda": 0.5235987755982988}},
        {"varying": [{"symbol": "lambda", "from": -2, "to": 2, "steps": 9},
                     {"symbol": "a_im", "from": -0.5, "to": 0.5, "steps": 3},
                     {"symbol": "alpha", "from": 0, "to": 0.9, "steps": 4}],
         "fixed": {"a_re": 1, "b_re": 1}},
    ],
    # lam at 0 (cos^2 = 1) and beyond pi/2, ab <= 0, a + b + 1 at 0 and -1
    "spirallike-cor2": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "lambda", "from": -2, "to": 2, "steps": 9},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7}],
         "fixed": {"b_re": 1.5}},
        {"varying": [{"symbol": "a_re", "from": -1.5, "to": 2, "steps": 8},
                     {"symbol": "b_re", "from": -1.5, "to": 2, "steps": 8},
                     {"symbol": "lambda", "from": 0.1, "to": 1.4, "steps": 5}],
         "fixed": {"alpha": 0.2}},
    ],
    # a + b off the real axis, ab <= 0, a + b + 1 at 0 and -1
    "sst-cor-final": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "a_im", "from": -1, "to": 1, "steps": 5},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7}],
         "fixed": {"b_re": 1}},
        {"varying": [{"symbol": "a_re", "from": -1.5, "to": 3, "steps": 10},
                     {"symbol": "b_re", "from": -1.5, "to": 3, "steps": 10},
                     {"symbol": "alpha", "from": 0.05, "to": 0.95, "steps": 5}]},
    ],
    # alpha <= 1/3, a + b off the real axis, ab <= 0, a + b + 1 at 0 and -1
    "theorem-a": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "a_im", "from": -1, "to": 1, "steps": 5},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7}],
         "fixed": {"b_re": 1}},
        {"varying": [{"symbol": "a_re", "from": -1.5, "to": 3, "steps": 10},
                     {"symbol": "b_re", "from": -1.5, "to": 3, "steps": 10},
                     {"symbol": "alpha", "from": 0.2, "to": 0.9, "steps": 8}]},
    ],
    # class orders and angles out of range, c at 0 and -1
    "general": [
        {"varying": [{"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7},
                     {"symbol": "c_re", "from": -1, "to": 4, "steps": 11}],
         "fixed": {"a_re": 1, "b_re": 1}, "class": {"kind": "starlike"}},
        {"varying": [{"symbol": "lambda", "from": -2, "to": 2, "steps": 9},
                     {"symbol": "c_re", "from": 1, "to": 4, "steps": 7}],
         "fixed": {"a_re": 1, "b_re": 1}, "class": {"kind": "spirallike", "alpha": 0.1}},
        {"varying": [{"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7},
                     {"symbol": "a_im", "from": -0.5, "to": 0.5, "steps": 3}],
         "fixed": {"a_re": 1, "b_re": 1, "c_re": 3}, "class": {"kind": "strongly-starlike"}},
    ],
    # class orders and angles out of range, ab and (a+1)(b+1) at 0, c and c + 1 at 0 and -1,
    # c != a + b + 2 for the spirallike delegate
    "convexity": [
        {"varying": [{"symbol": "a_re", "from": -1, "to": 3, "steps": 9},
                     {"symbol": "c_re", "from": -2, "to": 3, "steps": 11},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 7}],
         "fixed": {"b_re": 1}, "class": {"kind": "starlike"}},
        {"varying": [{"symbol": "c_re", "from": 2, "to": 5, "steps": 7},
                     {"symbol": "lambda", "from": -2, "to": 2, "steps": 9},
                     {"symbol": "a_im", "from": -0.5, "to": 0.5, "steps": 3}],
         "fixed": {"a_re": 1, "b_re": 1, "alpha": 0.1}, "class": {"kind": "spirallike"}},
        {"varying": [{"symbol": "b_re", "from": 0.5, "to": 2, "steps": 4},
                     {"symbol": "c_re", "from": -1, "to": 4, "steps": 6},
                     {"symbol": "alpha", "from": -0.25, "to": 1.25, "steps": 4}],
         "fixed": {"a_re": 1}, "class": {"kind": "strongly-starlike"}},
    ],
}


# what a one-row checker may raise for a refused row
ROW_ERRORS = (HypstarError, ValueError, ArithmeticError)


def _certify_outcome(spec, coords) -> list[str]:
    """passed and failed_condition of one scan point, from the one-row path of
    `hypstar certify` with the spec's settings as flags."""
    point = {sym: 0.0 for sym in cli.SCAN_SYMBOLS}
    point.update(spec.fixed)
    for ax, value in zip(spec.axes, coords):
        point[ax.symbol] = value
    alpha, lam, class_flags = point["alpha"], point["lambda"], []
    if spec.certificate_kind in cli.CLASS_KINDS:
        # these kinds read alpha and lambda only through their class
        alpha, lam = spec.class_spec.get("alpha", alpha), spec.class_spec.get("lambda", lam)
        class_flags = [f"--class={spec.class_spec['kind']}"]
    ls = spec.line_search
    args = _CERTIFY_PARSER.parse_args([
        "certify", "--theorem", spec.certificate_kind, *class_flags,
        *(f"--{name}={point[f'{name}_re']!r},{point[f'{name}_im']!r}" for name in "abc"),
        f"--alpha={alpha!r}", f"--lambda={lam!r}", f"--s={point.get('s', 0.0)!r}",
        f"--ls-s-min={ls.s_min!r}", f"--ls-s-max={ls.s_max!r}", f"--ls-points={ls.n_log_points}",
        f"--ls-refine-iters={ls.refine_iters}", f"--ls-min-margin={ls.min_margin!r}",
    ])
    try:
        cert = cli._certificate(args)
    except ROW_ERRORS as exc:
        return ["false", f"invalid: {exc}"]
    return ["true" if cert.passed else "false", cert.failed_condition()]


_CERTIFY_PARSER = cli.build_parser()


# kinds whose checker has one condition that can fail
ONE_CONDITION_KINDS = {"spirallike-cor1", "spirallike-cor2", "theorem-a"}


def test_every_kind_has_agreement_specs():
    assert sorted(AGREEMENT_SPECS) == sorted(cli.CHECKERS)


@pytest.mark.parametrize("kind", sorted(AGREEMENT_SPECS))
def test_array_checkers_agree_with_dispatch(kind, tmp_path, monkeypatch):
    # each scan row against the same point checked alone, as `hypstar certify` checks it
    # small chunks, so that rows cross chunk boundaries and the pool takes several chunks
    monkeypatch.setattr(cli, "SCAN_CHUNK_ROWS", 17)
    outcomes = set()
    for n, raw in enumerate(AGREEMENT_SPECS[kind]):
        spec = parse_scan_spec(dict(raw, certificate=kind))
        texts = []
        for threads in (1, 3):
            out = tmp_path / f"{n}-{threads}.csv"
            cli.run_scan(spec, str(out), threads=threads)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        rows = list(csv.reader(texts[0].decode().splitlines()))[1:]
        points = list(itertools.product(*(ax.values() for ax in spec.axes)))
        assert len(rows) == len(points)
        k = len(spec.axes)
        for row, coords in zip(rows, points):
            assert row[k:k + 2] == _certify_outcome(spec, coords), (kind, coords)
            outcomes.add(row[k + 1].split(":")[0])
    # the specs reach passing rows, failed conditions and refused rows
    assert "" in outcomes and "invalid" in outcomes
    assert len(outcomes) >= (3 if kind in ONE_CONDITION_KINDS else 4)


@pytest.mark.parametrize("chunk", (17, 4096))
@pytest.mark.parametrize("kind", sorted(AGREEMENT_SPECS))
def test_scan_csv_is_what_the_csv_module_writes(kind, chunk, tmp_path, monkeypatch):
    # run_scan's one join per chunk against csv.writer, row by row, on the same checker's rows
    monkeypatch.setattr(cli, "SCAN_CHUNK_ROWS", chunk)
    for n, raw in enumerate(AGREEMENT_SPECS[kind]):
        spec = parse_scan_spec(dict(raw, certificate=kind))
        out = tmp_path / f"{n}.csv"
        cli.run_scan(spec, str(out))
        assert out.read_bytes() == render_scan_csv(spec), (kind, n)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hypstar", "eval", "--a", "1,0", "--b", "2,0", "--c", "2,0", "--z", "0.5,0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "F  = 2" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["eval", "--a", "1,0", "--b", "2,0", "--c", "2,0", "--z", "0.5,0"],
        ["certify", "--theorem", "starlike-order", "--a", "2,0", "--b", "2,5", "--c", "3,5", "--alpha", "0"],
        ["verify", "--class", "starlike", "--alpha", "0", "--a", "2,0", "--b", "1,0", "--c", "2,0", *FAST_GRID],
    ])
    def test_runs_on_numpy_alone(self, argv):
        """src/ imports numpy and the standard library only: with scipy and
        mpmath made unimportable, each command still runs."""
        code = ("import sys\n"
                "sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
                "from hypstar.cli import main\n"
                "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
