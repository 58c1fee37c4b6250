"""CLI surface: flags, exit codes, JSON round-trips, scan CSV contract."""

import json
import math
import subprocess
import sys

import pytest

from hypstar.cli import main, parse_scan_spec
from hypstar.errors import InvalidParams

FAST_GRID = ["--n-radii", "8", "--n-angles", "90", "--r-max", "0.98"]


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

    def test_general_needs_class(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--theorem", "general", "--a", "1,0", "--b", "1,0", "--c", "3,0")
        assert code == 2

    def test_general_with_class(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--theorem", "general", "--class", "starlike", "--alpha", "0",
            "--a", "1,0", "--b", "1,0", "--c", "3,0", "--boundary-points", "512",
        )
        assert code == 0
        assert json.loads(out)["kind"] == "GeneralMain"

    def test_convexity(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--theorem", "convexity", "--class", "starlike", "--alpha", "0",
            "--a", "1,0", "--b", "1,0", "--c", "2,0",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "ConvexityWrapper"
        assert data["params"]["a"] == [2.0, 0.0]


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

        rows = list(csv.DictReader(open(out_csv)))
        assert rows[0].keys() == {"b_re", "c_re", "certificate_passed", "failed_condition", "min_slack", "status"}
        for row in rows:
            b, c = float(row["b_re"]), float(row["c_re"])
            want = b + c > 3 + 1e-9 and c >= b
            assert (row["certificate_passed"] == "true") == want

    def test_deterministic_across_threads(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, SCAN_SPEC)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(capsys, "scan", "--spec", spec, "--out", out1)[0] == 0
        assert run_cli(capsys, "scan", "--spec", spec, "--out", out2, "--threads", "4")[0] == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

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

        rows = list(csv.DictReader(open(out_csv)))
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

        rows = list(csv.DictReader(open(out_csv)))
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

        rows = list(csv.DictReader(open(out_csv)))
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
        rows_a = list(csv.DictReader(open(csv_a)))
        rows_b = list(csv.DictReader(open(csv_b)))
        assert any(r["certificate_passed"] == "true" for r in rows_a)
        for ra, rb in zip(rows_a, rows_b):
            if ra["certificate_passed"] == "true":
                assert rb["certificate_passed"] == "true"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hypstar", "eval", "--a", "1,0", "--b", "2,0", "--c", "2,0", "--z", "0.5,0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "F  = 2" in proc.stdout
