"""The benchmark's own checks must refuse a wrong output.

    python3 -m pytest -q perfbench/selftest.py

Each test hands a check one right output, which it must accept, and the same
output made wrong on purpose, which it must refuse.  The file is not named
test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from hypstar import DiskGridSettings, HypergeomParams, certificates, cli, hypergeom, verifier  # noqa: E402

SMALL_GRID = DiskGridSettings(n_radii=4, r_max=0.9, n_angles=48)


def _instance(name: str) -> dict:
    return next(i for i in workloads.crosscheck_instances(0) if i["name"] == name)


def _crosscheck(instance: dict, cert) -> dict:
    result = verifier.cross_check(cert.shape_class, cert.params, cert, SMALL_GRID)
    return {"name": instance["name"], "result": result.to_json()}


def test_crosscheck_refuses_flipped_status():
    inst = _instance("cor-a2-2-1-2")
    out = _crosscheck(inst, certificates.certify_cor_a2(2, 1, 2, 0.0))
    assert checks.check_crosscheck(inst, out)[0] == []
    wrong = copy.deepcopy(out)
    wrong["result"]["report"]["status"] = "Violated"
    assert checks.check_crosscheck(inst, wrong)[0]


def test_crosscheck_refuses_min_slack_off_by_1e_6():
    inst = _instance("strong-starlike-1-1-3")
    out = _crosscheck(inst, certificates.certify_strong_starlike(HypergeomParams(1, 1, 3), 0.5))
    assert checks.check_crosscheck(inst, out)[0] == []
    wrong = copy.deepcopy(out)
    wrong["result"]["report"]["min_slack"] += 1e-6
    assert checks.check_crosscheck(inst, wrong)[0]


def test_crosscheck_counts_missed_zero_as_failed_op():
    inst = _instance("zero-at-0.5")
    out = _crosscheck(inst, certificates.certify_starlike_order(HypergeomParams(-1, 2, 1), 0.0))
    problems, failed, _ = checks.check_crosscheck(inst, out)
    assert problems == []
    assert failed == (out["result"]["report"]["status"] != "Degenerate")


def _scan_text(spec: dict, tmp_path) -> str:
    path = tmp_path / "scan.csv"
    cli.run_scan(cli.parse_scan_spec(spec), str(path))
    return path.read_text(encoding="utf-8")


def _small_scan(kind: str, steps: int, verify: bool = False) -> dict:
    spec = copy.deepcopy(next(s for s in workloads.scan_certify_specs(0) if s["certificate"] == kind))
    for axis in spec["varying"]:
        axis["steps"] = steps
    if verify:
        spec["verify"] = True
        spec["grid"] = {"n_radii": 3, "r_max": 0.9, "n_angles": 24}
    return spec


def test_scan_refuses_dropped_and_reordered_rows(tmp_path):
    spec = _small_scan("starlike-order", 4)
    text = _scan_text(spec, tmp_path)
    assert checks.parse_scan_csv(spec, text)[0] == []
    lines = text.splitlines(keepends=True)
    dropped = "".join(lines[:3] + lines[4:])
    assert checks.parse_scan_csv(spec, dropped)[0]
    swapped = "".join(lines[:3] + [lines[4], lines[3]] + lines[5:])
    assert checks.parse_scan_csv(spec, swapped)[0]


def test_scan_refuses_flipped_status(tmp_path):
    spec = _small_scan("starlike-order", 3, verify=True)
    text = _scan_text(spec, tmp_path)
    problems, rows, _ = checks.parse_scan_csv(spec, text)
    assert problems == []
    certified = next(i for i, row in enumerate(rows) if row[2] == "true")
    assert rows[certified][5] == "Consistent"
    wrong = text.splitlines(keepends=True)
    wrong[certified + 1] = wrong[certified + 1].replace("Consistent", "Violated")
    assert checks.parse_scan_csv(spec, "".join(wrong))[0]


def test_verified_row_refuses_min_slack_off_by_1e_6(tmp_path):
    spec = _small_scan("sst-cor-max", 3, verify=True)
    _, rows, _ = checks.parse_scan_csv(spec, _scan_text(spec, tmp_path))
    row = next(row for row in rows if row[2] == "true")
    coords = (float(row[0]), float(row[1]))
    assert checks.check_verified_row(spec, coords, float(row[4]))[0] == []
    assert checks.check_verified_row(spec, coords, float(row[4]) + 1e-6)[0]


def test_boundary_check_refuses_flipped_certificate(tmp_path):
    for kind in ("starlike-order", "strong-starlike"):
        spec = _small_scan(kind, 6)
        _, rows, _ = checks.parse_scan_csv(spec, _scan_text(spec, tmp_path))
        assert checks.check_certified_boundary(spec, rows) == []
        # a row refused for its boundary inequality, now claimed as certified
        i = next(i for i, row in enumerate(rows) if row[3] in ("L*N - M^2", "N", "min residual (eps=+1)",
                                                              "min residual (eps=-1)"))
        wrong = [list(row) for row in rows]
        wrong[i][2:4] = ["true", ""]
        assert checks.check_certified_boundary(spec, wrong), kind


def test_eval_refuses_F_off_by_1e_10():
    point = workloads.eval_corpus(0, size=3)[0]
    params = HypergeomParams(*point[:3])
    values = (hypergeom.gauss_2f1(params, point[3]), hypergeom.gauss_2f1_derivative(params, point[3]),
              hypergeom.log_derivative_q(params, point[3]))
    assert checks.check_eval_point(point, values)[0] == []
    wrong = (values[0] * (1 + 1e-10), *values[1:])
    assert checks.check_eval_point(point, wrong)[0]
