"""Scan spec values of the wrong JSON type: refused at parse time, exit 2, no CSV."""

import json
from dataclasses import fields

import pytest

from hypstar.cli import main, parse_scan_spec
from hypstar.errors import InvalidParams
from hypstar.hypergeom import SeriesSettings
from hypstar.oracles import LineSearchSettings
from hypstar.verifier import DiskGridSettings

SPEC = {
    "varying": [{"symbol": "b_re", "from": 0.5, "to": 3.0, "steps": 3}],
    "fixed": {"a_re": 2.0, "c_re": 2.5},
    "class": {"kind": "starlike", "alpha": 0.0},
    "certificate": "starlike-order",
    "verify": False,
}
AXIS = SPEC["varying"][0]
SETTINGS = {"grid": DiskGridSettings, "series": SeriesSettings, "line_search": LineSearchSettings}


def _wrong_values(annotation):
    """JSON values that do not fit a settings field of this annotation."""
    return {"int": ["x", [1], None, True, 2.5], "float": ["x", [1], None, False], "str": [1, None, True]}[annotation]


MALFORMED = [
    {"grid": {"n_radii": "x"}},
    {"varying": [dict(AXIS, **{"from": [0]})]},
    {"fixed": {"a_re": [1]}},
    {"varying": [dict(AXIS, **{"from": True})]},
    {"varying": [dict(AXIS, steps=2.5)]},
    {"verify": "false"},
    {"varying": [dict(AXIS, to="3")]},
    {"varying": [dict(AXIS, steps="3")]},
    {"varying": [dict(AXIS, steps=True)]},
    {"fixed": {"alpha": None}},
    {"fixed": {"s": False}},
    {"verify": 1},
    {"class": {"kind": "starlike", "alpha": "0.5"}, "certificate": "general"},
    {"class": {"kind": "spirallike", "lambda": [0.1]}, "certificate": "convexity"},
] + [
    {key: {field.name: value}}
    for key, cls in SETTINGS.items()
    for field in fields(cls)
    for value in _wrong_values(field.type)
] + [
    # the removed `boundary` key is refused whatever it holds
    {"boundary": {name: value}}
    for name, annotation in (("n_points", "int"), ("theta_min", "float"))
    for value in _wrong_values(annotation)
]


@pytest.mark.parametrize("malformed", MALFORMED, ids=lambda m: json.dumps(m))
def test_wrong_json_type_exits_2_without_csv(tmp_path, capsys, malformed):
    spec = dict(SPEC, **malformed)
    with pytest.raises(InvalidParams):
        parse_scan_spec(spec)
    spec_path, out_csv = tmp_path / "spec.json", tmp_path / "bad.csv"
    spec_path.write_text(json.dumps(spec))
    assert main(["scan", "--spec", str(spec_path), "--out", str(out_csv)]) == 2
    assert not out_csv.exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "fitting",
    [
        {"varying": [dict(AXIS, **{"from": 1, "to": 3})]},
        {"fixed": {"a_re": 2, "c_re": 2.5, "s": 0}},
        {"grid": {"r_max": 0.9, "n_angles": 36, "radial_spacing": "uniform"}},
        {"series": {"tol": 1, "max_terms": 1000}},
        {"class": {"kind": "spirallike", "alpha": 0, "lambda": 0.1}, "certificate": "convexity"},
    ],
    ids=lambda m: json.dumps(m),
)
def test_integers_stand_for_floats(tmp_path, fitting):
    spec = dict(SPEC, **fitting)
    parse_scan_spec(spec)
    spec_path, out_csv = tmp_path / "spec.json", tmp_path / "ok.csv"
    spec_path.write_text(json.dumps(spec))
    assert main(["scan", "--spec", str(spec_path), "--out", str(out_csv)]) == 0
    assert out_csv.exists()
