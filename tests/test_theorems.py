"""The CHECKERS table: every --theorem kind wired to its checker, with the
right arguments."""

import cmath
import json
import math
import pathlib
import re

import pytest

from hypstar import HypergeomParams, SpirallikeOrder, StarlikeOrder, StronglyStarlike, certificates, cli
from hypstar.certificates import CHECKERS, BoundaryGridSettings
from hypstar.cli import main, parse_scan_spec
from hypstar.errors import InvalidParams

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _arg(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


# lam and alpha differ wherever a kind reads both, so that swapping them changes the output
ROT = cmath.exp(1j * math.pi / 12)
CASES = {
    "starlike-order": (
        ["--a", "2,0", "--b", "2,5", "--c", "3,5", "--alpha", "0.1"],
        lambda: certificates.certify_starlike_order(HypergeomParams(2, 2 + 5j, 3 + 5j), 0.1),
    ),
    "cor-a2": (
        ["--a", "1.5,0", "--b", "1.2,0", "--c", "2,0", "--s", "0.25"],
        lambda: certificates.certify_cor_a2(1.5, 1.2, 2.0, 0.25),
    ),
    "spirallike": (
        ["--a", "1,1", "--b", "2,0", "--lambda", "0.3", "--alpha", "0.1"],
        lambda: certificates.certify_spirallike(1 + 1j, 2, 0.3, 0.1),
    ),
    "spirallike-cor1": (
        ["--a", _arg(ROT), "--b", _arg(ROT), "--lambda", repr(math.pi / 6), "--alpha", "0.1"],
        lambda: certificates.certify_spirallike_cor1(ROT, ROT, math.pi / 6, 0.1),
    ),
    "spirallike-cor2": (
        ["--a", "1,0", "--b", "1.5,0", "--lambda", "0.5", "--alpha", "0.1"],
        lambda: certificates.certify_spirallike_cor2(1, 1.5, 0.5, 0.1),
    ),
    "strong-starlike": (
        ["--a", "1,0", "--b", "1,0", "--c", "3,0", "--alpha", "0.5", "--lambda", "0.2"],
        lambda: certificates.certify_strong_starlike(HypergeomParams(1, 1, 3), 0.5),
    ),
    "sst-cor-p0": (
        ["--a", "1,0", "--b", "1.5,0", "--alpha", "0.6", "--ls-points", "400"],
        lambda: certificates.certify_sst_cor_p0(1, 1.5, 0.6, certificates.LineSearchSettings(n_log_points=400)),
    ),
    "sst-cor-max": (
        ["--a", "1,0", "--b", "1.2,0", "--alpha", "0.5"],
        lambda: certificates.certify_sst_cor_max(1, 1.2, 0.5),
    ),
    "sst-cor-final": (
        ["--a", "1,0", "--b", "1,0", "--alpha", "0.5"],
        lambda: certificates.certify_sst_cor_final(1, 1, 0.5),
    ),
    "theorem-a": (
        ["--a", "1,0", "--b", "1.2,0", "--alpha", "0.6"],
        lambda: certificates.certify_theorem_A(1, 1.2, 0.6),
    ),
    "general": (
        ["--class", "spirallike", "--lambda", "0.3", "--alpha", "0.1",
         "--a", "1,0", "--b", "1,0", "--c", "2.5,0", "--boundary-points", "256", "--relaxed"],
        lambda: certificates.certify_general(
            SpirallikeOrder(0.3, 0.1), HypergeomParams(1, 1, 2.5), BoundaryGridSettings(n_points=256), True
        ),
    ),
    "convexity": (
        ["--class", "spirallike", "--lambda", "0.3", "--alpha", "0.1", "--a", "1,0", "--b", "1,0", "--c", "4,0"],
        lambda: certificates.certify_convexity(SpirallikeOrder(0.3, 0.1), HypergeomParams(1, 1, 4)),
    ),
}


def test_every_kind_has_a_case():
    assert sorted(CASES) == sorted(CHECKERS)


@pytest.mark.parametrize("kind", list(CHECKERS))
def test_certify_prints_the_direct_certificate(kind, capsys):
    argv, direct = CASES[kind]
    code = main(["certify", "--theorem", kind, "--json", *argv])
    out = capsys.readouterr().out
    cert = direct()
    assert out == json.dumps(cert.to_json(), indent=2) + "\n"
    assert code == (0 if cert.passed else 1)


def test_class_kinds_build_their_class():
    assert cli.build_shape_class("starlike", 0.2, 0.3) == StarlikeOrder(0.2)
    assert cli.build_shape_class("strongly-starlike", 0.2, 0.3) == StronglyStarlike(0.2)
    assert cli.build_shape_class("spirallike", 0.2, 0.3) == SpirallikeOrder(0.3, 0.2)
    with pytest.raises(InvalidParams):
        cli.build_shape_class("starlike-order", 0.2, 0.3)


def test_readme_lists_every_kind_in_table_order():
    text = README.read_text(encoding="utf-8")
    listing = text[text.index("Theorem kinds:"):]
    listing = listing[:listing.index(". ")]
    assert tuple(re.findall(r"`([^`]+)`", listing)) == tuple(CHECKERS)


CLASS_SCAN = {
    "varying": [{"symbol": "c_re", "from": 2.0, "to": 3.0, "steps": 3}],
    "fixed": {"a_re": 1.0, "b_re": 1.0},
}


@pytest.mark.parametrize("kind, extra", [
    ("general", {}),
    ("convexity", {"class": {"kind": "starlike-order"}}),
    ("general", {"class": "starlike"}),
])
def test_scan_refuses_class_kind_without_usable_class(kind, extra, tmp_path, capsys):
    spec = dict(CLASS_SCAN, certificate=kind, **extra)
    with pytest.raises(InvalidParams, match="'class'"):
        parse_scan_spec(spec)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_csv = tmp_path / "out.csv"
    assert main(["scan", "--spec", str(spec_path), "--out", str(out_csv)]) == 2
    assert not out_csv.exists()


def test_scan_class_is_ignored_by_kinds_that_imply_theirs():
    spec = parse_scan_spec(dict(CLASS_SCAN, certificate="starlike-order", **{"class": {"kind": "starlike-order"}}))
    assert spec.certificate_kind == "starlike-order"
