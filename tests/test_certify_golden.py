"""One-row `hypstar certify --json` bytes against files kept in tests/data.

Each certify_<name>.json there is the stdout of the command in CASES.
The strong-starlike and sst-cor-p0 files were written before the line
minimizer shared powers across rows and merged its samples with argmin
passes; they pin the 15-digit condition values and the notes (min residual
and its s to 6 digits) of the minimizer kinds on the one-row path, for a
passing, a failing and an inconclusive row each.  The files of the other
ten kinds, a passing and a failing row each, were written before every
checker took one Rows record; they pin each kind's condition values,
thresholds, notes, class and params.
"""

from pathlib import Path

import pytest

from hypstar.cli import main

DATA = Path(__file__).parent / "data"
CASES = {
    "strong_starlike_pass": ("--theorem strong-starlike --a 1,0 --b 1,0 --c 3,0 --alpha 0.5", 0),
    "strong_starlike_fail": ("--theorem strong-starlike --a 1,0.5 --b 1,0 --c 3,0 --alpha 0.5", 1),
    "strong_starlike_inconclusive": (
        "--theorem strong-starlike --a 1,0.2 --b 1,-0.2 --c 3,0 --alpha 0.6 --ls-min-margin 3", 1),
    "sst_cor_p0_pass": ("--theorem sst-cor-p0 --a 0.5,0 --b 0.5,0 --alpha 0.5", 0),
    "sst_cor_p0_fail": ("--theorem sst-cor-p0 --a 2,0 --b 2,0 --alpha 0.3", 1),
    "sst_cor_p0_inconclusive": ("--theorem sst-cor-p0 --a 0.6,0.2 --b 0.6,-0.2 --alpha 0.7 --ls-min-margin 1", 1),
    "starlike_order_pass": ("--theorem starlike-order --a 1,0 --b 1,0 --c 3,0 --alpha 0.5", 0),
    "starlike_order_fail": ("--theorem starlike-order --a 2,0 --b 2,5 --c 3,5 --alpha 0.1", 1),
    "cor_a2_pass": ("--theorem cor-a2 --a 1.5,0 --b 1.2,0 --c 2,0 --s 0.25", 0),
    "cor_a2_fail": ("--theorem cor-a2 --a 2.5,0 --b 1,0 --c 2,0", 1),
    "spirallike_pass": ("--theorem spirallike --a 1,1 --b 2,0 --lambda 0.3 --alpha 0.1", 0),
    "spirallike_fail": ("--theorem spirallike --a -1,0 --b 2,0 --lambda 0.3 --alpha 0.1", 1),
    # a = b = r e^{i pi/12} and lam = pi/6, so that e^{-i lam} ab = r^2 is a positive real number
    "spirallike_cor1_pass": ("--theorem spirallike-cor1 --a 0.9659258262890683,0.25881904510252074 "
                             "--b 0.9659258262890683,0.25881904510252074 --lambda 0.5235987755982988 --alpha 0.1", 0),
    "spirallike_cor1_fail": ("--theorem spirallike-cor1 --a 2.8977774788672046,0.7764571353075622 "
                             "--b 2.8977774788672046,0.7764571353075622 --lambda 0.5235987755982988 --alpha 0.1", 1),
    "spirallike_cor2_pass": ("--theorem spirallike-cor2 --a 1,0 --b 1.5,0 --lambda 0.5 --alpha 0.1", 0),
    "spirallike_cor2_fail": ("--theorem spirallike-cor2 --a 3,0 --b 3,0 --lambda 0.5 --alpha 0.1", 1),
    "sst_cor_max_pass": ("--theorem sst-cor-max --a 1,0 --b 1.2,0 --alpha 0.5", 0),
    "sst_cor_max_fail": ("--theorem sst-cor-max --a 3,0 --b 3,0 --alpha 0.5", 1),
    "sst_cor_final_pass": ("--theorem sst-cor-final --a 1,0 --b 1,0 --alpha 0.5", 0),
    "sst_cor_final_fail": ("--theorem sst-cor-final --a 4,0 --b 4,0 --alpha 0.5", 1),
    "theorem_a_pass": ("--theorem theorem-a --a 1,0 --b 1.2,0 --alpha 0.6", 0),
    "theorem_a_fail": ("--theorem theorem-a --a 3,0 --b 3,0 --alpha 0.6", 1),
    "general_pass": ("--theorem general --class starlike --alpha 0 --a 1,0 --b 1,0 --c 3,0 --boundary-points 256", 0),
    "general_fail": ("--theorem general --class spirallike --lambda 0.3 --alpha 0.1 "
                     "--a 1,0 --b 1,0 --c 2.5,0 --boundary-points 256", 1),
    "convexity_pass": ("--theorem convexity --class strongly-starlike --alpha 0.5 --a 0.2,0 --b 0.3,0 --c 3,0", 0),
    "convexity_fail": ("--theorem convexity --class strongly-starlike --alpha 0.5 --a 1,0.5 --b 1,0 --c 3,0", 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_certify_json_matches_the_kept_file(name, capsys):
    args, code = CASES[name]
    assert main(["certify", *args.split(), "--json"]) == code
    out = capsys.readouterr().out
    assert out.encode() == (DATA / f"certify_{name}.json").read_bytes()
    assert ("inconclusive" in out) == name.endswith("inconclusive")
