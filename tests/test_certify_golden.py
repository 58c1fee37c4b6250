"""One-row `hypstar certify --json` bytes against files kept in tests/data.

Each certify_<name>.json there is the stdout of the command in CASES,
written before the line minimizer shared powers across rows and merged its
samples with argmin passes.  They pin the 15-digit condition values and the
notes (min residual and its s to 6 digits) of the minimizer kinds on the
one-row path, for a passing, a failing and an inconclusive row each.
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_certify_json_matches_the_kept_file(name, capsys):
    args, code = CASES[name]
    assert main(["certify", *args.split(), "--json"]) == code
    out = capsys.readouterr().out
    assert out.encode() == (DATA / f"certify_{name}.json").read_bytes()
    assert ("inconclusive" in out) == name.endswith("inconclusive")
