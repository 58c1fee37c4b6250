"""One-row `hypstar verify` stdout (JSON) against files kept in tests/data.

Each verify_<name>.json there is the stdout of the command in CASES,
written before a real triple's rings were summed in real long double.
Six rows are real triples and two complex: starlike and strongly starlike
rows that rest on the outer ring, a Violated row on the sweep grid whose
zero count no outer sampling resolves (so it takes the refinement ladder up
to 16 N angles and every ring), Degenerate rows with and without a
terminating series, and an Incomplete row whose terms overflow on every ring.
Each crosscheck_<name>.json is the stdout of `hypstar crosscheck` in
CROSSCHECKS: a SOUND row, and an INFO row whose terminating F has a zero
inside the sweep grid's outer ring.
"""

import json
from pathlib import Path

import pytest

from hypstar.cli import main

DATA = Path(__file__).parent / "data"
SWEEP = "--n-radii 12 --r-max 0.97 --n-angles 120"
SMALL = "--n-radii 6 --r-max 0.97 --n-angles 64"
# name: (flags, exit code, status, rings)
CASES = {
    "starlike_real": (f"--a 1,0 --b 1,0 --c 3,0 --class starlike --alpha 0.5 {SMALL}", 0, "Consistent", "outer"),
    "strongly_starlike_real": (
        f"--a 1,0 --b 1,0 --c 3,0 --class strongly-starlike --alpha 0.5 {SMALL}", 0, "Consistent", "outer"),
    "violated_real": (f"--a 1,0 --b 44,0 --c 2,0 --class starlike --alpha 0 {SWEEP}", 1, "Violated", "all"),
    "degenerate_real": (f"--a -2,0 --b 3,0 --c 0.5,0 --class starlike --alpha 0 {SMALL}", 2, "Degenerate", "outer"),
    "overflow_real": (f"--a 1e200,0 --b 1e200,0 --c 1,0 --class starlike --alpha 0 {SMALL}", 3, "Incomplete", "all"),
    "terminating_real": (f"--a -1,0 --b 2,0 --c 1,0 --class starlike --alpha 0 {SMALL}", 2, "Degenerate", "outer"),
    "starlike_complex": (f"--a 2,0 --b 2,5 --c 3,5 --class starlike --alpha 0 {SMALL}", 0, "Consistent", "outer"),
    "spirallike_complex": (
        f"--a 1,1 --b 2,0 --c 3,-1 --class spirallike --lambda 0.3 --alpha 0.1 {SMALL}", 1, "Violated", "all"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_json_matches_the_kept_file(name, capsys):
    args, code, status, rings = CASES[name]
    assert main(["verify", *args.split()]) == code
    out = capsys.readouterr().out
    assert out.encode() == (DATA / f"verify_{name}.json").read_bytes()
    report = json.loads(out)
    assert (report["status"], report["rings"]) == (status, rings)


# name: (flags, verdict, status, f_zeros_inside)
CROSSCHECKS = {
    "starlike_sound": (f"--a 2,0 --b 2,5 --c 3,5 --alpha 0 {SMALL}", "SOUND", "Consistent", 0),
    "starlike_degenerate": (f"--a=-1,0 --b 2,0 --c 1,0 --alpha 0 {SWEEP}", "INFO", "Degenerate", 1),
}


@pytest.mark.parametrize("name", sorted(CROSSCHECKS))
def test_crosscheck_json_matches_the_kept_file(name, capsys):
    args, verdict, status, zeros = CROSSCHECKS[name]
    assert main(["crosscheck", "--theorem", "starlike-order", *args.split()]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA / f"crosscheck_{name}.json").read_bytes()
    result = json.loads(out)
    assert (result["verdict"], result["report"]["status"], result["report"]["f_zeros_inside"]) == (verdict, status, zeros)
