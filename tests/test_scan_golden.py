"""Scan CSV bytes against files kept in tests/data.

Each scan_<name>.json there is a scan spec, and scan_<name>.csv the bytes
that the csv-module writer produced for it (QUOTE_MINIMAL, \\r\\n line ends)
before scans were rendered by columns, except strong_starlike_complex,
written by the two-sign minimizer before it minimized a real row's signs
once, and verify_mixed, written by the verifier that verified a scan row
by row.  The six cover refused rows whose message holds a comma (so it is
quoted), a closed-form corollary, a minimizer kind with more rows than two
line-search blocks of 65, a minimizer scan whose chunks mix real rows with
complex ones, and two verifying scans; the second, on the sweep grid,
mixes two refusals with Consistent, Violated and Degenerate rows, rows
that take every ring, and an order that changes from row to row.
"""

import csv
import io
import json
from pathlib import Path

import pytest
from reference import render_scan_csv

from hypstar import cli
from hypstar.cli import parse_scan_spec

DATA = Path(__file__).parent / "data"
GOLDEN = ("starlike_order", "sst_cor_max", "strong_starlike", "strong_starlike_complex", "verify", "verify_mixed")


@pytest.mark.parametrize("chunk", (4096, 17))
@pytest.mark.parametrize("name", GOLDEN)
def test_scan_bytes_match_the_kept_file(name, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SCAN_CHUNK_ROWS", chunk)
    spec = parse_scan_spec(json.loads((DATA / f"scan_{name}.json").read_text()))
    out = tmp_path / "scan.csv"
    summary = cli.run_scan(spec, str(out))
    want = (DATA / f"scan_{name}.csv").read_bytes()
    assert out.read_bytes() == want
    rows = list(csv.reader(io.StringIO(want.decode(), newline="")))[1:]
    assert summary["certified"] == sum(row[len(spec.axes)] == "true" for row in rows)
    assert summary["verifier_violations"] == sum(row[-1] == "Violated" for row in rows)


@pytest.mark.parametrize("name", ("verify", "verify_mixed"))
def test_verifying_scan_is_what_the_csv_module_writes(name, tmp_path, monkeypatch):
    # chunks of 5 split the verified rows, the refused ones and the rows of one axis value
    monkeypatch.setattr(cli, "SCAN_CHUNK_ROWS", 5)
    spec = parse_scan_spec(json.loads((DATA / f"scan_{name}.json").read_text()))
    out = tmp_path / "scan.csv"
    cli.run_scan(spec, str(out))
    assert out.read_bytes() == render_scan_csv(spec)


def test_kept_files_cover_what_they_are_for():
    text = {name: (DATA / f"scan_{name}.csv").read_bytes() for name in GOLDEN}
    assert b'"invalid: alpha must lie in [0, 1)"' in text["starlike_order"]
    assert b"\n" not in text["starlike_order"].replace(b"\r\n", b"")
    assert text["strong_starlike"].count(b"\r\n") - 1 > 2 * 65 + 1
    # b = 0.5 + i t and c = c_re + i t keep p real; t = 0 makes a row real, and the two signs fail apart
    complex_rows = text["strong_starlike_complex"]
    assert b"\r\n2.5,0,0,true," in complex_rows and b"\r\n2.5,0.1,0.1,true," in complex_rows
    assert b",min residual (eps=+1)," in complex_rows and b",min residual (eps=-1)," in complex_rows
    assert b",Invalid\r\n" in text["verify"] and b",Violated\r\n" in text["verify"]
    # a = 1, b = 44, c = 2: F grows like (1 - z)^-43, whose zero count no sampling of the outer ring resolves
    mixed = text["verify_mixed"]
    for line in (b',"invalid: alpha must lie in [0, 1)",,Invalid', b",invalid: ab must be nonzero,,Invalid",
                 b"\r\n-1,44,0.25,false,", b",Degenerate\r\n", b",Consistent\r\n", b"\r\n1,44,0.5,false,L,"):
        assert line in mixed


@pytest.mark.parametrize("text", ["", "plain", "a,b", 'say "x"', "cr\rhere", "lf\nhere", " lead ", "'q'",
                                  "invalid: alpha must lie in [0, 1)", "K - B/2 - max(A, C) (eps=+1)"])
def test_csv_field_is_the_csv_module_rule(text):
    buf = io.StringIO()
    csv.writer(buf).writerow(["x", text, "y"])
    assert buf.getvalue() == f"x,{cli._csv_field(text)},y\r\n"
