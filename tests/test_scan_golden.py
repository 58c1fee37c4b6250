"""Scan CSV bytes against files kept in tests/data.

Each scan_<name>.json there is a scan spec, and scan_<name>.csv the bytes
that the csv-module writer produced for it (QUOTE_MINIMAL, \\r\\n line ends)
before scans were rendered by columns.  The four cover refused rows whose
message holds a comma (so it is quoted), a closed-form corollary, a
minimizer kind with more rows than two line-search blocks of 65, and a
verifying scan.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from hypstar import cli
from hypstar.cli import parse_scan_spec

DATA = Path(__file__).parent / "data"
GOLDEN = ("starlike_order", "sst_cor_max", "strong_starlike", "verify")


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


def test_kept_files_cover_what_they_are_for():
    text = {name: (DATA / f"scan_{name}.csv").read_bytes() for name in GOLDEN}
    assert b'"invalid: alpha must lie in [0, 1)"' in text["starlike_order"]
    assert b"\n" not in text["starlike_order"].replace(b"\r\n", b"")
    assert text["strong_starlike"].count(b"\r\n") - 1 > 2 * 65 + 1
    assert b",Invalid\r\n" in text["verify"] and b",Violated\r\n" in text["verify"]


@pytest.mark.parametrize("text", ["", "plain", "a,b", 'say "x"', "cr\rhere", "lf\nhere", " lead ", "'q'",
                                  "invalid: alpha must lie in [0, 1)", "K - B/2 - max(A, C) (eps=+1)"])
def test_csv_field_is_the_csv_module_rule(text):
    buf = io.StringIO()
    csv.writer(buf).writerow(["x", text, "y"])
    assert buf.getvalue() == f"x,{cli._csv_field(text)},y\r\n"
