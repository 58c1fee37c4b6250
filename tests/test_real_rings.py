"""A real triple's rings, summed in real long double, against the complex path.

`gauss_2f1_ring` sums the terms and folds of a real (a, b, c) in
np.longdouble.  These tests force the complex path by replacing
`hypergeom._ring_dtype`, and compare the ring values, their warnings and
the verifier's reports of both paths.
"""

import json
import warnings

import numpy as np
import pytest

from hypstar import HypergeomParams, gauss_2f1_ring, hypergeom
from hypstar.shapes import StarlikeOrder, StronglyStarlike
from hypstar.verifier import DiskGridSettings, verify_on_disk, verify_rows

SWEEP_GRID = DiskGridSettings(n_radii=12, r_max=0.97, n_angles=120)
FULL_GRID = DiskGridSettings()
# (r, n_angles): the outer and innermost rings of both grids, and the 16 N
# ring of the sweep grid's refinement ladder
RINGS = [(0.97, 120), (float(SWEEP_GRID.radii()[0]), 120), (0.995, 720), (float(FULL_GRID.radii()[0]), 720),
         (0.97, 16 * 120)]
EDGE_ROWS = [
    (-2, 3, 0.5),  # terminating a
    (1.5, -5, 2.5),  # terminating b
    (-1, 2, 1),  # terminating, with a zero of F at 0.5
    (-0.0, 2, 3),  # a = -0: F = 1
    (1, 1, -0.5),  # c in (-1, 0)
    (2.5, -1.5, -0.75),
    (complex(1.5, -0.0), complex(0.5, 0.0), complex(3, -0.0)),  # signed zero imaginary parts
    (complex(-0.0, -0.0), complex(-3, -0.0), complex(0.5, 0.0)),
    (1, 44, 2),  # a zero count no sampling resolves
    (1e5, 1e5, 1),  # terms overflow in a span's third block
    (2e4, 2e4, 1),
    (1e155, 1e155, 2),  # terms overflow in the first block
    (1e200, -1e200, 1),
]


def _real_triples(count, seed):
    """Real (a, b, c) in [-3, 3]^3 with c clear of nonpositive integers."""
    rng = np.random.RandomState(seed)
    rows = []
    while len(rows) < count:
        a, b, c = rng.uniform(-3, 3, 3)
        if c > 0.05 or abs(c - round(c)) > 0.05:
            rows.append(HypergeomParams(a, b, c))
    return rows


ROWS = _real_triples(300, 21) + [HypergeomParams(*abc) for abc in EDGE_ROWS]


@pytest.fixture
def complex_path(monkeypatch):
    """Calls fn(*args) with every ring summed in complex long double."""

    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(hypergeom, "_ring_dtype", lambda params: np.clongdouble)
            return fn(*args)

    return run


def _recorded(fn, *args):
    """fn(*args) and the (category, message) of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, {(w.category, str(w.message)) for w in caught}


def _same_ring(got, want) -> bool:
    return (np.array_equal(got.f, want.f, equal_nan=True) and np.array_equal(got.zdf, want.zdf, equal_nan=True)
            and np.array_equal(got.converged, want.converged) and got.terms == want.terms
            and np.array_equal(got.tail, want.tail, equal_nan=True))


def test_rows_are_real_and_reach_every_case():
    assert all(p.a.imag == p.b.imag == p.c.imag == 0 for p in ROWS)
    assert all(hypergeom._ring_dtype(p) is np.longdouble for p in ROWS)
    assert sum(-1 < p.c.real < 0 for p in ROWS) >= 10


def test_rings_match_the_complex_path(complex_path):
    for params in ROWS:
        for r, n in RINGS:
            got, got_warnings = _recorded(gauss_2f1_ring, params, r, n)
            want, want_warnings = _recorded(complex_path, gauss_2f1_ring, params, r, n)
            assert _same_ring(got, want), (params, r, n)
            assert got_warnings == want_warnings, (params, r, n)


def test_full_grid_16n_ring_matches_the_complex_path(complex_path):
    for abc in ((1, 44, 2), (0.5, 0.5, 1.5), (-1, 2, 1), (1e155, 1e155, 2)):
        params = HypergeomParams(*abc)
        got, got_warnings = _recorded(gauss_2f1_ring, params, 0.995, 16 * 720)
        want, want_warnings = _recorded(complex_path, gauss_2f1_ring, params, 0.995, 16 * 720)
        assert _same_ring(got, want), abc
        assert got_warnings == want_warnings, abc


# an overflowing row takes 2 s on the full grid, so there the sweep grid
# and the full grid's 16 N ring stand for the four of them
@pytest.mark.parametrize("grid, rows, statuses", [
    (SWEEP_GRID, ROWS, {"Consistent", "Violated", "Degenerate", "Incomplete"}),
    (FULL_GRID, ROWS[:300:5] + ROWS[300:-4], {"Consistent", "Violated", "Degenerate"}),
])
def test_reports_match_the_complex_path(complex_path, grid, rows, statuses):
    classes = [(StarlikeOrder(0.0), StronglyStarlike(0.5))[i % 2] for i in range(len(rows))]
    got = verify_rows(classes, rows, grid)
    want = complex_path(verify_rows, classes, rows, grid)
    for params, mine, theirs in zip(rows, got, want):
        assert json.dumps(mine.to_json()) == json.dumps(theirs.to_json()), params
    assert {report.status for report in got} == statuses
    assert {report.rings for report in got} == {"outer", "all"}


# the ratios themselves, kept apart from the recording stand-in
TERM_RATIOS = hypergeom._term_ratios


def test_real_triples_make_real_terms(monkeypatch):
    """A real triple's terms are np.longdouble, a complex triple's np.clongdouble,
    and a real triple whose terms overflow is summed again in complex."""
    seen = []

    def spy(params, z, n, n1):
        ratio = TERM_RATIOS(params, z, n, n1)
        seen.append(ratio.dtype)
        return ratio

    monkeypatch.setattr(hypergeom, "_term_ratios", spy)
    real, complex_ = np.dtype(np.longdouble), np.dtype(np.clongdouble)
    for abc, dtypes in (((1, 1, 3), {real}), ((2, 2 + 5j, 3 + 5j), {complex_})):
        seen.clear()
        gauss_2f1_ring(HypergeomParams(*abc), 0.995, 720)
        assert seen and set(seen) == dtypes, abc
    seen.clear()
    verify_on_disk(StarlikeOrder(0.0), HypergeomParams(2, 1, 2), SWEEP_GRID)
    assert seen and set(seen) == {real}
    seen.clear()
    with np.errstate(all="ignore"):
        ring = gauss_2f1_ring(HypergeomParams(1e155, 1e155, 2), 0.97, 120)
    assert seen[0] == real and seen[-1] == complex_ and not ring.converged.any()
