"""The `general` checker decided in closed form.

Its coefficients against the boundary algebra of `reference`, its verdicts
against the closed-form kinds and against 30-digit arithmetic, the rows that
a sampled boundary grid used to pass, and the disk-grid verifier on its
passing rows of every class family.
"""

import json

import mpmath
import numpy as np
import pytest
from reference import boundary_gap, mu_of

from hypstar import HypergeomParams, SpirallikeOrder, StarlikeOrder, StronglyStarlike, certificates
from hypstar.certificates import Rows, general_batch
from hypstar.cli import main
from hypstar.shapes import lam_of
from hypstar.verifier import CONSISTENT, DiskGridSettings, verify_rows

D0, C3 = "Re[ab conj(mu)] - p|mu|^2", "s^3 coefficient"
SWEEP_GRID = DiskGridSettings(n_radii=12, r_max=0.97, n_angles=120)


def _values(batch, name) -> np.ndarray:
    (cond,) = [c for c in batch.conditions if c.name == name]
    return cond.value


def _passed(batch) -> np.ndarray:
    return np.logical_and.reduce([c.passed for c in batch.conditions])


def _mobius_rows(rng, n, family, complex_share=0.0, c_free=True) -> Rows:
    """n rows of the family: a, b = 1 + r(u + iv) with r in {0.3, 1, 2}, and
    c = a + b + 1 - p with p in {0, 0.5, 1, -0.5} (p = 0 when c is pinned),
    off the real axis by up to 0.5 in a share of the rows."""
    r = rng.choice([0.3, 1.0, 2.0], n)
    a, b = (1 + r * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) for _ in range(2))
    p = rng.choice([0.0, 0.5, 1.0, -0.5], n) if c_free else np.zeros(n)
    p = p + 1j * np.where(rng.uniform(size=n) < complex_share, rng.uniform(-0.5, 0.5, n), 0.0)
    lam = rng.uniform(-1.2, 1.2, n) if family is SpirallikeOrder else 0.0
    return Rows(a, b, a + b + 1 - p, rng.uniform(0, 0.9, n), lam, family=family)


# rows that the 2,000-point boundary grid passed where an inequality fails: the
# failed condition, and the note that locates the failure
OVERCLAIMS = {
    # the excess (|B|^2 - |A|^2) - D peaks at +1.0e-6 near s = 1.3234, between two grid points
    "narrow-window": (
        "--class starlike --alpha 0.018775003596475714 --a 2.0014586905202103,0.1216350319441597 "
        "--b 0.9407638977265402,2.9229487992049545 --c 3.018908200919177,3.0445838311491142",
        "L*N - M^2", "min of D - (|B|^2 - |A|^2) over real s: -1e-06 at s = M/L = 1.3234",
    ),
    # D = (1 + s^2)(1 + 1e-6 s) changes sign at s = -10^6, beyond the grid's |s| <= 2e4
    "complex-p": (
        "--class starlike --alpha 0 --a 1,0 --b 1,0 --c 3,0.000001",
        "Im[p]", "Im p != 0: D = (1 + s^2)(d0 - |mu|^2 Im[p] s) changes sign at s = -1e+06, so positivity fails",
    ),
    "strongly-starlike-complex-p": (
        "--class strongly-starlike --alpha 0.5173990635595181 --a 1.4760697923809203,-0.09438166770184475 "
        "--b 1.625617968737035,0.17565875200403114 --c 4.601687761117955,0.09306207392324477",
        "Im[p]", None,
    ),
}


@pytest.mark.parametrize("name", sorted(OVERCLAIMS))
def test_rows_the_boundary_grid_passed_fail(name, capsys):
    args, failed, note = OVERCLAIMS[name]
    assert main(["certify", "--theorem", "general", *args.split()]) == 1
    out = json.loads(capsys.readouterr().out)
    assert next(c["name"] for c in out["conditions"] if not c["pass"]) == failed
    if note is not None:
        assert note in out["notes"]


def test_narrow_window_is_real():
    # the reference boundary algebra sees the failure where the note puts it
    cls = StarlikeOrder(0.018775003596475714)
    params = HypergeomParams(2.0014586905202103 + 0.1216350319441597j, 0.9407638977265402 + 2.9229487992049545j,
                             3.018908200919177 + 3.0445838311491142j)
    _, D, gap = boundary_gap(cls, params, 2 * np.arctan(1 / np.array([1.3234, 1.2, 1.45])))
    assert gap[0] - D[0] == pytest.approx(1.0e-6, rel=0.05)
    assert np.all(gap[1:] - D[1:] < 0)


@pytest.mark.parametrize("family", [StarlikeOrder, SpirallikeOrder])
def test_coefficients_reproduce_the_boundary_algebra(family):
    # D = (1 + s^2)(d0 - |mu|^2 Im[p] s) for every p, and D - (|B|^2 - |A|^2) is the cubic for real p
    rng = np.random.default_rng(22)
    rows = _mobius_rows(rng, 200, family, complex_share=0.3)
    batch = general_batch(rows)
    im_p, d0, c3 = _values(batch, "Im[p]"), _values(batch, D0), _values(batch, C3)
    L, M, N = (_values(batch, name) for name in "LMN")
    for i in range(len(rows.a)):
        cls = batch.shape_class(i)
        mu2 = abs(mu_of(cls)) ** 2
        s, D, gap = boundary_gap(cls, HypergeomParams(rows.a[i], rows.b[i], rows.c[i]), rng.uniform(0.05, 6.2, 16))
        size = (1 + np.abs(s)) ** 3 * max(1.0, abs(d0[i]), abs(L[i]), abs(M[i]), abs(N[i]))
        assert np.all(np.abs(D - (1 + s * s) * (d0[i] - mu2 * im_p[i] * s)) <= 1e-12 * size)
        if im_p[i] == 0:
            cubic = ((c3[i] * s + L[i]) * s - 2 * M[i]) * s + N[i]
            assert np.all(np.abs(D - gap - cubic) <= 1e-12 * size), i


def test_agrees_with_starlike_order():
    rows = _mobius_rows(np.random.default_rng(23), 1500, StarlikeOrder, complex_share=0.1)
    general, closed = general_batch(rows), certificates.starlike_order_batch(rows)
    kept = np.ones(len(rows.a), dtype=bool)
    kept[list(general.errors.keys() | closed.errors.keys())] = False
    assert np.array_equal(_passed(general)[kept], _passed(closed)[kept])
    assert np.count_nonzero(_passed(general)[kept]) > 300


def test_agrees_with_spirallike_when_c_is_a_plus_b_plus_1():
    rows = _mobius_rows(np.random.default_rng(24), 1500, SpirallikeOrder, c_free=False)
    general, closed = general_batch(rows), certificates.spirallike_batch(rows)
    kept = np.ones(len(rows.a), dtype=bool)
    kept[list(general.errors.keys() | closed.errors.keys())] = False
    assert np.array_equal(_passed(general)[kept], _passed(closed)[kept])
    assert np.count_nonzero(_passed(general)[kept]) > 100


def test_strongly_starlike_rows_get_the_strong_starlike_conditions():
    rng = np.random.default_rng(25)
    n = 300
    a, b = (1 + 0.5 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) for _ in range(2))
    p = rng.choice([0.0, 0.5, -0.5], n) + 1j * np.where(rng.uniform(size=n) < 0.2, 0.05, 0.0)
    rows = Rows(a, b, a + b + 1 - p, rng.uniform(0.2, 0.95, n), family=StronglyStarlike)
    general, closed = general_batch(rows), certificates.strong_starlike_batch(rows)
    assert general.kind == "GeneralMain" and general.errors.keys() == closed.errors.keys()
    for got, want in zip(general.conditions, closed.conditions, strict=True):
        assert (got.name, got.threshold) == (want.name, want.threshold)
        assert got.value.tobytes() == want.value.tobytes() and np.array_equal(got.passed, want.passed)
    assert all(general.notes(i) == closed.notes(i) for i in range(n))
    assert 0 < np.count_nonzero(_passed(general)) < n


def _mp_coefficients(a, b, c, alpha, lam):
    """(Im p, d0, c3, L, M, N) at 30 digits, straight from the boundary algebra:
    d0 = D(0), and the cubic D - (|B|^2 - |A|^2) interpolated at s = 0, 1, -1, 2."""
    with mpmath.workdps(30):
        a, b, c = (mpmath.mpc(complex(x)) for x in (a, b, c))
        lam = mpmath.mpf(float(lam))
        mu = (1 - mpmath.mpf(float(alpha))) * mpmath.expj(lam) * mpmath.cos(lam)
        p = a + b + 1 - c

        def D_and_rest(s):
            w, zqp = mu * mpmath.mpc(-1, s), -mu * (1 + s * s) / 2
            D = -2 * mpmath.re((p * w + a * b) * mpmath.conj(zqp))
            gap = abs((w + a) * (w + b)) ** 2 - abs(w * (w + c - 1)) ** 2
            return D, D - gap

        d0, N = D_and_rest(0)
        p1, m1, p2 = (D_and_rest(s)[1] for s in (1, -1, 2))
        L = (p1 + m1) / 2 - N
        half = (p1 - m1) / 2  # c3 - 2M
        c3 = (p2 - 4 * L - N - 2 * half) / 6
        return p, d0, c3, L, (c3 - half) / 2, N


def test_verdicts_match_30_digit_arithmetic():
    # the same tolerance rules on the same rows, with every number at 30 digits
    rng = np.random.default_rng(26)
    batches = [general_batch(_mobius_rows(rng, 600, family, complex_share=0.1))
               for family in (StarlikeOrder, SpirallikeOrder)]
    checked = near = passes = 0
    for rows_batch in batches:
        a, b, c = rows_batch.params
        passed = _passed(rows_batch)
        for i in range(len(a)):
            cls = rows_batch.shape_class(i)
            p, d0, c3, L, M, N = _mp_coefficients(a[i], b[i], c[i], cls.alpha, lam_of(cls))
            scale = max(1, abs(L), abs(M), abs(N))
            det = L * N - M * M
            real_p = abs(p.imag) <= 1e-12 * (1 + abs(p))
            verdict = (real_p and d0 > 1e-12 and abs(c3) <= 1e-12 * scale
                       and min(L, N) >= -1e-12 * scale and det >= -1e-12 * scale * scale)
            assert verdict == passed[i], (complex(a[i]), complex(b[i]), complex(c[i]), cls)
            # a real-p row whose decision lies within 1e-9 (relative) of its threshold is counted, not
            # dropped: a sign margin near 0, or c3 between the level of c's rounding (1e-14) and 1e-9
            near += real_p and (min(abs(d0), abs(L) / scale, abs(N) / scale, abs(det) / scale**2) <= 1e-9
                                or 1e-14 < abs(c3) / scale <= 1e-9)
            checked += 1
            passes += verdict
    assert checked >= 1000 and passes > 100
    print(f"\n30-digit verdicts matched on {checked} rows ({passes} passing, {near} within 1e-9 of a threshold)")


def _draw_passing(make, family_name, needed=60, rounds=10):
    """The first `needed` passing rows of general over batches drawn by make(); fails if they run short."""
    found = []
    for _ in range(rounds):
        batch = general_batch(make())
        a, b, c = batch.params
        ok = _passed(batch)
        found += [(batch.shape_class(i), HypergeomParams(a[i], b[i], c[i]))
                  for i in range(len(a)) if ok[i] and i not in batch.errors]
        if len(found) >= needed:
            return found[:needed]
    raise AssertionError(f"draw family {family_name} starved: {len(found)} of {needed} passing rows")


def test_general_passes_are_consistent_on_the_sweep_grid():
    rng = np.random.default_rng(27)
    n = 200

    def near_one(scale):
        return 1 + scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))

    def starlike():
        a, b = near_one(0.6), near_one(0.6)
        return Rows(a, b, a + b + 1 - rng.choice([0.0, 0.5, 1.0], n), rng.uniform(0, 0.5, n), family=StarlikeOrder)

    def spirallike():
        lam = rng.uniform(-0.6, 0.6, n)
        a, b = np.exp(0.5j * lam) * near_one(0.3), np.exp(0.5j * lam) * near_one(0.3)
        return Rows(a, b, a + b + 1, rng.uniform(0, 0.4, n), lam, family=SpirallikeOrder)

    def strongly_starlike():
        a, b = near_one(0.2), near_one(0.2)
        return Rows(a, b, a + b + 1 - rng.choice([0.0, 0.5], n), rng.uniform(0.45, 0.9, n), family=StronglyStarlike)

    draws = [row for make in (starlike, spirallike, strongly_starlike) for row in _draw_passing(make, make.__name__)]
    reports = verify_rows([cls for cls, _ in draws], [params for _, params in draws], SWEEP_GRID)
    unsound = [f"UNSOUND: {cls} a={params.a} b={params.b} c={params.c}: {rep.status}, min_slack {rep.min_slack:.3g}"
               for (cls, params), rep in zip(draws, reports) if rep.status != CONSISTENT]
    assert not unsound, "\n".join(unsound)
    assert len(reports) == 180 and min(rep.min_slack for rep in reports) > -1e-9
