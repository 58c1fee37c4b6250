"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single "[acceptance] criterion N: PASS ..." line (visible
with pytest -s); a failure raises before the line is printed.  Criteria with
stated runtime budgets assert them.
"""

import cmath
import json
import math
import time

import numpy as np
from conftest import draw_corpus_point
from reference import (
    ab_gap_direct,
    ab_gap_formula,
    boundary_gap,
    half_plane_bound_check,
    ode_residual,
    quadratic_nonneg_exact,
    quadratic_nonneg_sampled,
)

from hypstar import (
    DiskGridSettings,
    HypergeomParams,
    InvalidParams,
    SpirallikeOrder,
    StarlikeOrder,
    StronglyStarlike,
    certify_cor_a2,
    certify_general,
    certify_spirallike,
    certify_sst_cor_final,
    certify_sst_cor_max,
    certify_sst_cor_p0,
    certify_starlike_order,
    certify_strong_starlike,
    certify_theorem_A,
    gauss_2f1,
    starlike_order_lmn,
    strong_starlike_cubic,
    verify_on_disk,
)
from hypstar.cli import main, parse_scan_spec, run_scan
from hypstar.verifier import CONSISTENT

FULL_GRID = DiskGridSettings(n_radii=40, r_max=0.995, n_angles=720)
SWEEP_GRID = DiskGridSettings(n_radii=12, r_max=0.97, n_angles=120)


def report(n, message):
    print(f"\n[acceptance] criterion {n}: PASS - {message}")


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    rng = np.random.RandomState(1001)

    # squared-modulus identity over 10^4 random quadruples, magnitudes <= 10
    w, a, b, c = (rng.uniform(-10, 10, (4, 10_000)) + 1j * rng.uniform(-10, 10, (4, 10_000)))
    scale = np.maximum.reduce([np.abs(w), np.abs(a), np.abs(b), np.abs(c)])
    residual = np.abs(ab_gap_direct(w, a, b, c) - ab_gap_formula(w, a, b, c))
    assert np.all(residual < 1e-10 * (1 + scale**4))

    # symmetry and ODE residual over 10^3 corpus draws
    worst_sym, worst_ode = 0.0, 0.0
    fd_checked = 0
    h = 1e-6
    for k in range(1000):
        params, z = draw_corpus_point(rng)
        F = gauss_2f1(params, z)
        F_swapped = gauss_2f1(params.swapped(), z)
        sym = abs(F - F_swapped) / (1 + abs(F))
        assert sym <= 1e-12
        ode = abs(ode_residual(params, z)) / (1 + abs(F))
        assert ode < 1e-8
        worst_sym, worst_ode = max(worst_sym, sym), max(worst_ode, ode)
        # derivative vs centered finite differences, step 1e-6
        if k % 2 == 0 and abs(params.a) > 0.2 and abs(params.b) > 0.2:
            exact = params.a * params.b / params.c * gauss_2f1(params.shifted(), z)
            fd = (gauss_2f1(params, z + h) - gauss_2f1(params, z - h)) / (2 * h)
            assert abs(fd - exact) <= 1e-5 * max(abs(exact), 1e-12)
            fd_checked += 1
    assert fd_checked >= 300

    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"identity suite took {elapsed:.1f}s"
    report(1, f"identity residual, symmetry {worst_sym:.2e}, ode {worst_ode:.2e}, "
              f"{fd_checked} FD checks in {elapsed:.1f}s")


def test_criterion_2_reduction_equalities():
    start = time.perf_counter()
    rng = np.random.RandomState(1002)

    for _ in range(100):  # quadratic route
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        p = rng.uniform(-2, 2)
        c = a + b + 1 - p
        alpha = rng.uniform(0, 0.9)
        s = rng.uniform(-10, 10)
        lmn = starlike_order_lmn(a, b, c, alpha)
        lhs = (1 - alpha) ** 2 * (lmn.L * s**2 - 2 * lmn.M * s + lmn.N)
        mu = 1 - alpha
        D = (1 + s**2) * ((a * b).real * mu - p * mu**2)
        rhs = D - ab_gap_formula(mu * (-1 + 1j * s), a, b, c)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))

    for _ in range(100):  # cubic route
        a = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        b = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        p = rng.uniform(-2, 2)
        c = a + b + 1 - p
        alpha = rng.uniform(0.05, 0.95)
        s = 10 ** rng.uniform(-3, 3)
        eps = 1 if rng.uniform() < 0.5 else -1
        cubic = strong_starlike_cubic(a, b, c, alpha)
        x = s**alpha
        lhs = ((cubic.S * x + cubic.T(eps)) * x + cubic.U(eps)) * x + cubic.V
        rhs = ab_gap_formula(cmath.exp(1j * eps * math.pi * alpha / 2) * x - 1, a, b, c)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))

    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"reduction equalities took {elapsed:.1f}s"
    report(2, f"quadratic and cubic boundary routes agree to 1e-8 on 100 draws each in {elapsed:.1f}s")


def test_criterion_3_certified_instance_soundness():
    start = time.perf_counter()

    # complex-parameter instance, order 0
    params1 = HypergeomParams(2, 2 + 5j, 3 + 5j)
    assert certify_starlike_order(params1, 0.0).passed
    rep1 = verify_on_disk(StarlikeOrder(0.0), params1, FULL_GRID)
    assert rep1.status == CONSISTENT and rep1.min_slack > 0

    # real family instance, order 1 - a/2 = 0
    cert2 = certify_cor_a2(2, 1, 2, 0)
    assert cert2.passed
    rep2 = verify_on_disk(cert2.shape_class, cert2.params, FULL_GRID)
    assert rep2.status == CONSISTENT and rep2.min_slack > 0
    assert abs(rep2.min_slack - 1 / (1 + 0.995)) < 1e-3  # q = 1/(1-z) on the grid

    # strongly starlike instance certified by every applicable checker
    params3 = HypergeomParams(1, 1, 3)
    assert certify_strong_starlike(params3, 0.5).passed
    assert certify_sst_cor_p0(1, 1, 0.5).passed
    assert certify_sst_cor_max(1, 1, 0.5).passed
    assert certify_sst_cor_final(1, 1, 0.5).passed
    assert certify_theorem_A(1, 1, 0.5).passed
    rep3 = verify_on_disk(StronglyStarlike(0.5), params3, FULL_GRID)
    assert rep3.status == CONSISTENT and rep3.min_slack > 0
    max_arg = math.pi / 4 - rep3.min_slack
    assert max_arg <= math.pi / 4

    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"certified instances took {elapsed:.1f}s"
    report(3, f"three instances certified and Consistent on the 40x720 grid "
              f"(min slacks {rep1.min_slack:.4f}, {rep2.min_slack:.4f}, {rep3.min_slack:.4f}) in {elapsed:.1f}s")


def _sweep_draws(rng, per_family=60):
    """Parameter draws passing a closed-form certificate, with their class."""
    kept = []

    def until(n, make):
        got, attempts = 0, 0
        while got < n and attempts < 80 * n:
            attempts += 1
            item = make()
            if item is not None:
                kept.append(item)
                got += 1
        assert got == n, "draw family starved"

    def family_starlike():
        a = 1 + 0.6 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = 1 + 0.6 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        p = rng.choice([0.0, 0.5, 1.0])
        alpha = rng.uniform(0, 0.5)
        try:
            params = HypergeomParams(a, b, a + b + 1 - p)
            cert = certify_starlike_order(params, alpha)
        except InvalidParams:
            return None
        return (StarlikeOrder(alpha), params) if cert.passed else None

    def family_cor_a2():
        a = rng.uniform(0.3, 2.0)
        b = rng.uniform(0.5, 2.0)
        c = b + rng.uniform(0, 1.5)
        if b + c < 3:
            return None
        s = rng.uniform(-2, 2)
        cert = certify_cor_a2(a, b, c, s)
        return (cert.shape_class, cert.params) if cert.passed else None

    def family_spirallike():
        lam = rng.uniform(-0.6, 0.6)
        rot = cmath.exp(1j * lam / 2)
        a = rot * (1 + 0.3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        b = rot * (1 + 0.3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        alpha = rng.uniform(0, 0.4)
        try:
            cert = certify_spirallike(a, b, lam, alpha)
        except InvalidParams:
            return None
        return (SpirallikeOrder(lam, alpha), cert.params) if cert.passed else None

    def family_sst():
        a = 1 + 0.2 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = 1 + 0.2 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        alpha = rng.uniform(0.45, 0.9)
        try:
            cert = certify_sst_cor_max(a, b, alpha)
        except InvalidParams:
            return None
        return (StronglyStarlike(alpha), cert.params) if cert.passed else None

    until(per_family, family_starlike)
    until(per_family, family_cor_a2)
    until(per_family, family_spirallike)
    until(per_family, family_sst)
    return kept


def test_criterion_4_random_soundness_sweep():
    start = time.perf_counter()
    rng = np.random.RandomState(1004)
    draws = _sweep_draws(rng, per_family=60)
    assert len(draws) >= 200
    worst = math.inf
    for cls, params in draws:
        rep = verify_on_disk(cls, params, SWEEP_GRID)
        assert rep.status == CONSISTENT, (cls, params, rep.status, rep.min_slack)
        assert rep.min_slack > -1e-9
        worst = min(worst, rep.min_slack)
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"soundness sweep took {elapsed:.1f}s"
    report(4, f"{len(draws)} certified draws all Consistent (worst slack {worst:.3e}) in {elapsed:.1f}s")


def test_criterion_5_coherence_chains():
    rng = np.random.RandomState(1005)

    # monotone strength chain on 500 draws
    n_max = n_p0 = 0
    for i in range(500):
        if i % 2 == 0:
            a = complex(1 + 0.3 * rng.uniform(-1, 1), 0.3 * rng.uniform(-1, 1))
            b = complex(1 + 0.3 * rng.uniform(-1, 1), 0.3 * rng.uniform(-1, 1))
            alpha = rng.uniform(0.35, 0.95)
        else:
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            alpha = rng.uniform(0.05, 0.95)
        if abs(a * b) < 1e-3:
            continue
        try:
            cmax = certify_sst_cor_max(a, b, alpha)
            cp0 = certify_sst_cor_p0(a, b, alpha)
            cthm = certify_strong_starlike(HypergeomParams(a, b, a + b + 1), alpha)
        except InvalidParams:
            continue
        if cmax.passed:
            n_max += 1
            assert cp0.passed, ("cor-max passed but cor-p0 failed", a, b, alpha)
        if cp0.passed:
            n_p0 += 1
            assert cthm.passed, ("cor-p0 passed but the full checker failed", a, b, alpha)
    assert n_max > 30 and n_p0 >= n_max

    # lambda = 0 reduction on 500 draws
    n_agree = n_pass = 0
    for _ in range(500):
        a = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        b = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        alpha = rng.uniform(0, 0.95)
        if abs(a * b) < 1e-3:
            continue
        try:
            c_spiral = certify_spirallike(a, b, 0.0, alpha)
            c_star = certify_starlike_order(HypergeomParams(a, b, a + b + 1), alpha)
        except InvalidParams:
            continue
        assert c_spiral.passed == c_star.passed, (a, b, alpha)
        n_agree += 1
        n_pass += c_star.passed
    assert n_agree > 400 and n_pass > 20

    report(5, f"chain exercised {n_max} cor-max / {n_p0} cor-p0 passes; "
              f"lambda=0 reduction agreed on {n_agree} draws ({n_pass} passing)")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.RandomState(1006)

    L, M, N = rng.uniform(-10, 10, (10_000, 3)).T
    # the same draws as 10^4 draws of one triple each, and the generator left
    # where those leave it, so the half-plane draws below are the same too
    one_by_one = np.random.RandomState(1006)
    assert np.array_equal(np.column_stack([L, M, N]), [one_by_one.uniform(-10, 10, 3) for _ in range(10_000)])
    assert all(np.array_equal(x, y) for x, y in zip(rng.get_state(), one_by_one.get_state()))
    differ = quadratic_nonneg_exact(L, M, N) != quadratic_nonneg_sampled(L, M, N)
    for k in np.flatnonzero(differ):
        assert min(abs(L[k]), abs(N[k]), abs(L[k] * N[k] - M[k] * M[k])) < 1e-7, (L[k], M[k], N[k])
    disagreements = int(np.count_nonzero(differ))
    # the boundary set has measure zero; uniform draws should almost never hit it
    assert disagreements <= 5

    s = np.logspace(-6, 6, 1000)
    n_checked = 0
    for _ in range(1000):
        A, B, C = rng.uniform(-5, 5, 3)
        K = rng.uniform(0.1, 5)
        alpha = rng.uniform(0.05, 0.95)
        if half_plane_bound_check(A, B, C, K, alpha):
            n_checked += 1
            lhs = A * s**alpha + B + C * s ** (-alpha)
            rhs = K * (s + 1 / s)
            assert np.all(lhs <= rhs + 1e-9 * (1 + np.abs(rhs))), (A, B, C, K, alpha)
    assert n_checked > 50

    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"oracle equivalence took {elapsed:.1f}s"
    report(6, f"quadratic oracles agreed on 10^4 draws ({disagreements} boundary cases); "
              f"power-sum implication held on {n_checked} passing draws")


def test_criterion_7_structural_obstruction():
    cls, params = SpirallikeOrder(0.3, 0.0), HypergeomParams(1, 1, 2.5)
    cert = certify_general(cls, params)
    assert not cert.passed and cert.failed_condition() == "s^3 coefficient"
    (note,) = [n for n in cert.notes if "structural obstruction" in n]
    side = -1 if "s -> -infinity" in note else 1
    assert f"s -> {'-' if side < 0 else '+'}infinity" in note
    # the boundary algebra fails far out on the named side and holds there on the other
    theta = 2 * np.arctan(1 / np.array([side * 1e4, -side * 1e4])) % (2 * math.pi)
    s, D, gap = boundary_gap(cls, params, theta)
    excess = gap - D
    assert excess[0] > 0 > excess[1], (s, excess)
    report(7, f"spirallike check fails on its s^3 term as s -> {side:+d} infinity "
              f"(excess {excess[0]:.3g} at s = {s[0]:.3g})")


def test_criterion_8_scan_determinism(tmp_path):
    spec = {
        "varying": [
            {"symbol": "b_re", "from": 0.5, "to": 3.0, "steps": 26},
            {"symbol": "c_re", "from": 1.0, "to": 4.0, "steps": 31},
        ],
        "fixed": {"a_re": 2.0},
        "class": {"kind": "starlike", "alpha": 0.0},
        "certificate": "starlike-order",
        "verify": False,
    }
    spec_path = tmp_path / "region.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for run in range(3):
        out = tmp_path / f"out{run}.csv"
        code = main(["scan", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    # same spec again in-process, byte-identical once more
    summary = run_scan(parse_scan_spec(spec), str(tmp_path / "again.csv"), threads=3)
    assert (tmp_path / "again.csv").read_bytes() == outputs[0]
    assert summary["points"] == 806
    report(8, f"scan of {summary['points']} points byte-identical across four runs")
