"""Closed-form checker tests: hand-evaluated instances, route equalities
against the boundary algebra, coherence chains, and the grid checker."""

import cmath
import json
import math

import numpy as np
import pytest
from conftest import draw_params

from hypstar import (
    HypergeomParams,
    InvalidParams,
    PrecondFailed,
    SpirallikeOrder,
    StarlikeOrder,
    StronglyStarlike,
    ab_gap_formula,
    certificates,
    certify_convexity,
    certify_cor_a2,
    certify_general,
    certify_spirallike,
    certify_spirallike_cor1,
    certify_spirallike_cor2,
    certify_sst_cor_final,
    certify_sst_cor_max,
    certify_sst_cor_p0,
    certify_starlike_order,
    certify_strong_starlike,
    certify_theorem_A,
    spirallike_lmn,
    starlike_order_lmn,
    strong_starlike_cubic,
)


def cond_value(cert, name):
    for c in cert.conditions:
        if c.name == name:
            return c.value
    raise KeyError(name)


class TestStarlikeOrder:
    def test_complex_instance(self):
        cert = certify_starlike_order(HypergeomParams(2, 2 + 5j, 3 + 5j), 0.0)
        assert cert.passed
        assert cond_value(cert, "L") == pytest.approx(2.0)
        assert cond_value(cert, "M") == pytest.approx(0.0, abs=1e-12)
        assert cond_value(cert, "N") == pytest.approx(2.0)
        assert cond_value(cert, "L*N - M^2") == pytest.approx(4.0)

    def test_real_instance(self):
        cert = certify_starlike_order(HypergeomParams(1, 1, 3), 0.0)
        assert cert.passed
        assert cond_value(cert, "L") == pytest.approx(3.0)
        assert cond_value(cert, "N") == pytest.approx(2.0)

    def test_boundary_fails_with_note(self):
        cert = certify_starlike_order(HypergeomParams(2, 1, 2), 0.0)
        assert not cert.passed
        assert cert.failed_condition() == "Re[ab] - p(1-alpha)"
        assert any("CorA2" in n for n in cert.notes)

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            certify_starlike_order(HypergeomParams(0, 1, 2), 0.0)
        with pytest.raises(InvalidParams):
            certify_starlike_order(HypergeomParams(1, 1, 2), 1.0)

    def test_imaginary_p_fails(self):
        cert = certify_starlike_order(HypergeomParams(1 + 2j, 1 - 1j, 2), 0.0)
        assert not cert.passed and cert.failed_condition() == "Im[p]"


class TestCorA2:
    def test_koebe_member(self):
        cert = certify_cor_a2(2, 1, 2, 0)
        assert cert.passed
        assert cert.shape_class == StarlikeOrder(0.0)

    def test_shifted_member(self):
        cert = certify_cor_a2(2, 2, 3, 5)
        assert cert.passed
        assert cert.params.b == 2 + 5j and cert.params.c == 3 + 5j

    def test_a_too_large(self):
        cert = certify_cor_a2(2.5, 2, 3, 0)
        assert not cert.passed and cert.failed_condition() == "a"

    def test_edge_sum_accepted(self):
        cert = certify_cor_a2(1, 1, 2, 0)
        assert cert.passed
        assert any("b + c = 3" in n for n in cert.notes)
        assert cert.shape_class == StarlikeOrder(0.5)

    def test_order_note_only_on_passed_certificates(self):
        assert "certified order 1 - a/2 = 0.5" in certify_cor_a2(1, 1, 2, 0).notes
        # fails every condition; 1 - a/2 = 1.894... is no starlike order
        cert = certify_cor_a2(-1.788555314823298, 2.095417941686607, 0.09946916474998035, -0.007775780331008342)
        assert not cert.passed
        assert not any("certified order" in n for n in cert.notes)
        # a within the tolerance above 2 passes, but 1 - a/2 < 0 is no order either
        edge = certify_cor_a2(2 + 1e-13, 1, 2, 0)
        assert edge.passed and not any("certified order" in n for n in edge.notes)


class TestSpirallike:
    def test_reduces_to_starlike_values(self):
        cert = certify_spirallike(1, 1, 0.0, 0.0)
        assert cert.passed
        assert cond_value(cert, "L") == pytest.approx(3.0)
        assert cond_value(cert, "N") == pytest.approx(2.0)

    def test_rotated_instance(self):
        cert = certify_spirallike(1, 1, math.pi / 4, 0.0)
        assert cert.passed
        assert cond_value(cert, "L") == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
        assert cond_value(cert, "M") == pytest.approx(0.0, abs=1e-12)
        assert cond_value(cert, "N") == pytest.approx(2.5 * math.sqrt(2) - math.sqrt(2), rel=1e-12)

    def test_necessity_note(self):
        cert = certify_spirallike(1, -1, 0.0, 0.0)
        assert not cert.passed
        assert cert.failed_condition() == "Re[e^{-i lam} ab]"
        assert any("necessary" in n for n in cert.notes)

    def test_pins_c(self):
        cert = certify_spirallike(1 + 1j, 2, 0.3, 0.1)
        assert cert.params.c == (1 + 1j) + 2 + 1


class TestSpirallikeCorollaries:
    def test_cor1_rotated_pair(self):
        lam = math.pi / 6
        a = b = cmath.exp(1j * lam / 2)
        cert = certify_spirallike_cor1(a, b, lam, 0.0)
        assert cert.passed
        # must agree with the general spirallike checker here
        assert certify_spirallike(a, b, lam, 0.0).passed

    def test_cor1_rejects_zero_angle(self):
        with pytest.raises(PrecondFailed):
            certify_spirallike_cor1(1, 1, 0.0, 0.0)

    def test_cor1_rejects_nonreal_m(self):
        with pytest.raises(PrecondFailed):
            certify_spirallike_cor1(1j, 1, math.pi / 2 - 0.1, 0.0)

    def test_cor2_instance(self):
        cert = certify_spirallike_cor2(1, 1, math.pi / 6, 0.0)
        assert cert.passed == certify_spirallike(1, 1, math.pi / 6, 0.0).passed

    def test_cor2_angle_window(self):
        with pytest.raises(PrecondFailed):
            certify_spirallike_cor2(1, 1, math.pi / 2 - 1e-3, 0.0)

    def test_cor2_half_order_lower_bound_vanishes(self):
        # at alpha = 1/2 the lower bound on cos^2 is 0
        cert = certify_spirallike_cor2(1, 1, 1.2, 0.5)
        assert isinstance(cert.passed, bool)


class TestStrongStarlike:
    def test_hand_instance(self):
        cert = certify_strong_starlike(HypergeomParams(1, 1, 3), 0.5)
        assert cert.passed
        cubic = strong_starlike_cubic(1, 1, 3, 0.5)
        assert cubic.S == 0
        assert cubic.T_plus == pytest.approx(0.0, abs=1e-12)
        assert cubic.U_plus == pytest.approx(0.0, abs=1e-12)
        assert cubic.V == pytest.approx(-1.0)

    def test_small_order_decided_by_minimizer(self):
        cert = certify_strong_starlike(HypergeomParams(1, 1, 3), 0.05)
        assert not cert.passed
        assert cert.failed_condition().startswith("min residual")
        assert any("min residual" in n for n in cert.notes)

    def test_imaginary_p(self):
        cert = certify_strong_starlike(HypergeomParams(1 + 2j, 1 - 1j, 2), 0.5)
        assert not cert.passed and cert.failed_condition() == "Im[p]"

    def test_positive_p_large_alpha_diverges(self):
        # p > 0 and alpha > 1/2 make the cubic outgrow the right side
        cert = certify_strong_starlike(HypergeomParams(3, 3, 1), 0.8)
        tail_plus = cond_value(cert, "tail coefficient (eps=+1)")
        assert tail_plus < 0 and not cert.passed


class TestSstCorollaries:
    def test_p0_matches_full_checker(self):
        c1 = certify_sst_cor_p0(1, 1, 0.5)
        c2 = certify_strong_starlike(HypergeomParams(1, 1, 3), 0.5)
        assert c1.passed and c2.passed
        m1 = cond_value(c1, "min residual (eps=+1)")
        m2 = cond_value(c2, "min residual (eps=+1)")
        assert m1 == pytest.approx(m2, rel=1e-9)

    def test_p0_agreement_random(self):
        rng = np.random.RandomState(3)
        for _ in range(40):
            a = complex(rng.uniform(0.3, 2.5), rng.uniform(-0.8, 0.8))
            b = complex(rng.uniform(0.3, 2.5), -a.imag)
            alpha = rng.uniform(0.1, 0.9)
            c1 = certify_sst_cor_p0(a, b, alpha)
            c2 = certify_strong_starlike(HypergeomParams(a, b, a + b + 1), alpha)
            assert c1.passed == c2.passed

    def test_cor_max_hand(self):
        assert certify_sst_cor_max(1, 1, 0.5).passed
        cert = certify_sst_cor_max(1, 1, 0.01)
        assert not cert.passed  # closed form strictly stronger than the minimizer route

    def test_cor_max_sector(self):
        cert = certify_sst_cor_max(1, -1, 0.5)
        assert not cert.passed and cert.failed_condition().startswith("pi*alpha/2")

    def test_cor_final_hand(self):
        assert certify_sst_cor_final(1, 1, 0.5).passed
        cert = certify_sst_cor_final(3, 3, 0.5)
        assert not cert.passed and cert.failed_condition() == "a + b"

    def test_cor_final_zero_product(self):
        cert = certify_sst_cor_final(2, 2, 0.7)
        assert cond_value(cert, "(a-2)(b-2)") == 0
        assert cert.conditions[0].passed

    def test_cor_final_precond(self):
        with pytest.raises(PrecondFailed):
            certify_sst_cor_final(1 + 1j, 2, 0.5)
        with pytest.raises(PrecondFailed):
            certify_sst_cor_final(-1, 1, 0.5)

    @pytest.mark.parametrize("certify", [certify_sst_cor_final, certify_theorem_A])
    def test_near_real_pair_matches_exact_reals(self, certify):
        # a + b and ab pass the relative realness rule, so the derived combinations are real too
        near = certify(complex(2, 1.9e-12), complex(100, -1.9e-12), 0.5)
        exact = certify(2, 100, 0.5)
        assert near.to_json()["conditions"] == exact.to_json()["conditions"]
        assert near.passed == exact.passed

    def test_theorem_a_hand(self):
        assert certify_theorem_A(1, 1, 0.5).passed
        assert not certify_theorem_A(1, 1, 1 / 3 + 1e-9).passed

    def test_theorem_a_alpha_window(self):
        with pytest.raises(PrecondFailed):
            certify_theorem_A(1, 1, 0.3)

    def test_theorem_a_conjugate_pair(self):
        # complex conjugates with positive product satisfy the preconditions
        a = 1 + 0.4j
        cert = certify_theorem_A(a, a.conjugate(), 0.6)
        assert isinstance(cert.passed, bool)


class TestCoherence:
    def test_monotone_chain(self):
        rng = np.random.RandomState(23)
        stronger = 0
        for i in range(200):
            if i % 2 == 0:
                a = complex(1 + 0.25 * rng.uniform(-1, 1), 0.25 * rng.uniform(-1, 1))
                b = complex(1 + 0.25 * rng.uniform(-1, 1), 0.25 * rng.uniform(-1, 1))
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
                stronger += 1
                assert cp0.passed, (a, b, alpha)
            if cp0.passed:
                assert cthm.passed, (a, b, alpha)
        assert stronger > 10  # the chain test must actually exercise passes

    def test_lambda_zero_reduction(self):
        rng = np.random.RandomState(29)
        agreements = 0
        for _ in range(200):
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
            agreements += 1
        assert agreements > 150


class TestRouteEqualities:
    def test_quadratic_route(self):
        # (1-alpha)^2 (L s^2 - 2 M s + N) against the direct boundary algebra
        rng = np.random.RandomState(31)
        for _ in range(100):
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            p = rng.uniform(-2, 2)
            c = a + b + 1 - p
            alpha = rng.uniform(0, 0.9)
            spt = rng.uniform(-10, 10)
            try:
                params = HypergeomParams(a, b, c)
            except Exception:
                continue
            lmn = starlike_order_lmn(a, b, c, alpha)
            lhs = (1 - alpha) ** 2 * (lmn.L * spt**2 - 2 * lmn.M * spt + lmn.N)
            mu = 1 - alpha
            w = mu * (-1 + 1j * spt)
            D = (1 + spt**2) * ((a * b).real * mu - p * mu**2)
            rhs = D - ab_gap_formula(w, a, b, c)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))

    def test_cubic_route(self):
        # G_eps(s^alpha) against the direct boundary algebra
        rng = np.random.RandomState(37)
        for _ in range(100):
            a = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            b = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            p = rng.uniform(-2, 2)
            c = a + b + 1 - p
            alpha = rng.uniform(0.05, 0.95)
            spt = 10 ** rng.uniform(-3, 3)
            eps = 1 if rng.uniform() < 0.5 else -1
            try:
                HypergeomParams(a, b, c)
            except Exception:
                continue
            cubic = strong_starlike_cubic(a, b, c, alpha)
            x = spt**alpha
            lhs = ((cubic.S * x + cubic.T(eps)) * x + cubic.U(eps)) * x + cubic.V
            w = cmath.exp(1j * eps * math.pi * alpha / 2) * x - 1
            rhs = ab_gap_formula(w, a, b, c)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))

    def test_spirallike_lmn_scaling(self):
        # both quadratic conventions describe the same sign structure at lam=0
        rng = np.random.RandomState(41)
        for _ in range(50):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            alpha = rng.uniform(0, 0.9)
            l34 = spirallike_lmn(a, b, 0.0, alpha)
            l32 = starlike_order_lmn(a, b, a + b + 1, alpha)
            scale = 1 - alpha
            assert l32.L * scale == pytest.approx(l34.L, rel=1e-9, abs=1e-9)
            assert l32.M * scale == pytest.approx(l34.M, rel=1e-9, abs=1e-9)
            assert l32.N * scale == pytest.approx(l34.N, rel=1e-9, abs=1e-9)


class TestGeneralChecker:
    def test_agrees_with_starlike(self):
        cert = certify_general(StarlikeOrder(0.0), HypergeomParams(1, 1, 3))
        assert cert.passed == certify_starlike_order(HypergeomParams(1, 1, 3), 0.0).passed
        assert any("grid-consistent" in n for n in cert.notes)

    def test_agrees_with_strong_starlike(self):
        cert = certify_general(StronglyStarlike(0.5), HypergeomParams(1, 1, 3))
        assert cert.passed

    def test_structural_obstruction(self):
        cert = certify_general(SpirallikeOrder(0.3, 0.0), HypergeomParams(1, 1, 2.5))
        assert not cert.passed
        assert any("structural obstruction" in n for n in cert.notes)
        # the failure must occur at a large |s| grid point
        note = next(n for n in cert.notes if "worst excess" in n)
        s_val = float(note.split("s = ")[1])
        assert abs(s_val) > 1e3

    def test_strict_vs_relaxed(self):
        params = HypergeomParams(1, 1, 3)
        strict = certify_general(StarlikeOrder(0.0), params, relaxed=False)
        relaxed = certify_general(StarlikeOrder(0.0), params, relaxed=True)
        assert strict.passed and relaxed.passed

    def test_never_passes_when_closed_form_strictly_fails(self):
        rng = np.random.RandomState(43)
        checked = 0
        for _ in range(40):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            p = rng.choice([0.0, 0.5, 1.0])
            alpha = rng.uniform(0, 0.8)
            try:
                params = HypergeomParams(a, b, a + b + 1 - p)
                closed = certify_starlike_order(params, alpha)
            except InvalidParams:
                continue
            # look for conclusive strict failures of the quadratic conditions
            bad = [c for c in closed.conditions if not c.passed and isinstance(c.value, float) and c.value < -1e-6]
            if not closed.passed and bad:
                checked += 1
                grid = certify_general(StarlikeOrder(alpha), params)
                assert not grid.passed
        assert checked > 3


class TestConvexity:
    def test_rejects_zero_product(self):
        with pytest.raises(InvalidParams):
            certify_convexity(StarlikeOrder(0.0), HypergeomParams(0, 0, 2))

    def test_delegates_shifted(self):
        cert = certify_convexity(StarlikeOrder(0.0), HypergeomParams(1, 1, 2))
        inner = certify_starlike_order(HypergeomParams(2, 2, 3), 0.0)
        assert cert.passed == inner.passed
        assert cert.params.a == 2 and cert.params.c == 3
        assert cert.kind == "ConvexityWrapper"

    def test_always_matches_delegate(self):
        rng = np.random.RandomState(47)
        for _ in range(30):
            a = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
            c = a + b + 1 - rng.choice([0.0, 1.0])
            alpha = rng.uniform(0, 0.8)
            try:
                params = HypergeomParams(a, b, c)
            except Exception:
                continue
            cert = certify_convexity(StarlikeOrder(alpha), params)
            inner = certify_starlike_order(params.shifted(), alpha)
            assert cert.passed == inner.passed

    def test_spirallike_needs_matching_c(self):
        with pytest.raises(InvalidParams):
            certify_convexity(SpirallikeOrder(0.2, 0.0), HypergeomParams(1, 1, 2))
        cert = certify_convexity(SpirallikeOrder(0.2, 0.0), HypergeomParams(1, 1, 4))
        assert isinstance(cert.passed, bool)


class TestSerialization:
    def test_json_shape(self):
        cert = certify_starlike_order(HypergeomParams(2, 2 + 5j, 3 + 5j), 0.0)
        data = json.loads(json.dumps(cert.to_json()))
        assert data["kind"] == "StarlikeOrderThm"
        assert data["passed"] is True
        assert data["params"]["b"] == [2.0, 5.0]
        assert data["class"] == {"kind": "starlike-order", "alpha": 0.0}
        assert {"name", "value", "threshold", "pass"} <= set(data["conditions"][0])
        assert float(next(c["value"] for c in data["conditions"] if c["name"] == "L")) == 2.0
        assert isinstance(data["notes"], list)

    def test_conditions_never_empty_and_consistent(self):
        rng = np.random.RandomState(53)
        for _ in range(20):
            params = draw_params(rng, radius=3)
            try:
                cert = certify_starlike_order(params, 0.3)
            except InvalidParams:
                continue
            assert cert.conditions
            assert cert.passed == all(c.passed for c in cert.conditions)


ROT = cmath.exp(1j * math.pi / 12)
# (batch over rows, scalar checker of one row, rows); orders and angles differ
# from row to row, so a row read from another row's thresholds, notes or class fails
BATCH_ROWS = {
    "cor-a2": (certificates.cor_a2_batch, certify_cor_a2, [(2, 1, 2, 0.0), (1, 1, 2, 0.5), (1.5, 1.2, 2, 0.25)]),
    "spirallike-cor1": (
        certificates.spirallike_cor1_batch, certify_spirallike_cor1,
        [(ROT, ROT, math.pi / 6, 0.1), (1.5 * ROT, ROT, math.pi / 6, 0.3)],
    ),
    "spirallike-cor2": (
        certificates.spirallike_cor2_batch, certify_spirallike_cor2, [(1, 1.5, 0.5, 0.1), (1.2, 0.8, 0.3, 0.4)],
    ),
    "sst-cor-final": (certificates.sst_cor_final_batch, certify_sst_cor_final, [(1, 1, 0.5), (1.5, 0.8, 0.7)]),
    "theorem-a": (certificates.theorem_a_batch, certify_theorem_A, [(1, 1.2, 0.6), (1.2, 0.9, 0.8)]),
    "general": (
        lambda alpha, lam, a, b, c: certificates.general_batch(
            SpirallikeOrder, alpha, lam, a, b, c, certificates.BoundaryGridSettings(n_points=64)
        ),
        lambda alpha, lam, a, b, c: certify_general(
            SpirallikeOrder(lam, alpha), HypergeomParams(a, b, c), certificates.BoundaryGridSettings(n_points=64)
        ),
        [(0.1, 0.3, 1, 1, 2.5), (0.2, -0.2, 1, 1, 3)],
    ),
    "convexity": (
        lambda alpha, a, b, c: certificates.convexity_batch(StarlikeOrder, alpha, 0.0, a, b, c),
        lambda alpha, a, b, c: certify_convexity(StarlikeOrder(alpha), HypergeomParams(a, b, c)),
        [(0.0, 1, 1, 2), (0.2, 1.1, 0.9, 2.5)],
    ),
}


@pytest.mark.parametrize("kind", sorted(BATCH_ROWS))
def test_batch_rows_are_the_scalar_certificates(kind):
    batch, scalar, rows = BATCH_ROWS[kind]
    checked = batch(*(np.array(column) for column in zip(*rows)))
    for i, row in enumerate(rows):
        assert checked.certificate(i).to_json() == scalar(*row).to_json(), (kind, row)


def _minimizer_rows(batch) -> list[tuple]:
    """Per row: the min residual values as bits, the notes (argmins to 6 digits), passed and refusal."""
    mins = [cond.value for cond in batch.conditions if cond.name.startswith("min residual")]
    passed = batch.failed_conditions()[0] == 0
    return [
        (tuple(m[i].tobytes() for m in mins), tuple(batch.notes(i)), bool(passed[i]), str(batch.errors.get(i)))
        for i in range(len(passed))
    ]


def test_strong_starlike_row_does_not_depend_on_its_neighbours():
    # the minimizer scans many rows in runs of log points whose width shrinks as
    # rows are added (2000 points per call for one row, 163 for 400, 65 for
    # 1000), then refines all rows in one lockstep pass
    rng = np.random.RandomState(11)
    n = 400
    a = rng.uniform(0.5, 2, n) + 1j * rng.uniform(-0.3, 0.3, n)
    b = rng.uniform(0.5, 2, n)
    c = rng.uniform(2, 4, n) + 1j * a.imag
    alpha = rng.uniform(0.2, 0.9, n)
    alpha[::37] = 1.5  # refused rows among the others
    chunk = _minimizer_rows(certificates.strong_starlike_batch(a, b, c, alpha))
    assert {row[2] for row in chunk} == {True, False}
    assert sum(row[3] != "None" for row in chunk) == len(alpha[::37])
    wide = certificates.strong_starlike_batch(*(np.roll(np.tile(x, 3)[:1000], 600) for x in (a, b, c, alpha)))
    assert _minimizer_rows(wide)[600:1000] == chunk
    split = []
    for start, stop in ((0, 65), (65, 66), (66, 197), (197, 400)):
        split += _minimizer_rows(certificates.strong_starlike_batch(a[start:stop], b[start:stop], c[start:stop],
                                                                   alpha[start:stop]))
    assert split == chunk
    for i in range(0, n, 9):
        assert _minimizer_rows(certificates.strong_starlike_batch(a[i], b[i], c[i], alpha[i]))[0] == chunk[i]
