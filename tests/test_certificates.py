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
    oracles,
    spirallike_lmn,
    starlike_order_lmn,
    strong_starlike_cubic,
)
from hypstar.certificates import Rows
from hypstar.oracles import DEFAULT_LINE_SEARCH, minimize_on_positive_line


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

    def test_endpoint_verdict_fails_a_minimum_above_the_margin(self):
        # the scanned minimum is positive, at the scan's first point, but the
        # residual falls to -infinity as s -> 0+, so the condition fails; the
        # sector condition fails too, so the certificate is not decided here
        a = -1.0053869822541126 - 0.9077501863410804j
        b = 2.00022321371058 - 0.6911262624234751j
        c = 4.371442828926712 - 1.5988764487645555j
        cert = certify_strong_starlike(HypergeomParams(a, b, c), 0.9284706840119258)
        (minimum,) = [x for x in cert.conditions if x.name == "min residual (eps=+1)"]
        (tail,) = [x for x in cert.conditions if x.name == "tail coefficient (eps=+1)"]
        assert minimum.value == pytest.approx(0.551721746513351, rel=1e-9)
        assert minimum.value > DEFAULT_LINE_SEARCH.min_margin and not minimum.passed
        assert "eps=+1: min residual 0.551722 at s = 1e-08" in cert.notes
        assert tail.passed

    @pytest.mark.parametrize("gap, margin, conclusive", [(1e-3, 1e-9, True), (0.0, 1e-9, False), (1e-3, 1e-2, False)])
    def test_inconclusive_band_around_zero(self, gap, margin, conclusive):
        # residual (s^1.5 + s^-0.5)/2 - V, least at s = 3^-0.5, where it is (2/3) 3^0.25 - V
        V = 2 / 3 * 3**0.25 - gap
        line_search = oracles.LineSearchSettings(min_margin=margin)
        conditions, notes = certificates._line_minima(np.array([0.5]), 0.0, [(1.0, 0.0, 0.0, V)] * 2, line_search)
        (minimum,) = [x for x in conditions if x.name == "min residual (eps=+1)"]
        assert minimum.value[0] == pytest.approx(gap, abs=1e-12)
        assert minimum.passed[0] == conclusive
        assert ("inconclusive" in notes(0)[0]) != conclusive


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

    def test_refuses_non_finite_rows(self):
        # a NaN c used to raise ValueError from inside the batch, ending a scan
        batch = certificates.general_batch(Rows([math.inf, 1, 1], 1, [3, 3, math.nan], family=StarlikeOrder))
        assert {i: str(e) for i, e in batch.errors.items()} == {
            0: "a must be finite, got (inf+0j)", 2: "c must be finite, got (nan+0j)"}
        assert all(isinstance(e, InvalidParams) for e in batch.errors.values())
        assert batch.certificate(1).passed

    @pytest.mark.parametrize("check", [certificates.general_batch, certificates.convexity_batch])
    def test_class_kinds_refuse_rows_without_a_family(self, check):
        with pytest.raises(InvalidParams, match="class family"):
            check(Rows(1, 1, 3))


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
    "cor-a2": (
        lambda a, b, c, s: certificates.cor_a2_batch(Rows(a, b, c, s=s)), certify_cor_a2,
        [(2, 1, 2, 0.0), (1, 1, 2, 0.5), (1.5, 1.2, 2, 0.25)],
    ),
    "spirallike-cor1": (
        lambda a, b, lam, alpha: certificates.spirallike_cor1_batch(Rows(a, b, alpha=alpha, lam=lam)),
        certify_spirallike_cor1, [(ROT, ROT, math.pi / 6, 0.1), (1.5 * ROT, ROT, math.pi / 6, 0.3)],
    ),
    "spirallike-cor2": (
        lambda a, b, lam, alpha: certificates.spirallike_cor2_batch(Rows(a, b, alpha=alpha, lam=lam)),
        certify_spirallike_cor2, [(1, 1.5, 0.5, 0.1), (1.2, 0.8, 0.3, 0.4)],
    ),
    "sst-cor-final": (
        lambda a, b, alpha: certificates.sst_cor_final_batch(Rows(a, b, alpha=alpha)), certify_sst_cor_final,
        [(1, 1, 0.5), (1.5, 0.8, 0.7)],
    ),
    "theorem-a": (
        lambda a, b, alpha: certificates.theorem_a_batch(Rows(a, b, alpha=alpha)), certify_theorem_A,
        [(1, 1.2, 0.6), (1.2, 0.9, 0.8)],
    ),
    "general": (
        lambda alpha, lam, a, b, c: certificates.general_batch(Rows(
            a, b, c, alpha, lam, family=SpirallikeOrder, boundary=certificates.BoundaryGridSettings(n_points=64)
        )),
        lambda alpha, lam, a, b, c: certify_general(
            SpirallikeOrder(lam, alpha), HypergeomParams(a, b, c), certificates.BoundaryGridSettings(n_points=64)
        ),
        [(0.1, 0.3, 1, 1, 2.5), (0.2, -0.2, 1, 1, 3)],
    ),
    "convexity": (
        lambda alpha, a, b, c: certificates.convexity_batch(Rows(a, b, c, alpha, family=StarlikeOrder)),
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
    # rows are added (1998 points per call for one row, 81 for 400, 32 for
    # 1000), then refines all rows in one lockstep pass
    rng = np.random.RandomState(11)
    n = 400
    a = rng.uniform(0.5, 2, n) + 1j * rng.uniform(-0.3, 0.3, n)
    b = rng.uniform(0.5, 2, n)
    c = rng.uniform(2, 4, n) + 1j * a.imag
    alpha = rng.uniform(0.2, 0.9, n)
    alpha[::37] = 1.5  # refused rows among the others
    chunk = _minimizer_rows(certificates.strong_starlike_batch(Rows(a, b, c, alpha)))
    assert {row[2] for row in chunk} == {True, False}
    assert sum(row[3] != "None" for row in chunk) == len(alpha[::37])
    wide = certificates.strong_starlike_batch(Rows(*(np.roll(np.tile(x, 3)[:1000], 600) for x in (a, b, c, alpha))))
    assert _minimizer_rows(wide)[600:1000] == chunk
    split = []
    for start, stop in ((0, 65), (65, 66), (66, 197), (197, 400)):
        split += _minimizer_rows(certificates.strong_starlike_batch(Rows(*(x[start:stop] for x in (a, b, c, alpha)))))
    assert split == chunk
    for i in range(0, n, 9):
        assert _minimizer_rows(certificates.strong_starlike_batch(Rows(a[i], b[i], c[i], alpha[i])))[0] == chunk[i]


def _reference_cubic_residual(alpha, K, S, T, U, V):
    """The allocating residual, with one column of coefficients per row."""

    def residual(s):
        x = s**alpha
        return alpha * (s + 1 / s) * x * K - (((S * x + T) * x + U) * x + V)

    return residual


def _cubic_rows(alpha):
    rng = np.random.RandomState(5)
    n = len(alpha)
    K, S, T, U, V = rng.uniform(-3, 3, (5, n))
    K[::7] = 1e308  # overflows to inf, and inf - inf is NaN
    for coef in (S, T, U, V):
        coef[alpha == 0] = 0.0  # the residual is then a signed zero at alpha = -0.0 and +0.0
    return [np.asarray(alpha, dtype=float), K, S, T, U, V]


CUBIC_ALPHAS = {
    "repeated": np.repeat([0.3, 0.5, 0.0, -0.0, np.nan, 0.5, 0.9, 0.3], 5),
    "one": np.full(40, 0.25),
    "distinct": np.random.RandomState(6).uniform(0.05, 0.95, 40),
}


@pytest.mark.parametrize("alphas", sorted(CUBIC_ALPHAS))
@np.errstate(all="ignore")
def test_cubic_residual_matches_the_allocating_one(alphas):
    rows = _cubic_rows(CUBIC_ALPHAS[alphas])
    kept = [r.copy() for r in rows]
    residual = certificates._cubic_residual(*rows)
    reference = _reference_cubic_residual(*(r[:, None] for r in rows))
    s = np.logspace(-8, 8, 2000)
    shared = [s[:2], s[2:165], s[1900:], s[5:6]]
    per_row = [np.exp(np.random.RandomState(7).uniform(-18, 18, (len(rows[0]), 3))), np.ones((len(rows[0]), 1))]
    points = shared + per_row
    kept_points = [p.copy() for p in points]
    results = [residual(p) for p in points]
    # earlier results stay intact after later calls, and no input is written
    for p, got in zip(points, results):
        assert got.tobytes() == reference(p).tobytes()
    assert [r.tobytes() for r in rows] == [k.tobytes() for k in kept]
    assert [p.tobytes() for p in points] == [k.tobytes() for k in kept_points]


@pytest.mark.parametrize("block", [1 << 17, 80])
@pytest.mark.parametrize("alphas", sorted(CUBIC_ALPHAS))
@np.errstate(all="ignore")
def test_minimizer_on_cubic_rows_matches_the_allocating_residual(monkeypatch, alphas, block):
    # 80 values per call leave 2 points per run for 40 rows
    monkeypatch.setattr(oracles, "_SCAN_BLOCK_VALUES", block)
    rows = _cubic_rows(CUBIC_ALPHAS[alphas])
    got = minimize_on_positive_line(certificates._cubic_residual(*rows), DEFAULT_LINE_SEARCH)
    want = minimize_on_positive_line(_reference_cubic_residual(*(r[:, None] for r in rows)), DEFAULT_LINE_SEARCH)
    finite = np.isfinite(want.min_value)
    assert 0 < finite.sum() < len(finite)
    assert got.min_value.tobytes() == want.min_value.tobytes()
    assert got.argmin_s[finite].tobytes() == want.argmin_s[finite].tobytes()


def _minimized_rows(monkeypatch) -> list[int]:
    """Rows of each minimizer call made from now on, through the name the checkers call."""
    rows = []
    original = certificates.minimize_on_positive_line

    def counted(residual, *args, **kwargs):
        result = original(residual, *args, **kwargs)
        rows.append(len(result.min_value))
        return result

    monkeypatch.setattr(certificates, "minimize_on_positive_line", counted)
    return rows


SIGN_CHECKERS = {
    "strong-starlike": lambda a, b, alpha: certificates.strong_starlike_batch(Rows(a, b, b.real + 2.5, alpha)),
    "sst-cor-p0": lambda a, b, alpha: certificates.sst_cor_p0_batch(Rows(a, b, alpha=alpha)),
}


@pytest.mark.parametrize("kind", sorted(SIGN_CHECKERS))
@np.errstate(all="ignore")
def test_a_real_row_is_minimized_once(monkeypatch, kind):
    # a real row's eps = -1 residual is its eps = +1 residual, bit for bit
    rng = np.random.RandomState(12)
    n = 60
    a, b_re, alpha = rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, n), rng.uniform(0.2, 0.9, n)
    b_im = rng.uniform(0.05, 0.3, n)
    mixed = b_re + 1j * np.where(np.arange(n) % 3 == 0, b_im, 0.0)
    rows = _minimized_rows(monkeypatch)
    for b in (b_re.astype(complex), b_re + 1j * b_im, mixed):
        SIGN_CHECKERS[kind](a, b, alpha)
    assert rows == [n, 2 * n, n + len(range(0, n, 3))]


def _sign_order(twin: np.ndarray) -> list[np.ndarray]:
    """(alpha, K, S, T, U, V) of len(twin) eps = +1 rows, then of their eps = -1
    rows, which equal them where twin holds and differ in T and U elsewhere."""
    plus = _cubic_rows(CUBIC_ALPHAS["repeated"])
    minus = [v.copy() for v in plus]
    rng = np.random.RandomState(8)
    for v in minus[3:5]:
        v[~twin] = rng.uniform(-3, 3, np.count_nonzero(~twin))
    return [np.concatenate(pair) for pair in zip(plus, minus)]


@pytest.mark.parametrize("every", [1, 3, 40])
@np.errstate(all="ignore")
def test_sign_minima_match_minimizing_every_row(monkeypatch, every):
    # twins at every row, at every third row, and at one row in 40 (refused and NaN rows among them)
    n = len(CUBIC_ALPHAS["repeated"])
    twin = np.arange(n) % every == 0
    order = _sign_order(twin)
    want = minimize_on_positive_line(certificates._cubic_residual(*order), DEFAULT_LINE_SEARCH)
    want_tail, want_at_zero = oracles.leading_coefficients(certificates._cubic_terms(*order))
    rows = _minimized_rows(monkeypatch)
    tail, at_zero, got = certificates._sign_minima(order, DEFAULT_LINE_SEARCH)
    assert rows == [n + np.count_nonzero(~twin)]
    assert np.isnan(want.min_value).any()
    assert got.min_value.tobytes() == want.min_value.tobytes()
    assert got.argmin_s.tobytes() == want.argmin_s.tobytes()
    assert tail.tobytes() == want_tail.tobytes()
    assert at_zero.tobytes() == want_at_zero.tobytes()


NAN_PAYLOAD = np.array([0x7FF8000000000001]).view(float)[0]


@pytest.mark.parametrize("plus, minus", [(0.0, -0.0), (-0.0, 0.0), (np.nan, NAN_PAYLOAD)],
                         ids=["+0/-0", "-0/+0", "nan"])
@pytest.mark.parametrize("coef", range(6), ids="alpha K S T U V".split())
@np.errstate(all="ignore")
def test_rows_that_differ_in_bits_alone_are_minimized_twice(monkeypatch, coef, plus, minus):
    # -0.0 == 0.0 and NaN != NaN as numbers, but only bits decide a twin
    order = [np.array([v, v]) for v in (0.5, 1.0, 0.3, -0.2, 0.1, -0.4)]
    order[coef] = np.array([plus, minus])
    rows = _minimized_rows(monkeypatch)
    certificates._sign_minima(order, DEFAULT_LINE_SEARCH)
    assert rows == [2]
    order[coef][1] = plus
    certificates._sign_minima(order, DEFAULT_LINE_SEARCH)
    assert rows == [2, 1]
