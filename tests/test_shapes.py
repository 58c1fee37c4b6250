"""Shape classes: the reference generator, the reference boundary closed forms, membership margins."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import boundary_values, mu_of, q_class

from hypstar import SpirallikeOrder, StarlikeOrder, StronglyStarlike
from hypstar.shapes import membership_slack_array

ALL_CLASSES = [
    StarlikeOrder(0.0),
    StarlikeOrder(0.5),
    StronglyStarlike(0.5),
    StronglyStarlike(0.25),
    SpirallikeOrder(0.4, 0.0),
    SpirallikeOrder(-0.7, 0.3),
]


class TestConstruction:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            StarlikeOrder(1.0)
        with pytest.raises(ValueError):
            StarlikeOrder(-0.1)
        with pytest.raises(ValueError):
            StronglyStarlike(0.0)
        with pytest.raises(ValueError):
            StronglyStarlike(1.0)
        with pytest.raises(ValueError):
            SpirallikeOrder(math.pi / 2, 0.0)

    def test_mu(self):
        cls = SpirallikeOrder(0.3, 0.2)
        want = 0.8 * cmath.exp(0.3j) * math.cos(0.3)
        assert mu_of(cls) == pytest.approx(want)


class TestGenerator:
    def test_phi_at_zero_is_one(self):
        for cls in ALL_CLASSES:
            assert 1 + q_class(cls, 0) == pytest.approx(1.0)
            assert q_class(cls, 0) == 0

    def test_starlike_moebius(self):
        # (1 + (1-2a)z)/(1-z); at order 0, z = 0.5 the value is 3
        assert 1 + q_class(StarlikeOrder(0.0), 0.5) == pytest.approx(3.0)
        z = 0.3 + 0.2j
        alpha = 0.35
        want = (1 + (1 - 2 * alpha) * z) / (1 - z)
        assert 1 + q_class(StarlikeOrder(alpha), z) == pytest.approx(want, rel=1e-14)

    def test_spirallike_value(self):
        cls = SpirallikeOrder(0.5, 0.25)
        assert 1 + q_class(cls, 0.5) == pytest.approx(1 + 2 * mu_of(cls), rel=1e-14)
        assert q_class(cls, -1) == pytest.approx(-mu_of(cls), rel=1e-14)

    def test_spirallike_matches_moebius_form(self):
        # 1 + [e^{2i lam} - alpha(1 + e^{2i lam})] z all over 1 - z
        lam, alpha = 0.6, 0.2
        cls = SpirallikeOrder(lam, alpha)
        z = 0.4 - 0.3j
        e2 = cmath.exp(2j * lam)
        want = (1 + (e2 - alpha * (1 + e2)) * z) / (1 - z)
        assert 1 + q_class(cls, z) == pytest.approx(want, rel=1e-13)

    def test_strongly_starlike_power(self):
        assert q_class(StronglyStarlike(0.5), 0.5) == pytest.approx(3**0.5 - 1, rel=1e-14)


class TestBoundaryPoint:
    def test_spiral_range(self):
        s, _, _ = boundary_values(SpirallikeOrder(0.1, 0.0), [math.pi / 2, 3 * math.pi / 2])
        assert s == pytest.approx([1.0, -1.0])

    def test_sst_sign(self):
        # s = cot(theta/2) carries the sign eps of theta; Q and zQ' read |s|
        s, q, zqp = boundary_values(StronglyStarlike(0.5), [math.pi / 2, -math.pi / 2])
        assert s == pytest.approx([1.0, -1.0])
        assert q[1] == pytest.approx(np.conj(q[0]), rel=1e-15)
        assert zqp[1] == pytest.approx(np.conj(zqp[0]), rel=1e-15)


def _at(cls, theta):
    """(Q, zeta Q') at one boundary point, as Python complex numbers."""
    _, q, zqp = boundary_values(cls, theta)
    return complex(q), complex(zqp)


class TestBoundaryValues:
    def test_spiral_Q_at_theta_pi(self):
        cls = SpirallikeOrder(0.4, 0.3)
        q, zqp = _at(cls, math.pi)  # s = 0
        assert q == pytest.approx(-mu_of(cls), abs=1e-12)
        assert zqp == pytest.approx(-mu_of(cls) / 2, abs=1e-12)

    def test_starlike_at_s_one(self):
        q, zqp = _at(StarlikeOrder(0.0), math.pi / 2)  # mu = 1
        assert q == pytest.approx(-1 + 1j, rel=1e-12)
        assert zqp == pytest.approx(-1.0, rel=1e-12)

    def test_sst_at_s_one(self):
        alpha = 0.37
        q, zqp = _at(StronglyStarlike(alpha), math.pi / 2)
        assert q == pytest.approx(cmath.exp(1j * math.pi * alpha / 2) - 1, rel=1e-12)
        assert zqp == pytest.approx(-alpha * cmath.exp(-1j * math.pi * (1 - alpha) / 2), rel=1e-12)

    def test_boundary_limit_consistency(self):
        # radial limit of Q(r e^{i theta}) against the closed form
        r = 1 - 1e-6
        for cls in ALL_CLASSES:
            if isinstance(cls, StronglyStarlike):
                thetas = [t * s for t in np.linspace(0.5, math.pi - 0.5, 9) for s in (1, -1)]
            else:
                thetas = list(np.linspace(0.5, 2 * math.pi - 0.5, 17))
            _, q, _ = boundary_values(cls, thetas)
            for theta, want in zip(thetas, q):
                assert abs(q_class(cls, r * cmath.exp(1j * theta)) - want) < 1e-4

    def test_boundary_derivative_consistency(self):
        # zeta Q'(zeta) ~ -i dQ(e^{i theta})/d theta via finite differences
        r = 1 - 1e-6
        h = 1e-5
        for cls in ALL_CLASSES:
            if isinstance(cls, StronglyStarlike):
                thetas = [0.7, 1.5, -0.9, -2.4]
            else:
                thetas = [0.7, 1.5, 3.0, 5.0]
            _, _, zqp = boundary_values(cls, thetas)
            for theta, want in zip(thetas, zqp):
                dq = (q_class(cls, r * cmath.exp(1j * (theta + h))) - q_class(cls, r * cmath.exp(1j * (theta - h)))) / (2 * h)
                assert abs(-1j * dq - want) <= 1e-3 * (1 + abs(want))


class TestCanonicalization:
    def test_bit_identical_to_spirallike_at_zero_angle(self):
        star = StarlikeOrder(0.3)
        spiral = SpirallikeOrder(0.0, 0.3)
        zs = [0.5, -0.25 + 0.6j, 0.9j, 0.1 - 0.7j]
        for z in zs:
            assert q_class(star, z) == q_class(spiral, z)
        for got, want in zip(boundary_values(star, [0.5, 2.0, 4.5]), boundary_values(spiral, [0.5, 2.0, 4.5])):
            assert got.tobytes() == want.tobytes()
        w = np.array([1 + 0j, 0.2 - 0.9j, -3 + 1j])
        assert membership_slack_array(star, w).tobytes() == membership_slack_array(spiral, w).tobytes()


def _slack(cls, w) -> float:
    """The membership margin at one value w = z f'(z)/f(z)."""
    return float(membership_slack_array(cls, w))


class TestMembership:
    def test_unit_value_always_passes(self):
        for cls in ALL_CLASSES:
            assert _slack(cls, 1.0) > 0

    def test_starlike_boundary_case(self):
        assert _slack(StarlikeOrder(0.5), 0.5) == 0

    def test_sst_rejects_imaginary_axis(self):
        assert _slack(StronglyStarlike(0.5), 1j) == pytest.approx(math.pi / 4 - math.pi / 2)

    def test_sst_rejects_zero(self):
        assert _slack(StronglyStarlike(0.5), 0) == pytest.approx(-math.pi / 4)

    def test_spirallike_slack(self):
        cls = SpirallikeOrder(0.5, 0.25)
        w = 2 - 0.3j
        want = (cmath.exp(-0.5j) * w).real - 0.25 * math.cos(0.5)
        assert _slack(cls, w) == pytest.approx(want)

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(min_value=0, max_value=0.99),
        t=st.floats(min_value=0, max_value=2 * math.pi),
        idx=st.integers(min_value=0, max_value=len(ALL_CLASSES) - 1),
    )
    def test_class_contains_its_generator(self, r, t, idx):
        # phi = 1 + Q maps the disk into the class's own region
        cls = ALL_CLASSES[idx]
        assert _slack(cls, 1 + q_class(cls, r * cmath.exp(1j * t))) > -1e-12
