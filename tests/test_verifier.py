"""Disk-grid verifier: closed-form slack expectations, statuses, cross-checks."""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest

from hypstar import (
    Certificate,
    DiskGridSettings,
    HypergeomParams,
    SeriesSettings,
    SpirallikeOrder,
    StarlikeOrder,
    StronglyStarlike,
    certify_starlike_order,
    certify_strong_starlike,
    cross_check,
    gauss_2f1_ring,
    verify_on_disk,
)
from hypstar.verifier import CONSISTENT, DEGENERATE, INCOMPLETE, INFO, SOUND, UNSOUND, VIOLATED

FAST = DiskGridSettings(n_radii=10, r_max=0.99, n_angles=120)


class TestGridSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiskGridSettings(r_max=1.0)
        with pytest.raises(ValueError):
            DiskGridSettings(n_angles=4)
        with pytest.raises(ValueError):
            DiskGridSettings(radial_spacing="linear")

    def test_radii_shapes(self):
        uniform = DiskGridSettings(n_radii=4, r_max=0.8, radial_spacing="uniform").radii()
        assert list(uniform) == pytest.approx([0.2, 0.4, 0.6, 0.8])
        geo = DiskGridSettings(n_radii=4, r_max=0.99).radii()
        assert geo[-1] == pytest.approx(0.99)
        assert all(x < y for x, y in zip(geo, geo[1:]))
        # spacing tightens toward the boundary
        gaps = [y - x for x, y in zip(geo, geo[1:])]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


class TestVerifyOnDisk:
    def test_half_plane_function_slack(self):
        # q(z) = 1/(1-z): min Re q on |z| <= r is 1/(1+r)
        report = verify_on_disk(StarlikeOrder(0.0), HypergeomParams(2, 1, 2), FAST)
        assert report.status == CONSISTENT
        assert report.min_slack == pytest.approx(1 / (1 + 0.99), abs=1e-6)
        assert report.argmin_z.real == pytest.approx(-0.99, abs=1e-12)

    def test_detects_genuine_violation(self):
        report = verify_on_disk(StarlikeOrder(0.9), HypergeomParams(2, 1, 2), FAST)
        assert report.status == VIOLATED
        assert report.n_violations > 0
        assert report.min_slack == pytest.approx(1 / 1.99 - 0.9, abs=1e-6)

    def test_strongly_starlike_instance(self):
        report = verify_on_disk(StronglyStarlike(0.5), HypergeomParams(1, 1, 3), FAST)
        assert report.status == CONSISTENT
        max_arg = math.pi / 4 - report.min_slack
        assert 0 < max_arg <= math.pi / 4

    def test_degenerate_zero_of_f(self):
        # F(-1, 2; 1; z) = 1 - 2z vanishes at z = 0.5; put a grid point there
        grid = DiskGridSettings(n_radii=3, r_max=0.75, n_angles=8, radial_spacing="uniform")
        report = verify_on_disk(StarlikeOrder(0.0), HypergeomParams(-1, 2, 1), grid)
        assert report.status == DEGENERATE
        assert report.n_f_zeros >= 1

    def test_origin_is_analytic_point(self):
        # a = 0 makes F constant 1, so q is identically 1 and every slack ties;
        # the deterministic reduction reports the origin
        report = verify_on_disk(StarlikeOrder(0.25), HypergeomParams(0, 1, 2), FAST)
        assert report.status == CONSISTENT
        assert report.argmin_z == 0
        assert report.min_slack == pytest.approx(0.75)

    def test_spirallike_class(self):
        report = verify_on_disk(SpirallikeOrder(0.3, 0.0), HypergeomParams(1, 1, 3), FAST)
        assert report.status == CONSISTENT

    def test_json_mirror(self):
        report = verify_on_disk(StarlikeOrder(0.0), HypergeomParams(2, 1, 2), FAST)
        data = json.loads(json.dumps(report.to_json()))
        assert data["status"] == "Consistent"
        assert data["grid"]["n_radii"] == 10
        assert data["params"]["a"] == [2.0, 0.0]
        assert len(data["argmin_z"]) == 2


class TestMonotoneSlack:
    def test_slack_shrinks_toward_boundary(self, capsys):
        """Diagnostic: on certified instances the per-radius minimum slack
        should not grow with r (the real part of a nonconstant meromorphic q
        attains ring minima on the outer circle away from zeros of F).  This
        is a heuristic, so violations are printed as findings, not failures."""
        findings = []
        for params, cls in [
            (HypergeomParams(2, 1, 2), StarlikeOrder(0.0)),
            (HypergeomParams(2, 2 + 5j, 3 + 5j), StarlikeOrder(0.0)),
            (HypergeomParams(1, 1, 3), StronglyStarlike(0.5)),
        ]:
            slacks = []
            for r in (0.3, 0.5, 0.7, 0.9, 0.97):
                grid = DiskGridSettings(n_radii=1, r_max=r, n_angles=90, radial_spacing="uniform")
                slacks.append(verify_on_disk(cls, params, grid).min_slack)
            for inner, outer in zip(slacks, slacks[1:]):
                if not inner >= outer - 1e-9:
                    findings.append((params, cls, slacks))
                    break
        for f in findings:
            print(f"monotone-slack finding: {f}")
        # the diagnostic itself must have run on every instance
        assert len(findings) <= 3


class TestCrossCheck:
    def test_sound(self):
        params = HypergeomParams(2, 2 + 5j, 3 + 5j)
        cert = certify_starlike_order(params, 0.0)
        result = cross_check(StarlikeOrder(0.0), params, cert, FAST)
        assert result.verdict == SOUND

    def test_info_gap(self):
        params = HypergeomParams(1, 1, 3)
        cert = certify_strong_starlike(params, 0.05)
        assert not cert.passed
        result = cross_check(StronglyStarlike(0.05), params, cert, FAST)
        assert result.verdict == INFO

    def test_unsound_flags_fabricated_certificate(self):
        params = HypergeomParams(2, 1, 2)
        cls = StarlikeOrder(0.9)
        fake = Certificate("StarlikeOrderThm", True, [], params, cls, ["fabricated for the negative test"])
        result = cross_check(cls, params, fake, FAST)
        assert result.verdict == UNSOUND

    def test_json(self):
        params = HypergeomParams(1, 1, 3)
        cert = certify_starlike_order(params, 0.0)
        result = cross_check(StarlikeOrder(0.0), params, cert, FAST)
        data = result.to_json()
        assert data["verdict"] == SOUND
        assert data["certificate"]["passed"] is True
        assert data["report"]["status"] == "Consistent"


_ROT = cmath.exp(0.15j)
RING_TRIPLES = [
    (2, 2 + 5j, 3 + 5j),
    (2, 1, 2),
    (1, 1, 3),
    (_ROT, 1.1 * _ROT, _ROT + 1.1 * _ROT + 1),
]


class TestRingEvaluator:
    R, N = 0.995, 720

    @pytest.mark.parametrize("abc", RING_TRIPLES)
    def test_outer_ring_matches_mpmath(self, abc):
        """F, zF' and q on the outer ring against mpmath at 30 digits.

        Relative bounds, set from the long double pass: 1e-14 for F, 1e-13
        for zF' and for q.  The tightest node is on (2, 2+5i, 3+5i), where
        |q| falls to 0.025 while |zF'| reaches 2e5 near z = 1.
        """
        ring = gauss_2f1_ring(HypergeomParams(*abc), self.R, self.N)
        assert ring.converged.all()
        a, b, c = (mpmath.mpc(w) for w in abc)
        with mpmath.workdps(30):
            for k in range(0, self.N, 24):
                z = mpmath.mpf(self.R) * mpmath.expjpi(mpmath.mpf(2 * k) / self.N)
                F = mpmath.hyp2f1(a, b, c, z)
                zdF = z * a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z)
                q = 1 + zdF / F
                f, zdf = complex(ring.f[k]), complex(ring.zdf[k])
                q_ring = complex(1 + ring.zdf[k] / ring.f[k])
                assert abs(f - F) <= 1e-14 * abs(F), (abc, k)
                assert abs(zdf - zdF) <= 1e-13 * abs(zdF), (abc, k)
                assert abs(q_ring - q) <= 1e-13 * abs(q), (abc, k)

    def test_terminating_series_is_the_polynomial(self):
        ring = gauss_2f1_ring(HypergeomParams(-1, 2, 1), self.R, self.N)
        assert ring.converged.all() and ring.tail == 0
        for k in range(self.N):
            z = mpmath.mpf(self.R) * mpmath.expjpi(mpmath.mpf(2 * k) / self.N)
            assert abs(complex(ring.f[k]) - (1 - 2 * z)) <= 1e-15
            assert abs(complex(ring.zdf[k]) + 2 * z) <= 1e-15

    def test_term_budget_flags_points(self):
        ring = gauss_2f1_ring(HypergeomParams(2, 1, 2), self.R, self.N, SeriesSettings(max_terms=100))
        assert not ring.converged.any()
        assert ring.terms == 101


class TestEvidenceGaps:
    def test_interior_zero_off_the_grid_is_degenerate(self):
        # F = 1 - 2z vanishes at 0.5, which is no node of the default grid
        report = verify_on_disk(StarlikeOrder(0.0), HypergeomParams(-1, 2, 1))
        assert report.status == DEGENERATE
        assert report.n_f_zeros == 0
        assert report.f_zeros_inside == 1
        assert report.to_json()["f_zeros_inside"] == 1

    def test_zero_free_instance_counts_no_zeros(self):
        report = verify_on_disk(StarlikeOrder(0.0), HypergeomParams(2, 1, 2), FAST)
        assert report.f_zeros_inside == 0
        assert report.n_unevaluated == 0
        data = report.to_json()
        assert data["f_zeros_inside"] == 0 and data["n_unevaluated"] == 0

    def test_unconverged_points_are_never_consistent(self):
        settings = SeriesSettings(max_terms=100)
        report = verify_on_disk(StarlikeOrder(0), HypergeomParams(2, 1, 2), settings=settings)
        assert report.status != CONSISTENT
        assert report.status == INCOMPLETE
        assert report.n_unevaluated > 0

    def test_incomplete_report_crosschecks_as_info(self):
        params = HypergeomParams(2, 2 + 5j, 3 + 5j)
        cert = certify_starlike_order(params, 0.0)
        assert cert.passed
        result = cross_check(StarlikeOrder(0.0), params, cert, FAST, SeriesSettings(max_terms=100))
        assert result.report.status == INCOMPLETE
        assert result.verdict == INFO

    def test_koebe_winding_needs_refined_sampling(self):
        # F = (1-z)^-2, so f is the Koebe function, starlike with
        # q = (1+z)/(1-z).  arg F turns by about 2 pi within 0.01 rad of
        # z = 0.995: the default 720 angles need one doubling, and even
        # 8 x 16 samples of the outer ring cannot follow it
        params = HypergeomParams(2, 1, 1)
        report = verify_on_disk(StarlikeOrder(0.0), params)
        assert report.status == CONSISTENT
        assert report.f_zeros_inside == 0
        coarse = DiskGridSettings(n_radii=2, r_max=0.995, n_angles=16)
        report = verify_on_disk(StarlikeOrder(0.0), params, coarse)
        assert report.n_violations == 0
        assert report.f_zeros_inside is None
        assert report.status == INCOMPLETE
