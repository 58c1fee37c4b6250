"""Disk-grid verifier: closed-form slack expectations, statuses, cross-checks."""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from conftest import draw_params

from hypstar import (
    Certificate,
    DiskGridSettings,
    HypergeomParams,
    SeriesSettings,
    SpirallikeOrder,
    StarlikeOrder,
    StronglyStarlike,
    certify_cor_a2,
    certify_spirallike,
    certify_starlike_order,
    certify_strong_starlike,
    cross_check,
    gauss_2f1_ring,
    verify_on_disk,
)
from hypstar import verifier
from hypstar.hypergeom import ZERO_TOL
from hypstar.shapes import membership_slack_array
from hypstar.verifier import (
    CONSISTENT,
    DEFAULT_SERIES,
    DEGENERATE,
    INCOMPLETE,
    INFO,
    MAX_PHASE_STEP,
    SOUND,
    UNSOUND,
    VIOLATED,
    VIOLATION_TOL,
    _winding_numbers,
    verify_rows,
)

FAST = DiskGridSettings(n_radii=10, r_max=0.99, n_angles=120)
SWEEP_GRID = DiskGridSettings(n_radii=12, r_max=0.97, n_angles=120)


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
        # F(-1, 2; 1; z) = 1 - 2z vanishes at z = 0.5; put an outer-ring node
        # there, so that the winding count is unresolved and every ring is summed
        grid = DiskGridSettings(n_radii=3, r_max=0.5, n_angles=8, radial_spacing="uniform")
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
        # z = 0.995: the default 720 angles resolve it, but even 16 x 16
        # samples of the outer ring cannot follow it
        params = HypergeomParams(2, 1, 1)
        report = verify_on_disk(StarlikeOrder(0.0), params)
        assert report.status == CONSISTENT
        assert report.f_zeros_inside == 0
        coarse = DiskGridSettings(n_radii=2, r_max=0.995, n_angles=16)
        report = verify_on_disk(StarlikeOrder(0.0), params, coarse)
        assert report.n_violations == 0
        assert report.f_zeros_inside is None
        assert report.status == INCOMPLETE

    def test_winding_count_follows_fast_phase_turns(self):
        # F has two zeros inside |z| = 0.97, one near 0.7635 - 0.2333i; near
        # z = 1 arg F turns by 2 pi between neighbouring samples, and a count
        # from principal steps alone comes out 0
        params = HypergeomParams(2.8409 + 2.7323j, -0.4522 + 0.5618j, -2.7622 + 2.9318j)
        for grid in (SWEEP_GRID, DiskGridSettings()):
            report = verify_on_disk(StarlikeOrder(0), params, grid)
            assert report.status == DEGENERATE, grid
            assert report.f_zeros_inside == 2, grid

    def test_winding_ladder_reaches_sixteen_times_the_angles(self):
        # draw 34 of draw_params(RandomState(7), radius=3): at r = 0.995 its
        # winding number is unresolved on 240 to 1,920 angles and 1 on 3,840
        params = HypergeomParams(
            0.6213573101729191 - 1.2745203472805986j,
            1.0342153105757186 + 1.2722927206883687j,
            0.938701719231612 - 2.118418105838739j,
        )
        report = verify_on_disk(StarlikeOrder(0.0), params, DiskGridSettings(n_radii=12, r_max=0.995, n_angles=240))
        assert report.f_zeros_inside == 1
        assert report.status == DEGENERATE



def _reference_winding_number(ring):
    """The winding count of one ring as it was counted before rings were
    stacked, with the cyclic neighbours from np.roll; None for no count."""
    f = ring.f.astype(np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (ring.zdf / ring.f).real.astype(np.float64)
        steps = np.angle(np.roll(f, -1) / f)
    predicted = math.pi / len(f) * (v + np.roll(v, -1))
    if not np.all(np.abs(predicted) <= math.pi):
        return None
    steps += 2 * math.pi * np.round((predicted - steps) / (2 * math.pi))
    if not np.all(np.abs(steps - predicted) <= MAX_PHASE_STEP):
        return None
    count = round(float(steps.sum()) / (2 * math.pi))
    return count if count >= 0 else None


def test_winding_number_matches_the_rolled_one():
    rng = np.random.RandomState(7)
    triples = [draw_params(rng, radius=3) for _ in range(300)]
    rings = [gauss_2f1_ring(params, r, n) for params in triples for r, n in ((0.97, 120), (0.995, 720))]
    # the ladder of test_winding_ladder_reaches_sixteen_times_the_angles
    ladder = HypergeomParams(
        0.6213573101729191 - 1.2745203472805986j,
        1.0342153105757186 + 1.2722927206883687j,
        0.938701719231612 - 2.118418105838739j,
    )
    rings += [gauss_2f1_ring(ladder, 0.995, n) for n in (240, 480, 960, 1920, 3840)]
    with np.errstate(all="ignore"):
        rings.append(gauss_2f1_ring(HypergeomParams(1e150, 1e150, 1), 0.97, 120))  # not finite
    rings.append(gauss_2f1_ring(HypergeomParams(-1, 2, 1), 0.5, 8))  # F(0.5) = 0 is a node
    want = [_reference_winding_number(ring) for ring in rings]
    assert {None, 0, 1, 2} <= set(want)
    want = [-1 if count is None else count for count in want]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        assert [int(_winding_numbers(ring.f[None], (ring.zdf / ring.f)[None])[0]) for ring in rings] == want
        # a stack of rings counts each ring as it would count it alone
        for n in {len(ring.f) for ring in rings}:
            same = [i for i, ring in enumerate(rings) if len(ring.f) == n]
            f, zdf = (np.stack([getattr(rings[i], name) for i in same]) for name in ("f", "zdf"))
            assert _winding_numbers(f, zdf / f).tolist() == [want[i] for i in same]


def test_one_call_over_many_rows_matches_one_call_per_row(monkeypatch):
    """verify_rows gives each row the report that verify_on_disk gives it
    alone, to the JSON bytes, whether its rows share one stack or are split
    into stacks of a few rows: random triples and all three class families
    on the sweep grid and on a small grid, Degenerate rows (one with F = 0
    at a node), a count that needs a refined ring, rows that take every
    ring, Incomplete rows, and classes that differ only in the sign of a
    zero within one call."""
    rng = np.random.RandomState(7)
    classes = [StarlikeOrder(0.0), StarlikeOrder(-0.0), SpirallikeOrder(0.4, 0.1), SpirallikeOrder(-0.0, -0.0),
               StronglyStarlike(0.5)]
    # F = 1 - 2z vanishes at 0.5; F = (1 - z)^-6 is counted on 480 angles at r = 0.97; F grows like (1 - z)^-43
    special = [HypergeomParams(-1, 2, 1), HypergeomParams(6, 1, 1), HypergeomParams(1, 44, 2)]
    rows = [(classes[i % len(classes)], draw_params(rng, radius=3)) for i in range(24)]
    rows += [(cls, params) for params in special for cls in classes[::2]]  # one class of each family
    small = DiskGridSettings(n_radii=3, r_max=0.5, n_angles=16, radial_spacing="uniform")  # F = 1 - 2z is 0 at a node
    seen = set()
    for grid, settings, subset in ((SWEEP_GRID, DEFAULT_SERIES, rows), (small, DEFAULT_SERIES, rows),
                                   (SWEEP_GRID, SeriesSettings(max_terms=100), rows[:10])):
        args = [cls for cls, _ in subset], [params for _, params in subset], grid, settings
        reports = verify_rows(*args)
        with monkeypatch.context() as patch:
            patch.setattr(verifier, "_STACK_NODES", 250)  # 2 rows a stack on 120 angles, 15 on 16
            split = verify_rows(*args)
        assert len(reports) == len(split) == len(subset)
        for (cls, params), report, split_report in zip(subset, reports, split):
            alone = json.dumps(verify_on_disk(cls, params, grid, settings).to_json())
            assert json.dumps(report.to_json()) == json.dumps(split_report.to_json()) == alone, (cls, params, grid)
            assert repr(report.shape_class) == repr(cls)
            seen.add((report.status, report.rings, report.n_f_zeros > 0))
    assert {(CONSISTENT, "outer", False), (VIOLATED, "outer", False), (DEGENERATE, "outer", False),
            (VIOLATED, "all", False), (INCOMPLETE, "all", False), (DEGENERATE, "all", True)} <= seen
    outer = gauss_2f1_ring(special[1], SWEEP_GRID.radii()[-1], SWEEP_GRID.n_angles)
    assert _winding_numbers(outer.f[None], (outer.zdf / outer.f)[None]).tolist() == [-1]
    assert verify_on_disk(StarlikeOrder(0.0), special[1], SWEEP_GRID).f_zeros_inside == 0
    assert verify_rows([], [], SWEEP_GRID) == []


def _outer_ring_instances():
    """The four Consistent crosscheck instances and 6 sweep draws per family."""
    from test_acceptance import _sweep_draws

    rot = cmath.exp(0.15j)
    cor_a2 = certify_cor_a2(2, 1, 2, 0.0)
    spiral = certify_spirallike(rot, 1.1 * rot, 0.3, 0.0)
    return [
        (StarlikeOrder(0.0), HypergeomParams(2, 2 + 5j, 3 + 5j)),
        (cor_a2.shape_class, cor_a2.params),
        (StronglyStarlike(0.5), HypergeomParams(1, 1, 3)),
        (spiral.shape_class, spiral.params),
    ] + _sweep_draws(np.random.RandomState(1004), per_family=6)


class TestOuterRingPath:
    def test_inner_rings_never_read_below_the_outer_ring(self):
        """The minimum principle on the outer path: no inner node of the grid
        has a slack below the reported minimum (up to rounding)."""
        for cls, params in _outer_ring_instances():
            report = verify_on_disk(cls, params, SWEEP_GRID)
            assert report.rings == "outer", (cls, params)
            for r in SWEEP_GRID.radii()[:-1]:
                ring = gauss_2f1_ring(params, r, SWEEP_GRID.n_angles)
                assert ring.converged.all()
                slack = membership_slack_array(cls, (1 + ring.zdf / ring.f).astype(np.complex128))
                assert slack.min() >= report.min_slack - 1e-12, (cls, params, r)

    def test_zero_free_instance_takes_the_outer_ring(self):
        report = verify_on_disk(StarlikeOrder(0.0), HypergeomParams(2, 1, 2), FAST)
        assert report.rings == "outer"
        assert report.to_json()["rings"] == "outer"

    def test_interior_zero_takes_the_outer_ring(self):
        report = verify_on_disk(StarlikeOrder(0.0), HypergeomParams(-1, 2, 1))
        assert report.status == DEGENERATE
        assert report.rings == "outer"
        assert report.n_f_zeros == 0
        assert report.f_zeros_inside == 1

    def test_violated_sector_takes_the_outer_ring(self):
        report = verify_on_disk(StronglyStarlike(0.05), HypergeomParams(1, 1, 3), FAST)
        assert report.status == VIOLATED
        assert report.rings == "outer"

    def test_unresolved_count_takes_every_ring(self):
        coarse = DiskGridSettings(n_radii=2, r_max=0.995, n_angles=16)
        report = verify_on_disk(StarlikeOrder(0.0), HypergeomParams(2, 1, 1), coarse)
        assert report.f_zeros_inside is None
        assert report.rings == "all"

    @pytest.mark.parametrize("abc", [(1e155, 1e155, 2), (1e5, 1e5, 1), (2e4, 2e4, 1)])
    def test_overflowed_outer_ring_skips_the_winding_ladder(self, abc, monkeypatch):
        # each ladder ring would sum the terms that overflowed the outer ring, so none of them could settle
        params, ring = HypergeomParams(*abc), verifier.gauss_2f1_ring
        with np.errstate(all="ignore"):
            assert not math.isfinite(ring(params, SWEEP_GRID.radii()[-1], SWEEP_GRID.n_angles).tail)
        angles = []
        monkeypatch.setattr(verifier, "gauss_2f1_ring", lambda p, r, n, s: angles.append(n) or ring(p, r, n, s))
        report = verify_rows([StarlikeOrder(0)], [params], SWEEP_GRID)[0]
        assert (report.status, report.f_zeros_inside, report.rings) == (INCOMPLETE, None, "all")
        assert angles == [SWEEP_GRID.n_angles] * SWEEP_GRID.n_radii
        overflowed = "zeros of F inside r = 0.97 unresolved: the series terms overflowed on the outer ring"
        assert report.notes[-1] == overflowed

    def test_unresolved_note_names_why_the_count_is_open(self):
        """The ladder's note where it ran; where the outer tail bound is not
        finite without overflow (the ratio bound at 1 or more up to max_terms),
        a note that says so."""
        coarse = DiskGridSettings(n_radii=2, r_max=0.995, n_angles=16)
        ladder = verify_on_disk(StarlikeOrder(0.0), HypergeomParams(2, 1, 1), coarse)
        assert ladder.notes[-1] == "zeros of F inside r = 0.995 unresolved: no winding number on up to 256 angles"
        short = verify_on_disk(StarlikeOrder(0.0), HypergeomParams(1, 1, 3), SWEEP_GRID, SeriesSettings(max_terms=3))
        assert (short.status, short.f_zeros_inside) == (INCOMPLETE, None)
        assert short.notes[-1] == "zeros of F inside r = 0.97 unresolved: no finite tail bound on the outer ring"

    def test_unconverged_outer_ring_takes_every_ring(self):
        report = verify_on_disk(StarlikeOrder(0), HypergeomParams(2, 1, 2), settings=SeriesSettings(max_terms=100))
        assert report.rings == "all"


def _full_grid_status(cls, params, grid, f_zeros_inside):
    """The status that the origin and every ring of the grid give together."""
    violated = membership_slack_array(cls, np.asarray(1.0 + 0.0j)) < -VIOLATION_TOL
    zero = unevaluated = False
    for r in grid.radii():
        ring = gauss_2f1_ring(params, r, grid.n_angles)
        ok = ring.converged & (np.abs(ring.f) > ZERO_TOL)
        unevaluated |= not ring.converged.all()
        zero |= bool((ring.converged & ~ok).any())
        if ok.any():
            slack = membership_slack_array(cls, (1 + ring.zdf[ok] / ring.f[ok]).astype(np.complex128))
            violated |= bool((slack < -VIOLATION_TOL).any())
    if zero or (f_zeros_inside or 0) > 0:
        return DEGENERATE
    if violated:
        return VIOLATED
    return INCOMPLETE if unevaluated or f_zeros_inside is None else CONSISTENT


def test_outer_ring_report_keeps_the_full_grid_status():
    """A report from the outer ring alone has the status that every ring of
    the grid gives, on random triples of each class, and every ring is
    summed where the zero count is unresolved."""
    rng = np.random.RandomState(7)
    cases = [(draw_params(rng, radius=3), SWEEP_GRID) for _ in range(20)]
    # 16 angles leave the Koebe function's zero count unresolved (see the Koebe test above)
    cases.append((HypergeomParams(2, 1, 1), DiskGridSettings(n_radii=2, r_max=0.995, n_angles=16)))
    seen = set()
    for params, grid in cases:
        for cls in (StarlikeOrder(0.0), SpirallikeOrder(0.4, 0.1), StronglyStarlike(0.5)):
            report = verify_on_disk(cls, params, grid)
            expected = _full_grid_status(cls, params, grid, report.f_zeros_inside)
            assert report.status == expected, (cls, params)
            seen.add((report.status, report.rings))
    assert {(CONSISTENT, "outer"), (DEGENERATE, "outer"), (VIOLATED, "outer"), (VIOLATED, "all")} <= seen
