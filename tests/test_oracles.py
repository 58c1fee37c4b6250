"""Brute-force validator tests: the squared-modulus identity, quadratic
nonnegativity (exact vs sampled), the line minimizer, the power-sum bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypstar import (
    LineSearchSettings,
    ab_gap_direct,
    ab_gap_formula,
    ab_identity_residual,
    half_plane_bound_check,
    minimize_on_positive_line,
    oracles,
    quadratic_nonneg_exact,
    quadratic_nonneg_sampled,
)
from hypstar.oracles import (
    DEFAULT_LINE_SEARCH,
    DIVERGES_AT_INFINITY,
    DIVERGES_AT_ZERO,
    SAFE_BOTH_ENDS,
    endpoint_verdicts,
    golden_section,
    leading_coefficients,
)

finite_complex = st.builds(
    complex,
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
)


class TestAbIdentity:
    def test_collapses_at_w_zero(self):
        assert ab_identity_residual(0, 2 + 1j, -3, 0.5j) == 0

    def test_real_instance(self):
        # both routes give 12 here
        assert ab_gap_direct(1, 1, 1, 2) == 12
        assert ab_gap_formula(1, 1, 1, 2) == 12
        assert ab_identity_residual(1, 1, 1, 2) == 0

    @settings(max_examples=300, deadline=None)
    @given(w=finite_complex, a=finite_complex, b=finite_complex, c=finite_complex)
    def test_identity_property(self, w, a, b, c):
        scale = max(abs(w), abs(a), abs(b), abs(c))
        assert ab_identity_residual(w, a, b, c) < 1e-10 * (1 + scale**4)

    def test_vectorized(self):
        rng = np.random.RandomState(0)
        w = rng.randn(50) + 1j * rng.randn(50)
        res = ab_identity_residual(w, 1 + 2j, -0.5j, 3)
        assert res.shape == (50,)
        assert res.max() < 1e-10


class TestQuadraticNonneg:
    def test_examples(self):
        assert quadratic_nonneg_exact(1, 0, 1)
        assert not quadratic_nonneg_exact(1, 2, 1)  # s^2 - 4s + 1 < 0 at s = 2
        assert not quadratic_nonneg_exact(0, 1, 0)  # -2s changes sign

    def test_degenerate_leading(self):
        assert quadratic_nonneg_exact(0, 0, 2)
        assert not quadratic_nonneg_exact(0, 0, -1)
        assert not quadratic_nonneg_exact(-1e-30, 0, 1)

    def test_sampled_examples(self):
        assert quadratic_nonneg_sampled(1, 0, 1)
        assert not quadratic_nonneg_sampled(1, 2, 1)
        assert not quadratic_nonneg_sampled(0, 1, 0)

    def test_equivalence_sampled_vs_exact(self):
        rng = np.random.RandomState(11)
        disagreements = 0
        for _ in range(2000):
            L, M, N = rng.uniform(-10, 10, 3)
            if quadratic_nonneg_exact(L, M, N) != quadratic_nonneg_sampled(L, M, N):
                disagreements += 1
                # only tolerated within rounding distance of the boundary
                assert min(abs(L), abs(N), abs(L * N - M * M)) < 1e-7
        assert disagreements <= 2


class TestGoldenSection:
    def test_parabola(self):
        x, v = golden_section(lambda t: (t - 0.3) ** 2, -1, 1, 80)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert v == pytest.approx(0.0, abs=1e-15)


def _one_row(f):
    """f(s) as a residual of one row: shape (1, k) at k shared points, (1, 3) at a row's own."""
    return lambda s: np.atleast_2d(f(s))


def _endpoint_verdict(terms) -> str:
    """Verdict for the power sum sum coef * s^expo of one row."""
    return str(endpoint_verdicts(*leading_coefficients(terms))[0])


class TestMinimizer:
    def test_shifted_parabola(self):
        res = minimize_on_positive_line(_one_row(lambda s: (s - 2.0) ** 2))
        assert res.argmin_s[0] == pytest.approx(2.0, rel=1e-6)
        assert abs(res.min_value[0]) < 1e-12
        assert not res.conclusive[0]  # min within the +-margin band around zero

    def test_am_gm(self):
        res = minimize_on_positive_line(_one_row(lambda s: 1 / s + s - 2))
        assert res.argmin_s[0] == pytest.approx(1.0, rel=1e-6)
        assert abs(res.min_value[0]) < 1e-12

    def test_strictly_positive_is_conclusive(self):
        res = minimize_on_positive_line(_one_row(lambda s: 1 / s + s))
        assert res.conclusive[0] and res.min_value[0] == pytest.approx(2.0, rel=1e-9)
        assert res.endpoint_verdict[0] == SAFE_BOTH_ENDS

    def test_ties_prefer_smaller_s(self):
        res = minimize_on_positive_line(_one_row(lambda s: np.zeros_like(s)))
        assert res.argmin_s[0] == pytest.approx(1e-8)

    def test_endpoint_verdicts_from_terms(self):
        assert _endpoint_verdict([(2.0, -1.0)]) == DIVERGES_AT_INFINITY
        assert _endpoint_verdict([(-0.5, -1.0), (1.0, 2.0)]) == DIVERGES_AT_ZERO
        # s - 5 stays negative below the scanned range
        assert _endpoint_verdict([(1.0, 1.0), (0.0, -5.0)]) == DIVERGES_AT_ZERO
        assert _endpoint_verdict([(1.0, 1.0), (-1.0, 2.0), (0.0, -5.0)]) == SAFE_BOTH_ENDS
        # exact cancellation falls through to the next exponent
        assert _endpoint_verdict([(2.0, 1.0), (2.0, -1.0), (1.0, 1.0)]) == SAFE_BOTH_ENDS


class TestLineSearchSettings:
    @pytest.mark.parametrize("bad", [
        {"min_margin": -1.0},
        {"min_margin": -1e-300},
        {"min_margin": math.nan},
        {"min_margin": math.inf},
        {"refine_iters": -1},
        {"s_min": math.nan},
        {"s_min": -math.inf},
        {"s_max": math.inf},
        {"s_max": math.nan},
        {"s_min": 0.0},
        {"n_log_points": 15},
    ])
    def test_refused(self, bad):
        with pytest.raises(ValueError):
            LineSearchSettings(**bad)

    @pytest.mark.parametrize("edge", [{"min_margin": 0.0}, {"refine_iters": 0}, {"s_min": 1e-300, "s_max": 1e300}])
    def test_edges_accepted(self, edge):
        res = minimize_on_positive_line(_one_row(lambda s: 1 / s + s), LineSearchSettings(**edge))
        assert res.min_value[0] == pytest.approx(2.0, rel=1e-3)


def _reference_minimize(residual, settings=DEFAULT_LINE_SEARCH):
    """The many-row minimizer with the stable-argsort merge it had before the
    three-argmin one, and the verdict from the end samples: (min_value,
    argmin_s, endpoint_verdict, conclusive)."""
    s = np.logspace(math.log10(settings.s_min), math.log10(settings.s_max), settings.n_log_points)
    vals = residual(s[:2])
    finite = np.isfinite(vals).all(axis=1)
    rows = np.arange(len(vals))[:, None]
    low_v, low_i = vals, np.arange(2) + 0 * rows
    width = max(1, oracles._SCAN_BLOCK_VALUES // len(vals))
    for start in range(2, len(s), width):
        vals = residual(s[start:start + width])
        finite &= np.isfinite(vals).all(axis=1)
        both = np.concatenate([low_v, vals], axis=1)
        keep = np.argsort(both, axis=1, kind="stable")[:, :3]
        k = low_i.shape[1]
        low_v, low_i = both[rows, keep], np.where(keep < k, low_i[rows, np.minimum(keep, k - 1)], keep + (start - k))
    best_v, best_s = low_v[:, 0], s[low_i[:, 0]]
    log_s = np.log(s)
    lo, hi = log_s[np.maximum(low_i - 1, 0)], log_s[np.minimum(low_i + 1, len(s) - 1)]
    t, v = golden_section(lambda x: residual(np.exp(x)), lo, hi, settings.refine_iters)
    refine_bad = ~np.isfinite(v).all(axis=1)
    for k in range(3):
        si, vk = np.exp(t[:, k]), v[:, k]
        better = (vk < best_v) | ((vk == best_v) & (si < best_s))
        best_v, best_s = np.where(better, vk, best_v), np.where(better, si, best_s)
    best_v = np.where(~finite | refine_bad, np.nan, best_v)
    margin = settings.min_margin
    ends = residual(s[[0, 1, -2, -1]])
    verdict = np.where(
        (ends[:, 3] < -margin) & (ends[:, 3] <= ends[:, 2]),
        DIVERGES_AT_INFINITY,
        np.where((ends[:, 0] < -margin) & (ends[:, 0] <= ends[:, 1]), DIVERGES_AT_ZERO, SAFE_BOTH_ENDS),
    )
    return best_v, best_s, verdict, ~((-margin <= best_v) & (best_v <= margin))


# one residual row each, as functions of L = log s
_ROWS = (
    lambda L: np.zeros_like(L),  # every sample ties
    lambda L: np.full_like(L, 1.5),
    lambda L: np.full_like(L, -0.0),
    lambda L: np.copysign(0.0, np.sin(7 * L)),  # +0.0 and -0.0 everywhere, all tied
    lambda L: np.where(L < 0, np.copysign(0.0, np.cos(5 * L)), 1 + L),  # signed-zero ties below s = 1
    lambda L: (L - 2) ** 2 + 0.25,
    lambda L: (L + 5) ** 2 - 3,
    lambda L: np.round(np.cos(L), 1),  # equal minima at several s
    lambda L: np.where(L > math.log(1e3), np.nan, L * L),
    lambda L: np.where(L < math.log(1e-4), np.inf, (L - 1) ** 2),
    lambda L: np.where(np.abs(L - 3) < 0.02, -np.inf, L * L + 1),
)
_FINITE = np.array([True] * 8 + [False] * 3)


def _rows_residual(s):
    L = np.log(np.asarray(s, dtype=float))
    L = np.broadcast_to(L, (len(_ROWS), L.shape[-1]))
    return np.stack([row(L[i]) for i, row in enumerate(_ROWS)])


@pytest.mark.parametrize("block", [1 << 17, len(_ROWS), 2 * len(_ROWS), 3 * len(_ROWS)])
def test_many_row_merge_matches_the_stable_sort(monkeypatch, block):
    # 2^17 scans in one run; the others leave 1, 2 and 3 points per run
    monkeypatch.setattr(oracles, "_SCAN_BLOCK_VALUES", block)
    got = minimize_on_positive_line(_rows_residual)
    want = _reference_minimize(_rows_residual)
    assert got.min_value.tobytes() == want[0].tobytes()
    assert got.argmin_s[_FINITE].tobytes() == want[1][_FINITE].tobytes()
    assert got.endpoint_verdict.tolist() == want[2].tolist()
    assert got.conclusive.tolist() == want[3].tolist()
    assert np.isnan(got.min_value[~_FINITE]).all() and np.isfinite(got.min_value[_FINITE]).all()
    assert got.argmin_s[0] == got.argmin_s[2] == got.argmin_s[3] == 1e-8
    assert math.copysign(1, got.min_value[2]) == -1


class TestHalfPlaneBound:
    def test_am_gm_case(self):
        assert half_plane_bound_check(0, 2, 0, 1, 0.5)

    def test_sqrt_bound(self):
        assert half_plane_bound_check(1, 0, 0, 1, 0.5)
        s = np.logspace(-6, 6, 1000)
        assert np.all(np.sqrt(s) <= s + 1 / s + 1e-12)

    def test_reject(self):
        assert not half_plane_bound_check(2, 0, 0, 1, 0.5)

    def test_negative_b_does_not_buy_back_a_large_peak(self):
        # B/2 + max = -2 <= K, yet 3 s^0.95 - 10 > s + 1/s around s = 1e6
        assert not half_plane_bound_check(3, -10, 0, 1, 0.95)
        s = 1e6
        assert 3 * s**0.95 - 10 > s + 1 / s

    def test_preconditions(self):
        with pytest.raises(ValueError):
            half_plane_bound_check(0, 0, 0, -1, 0.5)
        with pytest.raises(ValueError):
            half_plane_bound_check(0, 0, 0, 1, 1.5)

    def test_implication_sampled(self):
        rng = np.random.RandomState(5)
        s = np.logspace(-6, 6, 400)
        checked = 0
        for _ in range(300):
            A, B, C = rng.uniform(-5, 5, 3)
            K = rng.uniform(0.1, 5)
            alpha = rng.uniform(0.05, 0.95)
            if half_plane_bound_check(A, B, C, K, alpha):
                checked += 1
                lhs = A * s**alpha + B + C * s ** (-alpha)
                rhs = K * (s + 1 / s)
                assert np.all(lhs <= rhs + 1e-9 * (1 + np.abs(rhs)))
        assert checked > 20
