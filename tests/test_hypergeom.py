"""Series evaluator tests against closed forms, finite differences and the ODE."""

import cmath
import copy
import dataclasses
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from conftest import draw_corpus_point, draw_params
from reference import ode_residual

from hypstar import (
    HypergeomParams,
    InvalidC,
    InvalidParams,
    NoConvergence,
    RadiusExceeded,
    RingValues,
    SeriesSettings,
    ZeroOfF,
    gauss_2f1,
    gauss_2f1_derivative,
    gauss_2f1_grid,
    gauss_2f1_ring,
    log_derivative_q,
    shifted_f,
)
from hypstar import hypergeom
from hypstar.cli import main

LN2 = math.log(2.0)


class TestParams:
    def test_rejects_nonpositive_integer_c(self):
        for c in (0, -1, -2, -7, -2 + 1e-13j, -3 + 1e-13):
            with pytest.raises(InvalidC):
                HypergeomParams(1, 1, c)

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(3, math.nan), complex(1, -math.inf)])
    def test_refuses_non_finite(self, name, bad):
        values = {"a": 1.5, "b": 2, "c": 3}
        values[name] = bad
        with pytest.raises(InvalidParams, match=f"^{name} must be finite, got "):
            HypergeomParams(**values)

    def test_accepts_near_misses(self):
        HypergeomParams(1, 1, -2 + 0.5j)
        HypergeomParams(1, 1, 1e-3)
        HypergeomParams(1, 1, -1.5)

    def test_p_recomputed(self):
        params = HypergeomParams(2, 2 + 5j, 3 + 5j)
        assert params.p == 2 + 0j

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SeriesSettings(tol=0)
        with pytest.raises(ValueError):
            SeriesSettings(radius_cap=1.0)
        with pytest.raises(ValueError):
            SeriesSettings(max_terms=0)
        for tol in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="tol must be a finite number > 0"):
                SeriesSettings(tol=tol)


class TestGauss2F1:
    def test_value_at_zero_is_one(self):
        assert gauss_2f1(HypergeomParams(2 + 1j, -3, 0.5), 0) == 1

    def test_binomial_closed_form(self):
        # 2F1(a, b; b; z) = (1 - z)^(-a)
        got = gauss_2f1(HypergeomParams(1, 2, 2), 0.5)
        assert got == pytest.approx(2.0, rel=1e-14)

    def test_log_closed_form(self):
        # 2F1(1, 1; 2; z) = -log(1 - z)/z
        got = gauss_2f1(HypergeomParams(1, 1, 2), 0.5)
        assert got == pytest.approx(2 * LN2, rel=1e-14)

    def test_tail_bound_is_infinite_below_minus_re_c(self):
        # 2F1(a, b; a; z) = (1 - z)^(-b); with Re c = -300.5 the tail bound is
        # infinite for the first 300 terms, so the series must run past them
        a = c = -300.5 + 0.25j
        b = 1.5 - 0.5j
        params = HypergeomParams(a, b, c)
        assert hypergeom._tail_ratio(params, 0.9, 300) == math.inf
        assert hypergeom._tail_ratio(params, 0.9, 301) < 1
        for z in (0.5, 0.6j, -0.9 + 0.1j):
            assert gauss_2f1(params, z) == pytest.approx((1 - z) ** -b, rel=1e-13)
        ring = gauss_2f1_ring(params, 0.9, 120)
        z = 0.9 * np.exp(2j * np.pi * np.arange(120) / 120)
        assert ring.converged.all()
        np.testing.assert_allclose(ring.f.astype(complex), (1 - z) ** -b, rtol=1e-13)
        np.testing.assert_allclose(ring.zdf.astype(complex), b * z * (1 - z) ** (-b - 1), rtol=1e-13)

    def test_radius_exceeded(self):
        with pytest.raises(RadiusExceeded):
            gauss_2f1(HypergeomParams(1, 1, 2), 0.996)

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            gauss_2f1(HypergeomParams(1, 1, 2), 0.9, SeriesSettings(max_terms=5))

    def test_terminating_series(self):
        # a = -1 terminates: F(-1, 2; 1; z) = 1 - 2z
        params = HypergeomParams(-1, 2, 1)
        assert gauss_2f1(params, 0.3) == pytest.approx(0.4, abs=1e-15)

    def test_grid_matches_scalar(self):
        rng = np.random.RandomState(7)
        params = HypergeomParams(1.3 + 0.7j, -0.4 + 1.1j, 2.2 - 0.3j)
        z = (rng.uniform(0, 0.9, 24) * np.exp(1j * rng.uniform(0, 2 * np.pi, 24))).astype(complex)
        vals, ok = gauss_2f1_grid(params, z)
        assert ok.all()
        for zi, vi in zip(z, vals):
            assert complex(vi) == pytest.approx(gauss_2f1(params, zi), rel=1e-13)

    def test_grid_flags_unconverged_points(self):
        # five terms settle near the origin and nowhere near |z| = 0.9
        z = np.array([0, 1e-4, 0.5, 0.9, 0.9j])
        vals, ok = gauss_2f1_grid(HypergeomParams(1, 1, 2), z, SeriesSettings(max_terms=5))
        assert ok.tolist() == [True, True, False, False, False]
        assert vals[0] == 1
        assert np.isfinite(vals).all()

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for a, b, c, z in [
            (2 + 1j, 1 - 1j, 3 + 0.5j, 0.3 + 0.4j),
            (0.5, -1.2 + 2j, 1.7, -0.6 + 0.1j),
        ]:
            want = complex(mp.hyp2f1(a, b, c, z))
            got = gauss_2f1(HypergeomParams(a, b, c), z)
            assert got == pytest.approx(want, rel=1e-10)


class TestDerivative:
    def test_at_zero(self):
        assert gauss_2f1_derivative(HypergeomParams(1, 2, 2), 0) == pytest.approx(1.0)

    def test_closed_form(self):
        # d/dz (1-z)^(-1) = (1-z)^(-2)
        got = gauss_2f1_derivative(HypergeomParams(1, 2, 2), 0.5)
        assert got == pytest.approx(4.0, rel=1e-13)

    def test_finite_difference(self):
        params = HypergeomParams(2, 3, 4)
        z, h = 0.3, 1e-6
        fd = (gauss_2f1(params, z + h) - gauss_2f1(params, z - h)) / (2 * h)
        exact = gauss_2f1_derivative(params, z)
        assert abs(fd - exact) <= 1e-6 * abs(exact)


class TestShiftedF:
    def test_zero(self):
        assert shifted_f(HypergeomParams(3, -1j, 2), 0) == 0

    def test_koebe_like(self):
        # f(z) = z/(1-z) for (2, 1, 2)
        assert shifted_f(HypergeomParams(2, 1, 2), 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_log(self):
        assert shifted_f(HypergeomParams(1, 1, 2), 0.5) == pytest.approx(LN2, rel=1e-14)


class TestLogDerivativeQ:
    def test_exact_one_at_origin(self):
        assert log_derivative_q(HypergeomParams(1.5, -2j, 3), 0) == 1 + 0j

    def test_half_plane_map(self):
        # q(z) = 1/(1-z) for f = z/(1-z)
        assert log_derivative_q(HypergeomParams(2, 1, 2), 0.5) == pytest.approx(2.0, rel=1e-13)

    def test_composite_finite_difference(self):
        params = HypergeomParams(1, 1, 3)
        z, h = 0.5j, 1e-6
        f = shifted_f(params, z)
        fd = (shifted_f(params, z + h) - shifted_f(params, z - h)) / (2 * h)
        oracle = fd * z / f
        got = log_derivative_q(params, z)
        assert abs(got - oracle) <= 1e-6 * abs(got)

    def test_zero_of_f(self):
        # F(-1, 2; 1; z) = 1 - 2z vanishes at z = 1/2
        with pytest.raises(ZeroOfF):
            log_derivative_q(HypergeomParams(-1, 2, 1), 0.5)


class TestOdeResidual:
    def test_exact_solution(self):
        assert abs(ode_residual(HypergeomParams(1, 2, 2), 0.5)) < 1e-9

    def test_complex_parameters(self):
        z = 0.4 * cmath.exp(1j * math.pi / 3)
        assert abs(ode_residual(HypergeomParams(2 + 1j, 1 - 1j, 3), z)) < 1e-8

    def test_at_origin(self):
        assert abs(ode_residual(HypergeomParams(1.7 - 2j, 0.3, 1.1j + 2), 0)) < 1e-12


class TestCorpusInvariants:
    """Randomized-identity checks on a moderate corpus; the acceptance suite
    reruns them at full size."""

    def test_symmetry_and_ode(self):
        rng = np.random.RandomState(42)
        for _ in range(100):
            params, z = draw_corpus_point(rng)
            left = gauss_2f1(params, z)
            right = gauss_2f1(params.swapped(), z)
            assert abs(left - right) <= 1e-12 * (1 + abs(left))
            assert abs(ode_residual(params, z)) < 1e-8 * (1 + abs(left))

    def test_derivative_vs_finite_difference(self):
        rng = np.random.RandomState(43)
        h = 1e-6
        for _ in range(60):
            params, z = draw_corpus_point(rng, min_ab=0.2)
            exact = gauss_2f1_derivative(params, z)
            fd = (gauss_2f1(params, z + h) - gauss_2f1(params, z - h)) / (2 * h)
            assert abs(fd - exact) <= 1e-5 * max(abs(exact), 1e-12)


class TestOnePass:
    """F, F' and q from the one tail-bounded long double pass."""

    def test_fft_keeps_long_double(self):
        # numpy before 2.0 computed np.fft in complex128, which would drop
        # the ring evaluator's extra digits without an error
        out = np.fft.ifft(np.arange(8, dtype=np.clongdouble))
        assert out.dtype == np.clongdouble

    def test_corpus_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.RandomState(2024)
        worst = 0.0
        with mp.workdps(30):
            for _ in range(300):
                params, z = draw_corpus_point(rng)
                a, b, c, w = (mp.mpc(v) for v in (params.a, params.b, params.c, z))
                F = mp.hyp2f1(a, b, c, w)
                dF = a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, w)
                q = 1 + w * dF / F
                for got, want in (
                    (gauss_2f1(params, z), F),
                    (gauss_2f1_derivative(params, z), dF),
                    (log_derivative_q(params, z), q),
                ):
                    worst = max(worst, float(abs(got - want) / abs(want)))
        assert worst <= 1e-13, worst

    def test_swap_is_bit_identical_at_points(self):
        rng = np.random.RandomState(44)
        for _ in range(100):
            params, z = draw_corpus_point(rng)
            swapped = params.swapped()
            assert gauss_2f1(params, z) == gauss_2f1(swapped, z)
            assert log_derivative_q(params, z) == log_derivative_q(swapped, z)

    @pytest.mark.parametrize("abc", [(2, 2 + 5j, 3 + 5j), (0.5 - 1j, 1.5 + 2j, 3)])
    def test_swap_is_bit_identical_on_rings(self, abc):
        params = HypergeomParams(*abc)
        ring = gauss_2f1_ring(params, 0.995, 720)
        swapped = gauss_2f1_ring(params.swapped(), 0.995, 720)
        assert np.array_equal(ring.f, swapped.f)
        assert np.array_equal(ring.zdf, swapped.zdf)


# the pass itself, kept apart from the counting stand-in of `passes`
POINT_SERIES = hypergeom._point_series


def _bits(v) -> bytes:
    """The bytes of a complex128, so that -0.0 and 0.0 differ."""
    return np.array(v, dtype=np.complex128).tobytes()


def _direct(params, z):
    """The four public point values built from one direct `_point_series` call."""
    f, zdf, converged = POINT_SERIES(params, complex(z), SeriesSettings())
    assert converged
    return {
        gauss_2f1: complex(f),
        gauss_2f1_derivative: complex(zdf / z),
        shifted_f: z * complex(f),
        log_derivative_q: complex(1 + zdf / f),
    }


@pytest.fixture
def passes(monkeypatch):
    """The argument tuples of every `_point_series` call, starting from an empty memo."""
    calls = []

    def counted(*args):
        calls.append(args)
        return POINT_SERIES(*args)

    hypergeom._last_point.cache_clear()
    monkeypatch.setattr(hypergeom, "_point_series", counted)
    yield calls
    hypergeom._last_point.cache_clear()


class TestPointMemo:
    """F, F', f and q at one (params, z, settings) share one pass."""

    def test_bit_identical_to_a_direct_pass(self):
        rng = np.random.RandomState(2025)
        for i in range(300):
            params, z = draw_corpus_point(rng)
            want = _direct(params, z)
            order = list(want)[i % 4:] + list(want)[:i % 4]
            for fn in order + order:
                assert _bits(fn(params, z)) == _bits(want[fn]), (fn.__name__, params, z)

    def test_one_pass_per_op(self, passes):
        rng = np.random.RandomState(2026)
        for n in range(1, 21):
            params, z = draw_corpus_point(rng)
            gauss_2f1(params, z)
            gauss_2f1_derivative(params, z)
            log_derivative_q(params, z)
            shifted_f(params, z)
            assert len(passes) == n

    def test_one_pass_per_eval_command(self, passes, capsys):
        assert main(["eval", "--a", "1.5,0.5", "--b", "2", "--c", "3,-1", "--z", "0.3,0.4", "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"F", "F_prime", "f", "q"}
        assert len(passes) == 1

    def test_alternating_points_take_a_pass_each(self, passes):
        points = [(HypergeomParams(1.5, -0.5j, 2), 0.4 + 0.2j), (HypergeomParams(1.5, -0.5j, 2), 0.4 - 0.2j)]
        want = [_direct(params, z) for params, z in points]
        for n in range(1, 9):
            (params, z), expected = points[n % 2], want[n % 2]
            assert _bits(gauss_2f1(params, z)) == _bits(expected[gauss_2f1])
            assert _bits(log_derivative_q(params, z)) == _bits(expected[log_derivative_q])
            assert len(passes) == n

    def test_signed_zero_shares_the_pass(self, passes):
        # 0.5+0j and 0.5-0j are one key; the pass gives the same bits at both
        params = HypergeomParams(1 - 2j, 0.5, 2.5)
        for z in (complex(0.5, 0.0), complex(0.5, -0.0), complex(-0.5, -0.0), complex(-0.5, 0.0)):
            hypergeom._last_point.cache_clear()
            want = _direct(params, z)
            for fn, value in want.items():
                assert _bits(fn(params, z)) == _bits(value)
        assert len(passes) == 4
        for z in (complex(0.5, 0.0), complex(0.5, -0.0)):
            assert _bits(gauss_2f1(params, z)) == _bits(_direct(params, complex(0.5, 0.0))[gauss_2f1])
        assert len(passes) == 5

    def test_new_settings_take_a_new_pass(self, passes):
        params, z = HypergeomParams(2, 1 + 1j, 3), 0.7j
        loose = SeriesSettings(tol=1e-10)
        gauss_2f1(params, z)
        gauss_2f1(params, z, loose)
        gauss_2f1(params, z, loose)
        gauss_2f1(params, z, SeriesSettings())
        assert [args[2] for args in passes] == [SeriesSettings(), loose, SeriesSettings()]

    def test_no_convergence_is_never_remembered(self, passes):
        params, short = HypergeomParams(1, 1, 2), SeriesSettings(max_terms=5)
        for n, fn in enumerate((gauss_2f1, gauss_2f1, gauss_2f1_derivative, shifted_f, log_derivative_q), 1):
            with pytest.raises(NoConvergence):
                fn(params, 0.9, short)
            assert len(passes) == n


def _reference_term_ratios(params, z, n):
    """`hypergeom._term_ratios` as one allocating expression.

    Over real n the triple is real, and the quotient is a product by the
    reciprocal, as numpy's complex quotient is at zero imaginary parts.
    """
    if n.dtype == np.longdouble:
        a, b, c = params.a.real, params.b.real, params.c.real
        return z * ((n + a) * (n + b)) * (1 / ((n + c) * (n + 1)))
    return z * ((n + params.a) * (n + params.b)) / ((n + params.c) * (n + 1))


def _reference_verdict(f, zdf, tail, tol):
    """The stopping rule on arrays: converged where tail <= tol min(|F|, |zF'|); the next
    goal is the least such scale where that fails, None where nothing does."""
    scale = np.minimum(abs(f), abs(zdf))
    converged = tail <= tol * scale
    goal = None if converged.all() else float(np.min(np.where(converged, np.inf, scale)))
    return converged, goal


def _reference_sum_series(params, z, settings, width, add, values, dtype=np.clongdouble):
    """The block-by-block series loop that `_sum_series` must match: one numpy pass per block, added as it comes.

    It runs the stopping rule itself and asserts at every check that the
    verdict and goal of values() are the same.  In dtype np.longdouble it
    returns None at a term that is not finite, before adding it.
    """
    r = abs(z)
    last = dtype(1)
    goal = 1.0
    start = 1
    while True:
        stop = min(start - start % width + width, settings.max_terms + 1)
        n = np.arange(start - 1, stop - 1, dtype=dtype)
        ratio = _reference_term_ratios(params, z, n)
        ratio[0] *= last
        u = np.cumprod(ratio)
        last = u[-1]
        if dtype is np.longdouble and not np.isfinite(last):
            return None
        add(start, u, n + 1)
        k = stop - 1
        if last == 0:
            tail = 0.0
        else:
            rho = hypergeom._tail_ratio(params, r, k)
            tail = k * float(abs(last)) * rho / (1 - rho) if rho < 1 else math.inf
        exhausted = stop > settings.max_terms or not np.isfinite(last)
        if tail <= settings.tol * goal or exhausted:
            f, zdf, their_converged, their_goal = values(tail, settings.tol)
            converged, next_goal = _reference_verdict(f, zdf, tail, settings.tol)
            assert np.array_equal(their_converged, converged)
            assert (their_goal is None) == (next_goal is None)
            assert next_goal is None or _same_bits(their_goal, next_goal)
            if next_goal is None or exhausted:
                return f, zdf, converged, stop, tail
            goal = next_goal
        start = stop


def _reference_ring(params, r, n_angles, settings=SeriesSettings()):
    """The block-by-block ring pass that `gauss_2f1_ring` must match: a Python loop over rows, np.roll."""
    fold = np.zeros(n_angles, dtype=np.clongdouble)
    fold[0] = 1
    wfold = np.zeros(n_angles, dtype=np.clongdouble)
    m = np.arange(n_angles, dtype=np.longdouble)
    rl = np.longdouble(r)
    one_minus_z = 1 - rl * hypergeom._roots_of_unity(n_angles)

    def add(start, u, n):
        offset = start % n_angles
        rows = np.zeros(-(-(offset + len(u)) // n_angles) * n_angles, dtype=np.clongdouble)
        rows[offset:offset + len(u)] = u
        for row_start, row in zip(range(start - offset, start + len(u), n_angles), rows.reshape(-1, n_angles)):
            fold[:] += row
            wfold[:] += np.longdouble(row_start) * row

    def deflated_dft(x):
        return len(x) * np.fft.ifft(x - rl * np.roll(x, 1))

    def values(tail, tol):
        f, zdf = deflated_dft(fold) / one_minus_z, deflated_dft(m * fold + wfold) / one_minus_z
        return (f, zdf, *_reference_verdict(f, zdf, tail, tol))

    width = n_angles * -(-hypergeom._RING_BLOCK // n_angles)
    return RingValues(*_reference_sum_series(params, float(r), settings, width, add, values))


def _reference_loop(params, z, settings, width, reach, add, values, dtype=np.clongdouble):
    """`_reference_sum_series` in the place of `_sum_series`, which also takes reach."""
    return _reference_sum_series(params, z, settings, width, add, values, dtype)


def _same_bits(x, y) -> bool:
    """Equal real and imaginary parts with equal sign bits; NaN matches NaN.

    Not tobytes(): an np.clongdouble carries padding bytes that numpy leaves
    uninitialised, so equal values can differ there.
    """
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and all(
        np.array_equal(p, q, equal_nan=True) and np.array_equal(np.signbit(p), np.signbit(q))
        for p, q in ((x.real, y.real), (x.imag, y.imag))
    )


def _same_ring(got: RingValues, want: RingValues) -> bool:
    return (_same_bits(got.f, want.f) and _same_bits(got.zdf, want.zdf)
            and np.array_equal(got.converged, want.converged)
            and got.terms == want.terms and _same_bits(got.tail, want.tail))


# (a, b, c), r, n_angles, settings.  At r = 0.97 and n_angles = 120 a span
# is four blocks of 360 terms; at r = 0.995 and 720, two spans of five
# blocks of 720 come before single blocks.
EDGE_RINGS = [
    ((-3, 2, 1.5), 0.97, 120, SeriesSettings()),  # terminates: stops at the span's first block end
    ((1, 1, 2), 0.97, 120, SeriesSettings(max_terms=100)),  # max_terms inside the first block
    ((1, 1, 2), 0.97, 120, SeriesSettings(max_terms=361)),  # one term past a block end
    ((1, 1, 2), 0.97, 120, SeriesSettings(max_terms=1441)),  # one term past the first span
    ((1.5, 2 + 1j, 0.5), 0.995, 720, SeriesSettings(max_terms=5000)),  # inside the second span
    ((2, 2, 1), 0.97, 120, SeriesSettings(max_terms=5000)),
    ((1e150, 1e150, 1), 0.97, 120, SeriesSettings()),  # overflows in the first block
    ((1e5, 1e5, 1), 0.97, 120, SeriesSettings()),  # overflows in the span's third block
    ((2e4, 2e4, 1), 0.995, 720, SeriesSettings()),  # overflows in the span's third block
    ((1, 2, 3), 0.0, 120, SeriesSettings()),
    ((1 + 1j, 2, 3), 0.97, 120, SeriesSettings(tol=1e-8)),
    ((1 + 1j, 2, 3), 0.97, 8, SeriesSettings()),
    ((1 + 1j, 2, 3), 0.97, 257, SeriesSettings()),
    ((1 + 1j, 2, 3), 0.97, 1, SeriesSettings()),  # one column: np.add.reduce would sum it pairwise
    ((1 + 1j, 2, 3), 0.97, 2, SeriesSettings()),
    ((0.5, 0.5, 1.5), 0.995, 5760, SeriesSettings()),  # one block wider than a span
]


def _recorded(fn, *args):
    """fn(*args) and the (category, message) of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [(w.category, str(w.message)) for w in caught]


class TestRingSpans:
    """The span pass against the block-by-block pass it replaced, bit for bit."""

    def test_random_triples(self):
        rng = np.random.RandomState(7)
        for i in range(300):
            params = draw_params(rng, radius=3)
            for r, n in ((0.97, 120), (0.995, 720), (0.5, 120), (0.9, 240)):
                assert _same_ring(gauss_2f1_ring(params, r, n), _reference_ring(params, r, n)), (i, params, r, n)

    @pytest.mark.parametrize("abc, r, n, settings", EDGE_RINGS)
    def test_edge_rings_match_with_the_same_warnings(self, abc, r, n, settings):
        """Terms a span makes past the stopping block are never added and raise
        no warning that the block-by-block pass did not raise.

        Warnings compare by category and message, not by count: numpy warns
        once per call, and one stacked transform makes the calls of two.
        """
        params = HypergeomParams(*abc)
        got, got_warnings = _recorded(gauss_2f1_ring, params, r, n, settings)
        want, want_warnings = _recorded(_reference_ring, params, r, n, settings)
        assert _same_ring(got, want)
        assert set(got_warnings) == set(want_warnings)
        if abs(abc[0]) >= 1e4:
            assert not np.isfinite(want.f).all() and want_warnings

    def test_points_match(self, monkeypatch):
        rng = np.random.RandomState(2027)
        points = [draw_corpus_point(rng) for _ in range(300)]
        points += [(HypergeomParams(1, 1, 2), 0.995), (HypergeomParams(-3, 2, 1.5), 0.9j)]
        # overflow: the first block, and a later one
        points += [(HypergeomParams(1e150, 1e150, 1), 0.5), (HypergeomParams(2e4, 2e4, 1), 0.9)]
        got = [_recorded(POINT_SERIES, params, complex(z), SeriesSettings()) for params, z in points]
        monkeypatch.setattr(hypergeom, "_sum_series", _reference_loop)
        for (params, z), (values, got_warnings) in zip(points, got):
            want, want_warnings = _recorded(POINT_SERIES, params, complex(z), SeriesSettings())
            assert all(_same_bits(x, y) for x, y in zip(values, want)), (params, z)
            assert set(got_warnings) == set(want_warnings), (params, z)
        assert not any(np.isfinite(values[0]) for values, _ in got[-2:])

    @pytest.mark.parametrize("scales", [(1e-10, 1), (8, 4)])
    def test_point_verdict_keeps_nan(self, monkeypatch, scales):
        """A NaN |F| or |zF'| fails the test, as np.minimum keeps it; min(x, nan) would give x.

        Terms near the largest long double overflow one sum to inf and then
        to NaN, while the other stays finite: F with n = 1e-10, zF' with n = 8.
        """
        n, parts = scales
        big = np.finfo(np.longdouble).max / parts

        def fake_loop(params, z, settings, width, reach, add, values):
            add(1, np.full(2, big, dtype=np.clongdouble), np.full(2, n, dtype=np.clongdouble))
            add(3, np.full(2, -big, dtype=np.clongdouble), np.full(2, n, dtype=np.clongdouble))
            f, zdf, converged, goal = values(0.0, settings.tol)
            assert np.isnan([abs(f), abs(zdf)]).sum() == 1
            want_converged, want_goal = _reference_verdict(f, zdf, 0.0, settings.tol)
            assert not converged and not want_converged
            assert math.isnan(goal) and math.isnan(want_goal)
            return f, zdf, converged, 5, 0.0

        monkeypatch.setattr(hypergeom, "_sum_series", fake_loop)
        with np.errstate(all="ignore"):
            assert not POINT_SERIES(HypergeomParams(1, 1, 2), 0.5, SeriesSettings())[2]

    def test_ring_callbacks_match(self, monkeypatch):
        """The ring's own add and values, driven block by block, give the span pass's bits."""
        rng = np.random.RandomState(8)
        rings = [(draw_params(rng, radius=3), r, n, SeriesSettings()) for r, n in ((0.97, 120), (0.995, 720))]
        rings += [(HypergeomParams(*abc), r, n, settings) for abc, r, n, settings in EDGE_RINGS]
        got = [_recorded(gauss_2f1_ring, *ring) for ring in rings]
        monkeypatch.setattr(hypergeom, "_sum_series", _reference_loop)
        for ring, (values, got_warnings) in zip(rings, got):
            want, want_warnings = _recorded(gauss_2f1_ring, *ring)
            assert _same_ring(values, want), ring
            assert set(got_warnings) == set(want_warnings), ring


# the ratios themselves, kept apart from the recording stand-in
TERM_RATIOS = hypergeom._term_ratios


class TestTerminatingSpans:
    """A terminating ring makes no term past the block where its series ends."""

    @pytest.mark.parametrize("abc, r, n_angles", [
        ((-1, 2, 1), 0.995, 720),
        ((-1, 1, 0.3 + 0.4j), 0.995, 720),
        ((2, -5, 3), 0.995, 720),
        ((2, -5, 3), 0.97, 120),
    ])
    def test_span_stops_at_the_degree(self, monkeypatch, abc, r, n_angles):
        lengths = []

        def recorded(params, z, n, n1):
            lengths.append(len(n))
            return TERM_RATIOS(params, z, n, n1)

        monkeypatch.setattr(hypergeom, "_term_ratios", recorded)
        params = HypergeomParams(*abc)
        got = gauss_2f1_ring(params, r, n_angles)
        width = n_angles * -(-hypergeom._RING_BLOCK // n_angles)
        assert lengths and max(lengths) <= width
        assert got.terms == width and got.tail == 0
        assert _same_ring(got, _reference_ring(params, r, n_angles))



def _signed_zero_triples(rng, n):
    """n random triples whose parts are +0.0 or -0.0 at random, every third one
    real (its imaginary parts signed zeros), then terminating and overflowing ones."""
    triples = []
    while len(triples) < n:
        parts = rng.uniform(-3, 3, 6) * (rng.uniform(size=6) > 0.3)
        if len(triples) % 3 == 0:
            parts[1::2] = 0.0
        parts *= rng.choice([1.0, -1.0], 6)
        try:
            triples.append(HypergeomParams(*(complex(parts[i], parts[i + 1]) for i in (0, 2, 4))))
        except InvalidC:
            continue
    edges = [(-3, complex(2, -0.0), 1.5), (complex(1, 1), -5, complex(3, -0.0)), (complex(-0.0, 2), -2, 0.5),
             (1e155, 1e155, 2), (2e4, 2e4, 1), (complex(1e150, -0.0), 1e150, complex(1, 1))]
    return triples + [HypergeomParams(*abc) for abc in edges]


PREPARED = _signed_zero_triples(np.random.RandomState(24), 45)


def _flip_zeros(params):
    """The triple with the sign of each zero part flipped; it is equal to params."""
    def flip(x):
        return -x if x == 0 else x
    return HypergeomParams(*(complex(flip(w.real), flip(w.imag)) for w in (params.a, params.b, params.c)))


class TestPreparedTriple:
    """A triple keeps its hash from construction; every series result is the one
    that the reference loop, fed the triple's Python numbers, gives, sign of
    zero included."""

    def test_points_and_rings_match_the_reference_loop(self, monkeypatch):
        """Points at complex z, and rings in the triple's own dtype (long double
        for the real triples), against `_reference_loop`, and under a swap."""
        points = [(params, z) for params in PREPARED for z in (0.6j, complex(-0.8, -0.0), complex(0.4, -0.5))]
        with np.errstate(all="ignore"):
            got_points = [POINT_SERIES(params, complex(z), SeriesSettings()) for params, z in points]
            got_rings = [gauss_2f1_ring(params, 0.97, 120) for params in PREPARED]
            for (params, z), got in zip(points, got_points):
                swapped = POINT_SERIES(params.swapped(), complex(z), SeriesSettings())
                assert all(_same_bits(x, y) for x, y in zip(got, swapped)), (params, z)
            for params, got in zip(PREPARED, got_rings):
                assert _same_ring(got, gauss_2f1_ring(params.swapped(), 0.97, 120)), params
            monkeypatch.setattr(hypergeom, "_sum_series", _reference_loop)
            for (params, z), got in zip(points, got_points):
                want = POINT_SERIES(params, complex(z), SeriesSettings())
                assert all(_same_bits(x, y) for x, y in zip(got, want)), (params, z)
            for params, got in zip(PREPARED, got_rings):
                assert _same_ring(got, gauss_2f1_ring(params, 0.97, 120)), params
        real = [params for params in PREPARED if hypergeom._ring_dtype(params) is np.longdouble]
        assert len(real) >= 15 and any(math.copysign(1, params.a.imag) < 0 for params in real)

    def test_equal_triples_hash_equal(self):
        """Signed zeros and the type of the numbers given leave the triple, its hash
        and its pass unchanged; the memo, which takes equal triples as one key,
        so returns each of them its own bits."""
        pairs = [(HypergeomParams(1, 2, 3), HypergeomParams(1.0, 2 + 0j, np.float64(3)))]
        pairs += [(params, _flip_zeros(params)) for params in PREPARED]
        for params, other in pairs:
            assert params == other and hash(params) == hash(other) == hash((params.a, params.b, params.c))
            assert len({params, other}) == 1
        with np.errstate(all="ignore"):
            for params, other in pairs[1:]:
                mine = POINT_SERIES(params, 0.5 - 0.4j, SeriesSettings())
                assert all(_same_bits(x, y) for x, y in zip(mine, POINT_SERIES(other, 0.5 - 0.4j, SeriesSettings())))
        settings = SeriesSettings(tol=1e-15, max_terms=200_000, radius_cap=0.995)
        assert hash(settings) == hash(hypergeom.DEFAULT_SERIES) == hash((1e-15, 200_000, 0.995))

    def test_replace_prepares_the_new_triple(self):
        params, z = HypergeomParams(1 + 1j, 2, 3), 0.5 + 0.2j
        gauss_2f1(params, z)
        moved = dataclasses.replace(params, a=-0.5)
        fresh = HypergeomParams(-0.5, 2, 3)
        assert moved == fresh and hash(moved) == hash(fresh) != hash(params)
        assert _bits(gauss_2f1(moved, z)) == _bits(_direct(fresh, z)[gauss_2f1])
        with pytest.raises(InvalidC):
            dataclasses.replace(params, c=-2)
        loose = dataclasses.replace(hypergeom.DEFAULT_SERIES, tol=1e-10)
        assert hash(loose) == hash(SeriesSettings(tol=1e-10)) != hash(hypergeom.DEFAULT_SERIES)

    def test_copies_and_pickles_are_equal_triples(self):
        params = HypergeomParams(complex(-0.0, 1), 2.5, 3)
        for other in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert other == params and hash(other) == hash(params)
            assert math.copysign(1, other.a.real) < 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.a = 1
