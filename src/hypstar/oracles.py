"""A log-grid line minimizer for the checkers' inequalities quantified over
s in (0, infinity).

Nothing in this module knows about hypergeometric functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tolerance import at_most, strict_pos

_GOLDEN = (math.sqrt(5) - 1) / 2

# brackets up to which golden_section, and the cubic residual on its points,
# run on Python floats: measured, the bookkeeping alone wins up to about 30
# brackets and the residual up to 12-15; a one-row minimization refines 3
FEW_BRACKETS = 12


def golden_section(f: Callable, lo, hi, iters: int):
    """Golden-section minimization of f on the brackets [lo, hi]; returns
    (argmin, min), one entry per bracket.

    lo and hi are arrays of brackets (0-d for one bracket): f is called on
    arrays of that shape, and all brackets shrink in lockstep.  The points
    are fresh contiguous arrays, and numpy rounds a float64 exp of them by its
    SIMD kernel (of a reversed array, by libm's): the minimizer kinds' goldens
    rest on that layout.  Up to FEW_BRACKETS brackets the comparisons and
    selects run on Python floats, whose +, -, * and <= round and order as
    numpy's float64 ones do, so both paths give the same bits.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if np.broadcast(lo, hi).size <= FEW_BRACKETS:
        return _golden_few(f, lo, hi, iters)
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 <= f2
        # left: the minimum lies in [lo, x2] and x1 becomes the new x2; else it lies in [x1, hi]
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x_kept, f_kept = np.where(left, x1, x2), np.where(left, f1, f2)
        step = _GOLDEN * (hi - lo)
        x_new = np.where(left, hi - step, lo + step)
        f_new = f(x_new)
        x1, f1 = np.where(left, x_new, x_kept), np.where(left, f_new, f_kept)
        x2, f2 = np.where(left, x_kept, x_new), np.where(left, f_kept, f_new)
    first = f1 <= f2
    return np.where(first, x1, x2), np.where(first, f1, f2)


def _golden_few(f: Callable, lo: np.ndarray, hi: np.ndarray, iters: int):
    """`golden_section` with each bracket's state in Python floats, updated in
    the array path's order; f still gets a fresh contiguous array."""
    shape = np.broadcast_shapes(lo.shape, hi.shape)
    lo, hi = (np.broadcast_to(v, shape).ravel().tolist() for v in (lo, hi))

    def evaluate(x: list) -> list:
        return f(np.array(x).reshape(shape)).ravel().tolist()

    x1 = [b - _GOLDEN * (b - a) for a, b in zip(lo, hi)]
    x2 = [a + _GOLDEN * (b - a) for a, b in zip(lo, hi)]
    f1, f2 = evaluate(x1), evaluate(x2)
    brackets = range(len(lo))
    for _ in range(iters):
        left = [u <= v for u, v in zip(f1, f2)]
        x_new = []
        for i in brackets:
            if left[i]:
                a, b = lo[i], x2[i]
                hi[i] = b
                x_new.append(b - _GOLDEN * (b - a))
            else:
                a, b = x1[i], hi[i]
                lo[i] = a
                x_new.append(a + _GOLDEN * (b - a))
        f_new = evaluate(x_new)
        for i in brackets:
            if left[i]:
                x2[i], f2[i], x1[i], f1[i] = x1[i], f1[i], x_new[i], f_new[i]
            else:
                x1[i], f1[i], x2[i], f2[i] = x2[i], f2[i], x_new[i], f_new[i]
    first = [u <= v for u, v in zip(f1, f2)]
    x = [a if k else b for k, a, b in zip(first, x1, x2)]
    v = [a if k else b for k, a, b in zip(first, f1, f2)]
    return np.array(x).reshape(shape), np.array(v).reshape(shape)


@dataclass(frozen=True)
class LineSearchSettings:
    """Controls for the positive-line minimizer, and min_margin: how far from
    zero the checkers that use it want a minimum before they trust its sign."""

    s_min: float = 1e-8
    s_max: float = 1e8
    n_log_points: int = 2000
    refine_iters: int = 60
    min_margin: float = 1e-9

    def __post_init__(self):
        if not 0 < self.s_min < self.s_max:
            raise ValueError("need 0 < s_min < s_max")
        if not math.isfinite(self.s_max):
            raise ValueError("s_max must be finite")
        if self.n_log_points < 16:
            raise ValueError("n_log_points must be at least 16")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be at least 0")
        # a negative margin would certify rows whose minimum residual is below zero
        if not 0 <= self.min_margin < math.inf:
            raise ValueError("min_margin must be a finite number >= 0")


DEFAULT_LINE_SEARCH = LineSearchSettings()


@dataclass(frozen=True)
class MinimizerResult:
    """Outcome of the positive-line minimizer; every field holds one entry
    per row of the residual."""

    min_value: np.ndarray
    argmin_s: np.ndarray


# float64 values per call of a many-row residual in the log scan (512 KB per
# array); 2^17 scanned no faster and its buffers raised the peak resident size
_SCAN_BLOCK_VALUES = 1 << 16


def leading_coefficients(terms: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Net coefficients of the dominant exponents of sum coef * s^expo, as
    s -> infinity (highest exponent) and as s -> 0+ (lowest exponent).

    An exponent whose distance to a group's first exponent is `at_most` 0
    joins that group, and a group's coefficients are summed, in descending
    order of exponent; a group whose |net coefficient| is not `strict_pos` on
    the scale of the largest cancels, and the next one decides.  Exponents and
    coefficients may be arrays, one entry per row; the results have one entry per row.
    """
    parts = np.broadcast_arrays(*(np.asarray(x, dtype=float) for term in terms for x in term))
    expo = np.atleast_2d(np.stack(parts[0::2], axis=-1))
    coef = np.atleast_2d(np.stack(parts[1::2], axis=-1))
    order = np.argsort(-expo, axis=1, kind="stable")
    expo = np.take_along_axis(expo, order, axis=1)
    coef = np.take_along_axis(coef, order, axis=1)
    n_rows, n_terms = expo.shape
    rows = np.arange(n_rows)
    group = np.zeros(expo.shape, dtype=int)
    first = expo[:, 0]
    for j in range(1, n_terms):
        new = ~at_most(np.abs(first - expo[:, j]), 0)
        group[:, j] = group[:, j - 1] + new
        first = np.where(new, expo[:, j], first)
    sums = np.zeros(expo.shape)
    for j in range(n_terms):
        sums[rows, group[:, j]] += coef[:, j]
    size = np.abs(sums)  # slots past the last group hold 0
    decides = strict_pos(size, scale=size.max(axis=1)[:, None])
    any_decides = decides.any(axis=1)
    at_infinity = np.where(any_decides, sums[rows, np.argmax(decides, axis=1)], 0.0)
    at_zero = np.where(any_decides, sums[rows, n_terms - 1 - np.argmax(decides[:, ::-1], axis=1)], 0.0)
    return at_infinity, at_zero


def minimize_on_positive_line(
    residual: Callable,
    settings: LineSearchSettings = DEFAULT_LINE_SEARCH,
) -> MinimizerResult:
    """Minimum of each row of residual(s) over s in [s_min, s_max].

    The residual describes many rows at once: for scan points s of shape
    (k,), shared by every row, it returns shape (rows, k), and for points of
    shape (rows, 3) it returns shape (rows, 3).  A log-spaced scan is
    followed by golden-section refinement (in log s) around each row's three
    smallest samples, all 3 * rows refinements in lockstep.  Both result
    fields hold one entry per row.  What lies beyond [s_min, s_max], and how
    close to zero a minimum may come, is the caller's to judge.

    The scan takes the points in runs short enough that one call's values fit
    in _SCAN_BLOCK_VALUES.  It keeps each row's three smallest samples, ties
    going to the smaller s, by three argmin passes over the kept samples and
    the run, each pass setting its pick to +inf.  A row whose residual is not
    finite somewhere gets min_value NaN; its samples count as +inf in the
    selection, so its argmin_s has no meaning, and every checker refuses
    such a row as NonFinite before argmin_s is shown.
    """
    s = np.logspace(math.log10(settings.s_min), math.log10(settings.s_max), settings.n_log_points)
    vals = residual(s[:2])
    finite = np.isfinite(vals).all(axis=1)
    n_rows = len(vals)
    rows = np.arange(n_rows)
    # each row's three smallest samples so far, by value and then by s, and their indices
    low_v, low_i = vals, np.broadcast_to(np.arange(2), (n_rows, 2))
    width = max(1, min(_SCAN_BLOCK_VALUES // n_rows, len(s) - 2))
    merged = np.empty((n_rows, 3 + width))  # one buffer for every run, so that no run faults in fresh pages
    for start in range(2, len(s), width):
        vals = residual(s[start:start + width])
        finite &= np.isfinite(vals).all(axis=1)
        k = low_i.shape[1]  # entries of `both` before the run's own
        both = merged[:, :k + vals.shape[1]]
        both[:, :k], both[:, k:] = low_v, vals
        del vals  # so that the next residual call is the only block-sized work alive
        both[np.isnan(both)] = np.inf
        keep, low_v = np.empty((n_rows, 3), dtype=np.intp), np.empty((n_rows, 3))
        for j in range(3):
            # argmin takes the first of equal values, as a stable sort would
            pick = keep[:, j] = np.argmin(both, axis=1)
            low_v[:, j] = both[rows, pick]
            both[rows, pick] = np.inf
        low_i = np.where(keep < k, low_i[rows[:, None], np.minimum(keep, k - 1)], keep + (start - k))

    best_v, best_s = low_v[:, 0], s[low_i[:, 0]]
    log_s = np.log(s)
    lo = log_s[np.maximum(low_i - 1, 0)]
    hi = log_s[np.minimum(low_i + 1, len(s) - 1)]
    t, v = golden_section(lambda x: residual(np.exp(x)), lo, hi, settings.refine_iters)
    refine_bad = ~np.isfinite(v).all(axis=1)
    for k in range(low_i.shape[1]):
        si, vk = np.exp(t[:, k]), v[:, k]
        better = (vk < best_v) | ((vk == best_v) & (si < best_s))
        best_v = np.where(better, vk, best_v)
        best_s = np.where(better, si, best_s)
    best_v = np.where(~finite | refine_bad, np.nan, best_v)
    return MinimizerResult(best_v, best_s)
