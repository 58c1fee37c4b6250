"""Independent brute-force validators backing the closed-form checkers.

Nothing in this module knows about hypergeometric functions: it deals in the
raw algebra (a squared-modulus identity, quadratic nonnegativity on the real
line, a power-sum bound) plus a log-grid line minimizer for inequalities
quantified over s in (0, infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFinite

_GOLDEN = (math.sqrt(5) - 1) / 2

SAFE_BOTH_ENDS = "SafeBothEnds"
DIVERGES_AT_ZERO = "DivergesAtZero"
DIVERGES_AT_INFINITY = "DivergesAtInfinity"


def ab_gap_direct(w, a, b, c):
    """|B|^2 - |A|^2 straight from A = w(w + c - 1), B = (w + a)(w + b)."""
    B = (w + a) * (w + b)
    A = w * (w + c - 1)
    return np.abs(B) ** 2 - np.abs(A) ** 2


def ab_gap_formula(w, a, b, c):
    """The expanded form of |B|^2 - |A|^2 used by the boundary checkers:

    |w|^2 (2 Re[p conj(w)] + |a|^2 + |b|^2 - |c-1|^2)
      + (2 Re[a conj(w)] + |a|^2)(2 Re[b conj(w)] + |b|^2),

    with p = a + b + 1 - c.  Identical to ab_gap_direct for every input.
    """
    p = a + b + 1 - c
    wc = np.conjugate(w)
    t1 = np.abs(w) ** 2 * (2 * np.real(p * wc) + abs(a) ** 2 + abs(b) ** 2 - abs(c - 1) ** 2)
    t2 = (2 * np.real(a * wc) + abs(a) ** 2) * (2 * np.real(b * wc) + abs(b) ** 2)
    return t1 + t2


def ab_identity_residual(w, a, b, c):
    """|direct - expanded| for the squared-modulus identity; ~0 always."""
    return np.abs(ab_gap_direct(w, a, b, c) - ab_gap_formula(w, a, b, c))


def quadratic_nonneg_exact(L: float, M: float, N: float) -> bool:
    """Whether L s^2 - 2 M s + N >= 0 for every real s.

    Exact characterization: L >= 0, N >= 0 and L N - M^2 >= 0 (the L = 0 edge
    forces M = 0 through the discriminant condition).
    """
    return L >= 0 and N >= 0 and L * N - M * M >= 0


def golden_section(f: Callable, lo, hi, iters: int):
    """Golden-section minimization of f on [lo, hi]; returns (argmin, min).

    lo and hi may be arrays of brackets: f is then called on arrays of that
    shape, and all brackets shrink in lockstep with the same arithmetic a
    single bracket gets.
    """
    if np.ndim(lo) or np.ndim(hi):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        where = np.where
    else:
        where = _choose
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 <= f2
        # left: the minimum lies in [lo, x2] and x1 becomes the new x2; else it lies in [x1, hi]
        hi = where(left, x2, hi)
        lo = where(left, lo, x1)
        x_kept, f_kept = where(left, x1, x2), where(left, f1, f2)
        step = _GOLDEN * (hi - lo)
        x_new = where(left, hi - step, lo + step)
        f_new = f(x_new)
        x1, f1 = where(left, x_new, x_kept), where(left, f_new, f_kept)
        x2, f2 = where(left, x_kept, x_new), where(left, f_kept, f_new)
    first = f1 <= f2
    return where(first, x1, x2), where(first, f1, f2)


def _choose(cond: bool, a, b):
    return a if cond else b


def quadratic_nonneg_sampled(L: float, M: float, N: float, grid: int = 2001) -> bool:
    """Sampled counterpart of quadratic_nonneg_exact.

    Substituting s = tan(u) and normalizing by 1 + s^2 turns the quadratic
    into L sin^2(u) - 2 M sin(u) cos(u) + N cos^2(u) on the closed interval
    [-pi/2, pi/2], whose endpoints carry the s -> +-infinity behaviour (the
    leading coefficient L) for free.  The grid minimum is sharpened by a
    golden-section pass so disagreements with the exact test only occur
    within rounding distance of the discriminant boundary.
    """
    u = np.linspace(-math.pi / 2, math.pi / 2, grid)
    su, cu = np.sin(u), np.cos(u)
    vals = L * su * su - 2 * M * su * cu + N * cu * cu
    i = int(np.argmin(vals))

    def trig(t: float) -> float:
        st, ct = math.sin(t), math.cos(t)
        return L * st * st - 2 * M * st * ct + N * ct * ct

    lo, hi = u[max(i - 1, 0)], u[min(i + 1, grid - 1)]
    _, refined = golden_section(trig, lo, hi, 80)
    best = min(float(vals.min()), refined)
    scale = max(1.0, abs(L), abs(M), abs(N))
    return best >= -1e-9 * scale


@dataclass(frozen=True)
class LineSearchSettings:
    """Controls for the positive-line minimizer."""

    s_min: float = 1e-8
    s_max: float = 1e8
    n_log_points: int = 2000
    refine_iters: int = 60
    min_margin: float = 1e-9

    def __post_init__(self):
        if not 0 < self.s_min < self.s_max:
            raise ValueError("need 0 < s_min < s_max")
        if self.n_log_points < 16:
            raise ValueError("n_log_points must be at least 16")


DEFAULT_LINE_SEARCH = LineSearchSettings()


@dataclass(frozen=True)
class MinimizerResult:
    """Outcome of the positive-line minimizer; every field holds one entry
    per row when the residual describes many rows at once."""

    min_value: float
    argmin_s: float
    endpoint_verdict: str
    conclusive: bool


# float64 values per call of a many-row residual in the log scan (1 MB per array)
_SCAN_BLOCK_VALUES = 1 << 17


def leading_coefficients(terms: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Net coefficients of the dominant exponents of sum coef * s^expo, as
    s -> infinity (highest exponent) and as s -> 0+ (lowest exponent).

    Exponents within 1e-12 of a group's first exponent join that group and
    their coefficients are summed, in descending order of exponent; a group
    whose net coefficient is within 1e-12 (relative to the largest, at least
    1) of zero cancels and the next one decides.  Exponents and coefficients
    may be arrays, one entry per row; the results have one entry per row.
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
        new = ~(np.abs(first - expo[:, j]) <= 1e-12)
        group[:, j] = group[:, j - 1] + new
        first = np.where(new, expo[:, j], first)
    sums = np.zeros(expo.shape)
    for j in range(n_terms):
        sums[rows, group[:, j]] += coef[:, j]
    size = np.abs(sums)  # slots past the last group hold 0
    decides = size > 1e-12 * np.maximum(size.max(axis=1), 1.0)[:, None]
    any_decides = decides.any(axis=1)
    at_infinity = np.where(any_decides, sums[rows, np.argmax(decides, axis=1)], 0.0)
    at_zero = np.where(any_decides, sums[rows, n_terms - 1 - np.argmax(decides[:, ::-1], axis=1)], 0.0)
    return at_infinity, at_zero


def _verdicts(at_infinity, at_zero) -> np.ndarray:
    return np.where(at_infinity < 0, DIVERGES_AT_INFINITY, np.where(at_zero < 0, DIVERGES_AT_ZERO, SAFE_BOTH_ENDS))


def endpoint_verdict_from_terms(terms: Sequence[tuple[float, float]]) -> str:
    """Verdict for a residual of the form sum coef * s^expo at both ends.

    The residual tends to the sign of the dominant net coefficient: highest
    exponent as s -> infinity, lowest as s -> 0+.
    """
    return str(_verdicts(*leading_coefficients(terms))[0])


def _values(residual: Callable, s: np.ndarray) -> np.ndarray:
    """residual at the points s; a residual that only takes scalars is called point by point."""
    try:
        vals = np.asarray(residual(s), dtype=float)
        if vals.shape[-1:] != s.shape or vals.ndim > 2:
            raise TypeError
    except (TypeError, ValueError):  # scalar-only callable
        vals = np.array([float(residual(float(si))) for si in s])
    return vals


def minimize_on_positive_line(
    residual: Callable,
    settings: LineSearchSettings = DEFAULT_LINE_SEARCH,
    terms: Optional[Sequence[tuple]] = None,
) -> MinimizerResult:
    """Minimum of residual(s) over s in [s_min, s_max].

    Log-spaced scan followed by golden-section refinement (in log s) around
    the three smallest samples.  `terms`, when given, describes the residual
    as a power sum [(exponent, coefficient), ...] and supplies the verdict
    about behaviour beyond the scanned range; without it the verdict falls
    back on the signs at the extreme samples.  A minimum within +-min_margin
    of zero is flagged inconclusive rather than trusted either way.

    Many rows at once: a residual that returns shape (rows, k) for k scan
    points s (shape (k,)) is later called with points of shape (rows, 3), and
    all 3 * rows refinements run in lockstep.  The scan takes the points in
    runs short enough that one call's values fit in _SCAN_BLOCK_VALUES, and
    keeps each row's three smallest samples.  `terms` then holds per-row
    arrays, every result field has one entry per row, and a row whose
    residual is not finite gets min_value NaN (and an argmin_s of no
    meaning) where a single residual raises NonFinite.
    """
    s = np.logspace(math.log10(settings.s_min), math.log10(settings.s_max), settings.n_log_points)
    vals = _values(residual, s[:2])
    single = vals.ndim == 1
    if single:
        one_row = residual
        residual = lambda x: _values(one_row, np.ravel(x))[None]  # noqa: E731
        vals = vals[None]
    finite = np.isfinite(vals).all(axis=1)
    rows = np.arange(len(vals))[:, None]
    # each row's three smallest samples so far, by value and then by s (NaN last), and their indices
    low_v, low_i = vals, np.arange(2) + 0 * rows
    width = max(1, _SCAN_BLOCK_VALUES // len(vals))
    for start in range(2, len(s), width):
        vals = _values(residual, s[start:start + width])
        finite &= np.isfinite(vals).all(axis=1)
        both = np.concatenate([low_v, vals], axis=1)
        keep = np.argsort(both, axis=1, kind="stable")[:, :3]
        k = low_i.shape[1]  # entries of `both` before the block's own
        low_v, low_i = both[rows, keep], np.where(keep < k, low_i[rows, np.minimum(keep, k - 1)], keep + (start - k))
        del vals, both, keep  # so that the next residual call is the only block-sized work alive
    if single and not finite[0]:
        raise NonFinite("residual returned a non-finite value inside the search range")

    best_v, best_s = low_v[:, 0], s[low_i[:, 0]]
    log_s = np.log(s)
    lo = log_s[np.maximum(low_i - 1, 0)]
    hi = log_s[np.minimum(low_i + 1, len(s) - 1)]
    t, v = golden_section(lambda x: residual(np.exp(x)), lo, hi, settings.refine_iters)
    refine_bad = ~np.isfinite(v).all(axis=1)
    if single and refine_bad[0]:
        raise NonFinite("residual returned a non-finite value during refinement")
    for k in range(low_i.shape[1]):
        si, vk = np.exp(t[:, k]), v[:, k]
        better = (vk < best_v) | ((vk == best_v) & (si < best_s))
        best_v = np.where(better, vk, best_v)
        best_s = np.where(better, si, best_s)
    best_v = np.where(~finite | refine_bad, np.nan, best_v)

    if terms is not None:
        verdict = _verdicts(*leading_coefficients(terms))
    else:
        margin = settings.min_margin
        ends = _values(residual, s[[0, 1, -2, -1]])
        verdict = np.where(
            (ends[:, 3] < -margin) & (ends[:, 3] <= ends[:, 2]),
            DIVERGES_AT_INFINITY,
            np.where((ends[:, 0] < -margin) & (ends[:, 0] <= ends[:, 1]), DIVERGES_AT_ZERO, SAFE_BOTH_ENDS),
        )
    conclusive = ~((-settings.min_margin <= best_v) & (best_v <= settings.min_margin))
    if single:
        return MinimizerResult(float(best_v[0]), float(best_s[0]), str(verdict[0]), bool(conclusive[0]))
    return MinimizerResult(best_v, best_s, verdict, conclusive)


def half_plane_bound_check(A: float, B: float, C: float, K: float, alpha: float) -> bool:
    """Whether B/2 + max(A, C) <= K together with max(A, C) <= K.

    Because 2 <= s^alpha + s^{-alpha} <= s + 1/s on (0, infinity) for
    0 < alpha < 1, a True answer guarantees
    A s^alpha + B + C s^{-alpha} <= K (s + 1/s) for every positive s.
    The second clause is not redundant: with B < 0 the first alone admits
    max(A, C) > K, and then A s^alpha can outrun K s over a mid range of s
    (A = 3, B = -10, C = 0, K = 1, alpha = 0.95, s = 1e6 violates the bound).
    When B >= 0 the first clause already forces the second.
    """
    if not K > 0:
        raise ValueError("K must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return B / 2 + max(A, C) <= K and max(A, C) <= K
