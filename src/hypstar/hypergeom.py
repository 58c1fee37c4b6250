"""Power-series evaluation of the Gauss hypergeometric function on the unit disk.

Everything here is direct summation of the defining series
2F1(a,b;c;z) = sum (a)_n (b)_n / ((c)_n n!) z^n.  No continuation transforms
are applied, so complex parameters never touch branch-cut ambiguities; the
price is slow convergence near |z| = 1, which a generous term budget covers
at desk scale.  All functions are pure and safe to call concurrently.  The
point functions share a one-entry memo of the last point pass, so F, F', f
and q at the same (params, z, settings) cost one pass.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidC, InvalidParams, NoConvergence, RadiusExceeded, ZeroOfF
from .tolerance import at_most, is_nonpositive_integer, vanishes

# fewest series terms per block of the ring evaluator
_RING_BLOCK = 256
# most series terms per numpy pass: an np.clongdouble array of them (32 B a
# term) stays in L2 and below glibc's 128 KiB mmap threshold, so no pass
# takes fresh pages from the kernel
_SPAN_TERMS = 4095
# n = 0, ..., _SPAN_TERMS + 1, which spans slice, in each dtype of terms; read-only, as they are shared
_INDEX = {t: np.arange(_SPAN_TERMS + 2, dtype=t) for t in (np.longdouble, np.clongdouble)}
for _index in _INDEX.values():
    _index.flags.writeable = False
# u_0 = 1 in each dtype of terms, the first carry of a series pass; numpy scalars are immutable
_ONE = {t: t(1) for t in _INDEX}
_ZERO = np.clongdouble(0)
_PI = np.arctan2(np.longdouble(0), np.longdouble(-1))  # pi in long double


@dataclass(frozen=True)
class HypergeomParams:
    """Parameter triple (a, b, c) of finite numbers; c must stay away from 0, -1, -2, ...

    The roles of a and b are interchangeable: every operation in this module
    returns bit-identical results under a swap.

    A triple keeps its hash, made once at construction, as the point memo
    hashes its key on each of the F, F' and q calls.  Slots instead of an
    instance dict make room for it: a triple takes no more memory than its
    three fields did in a dict.  Copies, pickles and dataclasses.replace
    build a new triple through __init__, and so hash it again.
    """

    __slots__ = ("a", "b", "c", "_hash")
    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise InvalidParams(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if is_nonpositive_integer(self.c):
            raise InvalidC("c is a nonpositive integer")
        object.__setattr__(self, "_hash", hash((self.a, self.b, self.c)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        """Rebuild through __init__: a frozen instance refuses the setattr
        that restores slots by default."""
        return HypergeomParams, (self.a, self.b, self.c)

    @property
    def p(self) -> complex:
        """a + b + 1 - c, recomputed on every access."""
        return self.a + self.b + 1 - self.c

    def shifted(self, k: int = 1) -> "HypergeomParams":
        """The triple (a+k, b+k, c+k) appearing in the k-th derivative."""
        return HypergeomParams(self.a + k, self.b + k, self.c + k)

    def swapped(self) -> "HypergeomParams":
        return HypergeomParams(self.b, self.a, self.c)


@dataclass(frozen=True)
class SeriesSettings:
    """Truncation control for the power series.

    tol is a relative tolerance.  Points and rings share one stopping rule:
    summation stops once a rigorous geometric bound on the tail is at most
    tol times |F| and |zF'| at every requested point.  max_terms caps the
    number of terms.  radius_cap keeps requests off the unit circle, where
    the series cannot converge in finite time.  Like a triple, the settings
    keep their hash from construction.
    """

    tol: float = 1e-15
    max_terms: int = 200_000
    radius_cap: float = 0.995

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be a finite number > 0")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if not 0 < self.radius_cap < 1:
            raise ValueError("radius_cap must lie in (0, 1)")
        object.__setattr__(self, "_hash", hash((self.tol, self.max_terms, self.radius_cap)))

    def __hash__(self):
        return self._hash


DEFAULT_SERIES = SeriesSettings()


@dataclass(frozen=True)
class RingValues:
    """F and zF' at the n points z_k = r e^{2 pi i k/n}, k = 0, ..., n-1.

    f and zdf are np.clongdouble arrays; converged flags the points where the
    truncation bound `tail` is at most tol |F| and tol |zF'|.  `terms` counts
    the series terms summed, u_0 through u_{terms-1}.
    """

    f: np.ndarray
    zdf: np.ndarray
    converged: np.ndarray
    terms: int
    tail: float


def _tail_ratio(params: HypergeomParams, r: float, k: int) -> float:
    """An upper bound on |(n+1) u_{n+1}| / |n u_n| over every n >= k >= 1.

    u_{n+1}/u_n = r (a+n)(b+n) / ((c+n)(n+1)).  Split it as
    [(a+n)/(n+1)] [(b+n)/(c+n)] = [1 + (a-1)/(n+1)] [1 + (b-c)/(c+n)], or
    with a and b swapped; with |c+n| >= n + Re c each factor's modulus is at
    most its value at n = k.  Returns inf while k + Re c <= 0.
    """
    a, b, c = params.a, params.b, params.c
    if k + c.real <= 0:
        return math.inf
    pair = min(
        (1 + abs(a - 1) / (k + 1)) * (1 + abs(b - c) / (k + c.real)),
        (1 + abs(b - 1) / (k + 1)) * (1 + abs(a - c) / (k + c.real)),
    )
    return r * pair * (1 + 1 / k)


def _term_ratios(params: HypergeomParams, z: complex, n: np.ndarray, n1: np.ndarray) -> np.ndarray:
    """u_{n+1}/u_n = z (a+n)(b+n) / ((c+n)(n+1)) over arrays n and n1 = n + 1 of one dtype.

    (a+n)(b+n) is formed first, so a swap of a and b gives bit-identical
    ratios; numpy adds Python complex to a complex array faster than to a real one.
    The products and the quotient are taken in place, in the order that the
    expression above rounds in, so a pass allocates three arrays, not eight.
    Over np.longdouble n (a real triple at a real z) the quotient is x (1/y),
    the value of numpy's complex quotient, Smith's method, at zero imaginary parts.
    """
    real = n.dtype.kind == "f"
    a, b, c = (params.a.real, params.b.real, params.c.real) if real else (params.a, params.b, params.c)
    ratio = n + a
    ratio *= n + b
    np.multiply(z, ratio, out=ratio)
    below = n + c
    below *= n1
    if real:
        ratio *= np.reciprocal(below, out=below)
    else:
        ratio /= below
    return ratio


def _sum_series(params: HypergeomParams, z: complex, settings: SeriesSettings, width: int, reach: int, add, values,
                dtype=np.clongdouble):
    """The one series loop: hands u_start, ..., u_{stop-1} to add(start, u, n) in whole blocks.

    u_0 = 1 is the caller's; blocks end at multiples of width.  One numpy pass
    (a span) makes the terms of one block, or of every block up to the stop
    `reach` if that is further, at most `_SPAN_TERMS` terms a pass; points
    pass reach 0, one block per pass.  cumprod over a span chains the terms
    as block by block would; n and n + 1 are slices of the `_INDEX` of
    dtype, the terms' own, where it reaches, and of one arange past it.
    The stop is still decided at each block end:
    K |u_K| rho / (1 - rho), K = stop - 1 and rho from `_tail_ratio`, bounds
    the tails of sum u_n and sum n u_n (zero for a terminating series).  Once
    it is at most tol times the goal, values(tail, tol) gives (F, zF',
    converged, goal): the caller tests tail <= tol min(|F|, |zF'|) at its
    points, and goal is the least min(|F|, |zF'|) that failed, None if none.
    Returns (F, zF', converged, terms, tail) at goal None, max_terms or a
    term that is not finite, or None at once if that term is real.  add gets
    no term past the block where the loop stops, and may overwrite u.
    """
    r = abs(z)
    last = _ONE[dtype]  # u_{start-1}, the carry between spans
    goal = 1.0  # tail target relative to tol; F(0) = 1 sets the first scale
    start = 1
    while True:
        span_stop = start - start % width + width
        if span_stop < reach:
            span_stop = max(span_stop, min(reach, (start + _SPAN_TERMS) // width * width))
        span_stop = min(span_stop, settings.max_terms + 1)
        n1 = _indices(start - 1, span_stop, 1, dtype)
        n, n1 = n1[:-1], n1[1:]
        ratio = _term_ratios(params, z, n, n1)
        ratio[0] *= last
        u = ratio.cumprod()
        added = stop = start
        while stop < span_stop:
            stop = min(stop - stop % width + width, span_stop)
            last = u[stop - start - 1]
            k = stop - 1
            if last == 0:
                tail = 0.0
            else:
                rho = _tail_ratio(params, r, k)
                tail = k * float(abs(last)) * rho / (1 - rho) if rho < 1 else math.inf
            overflow = not (math.isfinite(tail) or np.isfinite(last))  # a finite tail has a finite last
            if overflow and dtype is np.longdouble:
                return None
            exhausted = stop > settings.max_terms or overflow
            if tail <= settings.tol * goal or exhausted:
                add(added, u[added - start:stop - start], n1[added - start:stop - start])
                added = stop
                f, zdf, converged, goal = values(tail, settings.tol)
                if goal is None or exhausted:
                    return f, zdf, converged, stop, tail
        if added < span_stop:
            add(added, u[added - start:], n1[added - start:])
        start = span_stop


def _point_series(params: HypergeomParams, z: complex, settings: SeriesSettings):
    """(F, zF', converged) at z: the long double sums of u_n and n u_n.

    The first block holds 2 log(tol)/log|z| terms: on the test corpus the
    count needed exceeds log(tol)/log|z| at 2 points in 3, and twice it at 1 in 50.
    """
    if not at_most(abs(z), settings.radius_cap):
        raise RadiusExceeded(f"z = {z} is not a number" if cmath.isnan(z) else
                             f"|z| = {abs(z):.6g} exceeds radius_cap = {settings.radius_cap}")
    f, zdf = _ONE[np.clongdouble], _ZERO  # the sums from u_0
    if z == 0:
        return f, zdf, True

    def add(start, u, n):
        """The pairwise sums of ndarray.sum, without its Python wrapper."""
        nonlocal f, zdf
        f += np.add.reduce(u)
        zdf += np.add.reduce(np.multiply(n, u, out=u))

    def values(tail, tol):
        """The ring's array test on two scalars; min() would drop a NaN that np.minimum keeps."""
        abs_f, abs_zdf = abs(f), abs(zdf)
        scale = abs_f if abs_f <= abs_zdf or abs_f != abs_f else abs_zdf
        converged = tail <= tol * scale
        return f, zdf, converged, None if converged else float(scale)

    width = max(2, math.ceil(2 * math.log(settings.tol) / math.log(abs(z))))
    result = _sum_series(params, z, settings, width, 0, add, values)
    return result[0], result[1], bool(result[2])


@functools.lru_cache(maxsize=1)
def _last_point(params: HypergeomParams, z: complex, settings: SeriesSettings):
    """(F, zF') from `_point_series`; NoConvergence where the tail bound was not met.

    Remembers the last (params, z, settings) only, so F, F' and q at one point
    share one pass.  The entry is a tuple of immutable np.clongdouble scalars;
    an exception is raised afresh on every call, never cached.
    """
    f, zdf, converged = _point_series(params, z, settings)
    if not converged:
        raise NoConvergence(f"series did not settle within {settings.max_terms} terms at z = {z}")
    return f, zdf


def _point(params: HypergeomParams, z: complex, settings: SeriesSettings):
    """`_last_point` at complex(z), the one key type for every caller's z."""
    return _last_point(params, complex(z), settings)


def gauss_2f1(params: HypergeomParams, z: complex, settings: SeriesSettings = DEFAULT_SERIES) -> complex:
    """2F1(a, b; c; z) by direct summation.

    Terminating cases (a or b a nonpositive integer) are handled naturally by
    the term recurrence, which hits an exact zero and stays there.
    """
    return complex(_point(params, z, settings)[0])


def gauss_2f1_grid(
    params: HypergeomParams, z: np.ndarray, settings: SeriesSettings = DEFAULT_SERIES
) -> tuple[np.ndarray, np.ndarray]:
    """`gauss_2f1` at every point of an array.

    Returns (values, converged).  Points that fail to settle within the term
    budget are flagged False in the mask instead of raising, so grid sweeps
    can record them and move on.
    """
    z = np.asarray(z, dtype=np.complex128)
    if not at_most(np.abs(z), settings.radius_cap).all():
        raise RadiusExceeded("grid holds a point that is not a number" if np.isnan(z).any() else
                             f"grid exceeds radius_cap = {settings.radius_cap}")
    values = np.empty(z.shape, dtype=np.complex128)
    converged = np.empty(z.shape, dtype=bool)
    for i, zi in np.ndenumerate(z):
        f, _, converged[i] = _point_series(params, complex(zi), settings)
        values[i] = complex(f)
    return values, converged


def _indices(start: int, stop: int, step: int, dtype) -> np.ndarray:
    """start, start + step, ... below stop in the terms' dtype: a view of `_INDEX`
    where it reaches.  Products with the terms then need no cast: numpy casts
    a long double operand of a complex long double product element by element."""
    if stop <= len(_INDEX[dtype]):
        return _INDEX[dtype][start:stop:step]
    return np.arange(start, stop, step, dtype=dtype)


def _ring_dtype(params: HypergeomParams):
    """A ring's terms and folds are np.longdouble for a real triple, else np.clongdouble."""
    return np.clongdouble if params.a.imag or params.b.imag or params.c.imag else np.longdouble


@functools.lru_cache(maxsize=8)
def _roots_of_unity(n: int) -> np.ndarray:
    """e^{2 pi i k/n}, k = 0, ..., n-1, in long double; read-only, as it is shared."""
    w = np.exp(2j * _PI * np.arange(n, dtype=np.longdouble) / n)
    w.flags.writeable = False
    return w


def gauss_2f1_ring(
    params: HypergeomParams, r: float, n_angles: int, settings: SeriesSettings = DEFAULT_SERIES
) -> RingValues:
    """F and zF' on a whole ring from one pass over the series.

    At the roots of unity, sum_n u_n w^{nk} with u_n = t_n r^n is the length-n
    DFT of the folded sequence b_m = sum_{n = m mod n_angles} u_n, and zF' is
    the same with n u_n.  The terms come a span of blocks at a time from
    `_sum_series` at z = r and are folded as they come, so memory stays
    O(n_angles) plus one span.  Terms and folds run in `_ring_dtype`, FFTs in
    np.clongdouble (64-bit mantissas on x86-64).  Real terms that overflow run
    on as inf, not NaN, so such a ring is summed again in np.clongdouble.

    Each FFT transforms (1 - z) times the series: (1 - z_k) sum_m b_m w^{mk}
    at z_k = r w^k folds to b_m - r b_{m-1}, cyclically.  The FFT's rounding
    error scales with the largest value on the ring, and near z = 1 F and
    zF' can exceed their values elsewhere by orders of magnitude; (1 - z)
    damps that peak, so the error stays near the size of the values
    everywhere else.
    """
    r = float(r)
    if not at_most(r, settings.radius_cap):
        raise RadiusExceeded(f"r = {r} is not a number" if math.isnan(r) else
                             f"r = {r:.6g} exceeds radius_cap = {settings.radius_cap}")
    ring = _ring_pass(params, r, n_angles, settings, _ring_dtype(params))
    return ring or _ring_pass(params, r, n_angles, settings, np.clongdouble)


def _ring_pass(params: HypergeomParams, r: float, n_angles: int, settings: SeriesSettings, dtype):
    """`gauss_2f1_ring` with terms and folds in dtype; None where a real term is not finite."""
    fold = np.zeros(n_angles, dtype=dtype)  # b_m
    fold[0] = 1  # u_0
    # sum of row_start * u over the rows folded so far; n u_n folds to
    # m b_m + wfold_m, since n = row_start + m
    wfold = np.zeros(n_angles, dtype=dtype)
    m = _indices(0, n_angles, 1, dtype)
    rl = np.longdouble(r)
    one_minus_z = 1 - rl * _roots_of_unity(n_angles)

    def fold_part(column, row_start, part):
        """Adds part of a row to its columns; zeros that padded it would add nothing, as no fold holds -0."""
        wfold[column:column + len(part)] += dtype(row_start) * part
        fold[column:column + len(part)] += part

    def add(start, u, n):
        """Folds the terms as whole rows that start at n = 0 mod n_angles.

        Each fold adds its rows in order, seeded with its running value, so
        it rounds as ((fold + row_0) + row_1) + ...  np.add.accumulate keeps
        that order for every n_angles; np.add.reduce would sum pairwise
        along the one column of n_angles = 1.  The first span starts at
        n = 1, mid-row, and max_terms can cut the last row short.
        """
        head = min(len(u), -start % n_angles)
        if head:
            fold_part(start % n_angles, start - start % n_angles, u[:head])
        whole = head + (len(u) - head) // n_angles * n_angles
        if whole > head:
            rows = u[head:whole].reshape(-1, n_angles)
            row_starts = _indices(start + head, start + whole, n_angles, dtype)
            weighted = row_starts[:, None] * rows
            weighted[0] += wfold
            wfold[:] = np.add.accumulate(weighted)[-1]
            rows[0] += fold
            fold[:] = np.add.accumulate(rows)[-1]
        if whole < len(u):
            fold_part(0, start + whole, u[whole:])

    def values(tail, tol):
        x = np.empty((2, n_angles), dtype=dtype)  # the folds of u_n and n u_n; ifft casts real ones to complex
        x[0] = fold
        np.multiply(m, fold, out=x[1])
        x[1] += wfold
        rx = rl * x
        x[:, 1:] -= rx[:, :-1]
        x[:, 0] -= rx[:, -1]
        y = np.fft.ifft(x)
        y *= n_angles
        y /= one_minus_z
        scale = np.minimum(abs(y[0]), abs(y[1]))
        converged = tail <= tol * scale
        goal = None if converged.all() else float(np.min(np.where(converged, np.inf, scale)))
        return y[0], y[1], converged, goal

    width = n_angles * -(-_RING_BLOCK // n_angles)  # a multiple of n_angles
    # r^n falls to tol at n = log(tol)/log r: spans reach the block end past it
    predicted = math.ceil(math.log(settings.tol) / math.log(r)) if 0 < r < 1 else 0
    reach = -(-(predicted + 1) // width) * width
    for w in (params.a, params.b):  # a terminating series stops in the block past its degree
        if w.imag == 0 and w.real <= 0 and w.real.is_integer():
            reach = min(reach, int(1 - w.real) // width * width + width)
    ring = _sum_series(params, r, settings, width, reach, add, values, dtype)
    return ring and RingValues(*ring)


def gauss_2f1_derivative(params: HypergeomParams, z: complex, settings: SeriesSettings = DEFAULT_SERIES) -> complex:
    """d/dz 2F1(a,b;c;z) = zF'/z, with zF' from the pass that sums F; ab/c at z = 0."""
    z = complex(z)
    if z == 0:
        return params.a * params.b / params.c
    return complex(_point(params, z, settings)[1] / z)


def shifted_f(params: HypergeomParams, z: complex, settings: SeriesSettings = DEFAULT_SERIES) -> complex:
    """f(z) = z 2F1(a,b;c;z), the normalized function under study."""
    return complex(z) * gauss_2f1(params, z, settings)


def log_derivative_q(params: HypergeomParams, z: complex, settings: SeriesSettings = DEFAULT_SERIES) -> complex:
    """q(z) = z f'(z) / f(z) = 1 + z F'(z)/F(z); exactly 1 at z = 0.

    F and zF' come from one pass, and q is formed in long double.  Raises
    ZeroOfF where F(z) `vanishes`.  A zero of F means f is not zero-free,
    so callers must treat the point as a hard failure rather than skip it.
    """
    f, zdf = _point(params, z, settings)
    if vanishes(f):
        raise ZeroOfF(f"|F(z)| = {float(abs(f)):.3g} at z = {z}; q is undefined there")
    return complex(1 + zdf / f)
