"""Power-series evaluation of the Gauss hypergeometric function on the unit disk.

Everything here is direct summation of the defining series
2F1(a,b;c;z) = sum (a)_n (b)_n / ((c)_n n!) z^n.  No continuation transforms
are applied, so complex parameters never touch branch-cut ambiguities; the
price is slow convergence near |z| = 1, which a generous term budget covers
at desk scale.  All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidC, NoConvergence, RadiusExceeded, ZeroOfF

# tolerance for rejecting c at a nonpositive integer
NONPOS_INT_TOL = 1e-12
# |F(z)| at or below this counts as a zero of F
ZERO_TOL = 1e-12
# consecutive relatively-small terms required before truncating
_STREAK = 3
# rounding slack for the radius gate: |r e^{i theta}| can land a few ulps
# above r when the grid sits exactly on the cap
_RADIUS_SLACK = 1e-12
# fewest series terms per block of the ring evaluator
_RING_BLOCK = 256
_PI = np.arctan2(np.longdouble(0), np.longdouble(-1))  # pi in long double


def _is_nonpositive_integer(w: complex, tol: float = NONPOS_INT_TOL) -> bool:
    if abs(w.imag) > tol:
        return False
    k = round(w.real)
    return k <= 0 and abs(w.real - k) <= tol


@dataclass(frozen=True)
class HypergeomParams:
    """Parameter triple (a, b, c); c must stay away from 0, -1, -2, ...

    The roles of a and b are interchangeable: every operation in this module
    returns bit-identical results under a swap.
    """

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))
        if _is_nonpositive_integer(self.c):
            raise InvalidC("c is a nonpositive integer")

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

    tol is a relative tolerance.  Pointwise summation stops once three
    consecutive terms fall below tol times the running partial sum; the ring
    evaluator stops once its rigorous tail bound falls below tol times |F|
    and |zF'| at every point of the ring.  max_terms caps the number of
    terms either way.  radius_cap keeps requests off the unit circle, where
    the series cannot converge in finite time.
    """

    tol: float = 1e-15
    max_terms: int = 200_000
    radius_cap: float = 0.995

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if not 0 < self.radius_cap < 1:
            raise ValueError("radius_cap must lie in (0, 1)")


DEFAULT_SERIES = SeriesSettings()


def gauss_2f1(params: HypergeomParams, z: complex, settings: SeriesSettings = DEFAULT_SERIES) -> complex:
    """2F1(a, b; c; z) by direct summation.

    Terminating cases (a or b a nonpositive integer) are handled naturally by
    the term recurrence, which hits an exact zero and stays there.
    """
    z = complex(z)
    if abs(z) > settings.radius_cap + _RADIUS_SLACK:
        raise RadiusExceeded(f"|z| = {abs(z):.6g} exceeds radius_cap = {settings.radius_cap}")
    if z == 0:
        return 1.0 + 0.0j
    a, b, c = params.a, params.b, params.c
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    comp = 0.0 + 0.0j  # Kahan compensation: partial sums can dwarf the result
    streak = 0
    for n in range(settings.max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term == 0 or abs(term) < settings.tol * abs(total):
            streak += 1
            if streak >= _STREAK:
                return total
        else:
            streak = 0
    raise NoConvergence(f"series did not settle within {settings.max_terms} terms at z = {z}")


def gauss_2f1_grid(
    params: HypergeomParams, z: np.ndarray, settings: SeriesSettings = DEFAULT_SERIES
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized series evaluation over an array of points.

    Returns (values, converged).  Points that fail to settle within the term
    budget are flagged False in the mask instead of raising, so grid sweeps
    can record them and move on.
    """
    z = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(z) > settings.radius_cap + _RADIUS_SLACK):
        raise RadiusExceeded(f"grid exceeds radius_cap = {settings.radius_cap}")
    a, b, c = params.a, params.b, params.c
    term = np.ones(z.shape, dtype=np.complex128)
    total = np.ones(z.shape, dtype=np.complex128)
    comp = np.zeros(z.shape, dtype=np.complex128)  # Kahan compensation
    streak = np.zeros(z.shape, dtype=np.int64)
    for n in range(settings.max_terms):
        term *= ((a + n) * (b + n) / ((c + n) * (n + 1)))
        term *= z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        small = (np.abs(term) < settings.tol * np.abs(total)) | (term == 0)
        streak = np.where(small, streak + 1, 0)
        if n >= _STREAK and int(streak.min()) >= _STREAK:
            return total, np.ones(z.shape, dtype=bool)
    return total, streak >= _STREAK


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


def _term_ratios(params: HypergeomParams, r: float, n: np.ndarray) -> np.ndarray:
    """u_{n+1}/u_n = r (a+n)(b+n) / ((c+n)(n+1)) over a long double array n.

    Spelled out in real arithmetic, which numpy runs several times faster
    than complex long double; the products keep a and b symmetric, so a swap
    gives bit-identical ratios.
    """
    a, b, c = params.a, params.b, params.c
    A, B, C = n + a.real, n + b.real, n + c.real
    num_re = A * B - a.imag * b.imag
    num_im = A * b.imag + a.imag * B
    scale = np.longdouble(r) / ((n + 1) * (C * C + c.imag * c.imag))
    out = np.empty(len(n), dtype=np.clongdouble)
    out.real = (num_re * C + num_im * c.imag) * scale
    out.imag = (num_im * C - num_re * c.imag) * scale
    return out


@functools.lru_cache(maxsize=8)
def _roots_of_unity(n: int) -> np.ndarray:
    """e^{2 pi i k/n}, k = 0, ..., n-1, in long double; read-only, as it is shared."""
    w = np.exp(2j * _PI * np.arange(n, dtype=np.longdouble) / n)
    w.flags.writeable = False
    return w


def _deflated_dft(fold: np.ndarray, r: np.longdouble) -> np.ndarray:
    """(1 - z_k) sum_m fold_m w^{mk} at z_k = r w^k, w = e^{2 pi i/n}.

    (1 - z) times a folded series folds to fold_m - r fold_{m-1}, cyclically.
    The FFT's rounding error scales with the largest value on the ring, and
    near z = 1 F and zF' can exceed their values elsewhere by orders of
    magnitude; (1 - z) damps that peak, so the error stays near the size of
    the values everywhere else.
    """
    return len(fold) * np.fft.ifft(fold - r * np.roll(fold, 1))


def gauss_2f1_ring(
    params: HypergeomParams, r: float, n_angles: int, settings: SeriesSettings = DEFAULT_SERIES
) -> RingValues:
    """F and zF' on a whole ring from one pass over the series.

    At the roots of unity, sum_n u_n w^{nk} with u_n = t_n r^n is the length-n
    DFT of the folded sequence b_m = sum_{n = m mod n_angles} u_n, and zF' is
    the same with n u_n.  The terms come block by block from the ratio
    recurrence and are folded as they come, so memory stays O(n_angles).
    Summation stops at the first block after which the geometric tail bound
    K |u_K| rho / (1 - rho), with rho from `_tail_ratio`, is at most tol times
    |F| and |zF'| at every point, or when max_terms is reached; a terminating
    series stops at its degree with a zero tail.  Terms, folds and FFTs run
    in np.clongdouble, which carries 64-bit mantissas on x86-64, and each
    FFT transforms (1 - z) times the series (see `_deflated_dft`).
    """
    r = float(r)
    if r > settings.radius_cap + _RADIUS_SLACK:
        raise RadiusExceeded(f"grid exceeds radius_cap = {settings.radius_cap}")
    width = n_angles * -(-_RING_BLOCK // n_angles)  # a multiple of n_angles
    fold = np.zeros(n_angles, dtype=np.clongdouble)  # b_m
    # sum of row_start * u over the rows folded so far; n u_n folds to
    # m b_m + wfold_m, since n = row_start + m
    wfold = np.zeros(n_angles, dtype=np.clongdouble)
    m = np.arange(n_angles, dtype=np.longdouble)
    rl = np.longdouble(r)
    one_minus_z = 1 - rl * _roots_of_unity(n_angles)
    last = np.clongdouble(1)  # u_{start-1}, the carry between blocks
    goal = 1.0  # tail target relative to tol; F(0) = 1 sets the first scale
    start = 0
    while True:
        stop = min(start + width, settings.max_terms + 1)
        n = np.arange(max(start, 1) - 1, stop - 1, dtype=np.longdouble)
        ratio = _term_ratios(params, r, n)
        if start == 0:
            ratio = np.concatenate(([np.clongdouble(1)], ratio))
        ratio[0] *= last
        u = np.cumprod(ratio)
        last = u[-1]
        pad = -len(u) % n_angles
        if pad:
            u = np.concatenate((u, np.zeros(pad, dtype=np.clongdouble)))
        for row_start, row in zip(range(start, stop, n_angles), u.reshape(-1, n_angles)):
            fold += row
            wfold += np.longdouble(row_start) * row
        k = stop - 1
        if last == 0:
            tail = 0.0
        else:
            rho = _tail_ratio(params, r, k)
            tail = k * float(abs(last)) * rho / (1 - rho) if rho < 1 else math.inf
        exhausted = stop > settings.max_terms or not np.isfinite(last)
        if tail <= settings.tol * goal or exhausted:
            f = _deflated_dft(fold, rl) / one_minus_z
            zdf = _deflated_dft(m * fold + wfold, rl) / one_minus_z
            scale = np.minimum(np.abs(f), np.abs(zdf))
            converged = tail <= settings.tol * scale
            if converged.all() or exhausted:
                return RingValues(f, zdf, converged, stop, tail)
            goal = float(scale[~converged].min())
        start = stop


def gauss_2f1_derivative(
    params: HypergeomParams, z: complex, settings: SeriesSettings = DEFAULT_SERIES
) -> complex:
    """d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1, b+1; c+1; z)."""
    return params.a * params.b / params.c * gauss_2f1(params.shifted(), z, settings)


def shifted_f(params: HypergeomParams, z: complex, settings: SeriesSettings = DEFAULT_SERIES) -> complex:
    """f(z) = z 2F1(a,b;c;z), the normalized function under study."""
    return complex(z) * gauss_2f1(params, z, settings)


def log_derivative_q(
    params: HypergeomParams,
    z: complex,
    settings: SeriesSettings = DEFAULT_SERIES,
    zero_tol: float = ZERO_TOL,
) -> complex:
    """q(z) = z f'(z) / f(z) = 1 + z F'(z)/F(z); exactly 1 at z = 0.

    Raises ZeroOfF when |F(z)| <= zero_tol.  A zero of F means f is not
    zero-free, so callers must treat the point as a hard failure rather
    than skip it.
    """
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    F = gauss_2f1(params, z, settings)
    if abs(F) <= zero_tol:
        raise ZeroOfF(f"|F(z)| = {abs(F):.3g} at z = {z}; q is undefined there")
    return 1.0 + z * gauss_2f1_derivative(params, z, settings) / F


def ode_residual(params: HypergeomParams, z: complex, settings: SeriesSettings = DEFAULT_SERIES) -> complex:
    """(1-z) z F'' + [c - (a+b+1) z] F' - a b F, which should vanish.

    The second derivative comes from applying the exact derivative formula
    twice, not from finite differences, so the residual isolates series
    truncation error only.
    """
    z = complex(z)
    if abs(z) > 0.9 * settings.radius_cap + _RADIUS_SLACK:
        raise RadiusExceeded("ode_residual requires |z| <= 0.9 * radius_cap")
    a, b, c = params.a, params.b, params.c
    F = gauss_2f1(params, z, settings)
    F1 = a * b / c * gauss_2f1(params.shifted(), z, settings)
    F2 = a * b / c * (a + 1) * (b + 1) / (c + 1) * gauss_2f1(params.shifted(2), z, settings)
    return (1 - z) * z * F2 + (c - (a + b + 1) * z) * F1 - a * b * F
