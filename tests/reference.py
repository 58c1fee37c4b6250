"""Reference forms that the tests compare hypstar against.

None of these is on a path that a hypstar command runs: each is a second,
independent route to a quantity that the package computes another way.
"""

import cmath
import csv
import io
import itertools
import math

import numpy as np

from hypstar import (
    HypergeomParams,
    SpirallikeOrder,
    StarlikeOrder,
    StronglyStarlike,
    gauss_2f1,
    gauss_2f1_derivative,
)
from hypstar.certificates import CHECKERS, CLASS_KINDS, Rows, render_value
from hypstar.oracles import golden_section
from hypstar.shapes import lam_of
from hypstar.verifier import verify_rows

# rows per lockstep pass of quadratic_nonneg_sampled: 500 x 2001 float64 is 8 MB an array
_CHUNK_ROWS = 500


def mu_of(cls) -> complex:
    """mu = (1 - alpha) e^{i lam} cos(lam) for the Moebius-type families."""
    if isinstance(cls, StronglyStarlike):
        raise ValueError("mu is defined only for the Moebius-type families")
    lam = lam_of(cls)
    return (1 - cls.alpha) * cmath.exp(1j * lam) * math.cos(lam)


def ab_gap_direct(w, a, b, c):
    """|B|^2 - |A|^2 straight from A = w(w + c - 1), B = (w + a)(w + b)."""
    B = (w + a) * (w + b)
    A = w * (w + c - 1)
    return np.abs(B) ** 2 - np.abs(A) ** 2


def ab_gap_formula(w, a, b, c):
    """The expanded form of |B|^2 - |A|^2 on the boundary:

    |w|^2 (2 Re[p conj(w)] + |a|^2 + |b|^2 - |c-1|^2)
      + (2 Re[a conj(w)] + |a|^2)(2 Re[b conj(w)] + |b|^2),

    with p = a + b + 1 - c.
    """
    p = a + b + 1 - c
    wc = np.conjugate(w)
    t1 = np.abs(w) ** 2 * (2 * np.real(p * wc) + abs(a) ** 2 + abs(b) ** 2 - abs(c - 1) ** 2)
    t2 = (2 * np.real(a * wc) + abs(a) ** 2) * (2 * np.real(b * wc) + abs(b) ** 2)
    return t1 + t2


def boundary_values(cls, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, Q(zeta), zeta Q'(zeta)) at zeta = e^{i theta}, one entry per theta, for Q = phi - 1.

    s = cot(theta/2).  For the Moebius-type families theta lies in (0, 2 pi)
    and Q = mu(-1 + i s), zeta Q' = -mu(1 + s^2)/2.  For strong starlikeness
    theta lies in (-pi, pi) minus 0; with eps = sgn(theta),
    Q = e^{i eps pi alpha/2} |s|^alpha - 1 and
    zeta Q' = -(alpha/2) e^{-i eps pi (1-alpha)/2} |s|^alpha (|s| + 1/|s|).
    """
    theta = np.asarray(theta, dtype=float)
    eps = np.sign(theta)
    s = 1 / np.tan(np.abs(theta) / 2)
    if isinstance(cls, StronglyStarlike):
        power = s**cls.alpha
        q = np.exp(1j * eps * (np.pi * cls.alpha / 2)) * power - 1
        zqp = -(cls.alpha / 2) * np.exp(-1j * eps * (np.pi * (1 - cls.alpha) / 2)) * power * (s + 1 / s)
    else:
        mu = mu_of(cls)
        q = mu * (-1 + 1j * s)
        zqp = -mu * (1 + s * s) / 2
    return eps * s, q, zqp


def boundary_gap(cls, params, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, D, |B|^2 - |A|^2) at zeta = e^{i theta}: D = -2 Re[(p Q + ab) conj(zeta Q')],
    and the gap straight from A and B with w = Q."""
    a, b, c = params.a, params.b, params.c
    s, q, zqp = boundary_values(cls, theta)
    D = -2 * np.real((params.p * q + a * b) * np.conjugate(zqp))
    return s, D, ab_gap_direct(q, a, b, c)


def quadratic_nonneg_exact(L, M, N):
    """Whether L s^2 - 2 M s + N >= 0 for every real s, elementwise: exactly when
    L >= 0, N >= 0 and L N - M^2 >= 0 (at L = 0 the last forces M = 0)."""
    return (L >= 0) & (N >= 0) & (L * N - M * M >= 0)


def quadratic_nonneg_sampled(L, M, N, grid: int = 2001):
    """Sampled counterpart of quadratic_nonneg_exact, one answer per entry of L, M, N.

    s = tan(u) and division by 1 + s^2 turn the quadratic into
    L sin^2 u - 2 M sin u cos u + N cos^2 u on [-pi/2, pi/2], whose ends carry
    s -> +-infinity.  Each row's grid minimum is sharpened by golden section
    around it, the rows of a chunk in lockstep, so that a disagreement with
    the exact test lies within rounding distance of the discriminant boundary.
    """
    L, M, N = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (L, M, N))
    u = np.linspace(-math.pi / 2, math.pi / 2, grid)
    out = np.empty(len(L), dtype=bool)
    for i in range(0, len(L), _CHUNK_ROWS):
        l, m, n = (x[i:i + _CHUNK_ROWS, None] for x in (L, M, N))

        def trig(t):
            st, ct = np.sin(t), np.cos(t)
            return l * st * st - 2 * m * st * ct + n * ct * ct

        vals = trig(u)
        k = np.argmin(vals, axis=1)[:, None]
        _, refined = golden_section(trig, u[np.maximum(k - 1, 0)], u[np.minimum(k + 1, grid - 1)], 80)
        best = np.minimum(vals.min(axis=1), refined[:, 0])
        scale = np.maximum(1.0, np.abs(np.hstack([l, m, n])).max(axis=1))
        out[i:i + _CHUNK_ROWS] = best >= -1e-9 * scale
    return out


def half_plane_bound_check(A: float, B: float, C: float, K: float, alpha: float) -> bool:
    """Whether B/2 + max(A, C) <= K and max(A, C) <= K; together they
    guarantee A s^alpha + B + C s^{-alpha} <= K (s + 1/s) for every s > 0."""
    if not K > 0:
        raise ValueError("K must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return B / 2 + max(A, C) <= K and max(A, C) <= K


def q_class(cls, z: complex) -> complex:
    """Q(z) = phi(z) - 1 for the class generator phi: 2 mu z/(1 - z), or ((1+z)/(1-z))^alpha - 1."""
    z = complex(z)
    if isinstance(cls, StronglyStarlike):
        return ((1 + z) / (1 - z)) ** cls.alpha - 1
    return 2 * mu_of(cls) * z / (1 - z)


def ode_residual(params, z: complex) -> complex:
    """(1-z) z F'' + [c - (a+b+1) z] F' - ab F, which should vanish, with F''
    from the contiguous relation F'' = (ab/c) F'(a+1, b+1; c+1; z)."""
    a, b, c = params.a, params.b, params.c
    d2f = a * b / c * gauss_2f1_derivative(params.shifted(), z)
    df = gauss_2f1_derivative(params, z)
    return (1 - z) * z * d2f + (c - (a + b + 1) * z) * df - a * b * gauss_2f1(params, z)


# a scan spec's class kind -> its family
SCAN_FAMILIES = {"starlike": StarlikeOrder, "strongly-starlike": StronglyStarlike, "spirallike": SpirallikeOrder}


def render_scan_csv(spec) -> bytes:
    """The CSV bytes of a scan, written row by row by csv.writer (QUOTE_MINIMAL,
    \\r\\n line ends): every point in row-major order, checked in one call of
    its kind's checker, and the accepted rows verified in one `verify_rows`
    call when the spec verifies."""
    points = list(itertools.product(*(ax.values() for ax in spec.axes)))
    values = {sym: np.full(len(points), float(spec.fixed.get(sym, 0.0)))
              for sym in ("a_re", "a_im", "b_re", "b_im", "c_re", "c_im", "alpha", "lambda")}
    for k, ax in enumerate(spec.axes):
        values[ax.symbol] = np.array([point[k] for point in points])
    a, b, c = (values[f"{name}_re"].astype(complex) for name in "abc")
    for z, name in zip((a, b, c), "abc"):
        z.imag = values[f"{name}_im"]
    alpha, lam, family = values["alpha"], values["lambda"], None
    if spec.certificate_kind in CLASS_KINDS:
        family = SCAN_FAMILIES[spec.class_spec["kind"]]
        alpha, lam = spec.class_spec.get("alpha", alpha), spec.class_spec.get("lambda", lam)
    batch = CHECKERS[spec.certificate_kind](Rows(a, b, c, alpha, lam, spec.fixed.get("s", 0.0), family,
                                                 spec.line_search))
    accepted = [i for i in range(len(points)) if i not in batch.errors]
    reports = {}
    if spec.verify:
        pa, pb, pc = batch.params
        found = verify_rows([batch.shape_class(i) for i in accepted],
                            [HypergeomParams(pa[i], pb[i], pc[i]) for i in accepted], spec.grid, spec.series)
        reports = dict(zip(accepted, found))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([ax.symbol for ax in spec.axes] + ["certificate_passed", "failed_condition", "min_slack", "status"])
    for i, point in enumerate(points):
        if i in batch.errors:
            outcome = ["false", f"invalid: {batch.errors[i]}"]
        else:
            failed = [cond.name for cond in batch.conditions if not cond.passed[i]]
            outcome = ["false", failed[0]] if failed else ["true", ""]
        verified = ["", ""]
        if spec.verify:
            verified = [render_value(reports[i].min_slack), reports[i].status] if i in reports else ["", "Invalid"]
        writer.writerow([render_value(v) for v in point] + outcome + verified)
    return buf.getvalue().encode("utf-8")
