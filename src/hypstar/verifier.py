"""Disk-grid numerical verification of the defining class inequalities.

This is the independent check on the certificates: it evaluates
w = z f'(z)/f(z) by direct series summation on a polar grid and applies the
class membership predicate pointwise.  Verdicts are evidence, not proofs,
so the vocabulary is Consistent / Violated / Degenerate (a zero of F inside
the disk, which rules the function out regardless of slacks) / Incomplete
(some evidence is missing: a point went unevaluated, or the zeros of F could
not be counted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .certificates import Certificate, json_pair
# gauss_2f1_grid is not called here; it stays importable from this module
# because perfbench/tracing.py wraps verifier.gauss_2f1_grid
from .hypergeom import (  # noqa: F401
    DEFAULT_SERIES,
    ZERO_TOL,
    HypergeomParams,
    RingValues,
    SeriesSettings,
    gauss_2f1_grid,
    gauss_2f1_ring,
)
from .shapes import ShapeClass, class_to_json, membership_slack_array

CONSISTENT = "Consistent"
VIOLATED = "Violated"
DEGENERATE = "Degenerate"
INCOMPLETE = "Incomplete"

# slack below this counts as a violation; the strict inequalities genuinely
# tighten toward |z| = 1, so exact-zero thresholds would flag rounding noise
VIOLATION_TOL = 1e-9
# the argument principle trusts a sampled winding number only while each
# principal step of arg F lies within this much of the trapezoid prediction
MAX_PHASE_STEP = math.pi / 2
# outer-ring samplings tried for the winding number, in multiples of n_angles
_WINDING_REFINEMENTS = (1, 2, 4, 8, 16)
# most ring nodes stacked at once: 4,096 rows on the default 720 angles would
# stack 94 MB per complex long double array, 2^16 nodes stack 2 MB
_STACK_NODES = 1 << 16


@dataclass(frozen=True)
class DiskGridSettings:
    RADIAL_SPACINGS: ClassVar[tuple[str, ...]] = ("uniform", "geometric-toward-boundary")

    n_radii: int = 40
    r_max: float = 0.995
    n_angles: int = 720
    radial_spacing: str = field(default="geometric-toward-boundary", metadata={"choices": RADIAL_SPACINGS})

    def __post_init__(self):
        if not 0 < self.r_max < 1:
            raise ValueError("r_max must lie in (0, 1)")
        if self.n_angles < 8:
            raise ValueError("n_angles must be at least 8")
        if self.n_radii < 1:
            raise ValueError("n_radii must be at least 1")
        if self.radial_spacing not in self.RADIAL_SPACINGS:
            raise ValueError(f"radial_spacing must be {' or '.join(map(repr, self.RADIAL_SPACINGS))}")

    def radii(self) -> np.ndarray:
        k = np.arange(1, self.n_radii + 1)
        if self.radial_spacing == "uniform":
            return self.r_max * k / self.n_radii
        # distances to the unit circle shrink geometrically, crowding samples
        # where violations appear first
        return 1.0 - (1.0 - self.r_max) ** (k / self.n_radii)

    def to_json(self) -> dict:
        return {
            "n_radii": self.n_radii,
            "r_max": self.r_max,
            "n_angles": self.n_angles,
            "radial_spacing": self.radial_spacing,
        }


@dataclass
class VerificationReport:
    shape_class: ShapeClass
    params: HypergeomParams
    grid: DiskGridSettings
    min_slack: float
    argmin_z: complex
    n_violations: int
    n_f_zeros: int
    status: str
    notes: list[str] = field(default_factory=list)
    n_unevaluated: int = 0
    # zeros of F inside the outer ring; None while the count is unresolved
    f_zeros_inside: Optional[int] = None
    # "outer": the report rests on the origin and the outer ring; "all": on every ring
    rings: str = "all"

    def to_json(self) -> dict:
        return {
            "class": class_to_json(self.shape_class),
            "params": {"a": json_pair(self.params.a), "b": json_pair(self.params.b), "c": json_pair(self.params.c)},
            "grid": self.grid.to_json(),
            "min_slack": self.min_slack,
            "argmin_z": json_pair(self.argmin_z),
            "n_violations": self.n_violations,
            "n_f_zeros": self.n_f_zeros,
            "n_unevaluated": self.n_unevaluated,
            "f_zeros_inside": self.f_zeros_inside,
            "rings": self.rings,
            "status": self.status,
            "notes": list(self.notes),
        }


def _winding_numbers(f: np.ndarray, quotient: np.ndarray) -> np.ndarray:
    """Winding number about 0 of F sampled at equispaced points of a circle,
    one per row of a stack of rings: f holds F and quotient zF'/F, rings x N.

    v = Re(zF'/F) is d arg F / d theta, so the trapezoid rule predicts the
    step of arg F between samples k and k+1 as p_k = (pi/N)(v_k + v_{k+1}).
    Each principal step is moved to the branch nearest p_k, and the count is
    the sum of the moved steps.  -1 (no count) when a sample is zero or not
    finite, when some |p_k| exceeds pi or a moved step still differs from
    p_k by more than MAX_PHASE_STEP (the count would rest on too coarse a
    sampling), or when the count comes out negative, which no analytic F
    can give.  Each ring is counted on its own, so a ring's count does not
    depend on the rings stacked with it.
    """
    f = f.astype(np.complex128)
    v = quotient.real.astype(np.float64)
    steps = np.angle(np.concatenate((f[:, 1:], f[:, :1]), axis=1) / f)
    predicted = math.pi / f.shape[1] * (v + np.concatenate((v[:, 1:], v[:, :1]), axis=1))
    resolved = np.all(np.abs(predicted) <= math.pi, axis=1)
    steps += 2 * math.pi * np.round((predicted - steps) / (2 * math.pi))
    resolved &= np.all(np.abs(steps - predicted) <= MAX_PHASE_STEP, axis=1)
    count = np.round(steps.sum(axis=1) / (2 * math.pi))
    return np.where(resolved & (count >= 0), count, -1).astype(np.int64)


def _zeros_inside(params: HypergeomParams, r: float, n_angles: int, settings: SeriesSettings) -> Optional[int]:
    """Zeros of F in |z| < r by the argument principle, for a row whose
    outer ring of n_angles points did not give the count: the ring is
    sampled again at 2, 4, 8 and 16 times as many angles while a phase step
    is too large; None when even the finest sampling does not resolve the
    count.

    Not called where the outer ring's tail bound is not finite: every ladder
    ring sums the same terms, and a finite tail within tol of the goal at an
    earlier block end would bound every later one, so no ring could settle
    before the term that stopped the outer ring (nor once the ratio bound,
    which falls with n, is still at least 1 at max_terms).
    """
    for refine in _WINDING_REFINEMENTS[1:]:
        ring = gauss_2f1_ring(params, r, refine * n_angles, settings)
        if ring.converged.all():
            count = int(_winding_numbers(ring.f[None], (ring.zdf / ring.f)[None])[0])
            if count >= 0:
                return count
    return None


def _unresolved(outer: RingValues) -> str:
    """Why an outer ring leaves the zero count open: the refinement ladder
    ran and found no count, or it never ran, as the ring's tail bound is not
    finite (see `_zeros_inside`).  That bound is infinite where the terms
    overflowed, and, with every value on the ring finite, where the ratio
    bound stayed at 1 or more up to max_terms or |u_K| passed the largest double."""
    if math.isfinite(outer.tail):
        return f"no winding number on up to {_WINDING_REFINEMENTS[-1] * len(outer.f)} angles"
    if not (np.isfinite(outer.f).all() and np.isfinite(outer.zdf).all()):
        return "the series terms overflowed on the outer ring"
    return "no finite tail bound on the outer ring"


def _class_groups(classes: Sequence[ShapeClass]) -> list[tuple[ShapeClass, np.ndarray | slice]]:
    """Each distinct class with the rows that have it: an index array, or
    slice(None) when every row has the one class, so its rows are a view.

    Rows are grouped by repr, which tells StarlikeOrder(-0.0) from
    StarlikeOrder(0.0) where == does not, so every row's slack is computed
    with its own class's numbers.
    """
    rows: dict[str, list[int]] = {}
    for i, cls in enumerate(classes):
        rows.setdefault(repr(cls), []).append(i)
    if len(rows) == 1:
        return [(classes[0], slice(None))]
    return [(classes[idx[0]], np.array(idx)) for idx in rows.values()]


def _ring_figures(groups, f: np.ndarray, zdf: np.ndarray, converged: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """(zF'/F, figures) for a stack of rings at one radius, one row per ring.

    The long-double quotient zF'/F is formed once; the winding count reads
    its real part and q = 1 + zF'/F is rounded to complex128.  The slack of
    q is +inf where the series did not settle or where |F| <= ZERO_TOL, and
    comes from one `membership_slack_array` call per class of `groups`.  A
    ring's figures are its unconverged nodes, its nodes with F = 0, the
    first of those, its violated nodes, and the first node of least slack
    with that slack.
    """
    quotient = zdf / f
    # |F| <= ZERO_TOL needs |Re F| <= ZERO_TOL and |Im F| <= ZERO_TOL, so
    # np.abs, a long double hypot, runs only on the nodes that pass those
    zero = (abs(f.real) <= ZERO_TOL) & (abs(f.imag) <= ZERO_TOL) & converged
    zero[zero] = np.abs(f[zero]) <= ZERO_TOL
    valid = converged & ~zero
    q = (1 + quotient).astype(np.complex128)
    slack = np.empty(f.shape)
    for cls, rows in groups:
        slack[rows] = membership_slack_array(cls, q[rows])
    slack[~valid] = np.inf
    argmin = np.argmin(slack, axis=1)
    counts = np.stack([
        (~converged).sum(axis=1), zero.sum(axis=1), np.argmax(zero, axis=1),
        (slack < -VIOLATION_TOL).sum(axis=1), argmin,
    ], axis=1)
    least = slack[np.arange(len(slack)), argmin].tolist()
    return quotient, [(*row, v) for row, v in zip(counts.tolist(), least)]


def _inner_figures(cls: ShapeClass, params: HypergeomParams, r: float, n: int, settings: SeriesSettings) -> tuple:
    """The `_ring_figures` of one row's ring of radius r."""
    ring = gauss_2f1_ring(params, r, n, settings)
    return _ring_figures([(cls, [0])], ring.f[None], ring.zdf[None], ring.converged[None])[1][0]


def _report(
    cls: ShapeClass,
    params: HypergeomParams,
    grid: DiskGridSettings,
    origin_slack: float,
    rings: list[tuple],
    f_zeros_inside: Optional[int],
    outer_only: bool,
    unresolved: Optional[str],
) -> VerificationReport:
    """The report of one row from the slack at the origin and the figures
    (see `_ring_figures`) of its rings, (r, figures) innermost first;
    unresolved says why f_zeros_inside is None (see `_unresolved`)."""

    def node(r, k):
        """z_k = r e^{2 pi i k/n} of a grid ring in complex128, formed only where the report names it."""
        return complex(r * np.exp(1j * (2 * math.pi * k / grid.n_angles)))

    min_slack, argmin = origin_slack, None  # None: the origin
    n_violations = 1 if min_slack < -VIOLATION_TOL else 0
    n_f_zeros = n_unevaluated = 0
    notes: list[str] = []
    for r, (bad, zeros, first_zero, violations, j, least) in rings:
        if bad:
            n_unevaluated += bad
            notes.append(f"series failed to settle at {bad} points on r = {r:.6g}")
        if zeros:
            n_f_zeros += zeros
            notes.append(f"F vanishes at z = {node(r, first_zero):.6g} (|F| <= {ZERO_TOL:g})")
        n_violations += violations
        if least < min_slack:
            min_slack, argmin = least, (r, j)
    argmin_z = 0j if argmin is None else node(*argmin)

    r_out = rings[-1][0]
    if f_zeros_inside is None:
        notes.append(f"zeros of F inside r = {r_out:.6g} unresolved: {unresolved}")
    elif f_zeros_inside > 0:
        notes.append(f"F has {f_zeros_inside} zero(s) inside r = {r_out:.6g} (winding number on the outer ring)")

    if n_f_zeros > 0 or (f_zeros_inside or 0) > 0:
        status = DEGENERATE
    elif n_violations > 0:
        status = VIOLATED
    elif n_unevaluated > 0 or f_zeros_inside is None:
        status = INCOMPLETE
    else:
        status = CONSISTENT
    return VerificationReport(
        cls, params, grid, min_slack, argmin_z, n_violations, n_f_zeros, status, notes,
        n_unevaluated=n_unevaluated, f_zeros_inside=f_zeros_inside, rings="outer" if outer_only else "all",
    )


def verify_rows(
    classes: Sequence[ShapeClass],
    params: Sequence[HypergeomParams],
    grid: DiskGridSettings = DiskGridSettings(),
    settings: SeriesSettings = DEFAULT_SERIES,
) -> list[VerificationReport]:
    """The membership slack of q(z) = z f'(z)/f(z) over a polar grid, for
    each row (classes[i], params[i]): one report per row, in row order.

    Each ring comes from one extended-precision series pass
    (`gauss_2f1_ring`), and q = 1 + zF'/F is rounded to complex128 only at
    the end.  The origin is handled analytically (q(0) = 1).  The outer
    ring comes first; its winding number counts the zeros of F inside.  Once
    the count is resolved and every outer node converged, the report rests
    on the origin and the outer ring (rings = "outer"): a positive count is
    Degenerate and a violated node Violated whatever lies inside, and with
    neither, q is analytic on the disk and the minimum principle puts the
    least slack on the circle.  Otherwise every ring is evaluated (rings =
    "all"), since inner nodes can still turn Incomplete into Violated or
    Degenerate.  Unconverged points are counted in n_unevaluated and keep
    the report from being Consistent.  The argmin is the first evaluated
    point (radius-major, then angle) attaining the minimum slack.

    Every row's outer ring is its own series pass, but the rings are then
    stacked, and the quotient zF'/F, the winding counts and every ring
    figure come from array operations over the stack.  A row the outer ring
    does not settle (an unconverged node, or a count the outer sampling
    cannot resolve) goes on alone through the refinement ladder (where its
    outer tail bound is finite) and, where needed, every ring.  Stacks hold
    at most `_STACK_NODES` nodes (and at least one row), so memory does not
    grow with the number of rows.  A report depends on its own row alone.
    Overflow in a row's series makes its nodes unconverged and raises no
    warning.
    """
    step = max(1, _STACK_NODES // grid.n_angles)
    return [
        report
        for lo in range(0, len(params), step)
        for report in _verify_stack(classes[lo:lo + step], params[lo:lo + step], grid, settings)
    ]


def _verify_stack(
    classes: Sequence[ShapeClass], params: Sequence[HypergeomParams], grid: DiskGridSettings, settings: SeriesSettings
) -> list[VerificationReport]:
    """`verify_rows` on rows whose outer rings are stacked in one array."""
    radii = grid.radii()
    r_out = float(radii[-1])
    n = grid.n_angles
    groups = _class_groups(classes)
    origin = np.empty(len(classes))
    for cls, rows in groups:
        origin[rows] = membership_slack_array(cls, np.asarray(1.0 + 0.0j))
    reports = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        outer = [gauss_2f1_ring(p, r_out, n, settings) for p in params]
        f = np.array([ring.f for ring in outer])
        converged = np.array([ring.converged for ring in outer])
        quotient, figures = _ring_figures(groups, f, np.array([ring.zdf for ring in outer]), converged)
        settled = converged.all(axis=1).tolist()
        counts = np.where(settled, _winding_numbers(f, quotient), -1).tolist()
        for i, (cls, p) in enumerate(zip(classes, params)):
            count = counts[i] if counts[i] >= 0 else None
            if count is None and math.isfinite(outer[i].tail):
                count = _zeros_inside(p, r_out, n, settings)
            outer_only = count is not None and settled[i]
            rings = [] if outer_only else [(r, _inner_figures(cls, p, r, n, settings)) for r in radii[:-1]]
            rings.append((r_out, figures[i]))
            unresolved = None if count is not None else _unresolved(outer[i])
            reports.append(_report(cls, p, grid, float(origin[i]), rings, count, outer_only, unresolved))
    return reports


def verify_on_disk(
    cls: ShapeClass,
    params: HypergeomParams,
    grid: DiskGridSettings = DiskGridSettings(),
    settings: SeriesSettings = DEFAULT_SERIES,
) -> VerificationReport:
    """The report of `verify_rows` on the one row (cls, params)."""
    return verify_rows([cls], [params], grid, settings)[0]


SOUND = "SOUND"
UNSOUND = "UNSOUND"
INFO = "INFO"


@dataclass
class CrossCheckResult:
    verdict: str
    certificate: Certificate
    report: VerificationReport

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": self.certificate.to_json(),
            "report": self.report.to_json(),
        }


def cross_check(
    cls: ShapeClass,
    params: HypergeomParams,
    certificate: Certificate,
    grid: DiskGridSettings = DiskGridSettings(),
    settings: SeriesSettings = DEFAULT_SERIES,
) -> CrossCheckResult:
    """Run the verifier against a certificate for the same (class, params).

    SOUND: the certificate passed and the disk evidence agrees.  UNSOUND: the
    certificate passed but the verifier found a violation or a zero of F; this
    is always a bug.  INFO: the certificate failed; sufficient conditions are
    not necessary, so a Consistent report alongside a failed certificate just
    exhibits the gap.  An Incomplete report is INFO whatever the certificate
    says: missing evidence neither confirms nor refutes it.
    """
    report = verify_on_disk(cls, params, grid, settings)
    if report.status == INCOMPLETE:
        verdict = INFO
    elif certificate.passed:
        verdict = SOUND if report.status == CONSISTENT else UNSOUND
    else:
        verdict = INFO
    return CrossCheckResult(verdict, certificate, report)
