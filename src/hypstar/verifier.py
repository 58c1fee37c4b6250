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

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .certificates import Certificate, _pair
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


@dataclass(frozen=True)
class DiskGridSettings:
    n_radii: int = 40
    r_max: float = 0.995
    n_angles: int = 720
    radial_spacing: str = "geometric-toward-boundary"

    def __post_init__(self):
        if not 0 < self.r_max < 1:
            raise ValueError("r_max must lie in (0, 1)")
        if self.n_angles < 8:
            raise ValueError("n_angles must be at least 8")
        if self.n_radii < 1:
            raise ValueError("n_radii must be at least 1")
        if self.radial_spacing not in ("uniform", "geometric-toward-boundary"):
            raise ValueError("radial_spacing must be 'uniform' or 'geometric-toward-boundary'")

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
            "params": {"a": _pair(self.params.a), "b": _pair(self.params.b), "c": _pair(self.params.c)},
            "grid": self.grid.to_json(),
            "min_slack": self.min_slack,
            "argmin_z": _pair(self.argmin_z),
            "n_violations": self.n_violations,
            "n_f_zeros": self.n_f_zeros,
            "n_unevaluated": self.n_unevaluated,
            "f_zeros_inside": self.f_zeros_inside,
            "rings": self.rings,
            "status": self.status,
            "notes": list(self.notes),
        }


def _winding_number(ring: RingValues) -> Optional[int]:
    """Winding number about 0 of F sampled at equispaced points of a circle.

    v = Re(zF'/F) is d arg F / d theta, so the trapezoid rule predicts the
    step of arg F between samples k and k+1 as p_k = (pi/N)(v_k + v_{k+1}).
    Each principal step is moved to the branch nearest p_k, and the count is
    the sum of the moved steps.  None when a sample is zero or not finite,
    when some |p_k| exceeds pi or a moved step still differs from p_k by
    more than MAX_PHASE_STEP (the count would rest on too coarse a
    sampling), or when the count comes out negative, which no analytic F
    can give.
    """
    f = ring.f.astype(np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (ring.zdf / ring.f).real.astype(np.float64)
        steps = np.angle(np.concatenate((f[1:], f[:1])) / f)
    predicted = math.pi / len(f) * (v + np.concatenate((v[1:], v[:1])))
    if not np.all(np.abs(predicted) <= math.pi):
        return None
    steps += 2 * math.pi * np.round((predicted - steps) / (2 * math.pi))
    if not np.all(np.abs(steps - predicted) <= MAX_PHASE_STEP):
        return None
    count = round(float(steps.sum()) / (2 * math.pi))
    return count if count >= 0 else None


def _zeros_inside(
    params: HypergeomParams, r: float, outer: RingValues, settings: SeriesSettings
) -> Optional[int]:
    """Zeros of F in |z| < r by the argument principle on the outer ring.

    The ring is sampled again at 2, 4, 8 and 16 times as many angles while a
    phase step is too large; None when even the finest sampling does not
    resolve the count.
    """
    n_angles = len(outer.f)
    ring = outer
    for refine in _WINDING_REFINEMENTS:
        if refine > 1:
            ring = gauss_2f1_ring(params, r, refine * n_angles, settings)
        if ring.converged.all():
            count = _winding_number(ring)
            if count is not None:
                return count
    return None


@functools.lru_cache(maxsize=8)
def _unit_circle(n: int) -> np.ndarray:
    """e^{2 pi i k/n}, k = 0, ..., n-1, in complex128; read-only, as it is shared."""
    unit = np.exp(1j * (2 * math.pi * np.arange(n) / n))
    unit.flags.writeable = False
    return unit


def _ring_slack(cls: ShapeClass, ring: RingValues) -> tuple[np.ndarray, np.ndarray]:
    """(slack, zero): the slack of q at each node of a ring, inf where the
    series did not settle or where |F| <= ZERO_TOL (the mask `zero`)."""
    zero = (np.abs(ring.f) <= ZERO_TOL) & ring.converged
    valid = ring.converged & ~zero
    slack = np.full(len(ring.f), np.inf)
    if valid.any():
        q = (1 + ring.zdf[valid] / ring.f[valid]).astype(np.complex128)
        slack[valid] = membership_slack_array(cls, q)
    return slack, zero


def verify_on_disk(
    cls: ShapeClass,
    params: HypergeomParams,
    grid: DiskGridSettings = DiskGridSettings(),
    settings: SeriesSettings = DEFAULT_SERIES,
) -> VerificationReport:
    """Evaluate the membership slack of q(z) = z f'(z)/f(z) over a polar grid.

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
    """
    unit = _unit_circle(grid.n_angles)
    radii = grid.radii()
    r_out = float(radii[-1])
    outer = gauss_2f1_ring(params, r_out, grid.n_angles, settings)
    f_zeros_inside = _zeros_inside(params, r_out, outer, settings)
    outer_only = f_zeros_inside is not None and bool(outer.converged.all())
    inner = () if outer_only else ((r, gauss_2f1_ring(params, r, grid.n_angles, settings)) for r in radii[:-1])

    min_slack = float(membership_slack_array(cls, np.asarray(1.0 + 0.0j)))
    argmin_z = 0.0 + 0.0j
    n_violations = 1 if min_slack < -VIOLATION_TOL else 0
    n_f_zeros = n_unevaluated = 0
    notes: list[str] = []

    for r, ring in itertools.chain(inner, [(r_out, outer)]):
        z = r * unit
        slack_row, zero = _ring_slack(cls, ring)
        bad = ~ring.converged
        if bad.any():
            n_unevaluated += int(bad.sum())
            notes.append(f"series failed to settle at {int(bad.sum())} points on r = {r:.6g}")
        if zero.any():
            n_f_zeros += int(zero.sum())
            j = int(np.argmax(zero))
            notes.append(f"F vanishes at z = {complex(z[j]):.6g} (|F| <= {ZERO_TOL:g})")
        n_violations += int(np.count_nonzero(slack_row < -VIOLATION_TOL))
        j = int(np.argmin(slack_row))
        v = float(slack_row[j])
        if v < min_slack:
            min_slack = v
            argmin_z = complex(z[j])

    if f_zeros_inside is None:
        n_max = _WINDING_REFINEMENTS[-1] * grid.n_angles
        notes.append(f"zeros of F inside r = {r_out:.6g} unresolved: no winding number on up to {n_max} angles")
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
