"""Starlike-type target classes: generators, boundary closed forms, predicates.

Three families are supported, each given by a generator phi with phi(0) = 1
whose image describes where z f'(z)/f(z) must live:

  * starlike of order alpha:          Re w > alpha,
  * lambda-spirallike of order alpha: Re[e^{-i lambda} w] > alpha cos(lambda),
  * strongly starlike of order alpha: |arg w| < pi alpha / 2.

The first two share the same Moebius generator, parametrized by
mu = (1 - alpha) e^{i lambda} cos(lambda); starlike of order alpha is the
lambda = 0 member and reuses the exact same code paths, so the two
representations produce bit-identical values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .tolerance import REAL_TOL

# boundary grids stay this far away (in radians) from singular boundary points
THETA_MIN = 1e-4


@dataclass(frozen=True)
class StarlikeOrder:
    """Target class Re[z f'/f] > alpha on the disk; alpha = 0 is classical starlikeness."""

    alpha: float = 0.0

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ValueError("starlike order alpha must lie in [0, 1)")


@dataclass(frozen=True)
class StronglyStarlike:
    """Target class |arg(z f'/f)| < pi alpha / 2 on the disk."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("strong starlikeness order alpha must lie in (0, 1)")


@dataclass(frozen=True)
class SpirallikeOrder:
    """Target class Re[e^{-i lam} z f'/f] > alpha cos(lam) on the disk."""

    lam: float
    alpha: float = 0.0

    def __post_init__(self):
        if not abs(self.lam) < math.pi / 2:
            raise ValueError("spiral angle lam must lie in (-pi/2, pi/2)")
        if not 0 <= self.alpha < 1:
            raise ValueError("spirallike order alpha must lie in [0, 1)")


ShapeClass = Union[StarlikeOrder, StronglyStarlike, SpirallikeOrder]


def lam_of(cls: ShapeClass) -> float:
    return cls.lam if isinstance(cls, SpirallikeOrder) else 0.0


def shape_of(family: type, alpha: float, lam: float = 0.0) -> ShapeClass:
    """The class of the family at order alpha; only SpirallikeOrder reads the angle lam."""
    return family(lam, alpha) if family is SpirallikeOrder else family(alpha)


def mu_of(cls: ShapeClass) -> complex:
    """mu = (1 - alpha) e^{i lam} cos(lam) for the Moebius-type families."""
    if isinstance(cls, StronglyStarlike):
        raise ValueError("mu is defined only for the Moebius-type families")
    lam = lam_of(cls)
    return (1 - cls.alpha) * cmath.exp(1j * lam) * math.cos(lam)


def q_class(cls: ShapeClass, z: complex) -> complex:
    """Q(z) = phi(z) - 1 for the class generator phi."""
    z = complex(z)
    if isinstance(cls, StronglyStarlike):
        return ((1 + z) / (1 - z)) ** cls.alpha - 1
    return 2 * mu_of(cls) * z / (1 - z)


def phi(cls: ShapeClass, z: complex) -> complex:
    """Class generator: Moebius map for the half-plane families, principal
    power of (1+z)/(1-z) for strong starlikeness."""
    return 1 + q_class(cls, z)


@dataclass(frozen=True)
class BoundaryPoint:
    """A non-exceptional boundary point zeta = e^{i theta} with its cotangent.

    For the Moebius-type families s = cot(theta/2) with theta in (0, 2pi);
    for strong starlikeness s = cot(|theta|/2) > 0 with the sign eps = sgn(theta)
    and theta in (-pi, pi) minus 0.
    """

    theta: float
    zeta: complex
    s: float
    eps: int = 1


def boundary_point(cls: ShapeClass, theta: float) -> BoundaryPoint:
    theta = float(theta)
    if isinstance(cls, StronglyStarlike):
        if not (-math.pi < theta < math.pi) or theta == 0:
            raise ValueError("theta must lie in (-pi, pi) and differ from 0")
        eps = 1 if theta > 0 else -1
        s = 1.0 / math.tan(abs(theta) / 2)
        return BoundaryPoint(theta, cmath.exp(1j * theta), s, eps)
    if not 0 < theta < 2 * math.pi:
        raise ValueError("theta must lie in (0, 2 pi)")
    return BoundaryPoint(theta, cmath.exp(1j * theta), 1.0 / math.tan(theta / 2), 1)


# Closed boundary forms, written against plain s (and eps) so both the scalar
# API below and the vectorized grid checker share one formula source.

def spiral_boundary_Q(mu: complex, s):
    return mu * (-1 + 1j * np.asarray(s, dtype=float))


def spiral_boundary_zQprime(mu: complex, s):
    s = np.asarray(s, dtype=float)
    return -mu * (1 + s * s) / 2


def sst_boundary_Q(alpha: float, s, eps):
    s = np.asarray(s, dtype=float)
    return np.exp(1j * np.asarray(eps) * (np.pi * alpha / 2)) * s**alpha - 1


def sst_boundary_zQprime(alpha: float, s, eps):
    s = np.asarray(s, dtype=float)
    return -(alpha / 2) * np.exp(-1j * np.asarray(eps) * (np.pi * (1 - alpha) / 2)) * s**alpha * (s + 1 / s)


def boundary_Q(cls: ShapeClass, point: BoundaryPoint) -> complex:
    """Q(zeta) in closed form: mu(-1 + i s), or e^{i eps pi alpha/2} s^alpha - 1."""
    if isinstance(cls, StronglyStarlike):
        return complex(sst_boundary_Q(cls.alpha, point.s, point.eps))
    return complex(spiral_boundary_Q(mu_of(cls), point.s))


def boundary_zQprime(cls: ShapeClass, point: BoundaryPoint) -> complex:
    """zeta Q'(zeta) in closed form: -mu(1+s^2)/2, or the s^alpha (s + 1/s) form.

    For strong starlikeness s must be nonzero (theta = +-pi is a branch point
    of the generator and is excluded from grids).
    """
    if isinstance(cls, StronglyStarlike):
        if point.s == 0:
            raise ValueError("s must be nonzero for the strongly starlike boundary derivative")
        return complex(sst_boundary_zQprime(cls.alpha, point.s, point.eps))
    return complex(spiral_boundary_zQprime(mu_of(cls), point.s))


def membership_slack_array(cls: ShapeClass, w: np.ndarray) -> np.ndarray:
    """Signed margin of the defining inequality at each w; positive means inside."""
    w = np.asarray(w, dtype=np.complex128)
    if isinstance(cls, StronglyStarlike):
        half = math.pi * cls.alpha / 2
        return np.where(w == 0, -half, half - np.abs(np.angle(w)))
    lam = lam_of(cls)
    return np.real(np.exp(-1j * lam) * w) - cls.alpha * math.cos(lam)


def membership_predicate(cls: ShapeClass, w: complex) -> tuple[bool, float]:
    """(passes, slack) for a single value w = z f'(z)/f(z)."""
    slack = float(membership_slack_array(cls, np.asarray(complex(w))))
    return slack > 0, slack


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    value: Optional[complex]
    note: str = ""


def admissibility_vi(cls: ShapeClass) -> AdmissibilityResult:
    """Derivative test at the unbounded boundary point of the generator.

    Each family has a single boundary point (zeta = 1) where Q blows up.  For
    the Moebius-type families the reciprocal P = 1/Q is conformal there and
    the test requires zeta P'(zeta) = -1/[(1-alpha)(1 + e^{2 i lam})] to avoid
    the real interval [0, 1].  For strong starlikeness the opening exponent at
    that point exceeds 1, so the test holds vacuously.
    """
    if isinstance(cls, StronglyStarlike):
        return AdmissibilityResult(
            True, None, f"opening exponent 1/alpha = {1 / cls.alpha:.6g} > 1; derivative test vacuous"
        )
    lam = lam_of(cls)
    value = -1 / ((1 - cls.alpha) * (1 + cmath.exp(2j * lam)))
    in_unit_interval = abs(value.imag) <= REAL_TOL and -REAL_TOL <= value.real <= 1 + REAL_TOL
    return AdmissibilityResult(not in_unit_interval, value)


def class_to_json(cls: ShapeClass) -> dict:
    if isinstance(cls, StarlikeOrder):
        return {"kind": "starlike-order", "alpha": cls.alpha}
    if isinstance(cls, StronglyStarlike):
        return {"kind": "strongly-starlike", "alpha": cls.alpha}
    return {"kind": "spirallike-order", "lambda": cls.lam, "alpha": cls.alpha}

