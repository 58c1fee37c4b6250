"""Starlike-type target classes and the membership margin.

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

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

def _inside(value, lo, hi, closed):
    return ((lo <= value) if closed else (lo < value)) & (value < hi)


def inside_limits(family: type, alpha, lam=0.0) -> list[tuple]:
    """(inside, message) per limit of the family, in the order its classes check them: whether
    alpha or lam (numbers, or arrays elementwise; NaN is outside) meets it, and its ValueError text."""
    return [(_inside(alpha if name == "alpha" else lam, lo, hi, closed), message)
            for name, lo, hi, closed, message in family.LIMITS]


class _Limited:
    """A family whose LIMITS state each parameter's interval once, as (field, lo, hi, lo
    included, message); a class refuses the first limit it breaks."""

    def __post_init__(self):
        for name, lo, hi, closed, message in self.LIMITS:
            if not _inside(getattr(self, name), lo, hi, closed):
                raise ValueError(message)


@dataclass(frozen=True)
class StarlikeOrder(_Limited):
    """Target class Re[z f'/f] > alpha on the disk; alpha = 0 is classical starlikeness."""

    alpha: float = 0.0
    LIMITS = (("alpha", 0.0, 1.0, True, "starlike order alpha must lie in [0, 1)"),)


@dataclass(frozen=True)
class StronglyStarlike(_Limited):
    """Target class |arg(z f'/f)| < pi alpha / 2 on the disk."""

    alpha: float
    LIMITS = (("alpha", 0.0, 1.0, False, "strong starlikeness order alpha must lie in (0, 1)"),)


@dataclass(frozen=True)
class SpirallikeOrder(_Limited):
    """Target class Re[e^{-i lam} z f'/f] > alpha cos(lam) on the disk."""

    lam: float
    alpha: float = 0.0
    LIMITS = (
        ("lam", -math.pi / 2, math.pi / 2, False, "spiral angle lam must lie in (-pi/2, pi/2)"),
        ("alpha", 0.0, 1.0, True, "spirallike order alpha must lie in [0, 1)"),
    )


ShapeClass = Union[StarlikeOrder, StronglyStarlike, SpirallikeOrder]


def lam_of(cls: ShapeClass) -> float:
    return cls.lam if isinstance(cls, SpirallikeOrder) else 0.0


def shape_of(family: type, alpha: float, lam: float = 0.0) -> ShapeClass:
    """The class of the family at order alpha; only SpirallikeOrder reads the angle lam."""
    return family(lam, alpha) if family is SpirallikeOrder else family(alpha)


def membership_slack_array(cls: ShapeClass, w: np.ndarray) -> np.ndarray:
    """Signed margin of the defining inequality at each w; positive means inside."""
    w = np.asarray(w, dtype=np.complex128)
    if isinstance(cls, StronglyStarlike):
        half = math.pi * cls.alpha / 2
        return np.where(w == 0, -half, half - np.abs(np.angle(w)))
    lam = lam_of(cls)
    return np.real(np.exp(-1j * lam) * w) - cls.alpha * math.cos(lam)


def class_to_json(cls: ShapeClass) -> dict:
    if isinstance(cls, StarlikeOrder):
        return {"kind": "starlike-order", "alpha": cls.alpha}
    if isinstance(cls, StronglyStarlike):
        return {"kind": "strongly-starlike", "alpha": cls.alpha}
    return {"kind": "spirallike-order", "lambda": cls.lam, "alpha": cls.alpha}
