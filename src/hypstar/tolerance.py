"""Tolerance rules: the one home of how a tolerance applies to a comparison.

"x is real" means |Im x| <= 1e-12 (1 + |x|); x is apart from y when |x - y| > 1e-12 (1 + |y|).
Strict x > floor and x < cap need a margin of 1e-12, and closed x >= floor and x <= cap tolerate
1e-12, times a scale (at least 1) where one is given.  A margin within 1e-9 of zero is on its edge,
and a slack below -1e-9 a violation.  Each rule works on scalars and elementwise on arrays, and reads
False on NaN; without a scale, none calls a numpy ufunc on Python scalars.
"""

from __future__ import annotations

import math

import numpy as np

REAL_TOL = 1e-12
STRICT_TOL = 1e-12
EDGE_TOL = 1e-9
ZERO_TOL = 1e-12
VIOLATION_TOL = 1e-9


def _slack(scale):
    return STRICT_TOL if scale is None else STRICT_TOL * np.maximum(1.0, scale)


def is_real(value):
    return np.abs(np.imag(value)) <= REAL_TOL * (1 + np.abs(value))


def apart(value, target):
    return np.abs(value - target) > REAL_TOL * (1 + np.abs(target))


def strict_pos(value, floor=0.0, scale=None):
    return value > floor + _slack(scale)


def nonneg(value, floor=0.0, scale=None):
    return value >= floor - _slack(scale)


def below(value, cap):
    return value < cap - STRICT_TOL


def at_most(value, cap, scale=None):
    return value <= cap + _slack(scale)


def on_edge(value):
    return np.abs(value) <= EDGE_TOL


def violates(slack):
    return slack < -VIOLATION_TOL


def vanishes(value):
    """|value| <= ZERO_TOL; on an array the modulus (a hypot) runs only where |Re| and |Im| are within it."""
    if not (isinstance(value, np.ndarray) and value.ndim):
        return abs(value) <= ZERO_TOL
    zero = (abs(value.real) <= ZERO_TOL) & (abs(value.imag) <= ZERO_TOL)
    zero[zero] = np.abs(value[zero]) <= ZERO_TOL
    return zero


def is_nonpositive_integer(w: complex) -> bool:
    """For one Python complex: |Im w| and |Re w - k|, k <= 0 the nearest integer, are each `at_most` 0."""
    k = round(w.real) if abs(w.real) < math.inf else 1
    return abs(w.imag) <= STRICT_TOL and k <= 0 and abs(w.real - k) <= STRICT_TOL


def may_be_nonpositive_integer(c: np.ndarray) -> np.ndarray:
    """Where an array of c may hold a value that `is_nonpositive_integer` accepts."""
    return at_most(np.abs(c.imag), 0) & at_most(c.real, 0)
