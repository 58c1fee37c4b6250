"""Tolerance rules: the one home of how a tolerance applies to a comparison.

"x is real" means |Im x| <= 1e-12 (1 + |x|), and x is apart from y when
|x - y| > 1e-12 (1 + |y|).  A strict x > floor or x < cap needs a margin
of 1e-12; a closed x >= floor or x <= cap tolerates 1e-12 times a scale (at
least 1).  A margin within 1e-9 of zero is on its edge.  Each rule works on
scalars and elementwise on arrays, and reads False on NaN.
"""

from __future__ import annotations

import numpy as np

REAL_TOL = 1e-12
STRICT_TOL = 1e-12
EDGE_TOL = 1e-9


def is_real(value):
    return np.abs(np.imag(value)) <= REAL_TOL * (1 + np.abs(value))


def apart(value, target):
    return np.abs(value - target) > REAL_TOL * (1 + np.abs(target))


def strict_pos(value, floor=0.0):
    return value > floor + STRICT_TOL


def nonneg(value, floor=0.0, scale=1.0):
    return value >= floor - STRICT_TOL * np.maximum(1.0, scale)


def below(value, cap):
    return value < cap - STRICT_TOL


def at_most(value, cap, scale=1.0):
    return value <= cap + STRICT_TOL * np.maximum(1.0, scale)


def on_edge(value):
    return np.abs(value) <= EDGE_TOL
