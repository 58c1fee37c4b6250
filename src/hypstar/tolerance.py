"""Tolerance rules shared by the checkers and the CLI.

"x is real" means |Im x| <= 1e-12 (1 + |x|); a strict inequality x > 0
needs a margin above 1e-12; a closed inequality x >= 0 tolerates -1e-12
times a problem-size scale (at least 1).  Every predicate works on Python
scalars and elementwise on numpy arrays.
"""

from __future__ import annotations

import numpy as np

REAL_TOL = 1e-12
STRICT_TOL = 1e-12


def is_real(value):
    return np.abs(np.imag(value)) <= REAL_TOL * (1 + np.abs(value))


def strict_pos(value):
    return value > STRICT_TOL


def nonneg(value, scale=1.0):
    return value >= -STRICT_TOL * np.maximum(1.0, scale)
