"""The tolerance rules at every place the checkers apply one.

Each of the 15 cases of SITES is one comparison in `certificates` (the
prefilter of c is `hypergeom`'s): the rule call the checker makes, and the
expression with literal tolerances that the checker used to write inline,
kept here as the reference.  A refusal's case is the mask of accepted rows,
as `~` on a boolean array changes no bit.  Both must give the same booleans
on the threshold itself, 1 and 2 ulp on either side of it, +-0.0, NaN and
+-inf, as arrays, as Python scalars and as numpy scalars (the note sites
pass numpy scalars).  The guard test keeps `certificates` free of
tolerances of its own.
"""
import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from hypstar.certificates import LMNCoefficients, _lmn_scale
from hypstar.hypergeom import may_be_nonpositive_integer
from hypstar.tolerance import apart, at_most, below, nonneg, on_edge, strict_pos

CERTIFICATES = Path(__file__).resolve().parent.parent / "src" / "hypstar" / "certificates.py"
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf]


def around(*thresholds):
    """Each threshold, 1 and 2 ulp on either side of it, and the special values."""
    out = list(SPECIAL)
    for t in thresholds:
        out.append(t)
        for direction in (np.inf, -np.inf):
            x = t
            for _ in range(2):
                x = float(np.nextafter(x, direction))
                out.append(x)
    return out


def complex_around(*thresholds):
    parts = around(*thresholds, *(-t for t in thresholds))
    return [complex(re, im) for re, im in itertools.product(parts, parts)]


# site -> (rule call, inline expression it replaced, values); a value is a tuple of arguments
SITES = {
    # verdicts
    "cor-a2 a": (
        lambda a: strict_pos(a) & at_most(a, 2),
        lambda a: (1e-12 < a) & (a <= 2 + 1e-12),
        [(v,) for v in around(1e-12, 2 + 1e-12, 2.0)],
    ),
    "cor-a2 b + c": (
        lambda v: nonneg(v, floor=3),
        lambda v: v >= 3 - 1e-12,
        [(v,) for v in around(3 - 1e-12, 3.0)],
    ),
    "cor-a2 c - b": (
        lambda v: nonneg(v),
        lambda v: v >= -1e-12,
        [(v,) for v in around(-1e-12)],
    ),
    "sst-cor-final (a-2)(b-2) cap": (
        lambda prod, cap1: at_most(prod, cap1, np.abs(prod)),
        lambda prod, cap1: prod <= cap1 + 1e-12 * np.maximum(1.0, np.abs(prod)),
        [(v, cap) for cap in (2.0, 0.5, 3.9, 1e-3, np.nan) for v in around(cap + 1e-12 * max(1.0, abs(cap)), cap)],
    ),
    "sst-cor-final a + b cap": (
        lambda lsum, cap2: at_most(lsum, cap2, np.abs(lsum)),
        lambda lsum, cap2: lsum <= cap2 + 1e-12 * np.maximum(1.0, np.abs(lsum)),
        [(v, cap) for cap in (2.5, -0.75, 1e3, np.inf) for v in around(cap + 1e-12 * max(1.0, abs(cap)), cap)],
    ),
    # the rule floors the scale at 1 and the reference does not; they agree
    # because `_lmn_scale` is never below 1 (test_lmn_scale_is_at_least_one)
    "general s^3 coefficient": (
        lambda c3, scale: at_most(np.abs(c3), 0, scale),
        lambda c3, scale: np.abs(c3) <= 1e-12 * scale,
        [(v, scale) for scale in (1.0, 7.5, 1e6, np.inf, np.nan) for v in around(1e-12 * scale, -1e-12 * scale)],
    ),
    # refusals and branches
    "c near a nonpositive integer": (
        may_be_nonpositive_integer,
        lambda c: (np.abs(c.imag) <= 1e-12) & (c.real <= 1e-12),
        [(c,) for c in complex_around(1e-12)],
    ),
    "zero ab": (
        lambda ab: at_most(np.abs(ab), 0),
        lambda ab: np.abs(ab) <= 1e-12,
        [(ab,) for ab in complex_around(1e-12)],
    ),
    "spirallike-cor1 |lam|": (
        lambda lam: strict_pos(np.abs(lam)) & (np.abs(lam) < np.pi / 2),
        lambda lam: (1e-12 < np.abs(lam)) & (np.abs(lam) < np.pi / 2),
        [(v,) for v in around(1e-12, -1e-12, np.pi / 2)],
    ),
    "spirallike-cor2 cos^2 window": (
        lambda cos2, lower: strict_pos(cos2, lower) & below(cos2, 1),
        lambda cos2, lower: (lower + 1e-12 < cos2) & (cos2 < 1 - 1e-12),
        [
            (v, lower)
            for lower in ((1 - 2 * 0.1) / (4 * 0.9), 0.25, -0.5, 1 / 3, np.nan)
            for v in around(lower + 1e-12, 1 - 1e-12)
        ],
    ),
    "strong-starlike |ab - p|": (
        lambda w: strict_pos(np.abs(w)),
        lambda w: np.abs(w) > 1e-12,
        [(w,) for w in complex_around(1e-12)],
    ),
    "convexity c = a + b + 2": (
        apart,
        lambda c, target: np.abs(c - target) > 1e-12 * (1 + np.abs(target)),
        [
            (complex(target + d), complex(target))
            for target in (4.0, -2.5, 1e6)
            for d in around(1e-12 * (1 + abs(target)), -1e-12 * (1 + abs(target)))
        ]
        + [(complex(re, im), 3 + 0j) for re, im in itertools.product(around(3.0), around(4e-12))],
    ),
    # notes
    "starlike-order boundary note": (
        on_edge,
        lambda m: abs(m) <= 1e-9,
        [(v,) for v in around(1e-9, -1e-9)],
    ),
    "cor-a2 b + c = 3 note": (
        lambda v: at_most(abs(v), 0),
        lambda v: abs(v) <= 1e-12,
        [(v,) for v in around(1e-12, -1e-12)],
    ),
    "spirallike Re[e^{-i lam} ab] < 0 note": (
        lambda m0: below(m0, 0),
        lambda m0: m0 < -1e-12,
        [(v,) for v in around(-1e-12, 0.0)],
    ),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_rule_matches_the_inline_expression_on_arrays(site):
    rule, reference, values = SITES[site]
    args = [np.array(column) for column in zip(*values)]
    got, want = rule(*args), reference(*args)
    assert got.dtype == want.dtype == bool
    assert np.array_equal(got, want), [v for v, g, w in zip(values, got, want) if g != w]
    assert want.any() and not want.all()  # the values reach both sides of the threshold


@pytest.mark.parametrize("site", sorted(SITES))
def test_rule_matches_the_inline_expression_on_scalars(site):
    rule, reference, values = SITES[site]
    for args in values:
        assert bool(rule(*args)) == bool(reference(*args)), args
        assert bool(rule(*(np.asarray(x)[()] for x in args))) == bool(reference(*args)), args


def test_lmn_scale_is_at_least_one():
    """The scale of general's s^3 rule is at least 1 (or NaN), so the rule's
    own floor of 1 never moves its bound."""
    values = np.array(around(0.5, 1.0, 1e-300, 2.0, -0.5, -1.0, -2.0))
    L, M, N = (x.ravel() for x in np.meshgrid(values, values, values))
    scale = _lmn_scale(LMNCoefficients(L, M, N))
    assert np.all((scale >= 1) | np.isnan(scale))
    assert np.isnan(scale).any() and (scale == 1).any()


def test_certificates_holds_no_tolerance_of_its_own():
    """No name ending in _TOL, and no float constant below 1e-6 in magnitude,
    in certificates.py: each comparison with a tolerance goes through
    `tolerance` (or `hypergeom` for c at a nonpositive integer).  Threshold
    strings such as "> 0 (strict, tol 1e-12)" are str constants and are not
    counted.  The two 1e-12 exponent-grouping rules of
    `oracles.leading_coefficients` are outside this test's scope: they group
    the terms of the minimizer's residual, in `oracles`."""
    tree = ast.parse(CERTIFICATES.read_text(encoding="utf-8"))
    names = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
    names += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    names += [alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names]
    assert [name for name in names if name.endswith("_TOL")] == []
    tiny = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)) and 0 < abs(node.value) < 1e-6
    ]
    assert tiny == []
