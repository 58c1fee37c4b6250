"""The tolerance rules at every place a module of hypstar applies one.

Each case of SITES is one comparison in `certificates`, `hypergeom`,
`oracles` or `verifier`: the rule call the module makes, and the expression
with literal tolerances that the module used to write inline, kept here as
the reference.  A refusal's case is the mask of accepted rows, as `~` on a
boolean array changes no bit.  Both must give the same booleans on the
threshold itself, 1 and 2 ulp on either side of it, +-0.0, NaN and +-inf,
as arrays, as Python scalars and as numpy scalars (the note sites pass numpy
scalars); the zero tests of F also on np.clongdouble, the type of F's sums.
NaN is left out at the radius gates, which refuse it where the inline
expression let it through (tests/test_hypergeom.py checks that refusal).
The guard test keeps every other module free of tolerances of its own.
"""
import ast
import cmath
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from hypstar.certificates import LMNCoefficients, _lmn_scale
from hypstar.tolerance import (
    apart,
    at_most,
    below,
    is_nonpositive_integer,
    may_be_nonpositive_integer,
    nonneg,
    on_edge,
    strict_pos,
    vanishes,
    violates,
)

SOURCES = Path(__file__).resolve().parent.parent / "src" / "hypstar"
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


def radii_around(cap):
    """`around` the cap and the cap plus its slack, without NaN."""
    return [r for r in around(cap, cap + 1e-12) if not math.isnan(r)]


def is_nonpositive_integer_inline(w):
    """hypergeom's test of c as it was written inline; HypergeomParams
    refused a c that is not finite before it."""
    if not cmath.isfinite(w):
        return False
    if abs(w.imag) > 1e-12:
        return False
    k = round(w.real)
    return k <= 0 and abs(w.real - k) <= 1e-12


def ring_zero_inline(f):
    """The verifier's zero test on rings as it was written inline, less its `& converged`."""
    f = np.atleast_1d(f)
    zero = (abs(f.real) <= 1e-12) & (abs(f.imag) <= 1e-12)
    zero[zero] = np.abs(f[zero]) <= 1e-12
    return zero


# F near |F| = 1e-12 on the axes and off them
ZERO_VALUES = complex_around(1e-12) + [
    cmath.rect(t, angle) for angle in (math.pi / 4, 1.0, -2.5) for t in around(1e-12) if math.isfinite(t)
]

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
    # hypergeom
    "c at a nonpositive integer": (
        is_nonpositive_integer,
        is_nonpositive_integer_inline,
        [
            (complex(re, im),)
            for re in around(0.0, -1.0, -3.0, 2.0, 1e-12, -1e-12, -1 + 1e-12, -1 - 1e-12, 2 - 1e-12)
            for im in around(1e-12, -1e-12)
        ],
    ),
    "radius gate, point": (
        lambda z, cap: at_most(abs(z), cap),
        lambda z, cap: np.logical_not(abs(z) > cap + 1e-12),
        [(r * w, cap) for cap in (0.995, 0.5, 0.97) for r in radii_around(cap) for w in (1, 1j, cmath.rect(1, 2.0))],
    ),
    "radius gate, grid": (
        lambda z, cap: at_most(np.abs(z), cap),
        lambda z, cap: np.logical_not(np.abs(z) > cap + 1e-12),
        [(r * w, cap) for cap in (0.995, 0.5) for r in radii_around(cap) for w in (1, -1j, cmath.rect(1, -0.7))],
    ),
    "radius gate, ring": (
        lambda r, cap: at_most(r, cap),
        lambda r, cap: np.logical_not(r > cap + 1e-12),
        [(r, cap) for cap in (0.995, 0.5, 0.97) for r in radii_around(cap)],
    ),
    "zero of F, point": (vanishes, lambda f: abs(f) <= 1e-12, [(f,) for f in ZERO_VALUES]),
    # oracles.leading_coefficients
    "leading exponent grouping": (
        lambda gap: ~at_most(np.abs(gap), 0),
        lambda gap: ~(np.abs(gap) <= 1e-12),
        [(v,) for v in around(1e-12, -1e-12)],
    ),
    "leading coefficient cancellation": (
        lambda size, largest: strict_pos(size, scale=largest),
        lambda size, largest: size > 1e-12 * np.maximum(largest, 1.0),
        [(v, m) for m in (1.0, 0.25, 7.5, 1e6, np.inf, np.nan) for v in around(1e-12 * max(1.0, m))],
    ),
    # verifier
    "zero of F, rings": (vanishes, ring_zero_inline, [(f,) for f in ZERO_VALUES]),
    "violation slack": (violates, lambda slack: slack < -1e-9, [(v,) for v in around(-1e-9, 0.0)]),
}
# sites whose rule takes one Python complex at a time
SCALAR_SITES = {"c at a nonpositive integer"}


@pytest.mark.parametrize("site", sorted(SITES.keys() - SCALAR_SITES))
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


@pytest.mark.parametrize("site", ["zero of F, point", "zero of F, rings"])
def test_zero_of_f_matches_the_inline_expression_on_clongdouble(site):
    """F's sums are np.clongdouble: the values of ZERO_VALUES and ones a long
    double ulp or two from |F| = 1e-12, as an array and one by one."""
    rule, reference, values = SITES[site]
    edge = []
    for t in (np.longdouble(1e-12), np.longdouble(1e-12) / np.sqrt(np.longdouble(2))):
        for direction in (np.inf, -np.inf):
            x = t
            for _ in range(2):
                x = np.nextafter(x, np.longdouble(direction))
                edge += [np.clongdouble(x), np.clongdouble(x) * 1j, x + 1j * t]
    f = np.array([v for v, in values] + edge, dtype=np.clongdouble)
    got, want = rule(f), reference(f)
    assert np.array_equal(got, want), f[got != want]
    assert want.any() and not want.all()
    for x in f:
        assert bool(rule(x)) == bool(reference(x)), x


def test_lmn_scale_is_at_least_one():
    """The scale of general's s^3 rule is at least 1 (or NaN), so the rule's
    own floor of 1 never moves its bound."""
    values = np.array(around(0.5, 1.0, 1e-300, 2.0, -0.5, -1.0, -2.0))
    L, M, N = (x.ravel() for x in np.meshgrid(values, values, values))
    scale = _lmn_scale(LMNCoefficients(L, M, N))
    assert np.all((scale >= 1) | np.isnan(scale))
    assert np.isnan(scale).any() and (scale == 1).any()


def _settings_defaults(tree) -> set[int]:
    """ids of the default values of the fields of the *Settings dataclasses."""
    return {
        id(stmt.value) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name.endswith("Settings")
        for stmt in node.body if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
    }


def _docstrings(tree) -> set[int]:
    return {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }


def _tolerance_names(tree) -> tuple[list[str], list[str]]:
    """(defined, used): the names ending in _TOL or _SLACK that the module
    binds, and those it reads outside a {...} of an f-string."""
    formatted = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.FormattedValue) for sub in ast.walk(node)}
    defined, used = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name, store = node.name, True
        elif isinstance(node, ast.arg):
            name, store = node.arg, True
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            store = not isinstance(node.ctx, ast.Load)
        else:
            continue
        if name.endswith(("_TOL", "_SLACK")):
            if store:
                defined.append(name)
            elif id(node) not in formatted:
                used.append(name)
    return defined, used


def test_no_module_holds_a_tolerance_of_its_own():
    """Every module of hypstar but `tolerance` calls a rule of `tolerance`
    for each comparison with a tolerance: it defines no name ending in _TOL
    or _SLACK and reads such a name only to print it in an f-string, holds
    no float constant below 1e-6 in magnitude but the defaults of settings
    fields, and writes 1e-12 or 1e-9 in no string that is not a docstring."""
    modules = sorted(p for p in SOURCES.glob("*.py") if p.name != "tolerance.py")
    assert {"certificates.py", "hypergeom.py", "oracles.py", "verifier.py"} <= {p.name for p in modules}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined, used = _tolerance_names(tree)
        assert (defined, used) == ([], []), path.name
        exempt = _settings_defaults(tree) | _docstrings(tree)
        constants = [node for node in ast.walk(tree) if isinstance(node, ast.Constant) and id(node) not in exempt]
        tiny = [c.value for c in constants if isinstance(c.value, (float, complex)) and 0 < abs(c.value) < 1e-6]
        assert tiny == [], path.name
        written = [c.value for c in constants if isinstance(c.value, str)
                   and any(t in c.value for t in ("1e-12", "1e-09", "1e-9"))]
        assert written == [], path.name
