"""Closed-form sufficient-condition checkers for the shifted hypergeometric
function f(z) = z 2F1(a,b;c;z).

Every checker returns a Certificate carrying the full condition trace: each
inequality is evaluated (no short-circuiting) and recorded with its value,
threshold and verdict, so a failed certificate shows exactly which margin
broke.  A passing closed-form certificate is a proof-grade statement about
membership; the minimizer kinds decide a quantified inequality numerically,
and note a minimum too close to zero as inconclusive.

Every checker is written over arrays of parameter rows: a `*_batch`
takes one `Rows` record and returns a CertificateBatch, and each scalar
`certify_*` is the certificate of a one-row Rows, so a scan checks a whole
chunk of rows in one call.  `CHECKERS` is the one table of theorem kinds:
each `--theorem` name with its checker.  The kinds in `CLASS_KINDS` take the
rows' class family from `Rows.family`, at `Rows.alpha` and `Rows.lam`.

Every comparison with a tolerance is a rule of `tolerance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidC, InvalidParams, NonFinite, PrecondFailed
from .hypergeom import HypergeomParams, may_be_nonpositive_integer
from .oracles import (
    DEFAULT_LINE_SEARCH,
    LineSearchSettings,
    MinimizerResult,
    leading_coefficients,
    minimize_on_positive_line,
)
from .shapes import (
    ShapeClass,
    SpirallikeOrder,
    StarlikeOrder,
    StronglyStarlike,
    class_to_json,
    inside_limits,
    lam_of,
    shape_of,
)
from .tolerance import apart, at_most, below, is_real, nonneg, on_edge, strict_pos

@dataclass(frozen=True)
class Condition:
    """One inequality of a checker; in a CertificateBatch, `value` and
    `passed` are arrays with one entry per row, and `threshold` is one
    string or a list of one string per row."""

    name: str
    value: Union[float, complex]
    threshold: Union[str, list[str]]
    passed: bool


def render_value(v: Union[float, complex]) -> str:
    """A number as every text output writes it: 15 significant digits, a complex one as "re+imj"."""
    if isinstance(v, complex):
        return f"{v.real:.15g}{v.imag:+.15g}j"
    return f"{v:.15g}"


def json_pair(v: complex) -> list[float]:
    """A complex number as JSON writes it: [re, im]."""
    v = complex(v)
    return [v.real, v.imag]


@dataclass
class Certificate:
    """Outcome of one membership check."""

    kind: str
    passed: bool
    conditions: list[Condition]
    params: HypergeomParams
    shape_class: ShapeClass
    notes: list[str] = field(default_factory=list)

    def failed_condition(self) -> str:
        for cond in self.conditions:
            if not cond.passed:
                return cond.name
        return ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "params": {"a": json_pair(self.params.a), "b": json_pair(self.params.b), "c": json_pair(self.params.c)},
            "class": class_to_json(self.shape_class),
            "conditions": [
                {"name": c.name, "value": render_value(c.value), "threshold": c.threshold, "pass": c.passed}
                for c in self.conditions
            ],
            "notes": list(self.notes),
        }


def _cond_real(name: str, value) -> Condition:
    return Condition(f"Im[{name}]", np.imag(value), "|Im| <= 1e-12 (relative)", is_real(value))


def _cond_strict_pos(name: str, value) -> Condition:
    return Condition(name, value, "> 0 (strict, tol 1e-12)", strict_pos(value))


def _cond_nonneg(name: str, value, scale=1.0) -> Condition:
    return Condition(name, value, ">= 0", nonneg(value, scale=scale))


def _cond_info(name: str, value) -> Condition:
    return Condition(name, value, "(informational)", np.ones(np.shape(value), dtype=bool))


@dataclass
class CertificateBatch:
    """One checker over many parameter rows: each condition's value and
    verdict are arrays with one entry per row.

    `params` holds the rows' (a, b, c), with c pinned where the checker pins
    it.  `errors` maps each row the checker refuses to the exception its
    scalar checker raises: refused inputs, and rows with a condition value
    that is not finite (NonFinite).
    """

    kind: str
    conditions: list[Condition]
    params: tuple[np.ndarray, np.ndarray, np.ndarray]
    shape_class: Callable[[int], ShapeClass]
    errors: dict[int, Exception]
    notes: Callable[[int], list[str]] = lambda i: []

    def __post_init__(self):
        for cond in self.conditions:
            for i in np.flatnonzero(~np.isfinite(cond.value)):
                self.errors.setdefault(int(i), NonFinite(f"{cond.name} is not finite"))

    def failed_conditions(self) -> tuple[np.ndarray, list[str]]:
        """Per row, an index into the returned names: 0 ("") for a passed row, so that
        `code == 0` is the pass mask, else its first failed condition or "invalid: <message>"."""
        ok = np.stack([cond.passed for cond in self.conditions])
        names = ["", *(cond.name for cond in self.conditions)]
        code = np.where(ok.all(axis=0), 0, np.argmax(~ok, axis=0) + 1)
        refusals: dict[str, int] = {}
        for i, exc in self.errors.items():
            code[i] = refusals.setdefault(f"invalid: {exc}", len(names) + len(refusals))
        return code, names + list(refusals)

    def certificate(self, i: int = 0) -> Certificate:
        """Row i as a Certificate; a refused row raises its error."""
        if i in self.errors:
            raise self.errors[i]
        row = [
            Condition(c.name, c.value[i].item(), c.threshold if isinstance(c.threshold, str) else c.threshold[i],
                      bool(c.passed[i]))
            for c in self.conditions
        ]
        a, b, c = self.params
        params = HypergeomParams(a[i], b[i], c[i])
        return Certificate(self.kind, all(r.passed for r in row), row, params, self.shape_class(i), self.notes(i))


@dataclass(frozen=True)
class Rows:
    """What one checker call checks: parameter values with one entry per row
    (a scan chunk, or the one row of `certify`), and the settings every row
    shares.

    Construction broadcasts the per-row fields to one common length: a, b
    and c as complex arrays, alpha, lam and s as float arrays; each may be
    given as one number for every row.  A checker reads the fields it needs:
    the checkers that pin c = a + b + 1 ignore c, and only the kinds in
    CLASS_KINDS read `family`, the class family whose order (and angle) are
    alpha (and lam).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray = 0j
    alpha: np.ndarray = 0.0
    lam: np.ndarray = 0.0
    s: np.ndarray = 0.0
    family: Optional[type] = None
    line_search: LineSearchSettings = DEFAULT_LINE_SEARCH

    def __post_init__(self):
        names = ("a", "b", "c", "alpha", "lam", "s")
        arrays = np.broadcast_arrays(*(np.atleast_1d(getattr(self, name)) for name in names))
        for name, x, dtype in zip(names, arrays, (complex,) * 3 + (float,) * 3):
            object.__setattr__(self, name, x.astype(dtype))


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y over complex arrays, rounded as a Python complex product is (numpy's
    own may fuse a multiply with an add and differ in the last bit)."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _square(x: np.ndarray) -> np.ndarray:
    """x ** 2 as Python computes it for a float (pow, not x * x; they differ in the last bit)."""
    return np.float_power(x, 2)


def _refuse(errors: dict, mask: np.ndarray, error: Callable[[int], Exception]) -> None:
    """Refuse each row i of mask with error(i), unless an earlier check refused it."""
    for i in np.flatnonzero(mask):
        errors.setdefault(int(i), error(int(i)))


def _refuse_nonpositive_c(errors: dict, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """Refuse the rows HypergeomParams refuses: a non-finite a, b or c, or c at a nonpositive integer."""
    for i in np.flatnonzero(may_be_nonpositive_integer(c) | ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c))):
        try:
            HypergeomParams(a[i], b[i], c[i])
        except (InvalidC, InvalidParams) as exc:
            errors.setdefault(int(i), exc)


def _refuse_zero_ab(errors: dict, a: np.ndarray, b: np.ndarray) -> None:
    _refuse(errors, at_most(np.abs(a * b), 0), lambda _: InvalidParams("ab must be nonzero"))


def _refuse_nonpositive_real(errors: dict, name: str, value: np.ndarray) -> np.ndarray:
    """The real parts of value; refuse the rows where it is not a positive real number."""
    bad = ~(is_real(value) & strict_pos(value.real))
    _refuse(errors, bad, lambda i: PrecondFailed(f"{name} must be a positive real number, got {complex(value[i])}"))
    return value.real


def _classes(family: type, alpha: np.ndarray, lam=None) -> Callable[[int], ShapeClass]:
    """Row i's class of the family, for rows whose order (and angle) the checker accepted."""
    return lambda i: shape_of(family, float(alpha[i]), 0.0 if lam is None else float(lam[i]))


def _refuse_class(errors: dict, family: type, alpha: np.ndarray, lam: np.ndarray) -> None:
    """Refuse the rows whose order or angle the family's class refuses, with the class's ValueError."""
    if family is None:
        raise InvalidParams("this checker needs the rows' class family (Rows.family)")
    for inside, message in inside_limits(family, alpha, lam):
        _refuse(errors, ~inside, lambda _, message=message: ValueError(message))


@dataclass(frozen=True)
class LMNCoefficients:
    """Coefficients of the boundary quadratic L s^2 - 2 M s + N (the
    starlike-order and spirallike conventions differ by a positive factor, so
    the sign conditions agree).  Array inputs give arrays of coefficients."""

    L: float
    M: float
    N: float


def starlike_order_lmn(a: complex, b: complex, c: complex, alpha: float) -> LMNCoefficients:
    """Quadratic coefficients of the starlike-order boundary inequality."""
    one = 1 - alpha
    p = (a + b + 1 - c).real
    base = (a * b).real / one + p * (1 - 2 * alpha) - abs(a) ** 2 - abs(b) ** 2 + abs(c - 1) ** 2
    L = base - 4 * a.imag * b.imag
    M = (a * b * (a.conjugate() + b.conjugate() - 2 + 2 * alpha)).imag / one
    N = base - (2 * a.real - abs(a) ** 2 / one) * (2 * b.real - abs(b) ** 2 / one)
    return LMNCoefficients(L, M, N)


def spirallike_lmn(a: complex, b: complex, lam: float, alpha: float) -> LMNCoefficients:
    """Quadratic coefficients of the spirallike boundary inequality (c = a+b+1)."""
    e1 = np.exp(-1j * lam)
    e2 = np.exp(-2j * lam)
    m0 = e1 * a * b
    L = (m0 * (2 - alpha + (1 - alpha) * e2)).real
    M = (m0 * (a.conjugate() + b.conjugate() - (1 - alpha) * (1 + e2))).imag
    N = (m0 * (2 * a.conjugate() + 2 * b.conjugate() + alpha - (1 - alpha) * e2)).real - (
        abs(a) * abs(b)
    ) ** 2 / ((1 - alpha) * np.cos(lam))
    return LMNCoefficients(L, M, N)


def _lmn_scale(lmn: LMNCoefficients):
    return np.maximum(np.maximum(np.maximum(1.0, abs(lmn.L)), abs(lmn.M)), abs(lmn.N))


def _lmn_conditions(lmn: LMNCoefficients) -> list[Condition]:
    scale = _lmn_scale(lmn)
    return [
        _cond_nonneg("L", lmn.L, scale),
        _cond_info("M", lmn.M),
        _cond_nonneg("N", lmn.N, scale),
        _cond_nonneg("L*N - M^2", lmn.L * lmn.N - lmn.M * lmn.M, scale * scale),
    ]


@np.errstate(all="ignore")
def starlike_order_batch(rows: Rows) -> CertificateBatch:
    """certify_starlike_order over rows of (a, b, c, alpha)."""
    a, b, c, alpha = rows.a, rows.b, rows.c, rows.alpha
    errors: dict[int, Exception] = {}
    _refuse_nonpositive_c(errors, a, b, c)
    _refuse_zero_ab(errors, a, b)
    _refuse(errors, ~((0 <= alpha) & (alpha < 1)), lambda _: InvalidParams("alpha must lie in [0, 1)"))
    p = a + b + 1 - c
    margin = (a * b).real - p.real * (1 - alpha)
    conditions = [
        _cond_real("p", p),
        _cond_strict_pos("Re[ab] - p(1-alpha)", margin),
        *_lmn_conditions(starlike_order_lmn(a, b, c, alpha)),
    ]

    def notes(i: int) -> list[str]:
        if on_edge(margin[i]):
            return [
                "Re[ab] - p(1-alpha) is on the strict boundary; for real parameters with "
                "0 < a <= 2, b <= c and b + c = 3 the limiting-family checker (CorA2) still certifies"
            ]
        return []

    return CertificateBatch("StarlikeOrderThm", conditions, (a, b, c), _classes(StarlikeOrder, alpha), errors, notes)


def certify_starlike_order(params: HypergeomParams, alpha: float) -> Certificate:
    """Sufficient condition for f to be starlike of order alpha.

    Requires p = a+b+1-c real, Re[ab] > p(1-alpha), and nonnegativity of the
    boundary quadratic given by L, M, N.
    """
    return starlike_order_batch(Rows(params.a, params.b, params.c, alpha)).certificate()


@np.errstate(all="ignore")
def cor_a2_batch(rows: Rows) -> CertificateBatch:
    """certify_cor_a2 over rows of (a, b, c, s)."""
    a, b, c, s = rows.a, rows.b, rows.c, rows.s
    errors: dict[int, Exception] = {}
    for name, v in (("a", a), ("b", b), ("c", c)):
        _refuse(errors, ~is_real(v), lambda _, name=name: InvalidParams(f"{name} must be real for this checker"))
    # no condition reads s, so a NaN or infinite shift would pass unseen
    _refuse(errors, ~np.isfinite(s), lambda _: InvalidParams("s must be a finite number"))
    a, b, c = a.real, b.real, c.real
    b_s, c_s = b.astype(complex), c.astype(complex)
    b_s.imag = c_s.imag = s
    _refuse_nonpositive_c(errors, a, b_s, c_s)
    conditions = [
        Condition("a", a, "0 < a <= 2", strict_pos(a) & at_most(a, 2)),
        Condition("b + c", b + c, ">= 3", nonneg(b + c, floor=3)),
        Condition("c - b", c - b, ">= 0", nonneg(c - b)),
    ]
    order = 1 - a / 2
    in_range = (0 <= order) & (order < 1)
    shape_class = _classes(StarlikeOrder, np.where(in_range, order, 0.0))

    def notes(i: int) -> list[str]:
        certified = in_range[i] and all(cond.passed[i] for cond in conditions)
        out = [f"certified order 1 - a/2 = {order[i]:.15g}"] if certified else []
        if at_most(abs(b[i] + c[i] - 3), 0):
            out.append("b + c = 3 boundary accepted via the limiting family")
        return out

    return CertificateBatch("CorA2", conditions, (a, b_s, c_s), shape_class, errors, notes)


def certify_cor_a2(a: complex, b: complex, c: complex, s: float = 0.0) -> Certificate:
    """Real-parameter family f(z) = z 2F1(a, b+is; c+is; z): starlike of order
    1 - a/2 whenever 0 < a <= 2, b <= c and 3 <= b + c (the edge b + c = 3 is
    accepted; a compactness/limit argument covers it).  a, b and c must be
    real (up to the relative tolerance of `tolerance.is_real`)."""
    return cor_a2_batch(Rows(a, b, c, s=s)).certificate()


@np.errstate(all="ignore")
def spirallike_batch(rows: Rows) -> CertificateBatch:
    """certify_spirallike over rows of (a, b, lam, alpha)."""
    a, b, lam, alpha = rows.a, rows.b, rows.lam, rows.alpha
    errors: dict[int, Exception] = {}
    _refuse_zero_ab(errors, a, b)
    _refuse(errors, ~(np.abs(lam) < np.pi / 2), lambda _: InvalidParams("lam must lie in (-pi/2, pi/2)"))
    _refuse(errors, ~((0 <= alpha) & (alpha < 1)), lambda _: InvalidParams("alpha must lie in [0, 1)"))
    c = a + b + 1
    _refuse_nonpositive_c(errors, a, b, c)  # a+b at -1, -2, ...
    m0 = (np.exp(-1j * lam) * a * b).real
    conditions = [
        _cond_strict_pos("Re[e^{-i lam} ab]", m0),
        *_lmn_conditions(spirallike_lmn(a, b, lam, alpha)),
    ]

    def notes(i: int) -> list[str]:
        if below(m0[i], 0):
            return [
                "Re[e^{-i lam} ab] < 0: a nonnegative value is necessary for lam-spirallikeness, "
                "so f is not lam-spirallike of any order"
            ]
        return []

    return CertificateBatch("SpirallikeThm", conditions, (a, b, c), _classes(SpirallikeOrder, alpha, lam), errors, notes)


def certify_spirallike(a: complex, b: complex, lam: float, alpha: float) -> Certificate:
    """Sufficient condition for z 2F1(a,b;a+b+1;z) to be lam-spirallike of
    order alpha: Re[e^{-i lam} ab] > 0 plus nonnegativity of the boundary
    quadratic.  The parameter c is pinned to a + b + 1."""
    return spirallike_batch(Rows(a, b, alpha=alpha, lam=lam)).certificate()


@np.errstate(all="ignore")
def spirallike_cor1_batch(rows: Rows) -> CertificateBatch:
    """certify_spirallike_cor1 over rows of (a, b, lam, alpha)."""
    a, b, lam, alpha = rows.a, rows.b, rows.lam, rows.alpha
    errors: dict[int, Exception] = {}
    _refuse(errors, ~((0 <= alpha) & (alpha < 1)), lambda _: InvalidParams("alpha must lie in [0, 1)"))
    _refuse(errors, ~(strict_pos(np.abs(lam)) & (np.abs(lam) < np.pi / 2)),
            lambda _: PrecondFailed("requires 0 < |lam| < pi/2"))
    m = _refuse_nonpositive_real(errors, "e^{-i lam} ab", _times(_times(np.exp(-1j * lam), a), b))
    c = a + b + 1
    _refuse_nonpositive_c(errors, a, b, c)
    lhs = _square((a + b).imag - (1 - alpha) * np.sin(2 * lam))
    rhs = (2 - alpha + (1 - alpha) * np.cos(2 * lam)) * (
        2 * (a + b).real + alpha - (1 - alpha) * np.cos(2 * lam) - m / ((1 - alpha) * np.cos(lam))
    )
    scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
    conditions = [_cond_info("m = e^{-i lam} ab", m), _cond_nonneg("RHS - LHS", rhs - lhs, scale)]
    return CertificateBatch("SpirallikeCor1", conditions, (a, b, c), _classes(SpirallikeOrder, alpha, lam), errors)


def certify_spirallike_cor1(a: complex, b: complex, lam: float, alpha: float) -> Certificate:
    """Spirallike checker for the special case m = e^{-i lam} ab positive real
    and lam nonzero; the quadratic test collapses to a single inequality."""
    return spirallike_cor1_batch(Rows(a, b, alpha=alpha, lam=lam)).certificate()


@np.errstate(all="ignore")
def spirallike_cor2_batch(rows: Rows) -> CertificateBatch:
    """certify_spirallike_cor2 over rows of (a, b, lam, alpha)."""
    a, b, lam, alpha = rows.a, rows.b, rows.lam, rows.alpha
    errors: dict[int, Exception] = {}
    _refuse(errors, ~((0 <= alpha) & (alpha < 1)), lambda _: InvalidParams("alpha must lie in [0, 1)"))
    _refuse(errors, ~(np.abs(lam) < np.pi / 2), lambda _: InvalidParams("lam must lie in (-pi/2, pi/2)"))
    m = _refuse_nonpositive_real(errors, "ab", _times(a, b))
    cos2 = _square(np.cos(lam))
    lower = (1 - 2 * alpha) / (4 * (1 - alpha))
    _refuse(errors, ~(strict_pos(cos2, lower) & below(cos2, 1)),
            lambda i: PrecondFailed(f"requires {lower[i]:.6g} < cos^2(lam) < 1, got cos^2(lam) = {cos2[i]:.6g}"))
    c = a + b + 1
    _refuse_nonpositive_c(errors, a, b, c)
    rot = _times(np.exp(1j * lam), a + b)
    lhs = _square(rot.imag / np.cos(lam) - 2 * (1 - alpha) * np.sin(2 * lam))
    rhs = (4 * (1 - alpha) * cos2 + 2 * alpha - 1) * (
        2 * rot.real / np.cos(lam) - 4 * (1 - alpha) * cos2 + (3 - 2 * alpha) - m / ((1 - alpha) * cos2)
    )
    scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
    conditions = [_cond_info("m = ab", m), _cond_nonneg("RHS - LHS", rhs - lhs, scale)]
    return CertificateBatch("SpirallikeCor2", conditions, (a, b, c), _classes(SpirallikeOrder, alpha, lam), errors)


def certify_spirallike_cor2(a: complex, b: complex, lam: float, alpha: float) -> Certificate:
    """Spirallike checker for m = ab positive real, valid when cos^2(lam)
    lies strictly between (1-2alpha)/(4(1-alpha)) and 1."""
    return spirallike_cor2_batch(Rows(a, b, alpha=alpha, lam=lam)).certificate()


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients of G_eps(x) = S x^3 + T_eps x^2 + U_eps x + V, the cubic
    (in x = s^alpha) equal to |B|^2 - |A|^2 on the strongly starlike boundary.
    Array inputs give arrays of coefficients."""

    S: float
    T_plus: float
    T_minus: float
    U_plus: float
    U_minus: float
    V: float

    def T(self, eps: int) -> float:
        return self.T_plus if eps > 0 else self.T_minus

    def U(self, eps: int) -> float:
        return self.U_plus if eps > 0 else self.U_minus


def strong_starlike_cubic(a: complex, b: complex, c: complex, alpha: float) -> CubicCoefficients:
    p = (a + b + 1 - c).real
    ca = np.cos(np.pi * alpha / 2)
    base = abs(a) ** 2 + abs(b) ** 2 - abs(c - 1) ** 2

    def T(eps: int) -> float:
        eta = np.exp(-1j * eps * np.pi * alpha / 2)
        return base - 2 * p - 4 * p * ca * ca + 4 * (a * eta).real * (b * eta).real

    def U(eps: int) -> float:
        eta = np.exp(-1j * eps * np.pi * alpha / 2)
        return (
            -2 * (base - 3 * p) * ca
            + 2 * (a * eta).real * (abs(b) ** 2 - 2 * b.real)
            + 2 * (b * eta).real * (abs(a) ** 2 - 2 * a.real)
        )

    V = base - 2 * p + (abs(a) ** 2 - 2 * a.real) * (abs(b) ** 2 - 2 * b.real)
    return CubicCoefficients(2 * p * ca, T(1), T(-1), U(1), U(-1), V)


def _cubic_residual(alpha, K, S, T, U, V):
    """RHS - LHS of the boundary inequality, as a function of s > 0: with
    x = s^alpha, alpha (s + 1/s) x K - (((S x + T) x + U) x + V), one row per
    entry of the coefficient arrays.

    Points of shape (k,) are shared by every row, so x and alpha (s + 1/s) x
    are computed once per distinct alpha and gathered per row; points of
    shape (rows, m) get per-row powers, with the coefficients laid out in that
    shape once, so that no loop runs over one row's m points alone.  Either
    way each value comes from the same operations in the same order.  The
    arithmetic runs in place: Horner's sum and the per-row x live in buffers
    that every call reuses, so a call makes one new array of its size, the
    one it returns (fresh pages cost the log scan more than its arithmetic).
    One residual serves one caller at a time.  numpy picks a float64 power's
    kernel by layout, not by value alone: the shared path's stride-0 exponent
    of exactly 0.5 takes the square root, and a reversed operand libm's pow,
    so the kept goldens hold while each path keeps its contiguous operands.
    """
    # distinct by bits, so that -0.0 and +0.0 (or two NaNs) keep their own powers
    distinct, group = np.unique(alpha.view(np.int64), return_inverse=True)
    distinct, columns = distinct.view(float)[:, None], [v[:, None] for v in (alpha, K, S, T, U, V)]
    laid_out = {}  # shape of per-row points -> the coefficients in that shape, and a buffer for x
    work = np.empty(0)

    def residual(s):
        nonlocal work
        s = np.asarray(s, dtype=float)
        if s.ndim == 1:
            _, K, S, T, U, V = columns
            powers = s**distinct
            scaled = distinct * (s + 1 / s) * powers
            x = powers[group]
        else:
            if s.shape not in laid_out:
                laid_out[s.shape] = [*(np.broadcast_to(v, s.shape).copy() for v in columns), np.empty(s.shape)]
            a, K, S, T, U, V, x = laid_out[s.shape]
            np.power(s, a, out=x)
            scaled = 1 / s  # 1/s + s, then times a and x: IEEE + and * commute, so these are a (s + 1/s) x's bits
            scaled += s
            scaled *= a
            scaled *= x
        if work.size < x.size:
            work = np.empty(x.size)
        horner = np.multiply(S, x, out=work[:x.size].reshape(x.shape))
        horner += T
        horner *= x
        horner += U
        horner *= x
        horner += V
        # the shared points' x is spent, so the result takes its buffer ("clip" gathers without a temporary)
        out = scaled if s.ndim > 1 else np.take(scaled, group, axis=0, out=x, mode="clip")
        out *= K
        out -= horner
        return out

    return residual


def _cubic_terms(alpha, K, S, T, U, V):
    return [
        (1 + alpha, alpha * K),
        (alpha - 1, alpha * K),
        (3 * alpha, -S),
        (2 * alpha, -T),
        (alpha, -U),
        (0.0, -V),
    ]


def _sign_minima(order: list[np.ndarray], line_search: LineSearchSettings):
    """(tail, at_zero, MinimizerResult) of the residual rows whose (alpha, K,
    S, T, U, V) `order` holds: n rows for eps = +1, then their n rows for
    eps = -1.

    A row whose eps = -1 coefficients equal its eps = +1 ones bit for bit (a
    real a, b and c make them equal) is minimized once, and its eps = -1
    entries are gathered from its eps = +1 row.  The minimizer treats each row
    on its own, so these are the bits a second minimization would give.  Bit
    equality keeps -0.0 and +0.0, or two NaN payloads, apart.
    """
    n = len(order[0]) // 2
    twin = np.logical_and.reduce([v[:n].view(np.int64) == v[n:].view(np.int64) for v in order])
    kept = np.concatenate([np.arange(n), n + np.flatnonzero(~twin)])
    minimized = [v[kept] for v in order]
    tail, at_zero = leading_coefficients(_cubic_terms(*minimized))
    result = minimize_on_positive_line(_cubic_residual(*minimized), line_search)
    # each row's place among the minimized rows: a twin's eps = -1 row takes its eps = +1 row's
    source = np.concatenate([np.arange(n), np.where(twin, np.arange(n), n - 1 + np.cumsum(~twin))])
    return tail[source], at_zero[source], MinimizerResult(result.min_value[source], result.argmin_s[source])


def _line_minima(alpha: np.ndarray, S, per_eps: list[tuple], line_search: LineSearchSettings):
    """Conditions of the quantified bound G_eps(s^alpha) <= alpha (s + 1/s) s^alpha K_eps
    for eps = +1 and -1, and the notes of row i.

    per_eps holds (K, T, U, V) for each sign.  The residual of every row and
    sign is minimized over [s_min, s_max] by one call of the batched line
    minimizer (once for a real row, whose two signs coincide), so that every
    row's refinement runs in one lockstep pass.  The net leading coefficients
    of the residual decide s -> 0+ and s -> infinity: a row passes only when
    neither is negative and its minimum exceeds min_margin, and a minimum
    within +-min_margin of zero is noted as inconclusive.  The tail
    coefficient is the net coefficient of the highest power of s.
    """
    n = len(alpha)
    K, T, U, V = zip(*per_eps)
    order = [np.concatenate([np.broadcast_to(v, (n,)) for v in pair]) for pair in ((alpha, alpha), K, (S, S), T, U, V)]
    tail, at_zero, result = _sign_minima(order, line_search)
    min_value, argmin_s = result.min_value, result.argmin_s
    safe = ~((tail < 0) | (at_zero < 0))  # a NaN coefficient is not negative
    margin = line_search.min_margin
    conclusive = ~((-margin <= min_value) & (min_value <= margin))

    labels = ("eps=+1", "eps=-1")
    conditions = []
    for k, label in enumerate(labels):
        rows = slice(k * n, (k + 1) * n)
        conditions += [
            Condition(f"min residual ({label})", min_value[rows], f"> {margin:g}",
                      (min_value[rows] > margin) & safe[rows]),
            Condition(f"tail coefficient ({label})", tail[rows], "> 0 as s -> infinity", tail[rows] > 0),
        ]

    def notes(i: int) -> list[str]:
        out = []
        for k, label in enumerate(labels):
            v, s = min_value[k * n + i], argmin_s[k * n + i]
            if conclusive[k * n + i]:
                out.append(f"{label}: min residual {v:.6g} at s = {s:.6g}")
            else:
                out.append(f"{label}: inconclusive, min residual {v:.6g} at s = {s:.6g} "
                           f"lies within +-{margin:g} of zero")
        return out

    return conditions, notes


@np.errstate(all="ignore")
def strong_starlike_batch(rows: Rows) -> CertificateBatch:
    """certify_strong_starlike over rows of (a, b, c, alpha), with the rows' line search."""
    a, b, c, alpha = rows.a, rows.b, rows.c, rows.alpha
    errors: dict[int, Exception] = {}
    _refuse_nonpositive_c(errors, a, b, c)
    _refuse_zero_ab(errors, a, b)
    _refuse(errors, ~((0 < alpha) & (alpha < 1)), lambda _: InvalidParams("alpha must lie in (0, 1)"))
    p = a + b + 1 - c
    w = a * b - p.real
    sector = np.where(strict_pos(np.abs(w)), np.pi * alpha / 2 - np.abs(np.angle(w)), -np.pi * alpha / 2)
    cubic = strong_starlike_cubic(a, b, c, alpha)
    per_eps = [
        ((w * np.exp(1j * eps * np.pi * (1 - alpha) / 2)).real, cubic.T(eps), cubic.U(eps), cubic.V)
        for eps in (1, -1)
    ]
    minima, minima_notes = _line_minima(alpha, cubic.S, per_eps, rows.line_search)
    conditions = [
        _cond_real("p", p),
        _cond_strict_pos("pi*alpha/2 - |arg(ab - p)|", sector),
        *minima,
    ]

    def notes(i: int) -> list[str]:
        return [
            f"S = {cubic.S[i]:.6g}, T+ = {cubic.T_plus[i]:.6g}, T- = {cubic.T_minus[i]:.6g}, "
            f"U+ = {cubic.U_plus[i]:.6g}, U- = {cubic.U_minus[i]:.6g}, V = {cubic.V[i]:.6g}",
            *minima_notes(i),
        ]

    return CertificateBatch("StrongStarlikeThm", conditions, (a, b, c), _classes(StronglyStarlike, alpha), errors, notes)


def certify_strong_starlike(
    params: HypergeomParams, alpha: float, line_search: LineSearchSettings = DEFAULT_LINE_SEARCH
) -> Certificate:
    """Sufficient condition for f to be strongly starlike of order alpha.

    Requires p real, ab - p inside the open sector |arg| < pi alpha / 2, and
    the cubic bound G_eps(s^alpha) <= alpha (s + 1/s) s^alpha K_eps for both
    signs eps and all s > 0.  The quantified condition is decided by the
    positive-line minimizer on the residual plus a leading-exponent
    comparison at both ends of the range.
    """
    return strong_starlike_batch(Rows(params.a, params.b, params.c, alpha, line_search=line_search)).certificate()


def _pinned_c_rows(rows: Rows) -> tuple[list[np.ndarray], dict[int, Exception]]:
    """(a, b, c, alpha) and refusals of the c = a + b + 1 strong-starlikeness corollaries."""
    a, b, alpha = rows.a, rows.b, rows.alpha
    errors: dict[int, Exception] = {}
    _refuse_zero_ab(errors, a, b)
    _refuse(errors, ~((0 < alpha) & (alpha < 1)), lambda _: InvalidParams("alpha must lie in (0, 1)"))
    c = a + b + 1
    _refuse_nonpositive_c(errors, a, b, c)
    return [a, b, c, alpha], errors


def _corollary_coefficients(a, b, alpha, eps: int):
    """(A, B, C, K) of the c = a + b + 1 corollaries, with eta = e^{-i eps pi alpha/2}:
    A = 2 Re[eta^2 ab], B = 2 Re[eta ab (conj(a)+conj(b)-2)],
    C = |ab|^2 - 2 Re[ab (conj(a)+conj(b)-1)], K = Re[e^{i eps pi (1-alpha)/2} ab]."""
    ab = a * b
    eta = np.exp(-1j * eps * np.pi * alpha / 2)
    A = 2 * (ab * eta * eta).real
    B = 2 * (ab * eta * (a.conjugate() + b.conjugate() - 2)).real
    C = abs(ab) ** 2 - 2 * (ab * (a.conjugate() + b.conjugate() - 1)).real
    K = (ab * np.exp(1j * eps * np.pi * (1 - alpha) / 2)).real
    return A, B, C, K


def _sector_condition(a, b, alpha) -> Condition:
    return _cond_strict_pos("pi*alpha/2 - |arg(ab)|", np.pi * alpha / 2 - np.abs(np.angle(a * b)))


@np.errstate(all="ignore")
def sst_cor_p0_batch(rows: Rows) -> CertificateBatch:
    """certify_sst_cor_p0 over rows of (a, b, alpha), with the rows' line search."""
    (a, b, c, alpha), errors = _pinned_c_rows(rows)
    per_eps = []
    for eps in (1, -1):
        A, B, C, K = _corollary_coefficients(a, b, alpha, eps)
        per_eps.append((K, A, B, C))
    minima, notes = _line_minima(alpha, 0.0, per_eps, rows.line_search)
    conditions = [_sector_condition(a, b, alpha), *minima]
    return CertificateBatch("StrongStarlikeCorP0", conditions, (a, b, c), _classes(StronglyStarlike, alpha), errors, notes)


def certify_sst_cor_p0(
    a: complex, b: complex, alpha: float, line_search: LineSearchSettings = DEFAULT_LINE_SEARCH
) -> Certificate:
    """Strong starlikeness of order alpha for c = a + b + 1 (so the cubic term
    vanishes): requires |arg(ab)| < pi alpha / 2 and a quantified quadratic
    bound decided by the same minimizer."""
    return sst_cor_p0_batch(Rows(a, b, alpha=alpha, line_search=line_search)).certificate()


@np.errstate(all="ignore")
def sst_cor_max_batch(rows: Rows) -> CertificateBatch:
    """certify_sst_cor_max over rows of (a, b, alpha)."""
    (a, b, c, alpha), errors = _pinned_c_rows(rows)
    conditions = [_sector_condition(a, b, alpha)]
    for eps in (1, -1):
        A, B, C, K = _corollary_coefficients(a, b, alpha, eps)
        half_b, biggest, rhs = B / 2, np.maximum(A, C), alpha * K
        scale = np.maximum(np.maximum(1.0, np.abs(half_b) + np.abs(biggest)), np.abs(rhs))
        conditions.append(_cond_nonneg(f"K - B/2 - max(A, C) (eps={eps:+d})", rhs - half_b - biggest, scale))
        conditions.append(_cond_nonneg(f"K - max(A, C) (eps={eps:+d})", rhs - biggest, scale))
    return CertificateBatch("StrongStarlikeCorMax", conditions, (a, b, c), _classes(StronglyStarlike, alpha), errors)


def certify_sst_cor_max(a: complex, b: complex, alpha: float) -> Certificate:
    """Fully closed-form strong-starlikeness check for c = a + b + 1, obtained
    by bounding the quantified inequality with a power-sum estimate: with
    eta = e^{-i eps pi alpha/2}, A = 2 Re[eta^2 ab],
    B = 2 Re[eta ab (conj(a)+conj(b)-2)],
    C = |ab|^2 - 2 Re[ab (conj(a)+conj(b)-1)] and
    K = alpha Re[e^{i eps pi (1-alpha)/2} ab], the bound holds for every s > 0
    once B/2 + max(A, C) <= K and max(A, C) <= K, because
    2 <= s^alpha + s^{-alpha} <= s + 1/s.  The second clause is not redundant:
    with B < 0 the first alone admits max(A, C) > K, and then A s^alpha can
    outrun K s over a mid range of s.  Strictly stronger than the
    minimizer-based checker."""
    return sst_cor_max_batch(Rows(a, b, alpha=alpha)).certificate()


def _real_pair_rows(errors: dict, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Re(a + b), Re(ab), c = a + b + 1); refuses rows where a + b is not real, ab not positive or c refused."""
    _refuse(errors, ~is_real(a + b), lambda _: PrecondFailed("a + b must be real"))
    m = _refuse_nonpositive_real(errors, "ab", _times(a, b))
    c = a + b + 1
    _refuse_nonpositive_c(errors, a, b, c)
    return (a + b).real, m, c


@np.errstate(all="ignore")
def sst_cor_final_batch(rows: Rows) -> CertificateBatch:
    """certify_sst_cor_final over rows of (a, b, alpha); each condition holds one threshold per row."""
    a, b, alpha = rows.a, rows.b, rows.alpha
    errors: dict[int, Exception] = {}
    _refuse(errors, ~((0 < alpha) & (alpha < 1)), lambda _: InvalidParams("alpha must lie in (0, 1)"))
    lsum, m, c = _real_pair_rows(errors, a, b)
    prod = m - 2 * lsum + 4  # (a-2)(b-2), real because a + b and ab are
    half = np.pi * alpha / 2
    cap1 = 4 * _square(np.cos(half))
    cap2 = 2 - 2 * np.cos(np.pi * alpha) / np.cos(half) + alpha * np.tan(half)
    conditions = [
        Condition("(a-2)(b-2)", prod, [f"<= 4 cos^2(pi alpha/2) = {v:.15g}" for v in cap1.tolist()],
                  at_most(prod, cap1, np.abs(prod))),
        Condition("a + b", lsum, [f"<= {v:.15g}" for v in cap2.tolist()],
                  at_most(lsum, cap2, np.abs(lsum))),
    ]
    lo = 2 * _square(np.sin(half))

    def notes(i: int) -> list[str]:
        window = f"{lo[i]:.6g} < ab/2 + {lo[i]:.6g} = {m[i] / 2 + lo[i]:.6g} <= l <= {cap2[i]:.6g}"
        return [f"feasibility window for l = a + b: {window}"]

    return CertificateBatch("StrongStarlikeCorFinal", conditions, (a, b, c), _classes(StronglyStarlike, alpha), errors, notes)


def certify_sst_cor_final(a: complex, b: complex, alpha: float) -> Certificate:
    """Strong starlikeness of order alpha for c = a + b + 1 with a + b real and
    ab real positive, via two explicit scalar inequalities on (a-2)(b-2) and
    a + b."""
    return sst_cor_final_batch(Rows(a, b, alpha=alpha)).certificate()


@np.errstate(all="ignore")
def theorem_a_batch(rows: Rows) -> CertificateBatch:
    """certify_theorem_A over rows of (a, b, alpha)."""
    a, b, alpha = rows.a, rows.b, rows.alpha
    errors: dict[int, Exception] = {}
    _refuse(errors, ~((1 / 3 < alpha) & (alpha < 1)), lambda _: PrecondFailed("alpha must lie in (1/3, 1)"))
    lsum, m, c = _real_pair_rows(errors, a, b)
    # (a-b)^2 = (a+b)^2 - 4ab and a^2 + ab + b^2 = (a+b)^2 - ab, real because a + b and ab are
    lhs = (lsum * lsum - 4 * m + 6 * lsum - 3) * _square(np.sin(np.pi * alpha / 2))
    rhs = lsum * lsum - m
    scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
    conditions = [_cond_nonneg("((a-b)^2 + 6(a+b) - 3) sin^2(pi alpha/2) - (a^2 + ab + b^2)", lhs - rhs, scale)]
    return CertificateBatch("TheoremA", conditions, (a, b, c), _classes(StronglyStarlike, alpha), errors)


def certify_theorem_A(a: complex, b: complex, alpha: float) -> Certificate:
    """Single-inequality strong-starlikeness check for c = a + b + 1, a + b
    real, ab > 0, valid only for orders alpha in (1/3, 1):

        ((a-b)^2 + 6(a+b) - 3) sin^2(pi alpha/2) >= a^2 + ab + b^2.
    """
    return theorem_a_batch(Rows(a, b, alpha=alpha)).certificate()


@np.errstate(all="ignore")
def general_batch(rows: Rows) -> CertificateBatch:
    """certify_general over rows of (a, b, c), row i in the rows' family's class at
    (alpha[i], lam[i]).

    For the Moebius-type families, with mu = (1 - alpha) e^{i lam} cos(lam)
    and s = cot(theta/2) on the boundary, D = (1 + s^2)(d0 - |mu|^2 Im[p] s)
    with d0 = Re[ab conj(mu)] - Re[p] |mu|^2, and for real p
    D - (|B|^2 - |A|^2) = c3 s^3 + L s^2 - 2 M s + N with
    c3 = 2 p |mu|^2 Im[mu].  So both inequalities hold on the whole boundary
    exactly when p is real, d0 > 0, c3 = 0 and the quadratic is nonnegative.
    For strong starlikeness the two inequalities are those of
    strong_starlike_batch, whose conditions the rows get.
    """
    a, b, c, alpha, family = rows.a, rows.b, rows.c, rows.alpha, rows.family
    errors: dict[int, Exception] = {}
    _refuse_class(errors, family, alpha, rows.lam)
    _refuse_nonpositive_c(errors, a, b, c)
    classes = _classes(family, alpha, rows.lam)
    if family is StronglyStarlike:
        inner = strong_starlike_batch(rows)
        for i, exc in inner.errors.items():
            errors.setdefault(i, exc)
        return CertificateBatch("GeneralMain", inner.conditions, inner.params, classes, errors, inner.notes)
    lam = rows.lam if family is SpirallikeOrder else np.zeros_like(alpha)
    mu = (1 - alpha) * np.exp(1j * lam) * np.cos(lam)
    p = a + b + 1 - c
    mu2 = _square(np.abs(mu))
    d0 = (a * b * mu.conjugate()).real - p.real * mu2
    c3 = 2 * p.real * mu2 * mu.imag
    ta, tb = a.conjugate() * mu, b.conjugate() * mu
    ua, ub = _square(np.abs(a)) - 2 * ta.real, _square(np.abs(b)) - 2 * tb.real
    base = d0 - mu2 * (_square(np.abs(a)) + _square(np.abs(b)) - _square(np.abs(c - 1)) - 2 * p.real * mu.real)
    lmn = LMNCoefficients(base - 4 * ta.imag * tb.imag, -c3 / 2 - ua * tb.imag - ub * ta.imag, base - ua * ub)
    cubic_free = at_most(np.abs(c3), 0, _lmn_scale(lmn))
    conditions = [
        _cond_real("p", p),
        _cond_strict_pos("Re[ab conj(mu)] - p|mu|^2", d0),
        Condition("s^3 coefficient", c3, "= 0 (|c3| <= 1e-12 scale)", cubic_free),
        *_lmn_conditions(lmn),
    ]

    def notes(i: int) -> list[str]:
        if not is_real(p[i]):
            return [f"Im p != 0: D = (1 + s^2)(d0 - |mu|^2 Im[p] s) changes sign at "
                    f"s = {d0[i] / (mu2[i] * p[i].imag):.6g}, so positivity fails"]
        if not cubic_free[i]:
            side = "-" if c3[i] > 0 else "+"
            return [f"structural obstruction: D - (|B|^2 - |A|^2) has the term {c3[i]:.6g} s^3, so the "
                    f"inequality fails as s -> {side}infinity; this route needs lam = 0 or p = 0"]
        if lmn.L[i] > 0:
            return [f"min of D - (|B|^2 - |A|^2) over real s: {lmn.N[i] - lmn.M[i] ** 2 / lmn.L[i]:.6g} "
                    f"at s = M/L = {lmn.M[i] / lmn.L[i]:.6g}"]
        return []

    return CertificateBatch("GeneralMain", conditions, (a, b, c), classes, errors, notes)


def certify_general(cls: ShapeClass, params: HypergeomParams) -> Certificate:
    """Exact check of the two master inequalities

        D(zeta) = -2 Re[(p Q(zeta) + ab) conj(zeta Q'(zeta))] > 0   and
        |B(zeta)|^2 - |A(zeta)|^2 <= D(zeta)

    on the whole boundary circle, in closed form (see general_batch); the
    strongly starlike class is decided by strong-starlike's line minimizer.
    """
    return general_batch(Rows(params.a, params.b, params.c, cls.alpha, lam_of(cls), family=type(cls))).certificate()


@np.errstate(all="ignore")
def convexity_batch(rows: Rows) -> CertificateBatch:
    """certify_convexity over rows of (a, b, c), row i in the rows' family's class at
    (alpha[i], lam[i]); the family's checker gets the shifted rows with every setting."""
    a, b, c, alpha, lam, family = rows.a, rows.b, rows.c, rows.alpha, rows.lam, rows.family
    errors: dict[int, Exception] = {}
    _refuse_class(errors, family, alpha, lam)
    _refuse_nonpositive_c(errors, a, b, c)
    _refuse_zero_ab(errors, a, b)
    shifted = replace(rows, a=a + 1, b=b + 1, c=c + 1)
    _refuse_nonpositive_c(errors, shifted.a, shifted.b, shifted.c)
    if family is StarlikeOrder:
        inner = starlike_order_batch(shifted)
    elif family is StronglyStarlike:
        inner = strong_starlike_batch(shifted)
    else:
        target = shifted.a + shifted.b + 1
        _refuse(errors, apart(shifted.c, target), lambda _: InvalidParams("spirallike delegate requires c = a + b + 2"))
        inner = spirallike_batch(shifted)
    for i, exc in inner.errors.items():
        errors.setdefault(i, exc)

    def notes(i: int) -> list[str]:
        return [
            *inner.notes(i),
            f"delegated from original (a, b, c) = ({complex(a[i])}, {complex(b[i])}, {complex(c[i])}); a passing "
            "certificate places the shifted function in the starlike-type class and hence the original "
            "g in the convexity-type class",
        ]

    return CertificateBatch("ConvexityWrapper", inner.conditions, inner.params, _classes(family, alpha, lam), errors, notes)


def certify_convexity(cls: ShapeClass, params: HypergeomParams) -> Certificate:
    """Convexity-type counterpart: g(z) = (c/(ab)) (2F1(a,b;c;z) - 1) has
    1 + z g''/g' subordinate to the class generator exactly when
    z 2F1(a+1,b+1;c+1;z) lies in the starlike-type class, so the check
    delegates to the matching checker at shifted parameters."""
    return convexity_batch(Rows(params.a, params.b, params.c, cls.alpha, lam_of(cls), family=type(cls))).certificate()


# --theorem name -> its checker; the table that the CLI, its scans and the README list
CHECKERS: dict[str, Callable[[Rows], CertificateBatch]] = {
    "starlike-order": starlike_order_batch,
    "cor-a2": cor_a2_batch,
    "spirallike": spirallike_batch,
    "spirallike-cor1": spirallike_cor1_batch,
    "spirallike-cor2": spirallike_cor2_batch,
    "strong-starlike": strong_starlike_batch,
    "sst-cor-p0": sst_cor_p0_batch,
    "sst-cor-max": sst_cor_max_batch,
    "sst-cor-final": sst_cor_final_batch,
    "theorem-a": theorem_a_batch,
    "general": general_batch,
    "convexity": convexity_batch,
}

# the kinds whose rows carry a class: Rows.family at Rows.alpha and Rows.lam
CLASS_KINDS = ("general", "convexity")
