"""Output checks, computed apart from the program.

Every reference here comes from mpmath at 30 digits or from the boundary
algebra written out again from its definitions (A = w(w + c - 1),
B = (w + a)(w + b)); nothing is compared with a stored copy of the
program's own output.  Each check returns a list of problems, empty when the
output is right, so that a test can hand it a wrong output and see it refused.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import math

import mpmath
import numpy as np

mpmath.mp.dps = 30

U = 2.0**-53
# relative agreement asked of a reported min_slack with the mpmath slack
SLACK_RTOL = 1e-9


# --- mpmath references --------------------------------------------------------

def mp_F_Fp(a: complex, b: complex, c: complex, z: complex):
    a, b, c, z = (mpmath.mpc(v) for v in (a, b, c, z))
    F = mpmath.hyp2f1(a, b, c, z)
    Fp = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z)
    return F, Fp


def mp_q(a: complex, b: complex, c: complex, z: complex):
    """q(z) = 1 + z F'(z)/F(z) at 30 digits."""
    if z == 0:
        return mpmath.mpc(1)
    F, Fp = mp_F_Fp(a, b, c, z)
    return 1 + mpmath.mpc(z) * Fp / F


def mp_slack(cls: dict, q) -> float:
    """Signed margin of the class inequality at q, from the class JSON."""
    alpha = mpmath.mpf(cls.get("alpha", 0.0))
    if cls["kind"] == "starlike-order":
        return float(mpmath.re(q) - alpha)
    if cls["kind"] == "spirallike-order":
        lam = mpmath.mpf(cls["lambda"])
        return float(mpmath.re(mpmath.exp(-1j * lam) * q) - alpha * mpmath.cos(lam))
    if cls["kind"] == "strongly-starlike":
        return float(mpmath.pi * alpha / 2 - abs(mpmath.arg(q)))
    raise ValueError(f"unknown class kind {cls['kind']!r}")


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


# --- crosscheck-full ----------------------------------------------------------

def check_crosscheck(instance: dict, output: dict) -> tuple[list[str], bool, float]:
    """(problems, failed, relative error of min_slack) for one crosscheck.

    A certified instance must come back SOUND and Consistent.  A triple with a
    zero of F in the disk must come back Degenerate; when it does not, the op
    failed (the verifier misses zeros off the grid) but the output is not
    wrong in any other way, so it is no problem.
    """
    name = instance["name"]
    if "error" in output:
        return [], True, 0.0
    problems = []
    report = output["result"]["report"]
    verdict = output["result"]["verdict"]
    failed = False
    if instance["expect"] == "Degenerate":
        failed = report["status"] != "Degenerate"
    else:
        if report["status"] != "Consistent":
            problems.append(f"{name}: certified instance is {report['status']}, expected Consistent")
        if verdict != "SOUND":
            problems.append(f"{name}: verdict {verdict}, expected SOUND")

    params = report["params"]
    a, b, c = (complex(*params[k]) for k in ("a", "b", "c"))
    cls = report["class"]
    min_slack = report["min_slack"]
    argmin = complex(*report["argmin_z"])
    ref = mp_slack(cls, mp_q(a, b, c, argmin))
    rel = _rel(min_slack, ref)
    if rel > SLACK_RTOL:
        problems.append(f"{name}: min_slack {min_slack!r} but mpmath gives {ref!r} at argmin_z {argmin}")

    grid = report["grid"]
    r, n = grid["r_max"], grid["n_angles"]
    if instance["expect"] == "Consistent":
        floor = min_slack - SLACK_RTOL * (1 + abs(min_slack))
        for k in range(0, n, max(n // 24, 1)):
            z = r * cmath.exp(2j * math.pi * k / n)
            value = mp_slack(cls, mp_q(a, b, c, z))
            if value < floor:
                problems.append(f"{name}: mpmath slack {value!r} at outer node {z} is below min_slack {min_slack!r}")
                break
    if instance["theorem"] == "cor-a2":
        # F = 1/(1 - z) here, so q = 1/(1 - z) and Re q is least at z = -r
        exact = 1 / (1 + r)
        if abs(min_slack - exact) > 1e-10 or abs(argmin + r) > 1e-12:
            problems.append(f"{name}: min_slack {min_slack!r} at {argmin}, expected {exact!r} at {-r}")
    return problems, failed, rel


# --- scans --------------------------------------------------------------------

HEADER_TAIL = ["certificate_passed", "failed_condition", "min_slack", "status"]
_SYMBOLS = ("a_re", "a_im", "b_re", "b_im", "c_re", "c_im", "alpha", "lambda")


def axis_values(axis: dict) -> list[float]:
    n = axis["steps"]
    return [axis["from"] + (axis["to"] - axis["from"]) * i / (n - 1) for i in range(n)]


def expected_coords(spec: dict) -> list[tuple]:
    """Row-major order over the axes, first axis slowest."""
    return list(itertools.product(*(axis_values(ax) for ax in spec["varying"])))


def row_point(spec: dict, coords: tuple) -> dict:
    """(a, b, c, alpha, lambda) of one row; the sst-cor-max kind pins c = a + b + 1."""
    point = {s: 0.0 for s in _SYMBOLS}
    point.update(spec.get("fixed", {}))
    for ax, v in zip(spec["varying"], coords):
        point[ax["symbol"]] = v
    a = complex(point["a_re"], point["a_im"])
    b = complex(point["b_re"], point["b_im"])
    c = a + b + 1 if spec["certificate"] == "sst-cor-max" else complex(point["c_re"], point["c_im"])
    return {"a": a, "b": b, "c": c, "alpha": point["alpha"], "lambda": point["lambda"]}


def parse_scan_csv(spec: dict, text: str) -> tuple[list[str], list[list[str]], int]:
    """(problems, rows, failed rows) for one scan's CSV text.

    Checks the header, one row per point in row-major order with the axis
    values the spec defines, and the verify columns.  A row whose inputs the
    program refused counts as a failed op.
    """
    problems = []
    table = list(csv.reader(io.StringIO(text)))
    header = [ax["symbol"] for ax in spec["varying"]] + HEADER_TAIL
    if not table or table[0] != header:
        return [f"scan {spec['certificate']}: header {table[:1]} is not {header}"], [], 0
    rows = table[1:]
    coords = expected_coords(spec)
    if len(rows) != len(coords):
        problems.append(f"scan {spec['certificate']}: {len(rows)} rows for {len(coords)} points")
    k = len(spec["varying"])
    failed = 0
    for i, (row, want) in enumerate(zip(rows, coords)):
        if len(row) != k + 4:
            problems.append(f"scan {spec['certificate']}: row {i} has {len(row)} fields")
            break
        got = [float(v) for v in row[:k]]
        if any(abs(g - w) > 1e-12 * (1 + abs(w)) for g, w in zip(got, want)):
            problems.append(f"scan {spec['certificate']}: row {i} is at {got}, expected {list(want)}")
            break
        passed, failed_condition, min_slack, status = row[k:]
        if passed not in ("true", "false") or (passed == "true") == bool(failed_condition):
            problems.append(f"scan {spec['certificate']}: row {i} has passed={passed!r}, "
                            f"failed_condition={failed_condition!r}")
            break
        if failed_condition.startswith("invalid:") or status == "Invalid":
            failed += 1
        if spec.get("verify"):
            if passed == "true" and status != "Consistent":
                problems.append(f"scan {spec['certificate']}: certified row {i} is {status}, expected Consistent")
            if status != "Invalid" and not math.isfinite(float(min_slack)):
                problems.append(f"scan {spec['certificate']}: row {i} has min_slack {min_slack!r}")
        elif min_slack or status:
            problems.append(f"scan {spec['certificate']}: certify-only row {i} has verify columns")
    return problems, rows, failed


def row_class(spec: dict, point: dict) -> dict:
    if spec["certificate"] == "starlike-order":
        return {"kind": "starlike-order", "alpha": point["alpha"]}
    if spec["certificate"] in ("sst-cor-max", "strong-starlike"):
        return {"kind": "strongly-starlike", "alpha": point["alpha"]}
    raise ValueError(f"no class for {spec['certificate']!r}")


def check_verified_row(spec: dict, coords: tuple, min_slack: float, inner: bool = True) -> tuple[list[str], float]:
    """A certified, verified row against mpmath on the same polar grid.

    q is zero-free and the slack is harmonic in the disk (or, for strong
    starlikeness, |arg q| is), so the grid minimum of a certified row lies on
    the outer ring: the mpmath minimum over that ring and the origin must
    match min_slack.  With `inner`, every 12th node of each inner ring is
    evaluated too and may not fall below min_slack.  The error returned is
    relative to max(|slack|, 1): a slack near 0 is a difference of O(1)
    terms, so its relative error says more about the row than the program.
    """
    point = row_point(spec, coords)
    cls = row_class(spec, point)
    a, b, c = point["a"], point["b"], point["c"]
    grid = spec["grid"]
    n_radii, r_max, n_angles = grid["n_radii"], grid["r_max"], grid["n_angles"]
    radii = [1 - (1 - r_max) ** (k / n_radii) for k in range(1, n_radii + 1)]
    ring_min = mp_slack(cls, mpmath.mpc(1))
    for j in range(n_angles):
        ring_min = min(ring_min, mp_slack(cls, mp_q(a, b, c, radii[-1] * cmath.exp(2j * math.pi * j / n_angles))))
    problems = []
    rel = abs(min_slack - ring_min) / max(abs(ring_min), 1.0)
    if rel > SLACK_RTOL:
        problems.append(f"scan {spec['certificate']} row {coords}: min_slack {min_slack!r}, mpmath {ring_min!r}")
    floor = min_slack - SLACK_RTOL * (1 + abs(min_slack))
    for r in radii[:-1] if inner else []:
        for j in range(0, n_angles, 12):
            value = mp_slack(cls, mp_q(a, b, c, r * cmath.exp(2j * math.pi * j / n_angles)))
            if value < floor:
                problems.append(f"scan {spec['certificate']} row {coords}: mpmath slack {value!r} "
                                f"at r = {r:.6g} is below min_slack {min_slack!r}")
                return problems, rel
    return problems, rel


def _boundary_gap(w, a, b, c):
    """|B|^2 - |A|^2 and the size it is a difference of, with A = w(w+c-1), B = (w+a)(w+b)."""
    A2 = np.abs(w * (w + c - 1)) ** 2
    B2 = np.abs((w + a) * (w + b)) ** 2
    return B2 - A2, A2 + B2


def _certified_points(spec: dict, rows: list[list[str]]) -> list[dict]:
    k = len(spec["varying"])
    return [row_point(spec, tuple(float(v) for v in row[:k])) for row in rows if row[k] == "true"]


def check_certified_boundary(spec: dict, rows: list[list[str]], chunk_points: int = 1_000_000) -> list[str]:
    """Every certified row meets the boundary inequality |B|^2 - |A|^2 <= D.

    D = -2 Re[(p w + ab) conj(zeta Q'(zeta))] with w = Q(zeta) on the class
    generator's boundary.  Starlike rows are sampled densely in s = cot(theta/2)
    (and must also have D > 0); strongly starlike rows on a log grid in s, for
    both signs eps, four times denser than the minimizer's 2000 points.
    """
    kind = spec["certificate"]
    points = _certified_points(spec, rows)
    if not points:
        return []
    if kind == "starlike-order":
        u = np.linspace(-math.pi / 2, math.pi / 2, 403)[1:-1]
        s = np.tan(u)
        legs = [(None, s)]
    elif kind == "sst-cor-max":
        s = np.logspace(-6, 6, 601)
        legs = [(1, s), (-1, s)]
    else:
        s = np.logspace(-8, 8, 8001)
        legs = [(1, s), (-1, s)]
    problems = []
    chunk = max(1, chunk_points // len(s))  # rows per batch of (row, s) arrays
    for start in range(0, len(points), chunk):
        part = points[start:start + chunk]
        a = np.array([p["a"] for p in part])[:, None]
        b = np.array([p["b"] for p in part])[:, None]
        c = np.array([p["c"] for p in part])[:, None]
        alpha = np.array([p["alpha"] for p in part])[:, None]
        p_ = a + b + 1 - c
        for eps, sv in legs:
            sv = sv[None, :]
            if eps is None:
                mu = 1 - alpha
                w = mu * (-1 + 1j * sv)
                zqp = -mu * (1 + sv * sv) / 2
            else:
                x = sv**alpha
                w = np.exp(1j * eps * math.pi * alpha / 2) * x - 1
                zqp = -(alpha / 2) * np.exp(-1j * eps * math.pi * (1 - alpha) / 2) * x * (sv + 1 / sv)
            D = -2 * np.real((p_ * w + a * b) * np.conjugate(zqp))
            gap, size = _boundary_gap(w, a, b, c)
            excess = gap - D
            bad = excess > 1e-9 * (1 + size + np.abs(D))
            if eps is None:
                bad |= D <= 0
            if bad.any():
                i, j = np.argwhere(bad)[0]
                problems.append(f"scan {kind}: certified row with (a, b, c) = ({part[i]['a']}, {part[i]['b']}, "
                                f"{part[i]['c']}) breaks |B|^2 - |A|^2 <= D at s = {sv[0, j]:.6g}"
                                + ("" if eps is None else f", eps = {eps:+d}"))
                return problems
    return problems


def lmn_error(point: dict, lmn) -> float:
    """Relative error of the program's starlike-order L, M, N at one point.

    (1 - alpha)^2 (L s^2 - 2 M s + N) = D(s) - (|B|^2 - |A|^2) on the boundary
    w = (1 - alpha)(-1 + i s), so three values of the right side at 30 digits
    give L, M and N exactly.
    """
    a, b, c = (mpmath.mpc(point[k]) for k in ("a", "b", "c"))
    mu = 1 - mpmath.mpf(point["alpha"])
    p = a + b + 1 - c

    def f(s):
        w = mu * (-1 + 1j * s)
        zqp = -mu * (1 + s * s) / 2
        D = -2 * mpmath.re((p * w + a * b) * mpmath.conj(zqp))
        gap = abs((w + a) * (w + b)) ** 2 - abs(w * (w + c - 1)) ** 2
        return (D - gap) / (mu * mu)

    fm, f0, fp = f(mpmath.mpf(-1)), f(mpmath.mpf(0)), f(mpmath.mpf(1))
    L, M, N = (fp + fm) / 2 - f0, (fm - fp) / 4, f0
    scale = max(abs(L), abs(M), abs(N))
    return float(max(abs(lmn.L - L), abs(lmn.M - M), abs(lmn.N - N)) / scale)


# --- eval-corpus --------------------------------------------------------------

def series_weight(a: complex, b: complex, c: complex, z: complex, nmax: int = 5000) -> float:
    """sum_n (n + 1) |t_n z^n|: what rounding in an n-step term recurrence can cost."""
    term = 1.0 + 0.0j
    total = 1.0
    for n in range(nmax):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += (n + 2) * abs(term)
        if n > 3 and abs(term) < 1e-18:
            break
    return total


def check_eval_point(point: tuple, values: tuple) -> tuple[list[str], float]:
    """F, F' and q at one corpus point against mpmath.hyp2f1 at 30 digits.

    Each value may be off by 1e-13 relative plus 16 unit roundoffs per unit of
    its series' weight, sum (n + 1)|t_n z^n| / |sum t_n z^n|; q inherits the
    error of F and F' through z F'/F.
    """
    a, b, c, z = point
    F, Fp, q = values
    F_mp, Fp_mp = mp_F_Fp(a, b, c, z)
    q_mp = 1 + mpmath.mpc(z) * Fp_mp / F_mp
    tol_F = 1e-13 + 16 * U * series_weight(a, b, c, z) / float(abs(F_mp))
    G_mp = Fp_mp * c / (a * b)
    tol_Fp = 1e-13 + 16 * U * series_weight(a + 1, b + 1, c + 1, z) / float(abs(G_mp))
    tol_q = 1e-13 + (tol_F + tol_Fp) * float(abs(q_mp - 1) / abs(q_mp))
    errors = {
        "F": float(abs(F - F_mp) / abs(F_mp)),
        "F'": float(abs(Fp - Fp_mp) / abs(Fp_mp)),
        "q": float(abs(q - q_mp) / abs(q_mp)),
    }
    tols = {"F": tol_F, "F'": tol_Fp, "q": tol_q}
    problems = [f"{name} at (a, b, c, z) = {point}: relative error {err:.3g} exceeds {tols[name]:.3g}"
                for name, err in errors.items() if err > tols[name]]
    return problems, max(errors.values())
