"""Seeded inputs of the four benchmark workloads.

Only the standard library is used here: the worker generates its inputs
before it imports hypstar (and with it numpy), so that the import cost stays
inside the measured set-up time and the input generation stays out of it.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("crosscheck-full", "scan-verify", "scan-certify", "eval-corpus")

# the sweep grid of the acceptance tests; scan-verify rows run on it
SWEEP_GRID = {"n_radii": 12, "r_max": 0.97, "n_angles": 120}

# corpus draws, as tests/conftest.draw_corpus_point makes them
CORPUS_SIZE = 1000
CORPUS_RADIUS = 5.0
CORPUS_Z_MAX = 0.8
CONDITION_CAP = 1e4


def crosscheck_instances(seed: int) -> list[dict]:
    """The fixed crosscheck list; the seed only shuffles the order of a round.

    `expect` is what a correct program reports: every certified instance is
    Consistent, and each of the two triples whose F vanishes inside the disk
    away from every grid node is Degenerate.
    """
    rot = cmath.exp(0.15j)
    instances = [
        {"name": "starlike-2-2+5i-3+5i", "theorem": "starlike-order", "a": 2, "b": 2 + 5j, "c": 3 + 5j,
         "alpha": 0.0, "expect": "Consistent"},
        {"name": "cor-a2-2-1-2", "theorem": "cor-a2", "a": 2, "b": 1, "c": 2, "s": 0.0,
         "expect": "Consistent"},
        {"name": "strong-starlike-1-1-3", "theorem": "strong-starlike", "a": 1, "b": 1, "c": 3,
         "alpha": 0.5, "expect": "Consistent"},
        {"name": "spirallike-e0.15i", "theorem": "spirallike", "a": rot, "b": 1.1 * rot, "lam": 0.3,
         "alpha": 0.0, "expect": "Consistent"},
        {"name": "zero-at-0.5", "theorem": "starlike-order", "a": -1, "b": 2, "c": 1, "alpha": 0.0,
         "expect": "Degenerate"},
        {"name": "zero-at-0.3+0.4i", "theorem": "starlike-order", "a": -1, "b": 1, "c": 0.3 + 0.4j,
         "alpha": 0.0, "expect": "Degenerate"},
    ]
    random.Random(seed).shuffle(instances)
    return instances


def _jitter(rng: random.Random, x: float, width: float) -> float:
    return x + rng.uniform(-width, width)


def scan_verify_specs(seed: int) -> list[dict]:
    """One starlike-order and one sst-cor-max scan with `verify: true`, 3x2 rows each.

    The scans are small so that a run repeats each of them many times.  The
    seed shifts the axes by a few hundredths; every row is verified, so the
    cost of a row does not depend on whether it is certified.
    """
    rng = random.Random(seed)
    t = _jitter(rng, 1.0, 0.1)
    return [
        {
            "varying": [
                {"symbol": "b_re", "from": _jitter(rng, 0.5, 0.05), "to": _jitter(rng, 2.0, 0.05), "steps": 3},
                {"symbol": "c_re", "from": _jitter(rng, 2.25, 0.05), "to": _jitter(rng, 3.5, 0.05), "steps": 2},
            ],
            "fixed": {"a_re": 2.0, "b_im": t, "c_im": t, "alpha": 0.0},
            "certificate": "starlike-order",
            "verify": True,
            "grid": dict(SWEEP_GRID),
        },
        {
            "varying": [
                {"symbol": "a_re", "from": _jitter(rng, 0.5, 0.05), "to": _jitter(rng, 2.0, 0.05), "steps": 3},
                {"symbol": "b_re", "from": _jitter(rng, 0.5, 0.05), "to": _jitter(rng, 2.0, 0.05), "steps": 2},
            ],
            "fixed": {"a_im": _jitter(rng, 0.0, 0.05), "alpha": 0.5},
            "certificate": "sst-cor-max",
            "verify": True,
            "grid": dict(SWEEP_GRID),
        },
    ]


def scan_certify_specs(seed: int) -> list[dict]:
    """Certify-only scans: two large closed-form scans and one minimizer scan.

    40k starlike-order rows plus 14.4k sst-cor-max rows take about as long as
    the 400 strong-starlike rows.  The largest scan holds enough rows in
    memory to show in the peak resident size, and a round is short enough
    that a run repeats it several times.
    """
    rng = random.Random(seed)
    t = _jitter(rng, 1.0, 0.1)
    return [
        {
            "varying": [
                {"symbol": "b_re", "from": _jitter(rng, 0.2, 0.05), "to": _jitter(rng, 3.0, 0.05), "steps": 200},
                {"symbol": "c_re", "from": _jitter(rng, 1.2, 0.05), "to": _jitter(rng, 4.5, 0.05), "steps": 200},
            ],
            "fixed": {"a_re": 2.0, "b_im": t, "c_im": t, "alpha": _jitter(rng, 0.1, 0.05)},
            "certificate": "starlike-order",
        },
        {
            "varying": [
                {"symbol": "a_re", "from": _jitter(rng, 0.2, 0.05), "to": _jitter(rng, 2.5, 0.05), "steps": 120},
                {"symbol": "b_re", "from": _jitter(rng, 0.2, 0.05), "to": _jitter(rng, 2.5, 0.05), "steps": 120},
            ],
            "fixed": {"a_im": _jitter(rng, 0.1, 0.05), "alpha": 0.5},
            "certificate": "sst-cor-max",
        },
        {
            "varying": [
                {"symbol": "b_re", "from": _jitter(rng, 0.5, 0.05), "to": _jitter(rng, 2.0, 0.05), "steps": 20},
                {"symbol": "c_re", "from": _jitter(rng, 2.0, 0.05), "to": _jitter(rng, 4.0, 0.05), "steps": 20},
            ],
            "fixed": {"a_re": 1.0, "alpha": _jitter(rng, 0.5, 0.05)},
            "certificate": "strong-starlike",
        },
    ]


def _draw_params(rng: random.Random, radius: float) -> tuple[complex, complex, complex]:
    while True:
        a, b, c = (complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius)) for _ in range(3))
        if abs(c.imag) > 0.05 or c.real > 0.05 or abs(c.real - round(c.real)) > 0.05:
            return a, b, c


def series_condition(a: complex, b: complex, c: complex, z: complex, nmax: int = 5000) -> float:
    """Summation condition number sum |t_n z^n| / |sum t_n z^n| at z."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    abs_sum = 1.0
    for n in range(nmax):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        abs_sum += abs(term)
        if n > 3 and abs(term) < 1e-17 * abs(total):
            break
    return abs_sum / max(abs(total), 1e-300)


def eval_corpus(seed: int, size: int = CORPUS_SIZE) -> list[tuple[complex, complex, complex, complex]]:
    """(a, b, c, z) draws with |a|, |b|, |c| <= 5, |z| <= 0.8 and summation
    condition at most 1e4, redrawn otherwise."""
    rng = random.Random(seed)
    points = []
    while len(points) < size:
        a, b, c = _draw_params(rng, CORPUS_RADIUS)
        z = rng.uniform(0, CORPUS_Z_MAX) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if series_condition(a, b, c, z) <= CONDITION_CAP:
            points.append((a, b, c, z))
    return points


def make_inputs(workload: str, seed: int):
    if workload == "crosscheck-full":
        return crosscheck_instances(seed)
    if workload == "scan-verify":
        return scan_verify_specs(seed)
    if workload == "scan-certify":
        return scan_certify_specs(seed)
    if workload == "eval-corpus":
        return eval_corpus(seed)
    raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")
