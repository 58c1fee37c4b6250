"""Every kind's passing rows against the disk-grid verifier.

For each theorem kind other than `general` (whose three class families
`test_general.py` sweeps), and for `convexity` in each class family, rows
are drawn around a region that passes, and 60 passing rows of each pair are
verified together in one `verify_rows` call on the sweep grid.  A passing
row that is not Consistent is an unsound certificate: it is reported with
its parameters, never redrawn.  `convexity` rows are drawn as its delegate's
passing rows shifted by -1, and verified at the shifted triple its
certificate reports, in its class.
"""

from dataclasses import replace

import numpy as np

from hypstar import HypergeomParams, SpirallikeOrder, StarlikeOrder, StronglyStarlike
from hypstar.certificates import CHECKERS, Rows
from hypstar.verifier import CONSISTENT, DiskGridSettings, verify_rows

SWEEP_GRID = DiskGridSettings(n_radii=12, r_max=0.97, n_angles=120)
PER_PAIR = 60
ROWS = 200  # rows per draw


def _draw_families(rng) -> dict:
    """(kind, class family) -> a function that draws ROWS rows of the kind in the family."""

    def disk(scale, center=1.0):
        return center + scale * (rng.uniform(-1, 1, ROWS) + 1j * rng.uniform(-1, 1, ROWS))

    def sign():
        return rng.choice([-1.0, 1.0], ROWS)

    def real_sum_pair(high):
        """a and b with a + b real and ab > 0: two positive numbers, or a conjugate pair in half the rows."""
        x, y = rng.uniform(0.3, high, ROWS), rng.uniform(-0.5, 0.5, ROWS) * (rng.uniform(size=ROWS) < 0.5)
        return x + 1j * y, np.where(y == 0, rng.uniform(0.3, high, ROWS), x - 1j * y)

    def starlike(shift=0.0):
        a, b = disk(0.6), disk(0.6)
        p = rng.choice([0.0, 0.5, 1.0], ROWS)
        return Rows(a - shift, b - shift, a + b + 1 - p - shift, rng.uniform(0, 0.5, ROWS))

    def spirallike(shift=0.0):
        lam = rng.uniform(-0.6, 0.6, ROWS)
        a, b = np.exp(0.5j * lam) * disk(0.6), np.exp(0.5j * lam) * disk(0.6)
        return Rows(a - shift, b - shift, a + b + 1 - shift, rng.uniform(0, 0.6, ROWS), lam)

    def strong_starlike(shift=0.0):
        a, b = disk(0.2), disk(0.2)
        p = rng.choice([0.0, 0.5], ROWS)
        return Rows(a - shift, b - shift, a + b + 1 - p - shift, rng.uniform(0.45, 0.9, ROWS))

    def cor_a2():
        a, b = rng.uniform(0.3, 2.0, ROWS), rng.uniform(0.5, 2.0, ROWS)
        return Rows(a, b, b + rng.uniform(0, 1.5, ROWS), s=rng.uniform(-2, 2, ROWS))

    def spirallike_cor1():
        # e^{-i lam} ab = r1 r2 > 0, as in the golden row a = b = e^{i pi/12}, lam = pi/6
        lam = sign() * rng.uniform(0.1, 1.0, ROWS)
        phi = lam / 2 + rng.uniform(-0.3, 0.3, ROWS)
        a = rng.uniform(0.3, 3, ROWS) * np.exp(1j * phi)
        b = rng.uniform(0.3, 3, ROWS) * np.exp(1j * (lam - phi))
        return Rows(a, b, alpha=rng.uniform(0, 0.5, ROWS), lam=lam)

    def convexity(make, family):
        return lambda: replace(make(shift=1.0), family=family)

    return {
        ("starlike-order", StarlikeOrder): starlike,
        ("cor-a2", StarlikeOrder): cor_a2,
        ("spirallike", SpirallikeOrder): spirallike,
        ("spirallike-cor1", SpirallikeOrder): spirallike_cor1,
        ("spirallike-cor2", SpirallikeOrder): lambda: Rows(
            *real_sum_pair(3.0), alpha=rng.uniform(0, 0.5, ROWS), lam=sign() * rng.uniform(0.1, 1.2, ROWS)),
        ("strong-starlike", StronglyStarlike): strong_starlike,
        ("sst-cor-p0", StronglyStarlike): lambda: Rows(disk(0.3, 0.6), disk(0.3, 0.6), alpha=rng.uniform(0.3, 0.9, ROWS)),
        ("sst-cor-max", StronglyStarlike): lambda: Rows(disk(0.4), disk(0.4), alpha=rng.uniform(0.3, 0.9, ROWS)),
        ("sst-cor-final", StronglyStarlike): lambda: Rows(*real_sum_pair(2.0), alpha=rng.uniform(0.2, 0.9, ROWS)),
        ("theorem-a", StronglyStarlike): lambda: Rows(*real_sum_pair(4.0), alpha=rng.uniform(0.4, 0.95, ROWS)),
        ("convexity", StarlikeOrder): convexity(starlike, StarlikeOrder),
        ("convexity", SpirallikeOrder): convexity(spirallike, SpirallikeOrder),
        ("convexity", StronglyStarlike): convexity(strong_starlike, StronglyStarlike),
    }


def _draw_passing(kind, make, rounds=10):
    """The first PER_PAIR passing rows of the kind over draws of make(), each
    as (class, (a, b, c)) that its certificate reports; fails if they run short."""
    found = []
    for _ in range(rounds):
        batch = CHECKERS[kind](make())
        code, _ = batch.failed_conditions()
        a, b, c = batch.params
        found += [(batch.shape_class(i), HypergeomParams(a[i], b[i], c[i]))
                  for i in np.flatnonzero(code == 0).tolist() if i not in batch.errors]
        if len(found) >= PER_PAIR:
            return found[:PER_PAIR]
    raise AssertionError(f"draws of {kind} starved: {len(found)} of {PER_PAIR} passing rows")


def test_every_kind_and_class_family_passes_are_consistent_on_the_sweep_grid():
    families = _draw_families(np.random.default_rng(12))
    assert len(families) == 13
    assert {kind for kind, _ in families} | {"general"} == set(CHECKERS)
    pairs, draws = [], []
    for (kind, family), make in families.items():
        rows = _draw_passing(kind, make)
        assert all(type(cls) is family for cls, _ in rows), (kind, family)
        pairs += [f"{kind}/{family.__name__}"] * len(rows)
        draws += rows
    reports = verify_rows([cls for cls, _ in draws], [params for _, params in draws], SWEEP_GRID)
    unsound = [f"UNSOUND {pair}: {cls} a={params.a} b={params.b} c={params.c}: {report.status}, "
               f"min_slack {report.min_slack:.3g}"
               for pair, (cls, params), report in zip(pairs, draws, reports) if report.status != CONSISTENT]
    assert not unsound, "\n".join(unsound)
    assert len(reports) == 13 * PER_PAIR
