"""The known holes of ROADMAP.md, as strict expected failures.

Each case asserts the correct outcome, which the code does not give yet, and
names the ROADMAP item that would close it.  Under `strict=True` an
unexpected pass fails the run: a change that closes a hole moves its case
out of this ledger and into its item's tests.
"""

import json

import pytest

from hypstar.cli import main
from hypstar.hypergeom import HypergeomParams
from hypstar.shapes import StarlikeOrder
from hypstar.verifier import DiskGridSettings, verify_on_disk

SWEEP_GRID = DiskGridSettings(n_radii=12, r_max=0.97, n_angles=120)

# starlike of order alpha, (a, b, c); every report is Consistent on the default grid
AT_Z_ONE = {
    # F = (1 - z)^{-a}, so q = 1 + az/(1 - z), and min Re q = -49.2 on |z| = 0.999999
    "binomial with complex a": (0.0, (0.5 + 0.01j, 1.5, 1.5)),
    # f = z/(1 - z) is starlike of order exactly 1/2
    "z/(1 - z) above its order": (0.5012, (2, 1, 2)),
    # mpmath at 30 digits: min Re q = -71.3 on |z| = 0.9999
    "complex triple": (0.0, (1.0324 + 0.8179j, 1.4565 - 0.2507j, 2.1156 + 0.4273j)),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: a report covers |z| <= r_max, and Re q falls below the order nearer z = 1")
@pytest.mark.parametrize("case", sorted(AT_Z_ONE))
def test_a_class_that_fails_near_z_one_is_violated(case):
    alpha, abc = AT_Z_ONE[case]
    assert verify_on_disk(StarlikeOrder(alpha), HypergeomParams(*abc)).status == "Violated"


# `hypstar certify` arguments of rows that pass although a hypothesis fails by less than the tolerance
INSIDE_TOLERANCE = {
    # z/(1 - z) is starlike of order exactly 1/2; N = -1.2e-13
    "starlike-order above 1/2": "--theorem starlike-order --alpha 0.50000000000001 --a 2,0 --b 1,0 --c 2,0",
    # N = -3.0e-13
    "general above 1/2": "--theorem general --class starlike --alpha 0.5000000000001 --a 2,0 --b 1,0 --c 2,0",
    # p = -1e-12 i, so D = (1 + s^2)(1 + 1e-12 s) changes sign at s = -1e12
    "general with Im p = -1e-12": "--theorem general --class starlike --alpha 0 --a 1,0 --b 1,0 --c 3,1e-12",
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: closed conditions pass down to -1e-12 scale, and 'p real' up to 1e-12")
@pytest.mark.parametrize("case", sorted(INSIDE_TOLERANCE))
def test_a_row_whose_hypothesis_fails_does_not_pass(capsys, case):
    main(["certify", *INSIDE_TOLERANCE[case].split()])
    assert json.loads(capsys.readouterr().out)["passed"] is False


# draws 69 and 17 of draw_params(RandomState(7), radius=3), each at an order
# 1e-6 below its sampled min Re q on the sweep grid; the outer ring sampled
# at 64N angles reads -3.1e-4 and -4.2e-5
BETWEEN_SAMPLES = {
    "draw 69": (0.5352046790727079, (-1.3126097587066488 - 1.8458185539548957j,
                                     -0.07364908399507097 + 0.3453834056044096j,
                                     0.9402280823596492 - 2.3544532061139813j)),
    "draw 17": (0.221399402486835, (1.8769773009822375 - 0.4337710018346965j,
                                    0.599126625260678 + 1.3689676988828028j,
                                    1.9273656498393574 + 1.5630907198816981j)),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: a ring's N samples miss a minimum that lies between them")
@pytest.mark.parametrize("case", sorted(BETWEEN_SAMPLES))
def test_a_minimum_between_ring_samples_is_not_consistent(case):
    alpha, abc = BETWEEN_SAMPLES[case]
    assert verify_on_disk(StarlikeOrder(alpha), HypergeomParams(*abc), SWEEP_GRID).status in ("Violated", "Incomplete")
