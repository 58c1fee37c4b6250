"""Layer boundaries the traced benchmark wraps by name.

perfbench/tracing.py replaces these module attributes with timing wrappers
through getattr/setattr, so a rename or a moved import makes
`perfbench/run.py --trace 1` fail with AttributeError.
"""

import numpy as np
import pytest

from hypstar import HypergeomParams, certificates, cli, hypergeom, verifier

CERTIFIERS = (
    "certify_starlike_order",
    "certify_cor_a2",
    "certify_spirallike",
    "certify_spirallike_cor1",
    "certify_spirallike_cor2",
    "certify_strong_starlike",
    "certify_sst_cor_p0",
    "certify_sst_cor_max",
    "certify_sst_cor_final",
    "certify_theorem_A",
    "certify_general",
    "certify_convexity",
)

TRACED = [
    *((cli, name) for name in CERTIFIERS),
    (cli, "run_scan"),
    (cli, "verify_on_disk"),
    *((certificates, name) for name in CERTIFIERS),
    (certificates, "minimize_on_positive_line"),
    (verifier, "gauss_2f1_grid"),
    (verifier, "membership_slack_array"),
    (verifier, "verify_on_disk"),
    (verifier, "cross_check"),
    (hypergeom, "gauss_2f1"),
]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m.__name__}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    assert callable(getattr(module, name))


def test_minimizer_runs_with_a_wrapped_residual(monkeypatch):
    # the tracer hands the minimizer a one-argument wrapper in place of its residual
    original = certificates.minimize_on_positive_line
    points = []

    def traced(residual, *args, **kwargs):
        def counted(s):
            points.append(np.size(s))
            return residual(s)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(certificates, "minimize_on_positive_line", traced)
    assert certificates.certify_strong_starlike(HypergeomParams(1, 1, 3), 0.5).passed
    assert sum(points) > 0
