"""Layer spans recorded from outside the program.

The tracer replaces a module attribute with a wrapper that records a span
(name, start, end, parent span) around each call, so it sees exactly the
calls that go through that name: the verifier's `gauss_2f1_grid`, the CLI's
`certify_starlike_order`, and so on.  Spans stay in memory until the run
ends; `write` puts them in a CSV file and `layer_metrics` reduces them to
the per-layer figures of one round of the workload.
"""

from __future__ import annotations

import csv
import functools
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# program functions under a span, by the module that looks the name up
CERTIFIER_KINDS = {
    "certify_starlike_order": "starlike-order",
    "certify_cor_a2": "cor-a2",
    "certify_spirallike": "spirallike",
    "certify_spirallike_cor1": "spirallike-cor1",
    "certify_spirallike_cor2": "spirallike-cor2",
    "certify_strong_starlike": "strong-starlike",
    "certify_sst_cor_p0": "sst-cor-p0",
    "certify_sst_cor_max": "sst-cor-max",
    "certify_sst_cor_final": "sst-cor-final",
    "certify_theorem_A": "theorem-a",
    "certify_general": "general",
    "certify_convexity": "convexity",
}

PER_LAYER = (
    ("hypergeom.ring.calls", "count"),
    ("hypergeom.ring.busy_s", "s"),
    ("hypergeom.ring.outer_ms", "ms"),
    ("hypergeom.point.calls", "count"),
    ("hypergeom.point.us_p50", "us"),
    ("shapes.slack.busy_s", "s"),
    ("verifier.verify.calls", "count"),
    ("verifier.verify.ms_p50", "ms"),
    ("verifier.verify.self_s", "s"),
    ("certificates.starlike-order.us_p50", "us"),
    ("certificates.sst-cor-max.us_p50", "us"),
    ("certificates.strong-starlike.ms_p50", "ms"),
    ("certificates.self_s", "s"),
    ("oracles.minimize.calls", "count"),
    ("oracles.minimize.ms_p50", "ms"),
    ("oracles.minimize.residual_points", "count"),
    ("cli.scan.self_s", "s"),
    ("cli.scan.threads2_ops_per_s", "1/s"),
    ("cli.scan.threads2_speedup", "x"),
)

MAIN = "main"


class Tracer:
    """Spans of the wrapped calls, one stack per thread."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0_ns, t1_ns, phase, attr)
        self.counts: Counter = Counter()  # (phase, name) -> count
        self.phase = MAIN
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()  # scans on a thread pool count from several threads
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, attr_of=None, transform=None) -> None:
        """Put a span around every call of `module.attr` made through that name.

        `attr_of(args)` gives a number stored with the span; `transform(args)`
        may replace the positional arguments before the call.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            value = attr_of(args) if attr_of else None
            if transform:
                args = transform(args)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, tracer.phase, value))

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def count(self, name: str, n: int) -> None:
        with self._count_lock:
            self.counts[(self.phase, name)] += n

    def install(self, hypstar_modules: dict) -> None:
        """Wrap the layer boundaries of hypstar at the names their callers use."""
        verifier = hypstar_modules["verifier"]
        certificates = hypstar_modules["certificates"]
        cli = hypstar_modules["cli"]
        hypergeom = hypstar_modules["hypergeom"]

        self.wrap(verifier, "gauss_2f1_grid", "hypergeom.ring",
                  attr_of=lambda args: float(np.abs(args[1]).max()))
        self.wrap(hypergeom, "gauss_2f1", "hypergeom.point")
        self.wrap(verifier, "membership_slack_array", "shapes.slack")
        self.wrap(verifier, "verify_on_disk", "verifier.verify")
        self.wrap(verifier, "cross_check", "verifier.crosscheck")
        self.wrap(cli, "verify_on_disk", "verifier.verify")
        self.wrap(cli, "run_scan", "cli.scan")
        for fn, kind in CERTIFIER_KINDS.items():
            self.wrap(certificates, fn, f"certificates.{kind}")
            self.wrap(cli, fn, f"certificates.{kind}")

        def counted(args):
            residual = args[0]

            def residual_counted(s):
                self.count("oracles.minimize.residual_points", int(np.size(s)))
                return residual(s)

            return (residual_counted, *args[1:])

        self.wrap(certificates, "minimize_on_positive_line", "oracles.minimize", transform=counted)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "t0_ns", "t1_ns", "phase", "attr"])
            writer.writerows(self.spans)


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[tuple], counts: Counter, rounds: int) -> dict[str, float]:
    """Per-layer figures of the main phase, per round of the workload.

    Counts and busy or self times are totals over the run divided by the
    number of rounds; p50 figures are medians over all calls.  A layer the
    workload never calls reads 0.
    """
    main = [s for s in spans if s[5] == MAIN]
    dur = {s[0]: (s[4] - s[3]) * 1e-9 for s in main}
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in main:
        by_name[s[2]].append(s)
        children[s[1]].append(s)
    per_round = 1.0 / rounds

    def busy(name: str) -> float:
        return sum(dur[s[0]] for s in by_name[name]) * per_round

    def self_time(name: str) -> float:
        total = 0.0
        for s in by_name[name]:
            total += dur[s[0]] - sum(dur[c[0]] for c in children[s[0]])
        return total * per_round

    # the outer ring of a verify call is its ring call at the largest radius
    outer = []
    for s in by_name["verifier.verify"]:
        rings = [c for c in children[s[0]] if c[2] == "hypergeom.ring"]
        if rings:
            r_max = max(c[6] for c in rings)
            outer.extend(dur[c[0]] for c in rings if c[6] >= r_max - 1e-12)

    # a checker called by another checker (convexity delegates) is counted once,
    # in the outermost span; every minimizer call sits inside some checker
    name_of = {s[0]: s[2] for s in main}
    cert_top = [s for s in main if s[2].startswith("certificates.")
                and not name_of.get(s[1], "").startswith("certificates.")]
    oracle_busy = sum(dur[s[0]] for s in by_name["oracles.minimize"])
    certificates_self = (sum(dur[s[0]] for s in cert_top) - oracle_busy) * per_round

    return {
        "hypergeom.ring.calls": len(by_name["hypergeom.ring"]) * per_round,
        "hypergeom.ring.busy_s": busy("hypergeom.ring"),
        "hypergeom.ring.outer_ms": _p50(outer) * 1e3,
        "hypergeom.point.calls": len(by_name["hypergeom.point"]) * per_round,
        "hypergeom.point.us_p50": _p50([dur[s[0]] for s in by_name["hypergeom.point"]]) * 1e6,
        "shapes.slack.busy_s": busy("shapes.slack"),
        "verifier.verify.calls": len(by_name["verifier.verify"]) * per_round,
        "verifier.verify.ms_p50": _p50([dur[s[0]] for s in by_name["verifier.verify"]]) * 1e3,
        "verifier.verify.self_s": self_time("verifier.verify"),
        "certificates.starlike-order.us_p50":
            _p50([dur[s[0]] for s in by_name["certificates.starlike-order"]]) * 1e6,
        "certificates.sst-cor-max.us_p50": _p50([dur[s[0]] for s in by_name["certificates.sst-cor-max"]]) * 1e6,
        "certificates.strong-starlike.ms_p50":
            _p50([dur[s[0]] for s in by_name["certificates.strong-starlike"]]) * 1e3,
        "certificates.self_s": certificates_self,
        "oracles.minimize.calls": len(by_name["oracles.minimize"]) * per_round,
        "oracles.minimize.ms_p50": _p50([dur[s[0]] for s in by_name["oracles.minimize"]]) * 1e3,
        "oracles.minimize.residual_points": counts[(MAIN, "oracles.minimize.residual_points")] * per_round,
        "cli.scan.self_s": self_time("cli.scan"),
    }
