"""One workload in a fresh interpreter: a closed loop of whole rounds on one thread.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --out DIR --spawn-time T [--setup-only]

`--spawn-time` is the wall-clock time at which the parent started this
process.  Set-up time runs from then to the first op, less the time spent
generating the benchmark's own inputs; it is also given in reference
seconds (see hostspeed.py).  The worker writes `result.json` (and, when
traced, `spans.csv`) into DIR; run.py checks the outputs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import hostspeed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_hypstar() -> dict:
    """Import hypstar from the checkout's own source tree, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hypstar", "__init__.py")):
        raise SystemExit(f"no hypstar source under {SRC}")
    sys.path.insert(0, SRC)
    import hypstar
    from hypstar import certificates, cli, errors, hypergeom, verifier

    if os.path.dirname(os.path.dirname(os.path.abspath(hypstar.__file__))) != SRC:
        raise SystemExit(f"hypstar was imported from {hypstar.__file__}, not from {SRC}")
    return {"certificates": certificates, "cli": cli, "errors": errors, "hypergeom": hypergeom, "verifier": verifier}


def peak_rss_mb() -> float:
    """Peak resident size of this process since its exec.

    VmHWM belongs to the process's own address space.  ru_maxrss can carry
    the parent's peak over a fork and exec, so it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _complex_pair(v: complex) -> list[float]:
    return [v.real, v.imag]


class Crosscheck:
    """A unit is one op: the instance's certificate, then `cross_check` on the 40x720 grid."""

    def __init__(self, mods: dict, instances: list[dict]):
        self.m = mods
        self.instances = instances
        hypergeom = mods["hypergeom"]
        self.params = [hypergeom.HypergeomParams(i["a"], i["b"], i.get("c", i["a"] + i["b"] + 1))
                       for i in instances]

    def _certify(self, inst: dict, params):
        certificates = self.m["certificates"]
        theorem = inst["theorem"]
        if theorem == "starlike-order":
            return certificates.certify_starlike_order(params, inst["alpha"])
        if theorem == "cor-a2":
            return certificates.certify_cor_a2(params.a.real, params.b.real, params.c.real, inst["s"])
        if theorem == "strong-starlike":
            return certificates.certify_strong_starlike(params, inst["alpha"])
        if theorem == "spirallike":
            return certificates.certify_spirallike(params.a, params.b, inst["lam"], inst["alpha"])
        raise ValueError(f"no certifier for {theorem!r}")

    def _crosscheck(self, inst: dict, params) -> tuple[dict, int]:
        try:
            cert = self._certify(inst, params)
            result = self.m["verifier"].cross_check(cert.shape_class, cert.params, cert)
            return {"name": inst["name"], "result": result.to_json()}, 1
        except (self.m["errors"].HypstarError, ValueError) as exc:
            return {"name": inst["name"], "error": f"{type(exc).__name__}: {exc}"}, 1

    def units(self, threads: int = 1) -> list:
        return [functools.partial(self._crosscheck, inst, params)
                for inst, params in zip(self.instances, self.params)]


class Scan:
    """A unit is one `run_scan` call over one spec; an op is one CSV row."""

    def __init__(self, mods: dict, specs: list[dict], out_dir: str):
        self.m = mods
        self.specs = [mods["cli"].parse_scan_spec(spec) for spec in specs]
        self.paths = [os.path.join(out_dir, f"scan-{i}.csv") for i in range(len(specs))]

    def _scan(self, spec, path: str, threads: int) -> tuple[str, int]:
        return path, self.m["cli"].run_scan(spec, path, threads=threads)["points"]

    def units(self, threads: int = 1) -> list:
        return [functools.partial(self._scan, spec, path, threads) for spec, path in zip(self.specs, self.paths)]


class EvalCorpus:
    """A unit is one pass over the corpus; an op is F, F' and q at one point."""

    def __init__(self, mods: dict, corpus: list[tuple]):
        self.m = mods
        hypergeom = mods["hypergeom"]
        self.points = [(hypergeom.HypergeomParams(a, b, c), z) for a, b, c, z in corpus]

    def _pass(self) -> tuple[list, int]:
        hypergeom = self.m["hypergeom"]
        outputs = []
        for params, z in self.points:
            F = hypergeom.gauss_2f1(params, z)
            Fp = hypergeom.gauss_2f1_derivative(params, z)
            q = hypergeom.log_derivative_q(params, z)
            outputs.append((F, Fp, q))
        return outputs, len(outputs)

    def units(self, threads: int = 1) -> list:
        return [self._pass]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _serializable(workload: str, outputs: list):
    if workload == "eval-corpus":
        return [[_complex_pair(v) for v in triple] for triple in outputs[0]]
    return outputs


# program time between two host-speed ticks
TICK_EVERY_S = 0.5


def run_rounds(runner, seconds: float, threads: int = 1) -> dict:
    """Whole rounds until `seconds` of program time have passed.

    Units run one at a time.  After at least TICK_EVERY_S of program time the
    host's speed is read again, and the program time since the last reading
    is converted into reference seconds at the mean speed of the two
    readings.  `ops_per_s` is all ops over all reference seconds;
    `wall_ops_per_s` is all ops over all program time.  A scan's output is
    the SHA-256 of its CSV, taken outside the timed call.
    """
    busy = 0.0
    reference = 0.0
    block = 0.0
    last_tick = hostspeed.tick()
    rounds = 0
    ops = 0
    first = None
    identical = True
    while rounds == 0 or busy < seconds:
        outputs = []
        for unit in runner.units(threads):
            t0 = time.perf_counter()
            output, n = unit()
            elapsed = time.perf_counter() - t0
            busy += elapsed
            block += elapsed
            ops += n
            outputs.append(_sha256(output) if isinstance(runner, Scan) else output)
            if block >= TICK_EVERY_S:
                now = hostspeed.tick()
                reference += hostspeed.reference_seconds(block, last_tick, now)
                block, last_tick = 0.0, now
        rounds += 1
        if first is None:
            first = outputs
        elif outputs != first:
            identical = False
    if block > 0:
        reference += hostspeed.reference_seconds(block, last_tick, hostspeed.tick())
    return {"busy_s": busy, "rounds": rounds, "ops": ops, "outputs": first, "identical": identical,
            "ops_per_s": ops / reference, "wall_ops_per_s": ops / busy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    g0 = time.perf_counter()
    inputs = workloads.make_inputs(args.workload, args.seed)
    generate_s = time.perf_counter() - g0

    mods = _import_hypstar()
    if args.workload == "crosscheck-full":
        runner = Crosscheck(mods, inputs)
    elif args.workload == "eval-corpus":
        runner = EvalCorpus(mods, inputs)
    else:
        runner = Scan(mods, inputs, args.out)
    wall_setup_s = time.time() - args.spawn_time - generate_s
    tick_now = statistics.median(hostspeed.tick() for _ in range(3))
    setup_s = hostspeed.reference_seconds(wall_setup_s, tick_now, tick_now)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(mods)
    main_run = run_rounds(runner, args.seconds)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_setup_s": wall_setup_s,
        "busy_s": main_run["busy_s"],
        "ops_per_s": main_run["ops_per_s"],
        "wall_ops_per_s": main_run["wall_ops_per_s"],
        "rounds": main_run["rounds"],
        "ops": main_run["ops"],
        "identical_rounds": main_run["identical"],
        "outputs": _serializable(args.workload, main_run["outputs"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        from tracing import MAIN, layer_metrics

        result["layers"] = layer_metrics(tracer.spans, tracer.counts, main_run["rounds"])
        result["traced_ops_per_s"] = main_run["ops_per_s"]
        if isinstance(runner, Scan):
            # the same rounds on a two-thread pool, against the one-thread rounds above
            tracer.phase = "threads2"
            pool_run = run_rounds(runner, args.seconds / 2, threads=2)
            tracer.phase = MAIN
            result["threads2_ops_per_s"] = pool_run["ops_per_s"]
            result["threads2_same_bytes"] = pool_run["identical"] and pool_run["outputs"] == main_run["outputs"]
        tracer.uninstall()
        tracer.write(os.path.join(args.out, "spans.csv"))

    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
