"""Layered benchmark of hypstar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs one workload (or each in turn) in a fresh single-threaded process as a
closed loop of whole rounds, checks every output against mpmath or the
boundary algebra, and prints the metrics, one per line with its unit, then
one JSON object as the last line.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones.  Run it from the root of
a checkout: it imports hypstar from ./src and writes only under
./.perfbench_out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
# starlike-order rows whose L, M, N are compared with 30-digit arithmetic
LMN_SAMPLE_ROWS = 64

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "digits": "digits"}


class BenchError(Exception):
    """The benchmark could not run the program to its end."""


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--spawn-time", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def _digits(rel: float) -> float:
    return -math.log10(max(rel, 1e-17))


def check_outputs(workload: str, seed: int, result: dict, out_dir: str) -> dict:
    """Checks the worker's outputs; returns problems, failed ops per round and accuracy."""
    import checks

    inputs = workloads.make_inputs(workload, seed)
    problems: list[str] = []
    failed_per_round = 0
    errors_per_round = 0
    worst = 0.0
    if not result["identical_rounds"]:
        problems.append("rounds of the same inputs gave different outputs")

    if workload == "crosscheck-full":
        for inst, out in zip(inputs, result["outputs"]):
            if out["name"] != inst["name"]:
                problems.append(f"output {out['name']} in the place of {inst['name']}")
                continue
            p, failed, rel = checks.check_crosscheck(inst, out)
            problems += p
            errors_per_round += "error" in out
            failed_per_round += failed
            worst = max(worst, rel)

    elif workload == "eval-corpus":
        if len(result["outputs"]) != len(inputs):
            problems.append(f"{len(result['outputs'])} results for {len(inputs)} corpus points")
        for point, values in zip(inputs, result["outputs"]):
            p, rel = checks.check_eval_point(point, tuple(complex(*v) for v in values))
            problems += p
            worst = max(worst, rel)

    else:
        for i, spec in enumerate(inputs):
            with open(os.path.join(out_dir, f"scan-{i}.csv"), encoding="utf-8") as fh:
                p, rows, failed = checks.parse_scan_csv(spec, fh.read())
            problems += p
            failed_per_round += failed
            k = len(spec["varying"])
            if spec.get("verify"):
                # every certified row on the outer ring; the first and the last on inner rings too
                certified = [row for row in rows if row[k] == "true"]
                for j, row in enumerate(certified):
                    p, rel = checks.check_verified_row(spec, tuple(float(v) for v in row[:k]), float(row[k + 2]),
                                                       inner=j in (0, len(certified) - 1))
                    problems += p
                    worst = max(worst, rel)
            else:
                problems += checks.check_certified_boundary(spec, rows)
        if workload == "scan-certify":
            worst = max(worst, _lmn_worst(inputs[0], seed))
            problems += _threads_agree(inputs, out_dir)
        if result.get("threads2_same_bytes") is False:
            problems.append("scan CSV bytes differ between --threads 1 and --threads 2")
    return {"problems": problems, "failed_per_round": failed_per_round, "errors_per_round": errors_per_round,
            "worst_rel": worst}


def _hypstar():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hypstar import certificates, cli

    return certificates, cli


def _lmn_worst(spec: dict, seed: int) -> float:
    import random

    import checks

    rng = random.Random(seed)
    certificates, _ = _hypstar()
    coords = checks.expected_coords(spec)
    worst = 0.0
    for xy in rng.sample(coords, LMN_SAMPLE_ROWS):
        point = checks.row_point(spec, xy)
        lmn = certificates.starlike_order_lmn(point["a"], point["b"], point["c"], point["alpha"])
        worst = max(worst, checks.lmn_error(point, lmn))
    return worst


def _threads_agree(specs: list[dict], out_dir: str) -> list[str]:
    """The scans, cut to their first three values of the slowest axis, give
    the same CSV bytes at --threads 1 and --threads 2."""
    _, cli = _hypstar()
    problems = []
    for i, spec in enumerate(specs):
        small = json.loads(json.dumps(spec))
        axis = small["varying"][0]
        axis["to"] = axis["from"] + 2 * (axis["to"] - axis["from"]) / (axis["steps"] - 1)
        axis["steps"] = 3
        parsed = cli.parse_scan_spec(small)
        texts = []
        for threads in (1, 2):
            path = os.path.join(out_dir, f"threads-{i}-{threads}.csv")
            cli.run_scan(parsed, path, threads=threads)
            with open(path, "rb") as fh:
                texts.append(fh.read())
        if texts[0] != texts[1]:
            problems.append(f"scan {spec['certificate']}: CSV bytes differ between --threads 1 and --threads 2")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out_dir = os.path.join(OUT_ROOT, f"{workload}-{seed}-{trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    base = ["--workload", workload, "--seed", str(seed), "--out", out_dir]

    def probe() -> dict:
        proc = _worker(base + ["--setup-only"], timeout=60)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # start-only probes before and after the measuring worker, so that the
    # median of the set-up times spans the whole run
    setups = [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    _worker(base + ["--seconds", str(seconds), "--trace", str(trace)], timeout=WORKER_TIMEOUT_S)
    setups += [probe() for _ in range(SETUP_PROBES // 2)]
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    setups.append(result)

    verdict = check_outputs(workload, seed, result, out_dir)
    for problem in verdict["problems"]:
        print(f"CHECK FAILED {workload}: {problem}", file=sys.stderr)
    rounds = result["rounds"]
    attempted = result["ops"]
    failed = verdict["failed_per_round"] * rounds

    if trace:
        import tracing

        metrics = dict(result["layers"])
        threads2 = result.get("threads2_ops_per_s", 0.0)
        metrics["cli.scan.threads2_ops_per_s"] = threads2
        metrics["cli.scan.threads2_speedup"] = threads2 / result["traced_ops_per_s"] if threads2 else 0.0
        units = dict(tracing.PER_LAYER)
        print(f"{workload}: traced ops_per_s {result['traced_ops_per_s']:.6g} 1/s over {rounds} rounds")
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "ops_per_s": result["ops_per_s"] * (1 - verdict["errors_per_round"] * rounds / attempted),
            "peak_rss_mb": result["peak_rss_mb"],
            "digits": _digits(verdict["worst_rel"]),
        }
        units = END_TO_END_UNITS
        print(f"{workload}: wall-clock ops_per_s {result['wall_ops_per_s']:.6g} 1/s, "
              f"setup_s {statistics.median(p['wall_setup_s'] for p in setups):.6g} s "
              f"(before the host-speed correction), over {rounds} rounds")
    for name, value in metrics.items():
        print(f"{workload}: {name} {value:.6g} {units[name]}")
    print(f"{workload}: attempted {attempted}, failed {failed}, rounds {rounds}, "
          f"correct {not verdict['problems']}")
    return {
        "correct": not verdict["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of hypstar")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hypstar", "__init__.py")):
        print(f"no hypstar source tree under {ROOT}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
