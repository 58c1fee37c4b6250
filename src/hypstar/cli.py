"""Command-line surface: eval | certify | verify | crosscheck | scan.

Machine output (JSON, CSV) goes to stdout; logs go to stderr.  Complex flags
take "re,im" pairs; angles are radians; all decimals use '.'.

Exit codes: 0 success / certificate passed / report Consistent / crosscheck
SOUND-or-INFO; 1 certificate failed or report Violated; 2 invalid inputs or
Degenerate report; 3 evaluation error or Incomplete report; 4 crosscheck
UNSOUND.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .certificates import (
    BoundaryGridSettings,
    Certificate,
    certify_convexity,
    certify_cor_a2,
    certify_general,
    certify_spirallike,
    certify_spirallike_cor1,
    certify_spirallike_cor2,
    certify_sst_cor_final,
    certify_sst_cor_max,
    certify_sst_cor_p0,
    certify_starlike_order,
    certify_strong_starlike,
    certify_theorem_A,
)
from .errors import (
    InvalidC,
    InvalidParams,
    NoConvergence,
    NonFinite,
    PrecondFailed,
    RadiusExceeded,
    ZeroOfF,
)
from .hypergeom import (
    HypergeomParams,
    SeriesSettings,
    gauss_2f1,
    gauss_2f1_derivative,
    log_derivative_q,
    shifted_f,
)
from .oracles import LineSearchSettings
from .shapes import ShapeClass, SpirallikeOrder, StarlikeOrder, StronglyStarlike
from .verifier import (
    CONSISTENT,
    INCOMPLETE,
    UNSOUND,
    VIOLATED,
    DiskGridSettings,
    cross_check,
    verify_on_disk,
)

log = logging.getLogger("hypstar")

THEOREM_KINDS = (
    "starlike-order",
    "cor-a2",
    "spirallike",
    "spirallike-cor1",
    "spirallike-cor2",
    "strong-starlike",
    "sst-cor-p0",
    "sst-cor-max",
    "sst-cor-final",
    "theorem-a",
    "general",
    "convexity",
)

CLASS_KINDS = ("starlike", "strongly-starlike", "spirallike")

SCAN_SYMBOLS = ("a_re", "a_im", "b_re", "b_im", "c_re", "c_im", "alpha", "lambda")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _fmt_complex(v: complex) -> str:
    return f"{v.real:.15g}{v.imag:+.15g}j"


def _series_settings(args) -> SeriesSettings:
    return SeriesSettings(tol=args.series_tol, max_terms=args.max_terms, radius_cap=args.radius_cap)


def _grid_settings(args) -> DiskGridSettings:
    return DiskGridSettings(
        n_radii=args.n_radii, r_max=args.r_max, n_angles=args.n_angles, radial_spacing=args.radial_spacing
    )


def _line_search(args) -> LineSearchSettings:
    return LineSearchSettings(
        s_min=args.ls_s_min,
        s_max=args.ls_s_max,
        n_log_points=args.ls_points,
        refine_iters=args.ls_refine_iters,
        min_margin=args.ls_min_margin,
    )


def _boundary_settings(args) -> BoundaryGridSettings:
    return BoundaryGridSettings(n_points=args.boundary_points, theta_min=args.theta_min)


def build_shape_class(kind: str, alpha: float, lam: float) -> ShapeClass:
    if kind == "starlike":
        return StarlikeOrder(alpha)
    if kind == "strongly-starlike":
        return StronglyStarlike(alpha)
    if kind == "spirallike":
        return SpirallikeOrder(lam, alpha)
    raise InvalidParams(f"unknown class kind {kind!r}")


def _require_real(name: str, v: complex) -> float:
    if abs(v.imag) > 1e-12:
        raise InvalidParams(f"{name} must be real for this checker")
    return v.real


def certify_dispatch(
    kind: str,
    a: complex,
    b: complex,
    c: complex,
    alpha: float,
    lam: float,
    s: float,
    cls: Optional[ShapeClass] = None,
    line_search: LineSearchSettings = LineSearchSettings(),
    boundary: BoundaryGridSettings = BoundaryGridSettings(),
    relaxed: bool = False,
) -> Certificate:
    if kind == "starlike-order":
        return certify_starlike_order(HypergeomParams(a, b, c), alpha)
    if kind == "cor-a2":
        return certify_cor_a2(_require_real("a", a), _require_real("b", b), _require_real("c", c), s)
    if kind == "spirallike":
        return certify_spirallike(a, b, lam, alpha)
    if kind == "spirallike-cor1":
        return certify_spirallike_cor1(a, b, lam, alpha)
    if kind == "spirallike-cor2":
        return certify_spirallike_cor2(a, b, lam, alpha)
    if kind == "strong-starlike":
        return certify_strong_starlike(HypergeomParams(a, b, c), alpha, line_search)
    if kind == "sst-cor-p0":
        return certify_sst_cor_p0(a, b, alpha, line_search)
    if kind == "sst-cor-max":
        return certify_sst_cor_max(a, b, alpha)
    if kind == "sst-cor-final":
        return certify_sst_cor_final(a, b, alpha)
    if kind == "theorem-a":
        return certify_theorem_A(a, b, alpha)
    if kind == "general":
        if cls is None:
            raise InvalidParams("--class is required for the general boundary-grid checker")
        return certify_general(cls, HypergeomParams(a, b, c), boundary, relaxed)
    if kind == "convexity":
        if cls is None:
            raise InvalidParams("--class is required for the convexity wrapper")
        return certify_convexity(cls, HypergeomParams(a, b, c))
    raise InvalidParams(f"unknown theorem kind {kind!r}")


def cmd_eval(args) -> int:
    settings = _series_settings(args)
    params = HypergeomParams(args.a, args.b, args.c)
    F = gauss_2f1(params, args.z, settings)
    Fp = gauss_2f1_derivative(params, args.z, settings)
    f = shifted_f(params, args.z, settings)
    q = log_derivative_q(params, args.z, settings)
    if args.json:
        print(json.dumps({
            "F": [F.real, F.imag],
            "F_prime": [Fp.real, Fp.imag],
            "f": [f.real, f.imag],
            "q": [q.real, q.imag],
        }, indent=2))
    else:
        print(f"F  = {_fmt_complex(F)}")
        print(f"F' = {_fmt_complex(Fp)}")
        print(f"f  = {_fmt_complex(f)}")
        print(f"q  = {_fmt_complex(q)}")
    return 0


def cmd_certify(args) -> int:
    cls = None
    if args.cls is not None:
        cls = build_shape_class(args.cls, args.alpha, args.lam)
    cert = certify_dispatch(
        args.theorem,
        args.a,
        args.b,
        args.c,
        args.alpha,
        args.lam,
        args.s,
        cls=cls,
        line_search=_line_search(args),
        boundary=_boundary_settings(args),
        relaxed=args.relaxed,
    )
    print(json.dumps(cert.to_json(), indent=2))
    return 0 if cert.passed else 1


def cmd_verify(args) -> int:
    cls = build_shape_class(args.cls, args.alpha, args.lam)
    params = HypergeomParams(args.a, args.b, args.c)
    report = verify_on_disk(cls, params, _grid_settings(args), _series_settings(args))
    print(json.dumps(report.to_json(), indent=2))
    if report.status == CONSISTENT:
        return 0
    if report.status == VIOLATED:
        return 1
    if report.status == INCOMPLETE:
        return 3
    return 2


def cmd_crosscheck(args) -> int:
    cls = None
    if args.cls is not None:
        cls = build_shape_class(args.cls, args.alpha, args.lam)
    cert = certify_dispatch(
        args.theorem,
        args.a,
        args.b,
        args.c,
        args.alpha,
        args.lam,
        args.s,
        cls=cls,
        line_search=_line_search(args),
        boundary=_boundary_settings(args),
        relaxed=args.relaxed,
    )
    result = cross_check(cert.shape_class, cert.params, cert, _grid_settings(args), _series_settings(args))
    print(json.dumps(result.to_json(), indent=2))
    return 4 if result.verdict == UNSOUND else 0


@dataclass(frozen=True)
class ScanAxis:
    symbol: str
    start: float
    stop: float
    steps: int

    def values(self) -> list[float]:
        step = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * step for i in range(self.steps)]


@dataclass
class ScanSpec:
    axes: list[ScanAxis]
    fixed: dict
    class_spec: Optional[dict]
    certificate_kind: str
    verify: bool
    grid: DiskGridSettings
    series: SeriesSettings
    line_search: LineSearchSettings
    boundary: BoundaryGridSettings


def parse_scan_spec(data: dict) -> ScanSpec:
    if not isinstance(data, dict):
        raise InvalidParams("scan spec must be a JSON object")
    varying = data.get("varying")
    if not isinstance(varying, list) or not 1 <= len(varying) <= 3:
        raise InvalidParams("'varying' must list between 1 and 3 axes")
    axes = []
    for entry in varying:
        symbol = entry.get("symbol")
        if symbol not in SCAN_SYMBOLS:
            raise InvalidParams(f"unknown scan symbol {symbol!r}; use one of {SCAN_SYMBOLS}")
        steps = int(entry.get("steps", 0))
        if steps < 2:
            raise InvalidParams("each axis needs steps >= 2")
        axes.append(ScanAxis(symbol, float(entry["from"]), float(entry["to"]), steps))
    total = 1
    for ax in axes:
        total *= ax.steps
    if total > 10_000_000:
        raise InvalidParams(f"scan would produce {total} points; the limit is 10^7")
    fixed = data.get("fixed", {})
    if not isinstance(fixed, dict):
        raise InvalidParams("'fixed' must be a JSON object")
    for key in fixed:
        if key not in SCAN_SYMBOLS and key != "s":
            raise InvalidParams(f"unknown fixed symbol {key!r}")
    kind = data.get("certificate")
    if kind not in THEOREM_KINDS:
        raise InvalidParams(f"'certificate' must be one of {THEOREM_KINDS}")
    grid = DiskGridSettings(**data.get("grid", {}))
    series = SeriesSettings(**data.get("series", {}))
    if grid.r_max > series.radius_cap:
        raise InvalidParams(f"grid r_max = {grid.r_max} exceeds the series radius_cap = {series.radius_cap}")
    line_search = LineSearchSettings(**data.get("line_search", {}))
    boundary = BoundaryGridSettings(**data.get("boundary", {}))
    return ScanSpec(
        axes=axes,
        fixed=dict(fixed),
        class_spec=data.get("class"),
        certificate_kind=kind,
        verify=bool(data.get("verify", False)),
        grid=grid,
        series=series,
        line_search=line_search,
        boundary=boundary,
    )


_POINT_DEFAULTS = {s: 0.0 for s in SCAN_SYMBOLS}


def _scan_class(spec: ScanSpec, point: dict) -> Optional[ShapeClass]:
    if spec.class_spec is None:
        return None
    kind = spec.class_spec.get("kind")
    alpha = float(spec.class_spec.get("alpha", point["alpha"]))
    lam = float(spec.class_spec.get("lambda", point["lambda"]))
    return build_shape_class(kind, alpha, lam)


def _scan_row(spec: ScanSpec, coords: tuple) -> list[str]:
    point = dict(_POINT_DEFAULTS)
    point.update(spec.fixed)
    for ax, value in zip(spec.axes, coords):
        point[ax.symbol] = value
    a = complex(point["a_re"], point["a_im"])
    b = complex(point["b_re"], point["b_im"])
    c = complex(point["c_re"], point["c_im"])
    cert: Optional[Certificate] = None
    try:
        cert = certify_dispatch(
            spec.certificate_kind,
            a,
            b,
            c,
            float(point["alpha"]),
            float(point["lambda"]),
            float(point.get("s", spec.fixed.get("s", 0.0))),
            cls=_scan_class(spec, point),
            line_search=spec.line_search,
            boundary=spec.boundary,
        )
        passed = cert.passed
        failed = cert.failed_condition()
    except (InvalidC, InvalidParams, PrecondFailed, ValueError) as exc:
        passed = False
        failed = f"invalid: {exc}"
    min_slack = ""
    status = ""
    if spec.verify:
        if cert is not None:
            report = verify_on_disk(cert.shape_class, cert.params, spec.grid, spec.series)
            min_slack = _fmt(report.min_slack)
            status = report.status
        else:
            status = "Invalid"
    return [*(_fmt(v) for v in coords), "true" if passed else "false", failed, min_slack, status]


def run_scan(spec: ScanSpec, out_path: str, threads: int = 1) -> dict:
    """Compute every grid point (row-major over the axes, first axis slowest)
    and write the CSV.  Row order and bytes are independent of the thread
    count; workers only shorten the wall time."""
    points = list(itertools.product(*(ax.values() for ax in spec.axes)))
    if threads > 1:
        chunk = max(1, len(points) // (threads * 8))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda pt: _scan_row(spec, pt), points, chunksize=chunk))
    else:
        rows = [_scan_row(spec, pt) for pt in points]
    header = [ax.symbol for ax in spec.axes] + ["certificate_passed", "failed_condition", "min_slack", "status"]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    n_pass = sum(1 for row in rows if row[len(spec.axes)] == "true")
    n_viol = sum(1 for row in rows if row[-1] == VIOLATED)
    return {
        "points": len(points),
        "certified": n_pass,
        "failed": len(points) - n_pass,
        "verifier_violations": n_viol,
        "out": out_path,
    }


def cmd_scan(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        log.error("cannot read scan spec: %s", exc)
        return 2
    spec = parse_scan_spec(data)
    summary = run_scan(spec, args.out, threads=args.threads)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"scan: {summary['points']} points, {summary['certified']} certified, "
            f"{summary['failed']} failed, {summary['verifier_violations']} verifier violations -> {summary['out']}"
        )
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--series-tol", type=float, default=1e-15, help="relative series truncation tolerance")
    parser.add_argument("--max-terms", type=int, default=200_000, help="series term budget")
    parser.add_argument("--radius-cap", type=float, default=0.995, help="largest |z| the series will accept")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for scans")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout; logs stay on stderr")


def _add_params(parser: argparse.ArgumentParser, with_z: bool = False) -> None:
    parser.add_argument("--a", type=_parse_complex, required=True, metavar="RE,IM")
    parser.add_argument("--b", type=_parse_complex, required=True, metavar="RE,IM")
    parser.add_argument("--c", type=_parse_complex, default=0j, metavar="RE,IM",
                        help="ignored by checkers that pin c = a+b+1")
    if with_z:
        parser.add_argument("--z", type=_parse_complex, required=True, metavar="RE,IM")


def _add_class_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--class", dest="cls", choices=CLASS_KINDS, required=required, default=None)
    parser.add_argument("--alpha", type=float, default=0.0, help="order parameter")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.0, help="spiral angle in radians")


def _add_certify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theorem", choices=THEOREM_KINDS, required=True)
    _add_params(parser)
    _add_class_flags(parser, required=False)
    parser.add_argument("--s", type=float, default=0.0, help="imaginary shift for the cor-a2 family")
    parser.add_argument("--relaxed", action="store_true", help="weaken D > 0 to D >= 0 where A != B (general only)")
    parser.add_argument("--boundary-points", type=int, default=2000)
    parser.add_argument("--theta-min", type=float, default=1e-4)
    parser.add_argument("--ls-s-min", type=float, default=1e-8)
    parser.add_argument("--ls-s-max", type=float, default=1e8)
    parser.add_argument("--ls-points", type=int, default=2000)
    parser.add_argument("--ls-refine-iters", type=int, default=60)
    parser.add_argument("--ls-min-margin", type=float, default=1e-9)


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-radii", type=int, default=40)
    parser.add_argument("--r-max", type=float, default=0.995)
    parser.add_argument("--n-angles", type=int, default=720)
    parser.add_argument("--radial-spacing", choices=("uniform", "geometric-toward-boundary"),
                        default="geometric-toward-boundary")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypstar",
        description="Certificates and numerical verification for geometric properties of z*2F1(a,b;c;z)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate F, F', f and q at a point")
    _add_params(p_eval, with_z=True)
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_cert = sub.add_parser("certify", help="run one closed-form or grid checker")
    _add_certify_flags(p_cert)
    _add_common(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_verify = sub.add_parser("verify", help="disk-grid verification of a class membership")
    _add_params(p_verify)
    _add_class_flags(p_verify, required=True)
    _add_grid_flags(p_verify)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_cross = sub.add_parser("crosscheck", help="certificate plus disk verification, with a soundness verdict")
    _add_certify_flags(p_cross)
    _add_grid_flags(p_cross)
    _add_common(p_cross)
    p_cross.set_defaults(func=cmd_crosscheck)

    p_scan = sub.add_parser("scan", help="parameter-region scan to CSV")
    p_scan.add_argument("--spec", required=True, help="path to a ScanSpec JSON file")
    p_scan.add_argument("--out", required=True, help="output CSV path")
    _add_common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    return parser


_COMPLEX_FLAGS = {"--a", "--b", "--c", "--z"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes "-2,0" for a flag; fold it into "--c=-2,0" form
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _COMPLEX_FLAGS and len(nxt) > 1 and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] == "."):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except (InvalidC, InvalidParams, PrecondFailed, ValueError) as exc:
        log.error("%s", exc)
        return 2
    except (RadiusExceeded, NoConvergence, ZeroOfF, NonFinite) as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
