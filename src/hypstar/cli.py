"""Command-line surface: eval | certify | verify | crosscheck | scan.

Machine output (JSON, CSV) goes to stdout; logs go to stderr.  Complex flags
take "re,im" pairs; angles are radians; all decimals use '.'.

Exit codes: 0 success / certificate passed / report Consistent / crosscheck
SOUND-or-INFO; 1 certificate failed or report Violated; 2 invalid inputs or
Degenerate report; 3 evaluation error or Incomplete report; 4 crosscheck
UNSOUND.

`certify`, `crosscheck` and `scan` hold no per-kind wiring: each builds a
`certificates.Rows` (one row, or a scan chunk) and calls the kind's checker
from `certificates.CHECKERS`.  Only the kinds in `CLASS_KINDS` get the
class family, with the class's alpha and lambda as the rows' alpha and lam.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional, get_type_hints

import numpy as np

from .certificates import CHECKERS, CLASS_KINDS, Certificate, Rows, render_value

# the certify_* checkers are not called here; they stay importable from this
# module because perfbench/tracing.py wraps cli.certify_*
from .certificates import (  # noqa: F401
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
from .shapes import ShapeClass, SpirallikeOrder, StarlikeOrder, StronglyStarlike, shape_of
from .verifier import (
    CONSISTENT,
    INCOMPLETE,
    UNSOUND,
    VIOLATED,
    DiskGridSettings,
    cross_check,
    verify_on_disk,
    verify_rows,
)

log = logging.getLogger("hypstar")

SCAN_SYMBOLS = ("a_re", "a_im", "b_re", "b_im", "c_re", "c_im", "alpha", "lambda")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            re_im = [float(part) for part in parts]
            if all(map(math.isfinite, re_im)):
                return complex(*re_im)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're,im' with finite parts, got {text!r}")


# the flag of each settings field; a settings type's flags are added in its field order
SETTINGS_FLAGS = {
    "tol": "--series-tol", "max_terms": "--max-terms", "radius_cap": "--radius-cap",
    "n_radii": "--n-radii", "r_max": "--r-max", "n_angles": "--n-angles", "radial_spacing": "--radial-spacing",
    "s_min": "--ls-s-min", "s_max": "--ls-s-max", "n_log_points": "--ls-points",
    "refine_iters": "--ls-refine-iters", "min_margin": "--ls-min-margin",
}
_SETTINGS_HELP = {"tol": "relative series truncation tolerance", "max_terms": "series term budget",
                  "radius_cap": "largest |z| the series will accept"}


def _settings(args, settings_cls):
    """settings_cls built from the flags that _add_settings_flags added for it,
    each read under the dest that argparse derives from the flag's name."""
    return settings_cls(**{f.name: getattr(args, SETTINGS_FLAGS[f.name][2:].replace("-", "_"))
                           for f in fields(settings_cls)})


def _check_radius(grid: DiskGridSettings, series: SeriesSettings) -> None:
    """Refuse a disk grid that reaches past the series' radius cap, before any row runs."""
    if grid.r_max > series.radius_cap:
        raise InvalidParams(f"grid r_max = {grid.r_max} exceeds the series radius_cap = {series.radius_cap}")


# --class name -> the family of its ShapeClass
SHAPE_CLASSES = {"starlike": StarlikeOrder, "strongly-starlike": StronglyStarlike, "spirallike": SpirallikeOrder}


def build_shape_class(kind: str, alpha: float, lam: float) -> ShapeClass:
    if kind not in SHAPE_CLASSES:
        raise InvalidParams(f"unknown class kind {kind!r}")
    return shape_of(SHAPE_CLASSES[kind], alpha, lam)


def cmd_eval(args) -> int:
    settings = _settings(args, SeriesSettings)
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
        print(f"F  = {render_value(F)}")
        print(f"F' = {render_value(Fp)}")
        print(f"f  = {render_value(f)}")
        print(f"q  = {render_value(q)}")
    return 0


def _certificate(args) -> Certificate:
    """The certificate that `certify` and `crosscheck` both start from: row 0
    of the kind's checker on a one-row Rows.  As in a scan, only the kinds
    in CLASS_KINDS read --class, at --alpha and --lambda, and their checker
    refuses a bad one."""
    family = None
    if args.theorem in CLASS_KINDS:
        if args.cls is None:
            raise InvalidParams(f"--class is required for the {args.theorem} checker")
        family = SHAPE_CLASSES[args.cls]
    rows = Rows(args.a, args.b, args.c, args.alpha, args.lam, args.s, family, _settings(args, LineSearchSettings))
    return CHECKERS[args.theorem](rows).certificate(0)


def cmd_certify(args) -> int:
    cert = _certificate(args)
    print(json.dumps(cert.to_json(), indent=2))
    return 0 if cert.passed else 1


def cmd_verify(args) -> int:
    grid, series = _settings(args, DiskGridSettings), _settings(args, SeriesSettings)
    _check_radius(grid, series)
    cls = build_shape_class(args.cls, args.alpha, args.lam)
    params = HypergeomParams(args.a, args.b, args.c)
    report = verify_on_disk(cls, params, grid, series)
    print(json.dumps(report.to_json(), indent=2))
    return {CONSISTENT: 0, VIOLATED: 1, INCOMPLETE: 3}.get(report.status, 2)  # Degenerate exits 2


def cmd_crosscheck(args) -> int:
    grid, series = _settings(args, DiskGridSettings), _settings(args, SeriesSettings)
    _check_radius(grid, series)
    cert = _certificate(args)
    result = cross_check(cert.shape_class, cert.params, cert, grid, series)
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


# the top-level keys a scan spec may hold; any other key is refused
SPEC_KEYS = ("varying", "fixed", "certificate", "class", "verify", "grid", "series", "line_search")


def parse_scan_spec(data: dict) -> ScanSpec:
    if not isinstance(data, dict):
        raise InvalidParams("scan spec must be a JSON object")
    unknown = sorted(data.keys() - set(SPEC_KEYS))
    if unknown:
        raise InvalidParams(f"unknown scan spec keys {unknown}; use keys among {SPEC_KEYS}")
    varying = data.get("varying")
    if not isinstance(varying, list) or not 1 <= len(varying) <= 3:
        raise InvalidParams("'varying' must list between 1 and 3 axes")
    axes = []
    for entry in varying:
        if not isinstance(entry, dict) or not {"symbol", "from", "to"} <= entry.keys():
            raise InvalidParams("each 'varying' axis must be an object with 'symbol', 'from' and 'to'")
        symbol = entry["symbol"]
        if symbol not in SCAN_SYMBOLS:
            raise InvalidParams(f"unknown scan symbol {symbol!r}; use one of {SCAN_SYMBOLS}")
        steps = entry.get("steps", 0)
        if not _json_is(steps, "int") or steps < 2:
            raise InvalidParams("each axis needs an integer 'steps' >= 2")
        if not (_json_is(entry["from"], "float") and _json_is(entry["to"], "float")):
            raise InvalidParams(f"axis {symbol!r}: 'from' and 'to' must be finite numbers")
        axes.append(ScanAxis(symbol, float(entry["from"]), float(entry["to"]), steps))
    total = math.prod(ax.steps for ax in axes)
    if total > 10_000_000:
        raise InvalidParams(f"scan would produce {total} points; the limit is 10^7")
    fixed = data.get("fixed", {})
    if not isinstance(fixed, dict):
        raise InvalidParams("'fixed' must be a JSON object")
    for key, value in fixed.items():
        if key not in SCAN_SYMBOLS and key != "s":
            raise InvalidParams(f"unknown fixed symbol {key!r}")
        if not _json_is(value, "float"):
            raise InvalidParams(f"fixed {key!r} must be a finite number")
    kind = data.get("certificate")
    if kind not in CHECKERS:
        raise InvalidParams(f"'certificate' must be one of {tuple(CHECKERS)}")
    class_spec = data.get("class")
    if kind in CLASS_KINDS and (
        not isinstance(class_spec, dict) or class_spec.get("kind") not in SHAPE_CLASSES
    ):
        raise InvalidParams(f"the {kind} certificate needs a 'class' whose 'kind' is one of {tuple(SHAPE_CLASSES)}")
    if kind in CLASS_KINDS and not all(_json_is(class_spec.get(k, 0.0), "float") for k in ("alpha", "lambda")):
        raise InvalidParams("the class's 'alpha' and 'lambda' must be finite numbers")
    verify = data.get("verify", False)
    if not isinstance(verify, bool):
        raise InvalidParams("'verify' must be true or false")
    grid = _spec_settings(data, "grid", DiskGridSettings)
    series = _spec_settings(data, "series", SeriesSettings)
    _check_radius(grid, series)
    return ScanSpec(
        axes=axes,
        fixed=dict(fixed),
        class_spec=class_spec,
        certificate_kind=kind,
        verify=verify,
        grid=grid,
        series=series,
        line_search=_spec_settings(data, "line_search", LineSearchSettings),
    )


def _spec_settings(data: dict, key: str, settings_cls):
    """settings_cls built from the spec's optional `key` object, whose keys
    must be its fields and whose values must have the JSON type of each field
    (a finite number, for a number)."""
    value = data.get(key, {})
    types = {f.name: f.type for f in fields(settings_cls)}
    if not isinstance(value, dict) or not value.keys() <= types.keys():
        raise InvalidParams(f"'{key}' must be a JSON object with keys among {sorted(types)}")
    for name, v in value.items():
        if not _json_is(v, types[name]):
            raise InvalidParams(f"'{key}': {name} must be of type {types[name]}, got {v!r}")
    return settings_cls(**value)


# JSON values that each annotated settings type accepts: an int is a float too
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def _json_is(value, annotation: str) -> bool:
    """True when a JSON value fits a field annotated int, float or str; true
    and false fit none, and NaN and the infinities fit no number."""
    if not isinstance(value, _JSON_TYPES[annotation]) or isinstance(value, bool):
        return False
    return annotation != "float" or math.isfinite(value)


# rows checked together and written before the next chunk starts
SCAN_CHUNK_ROWS = 4096


class _ScanGrid:
    """Row-major enumeration of the scan points (first axis slowest)."""

    def __init__(self, spec: ScanSpec):
        self.spec = spec
        self.axes = spec.axes
        self.values = [np.array(ax.values()) for ax in spec.axes]
        self.labels = [np.array([render_value(v) + "," for v in ax.values()], dtype=object) for ax in spec.axes]
        self.strides = [int(np.prod([ax.steps for ax in spec.axes[k + 1:]])) for k in range(len(spec.axes))]
        self.size = int(np.prod([ax.steps for ax in spec.axes]))
        self.fixed = {sym: float(spec.fixed.get(sym, 0.0)) for sym in SCAN_SYMBOLS}

    def axis_indices(self, start: int, stop: int) -> list[np.ndarray]:
        rows = np.arange(start, stop)
        return [(rows // stride) % ax.steps for ax, stride in zip(self.axes, self.strides)]

    def rows(self, indices: list[np.ndarray]) -> Rows:
        """The rows at these axis indices; a fixed symbol stays one number for
        every row.  For the kinds in CLASS_KINDS, the spec's class family, at
        its own alpha and lambda where it gives them and at each row's otherwise."""
        point = dict(self.fixed)
        for ax, values, idx in zip(self.axes, self.values, indices):
            point[ax.symbol] = values[idx]
        a, b, c = (np.empty(len(indices[0]), dtype=complex) for _ in "abc")
        for z, name in zip((a, b, c), "abc"):
            z.real, z.imag = point[f"{name}_re"], point[f"{name}_im"]
        spec, alpha, lam, family = self.spec, point["alpha"], point["lambda"], None
        if spec.certificate_kind in CLASS_KINDS:
            family = SHAPE_CLASSES[spec.class_spec["kind"]]
            alpha, lam = spec.class_spec.get("alpha", alpha), spec.class_spec.get("lambda", lam)
        return Rows(a, b, c, alpha, lam, spec.fixed.get("s", 0.0), family, spec.line_search)


def _csv_field(text: str) -> str:
    """text as csv.writer writes it under QUOTE_MINIMAL in a row of several fields ("" stays empty)."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _scan_chunk(spec: ScanSpec, grid: _ScanGrid, start: int, stop: int) -> tuple[str, int, int]:
    """The CSV lines of scan rows start..stop-1, with their numbers of
    certified rows and of verifier violations.

    The text is one join over a (rows, fields) array of strings, filled by
    columns: axis labels carry their comma, and each distinct outcome
    (passed, or the failed condition or refusal) is rendered once with the
    rest of its line and picked per row by index.  A verifying scan verifies
    the rows the checker accepted in one `verify_rows` pass, each with its
    class and (a, b, c) as the checker gives them; a refused row is written
    with status Invalid.
    """
    indices = grid.axis_indices(start, stop)
    batch = CHECKERS[spec.certificate_kind](grid.rows(indices))
    code, names = batch.failed_conditions()
    tail = "," if spec.verify else ",,\r\n"
    outcomes = np.array([f"true,{tail}", *(f"false,{_csv_field(name)}{tail}" for name in names[1:])], dtype=object)
    k = len(grid.axes)
    fields = np.empty((stop - start, k + 3 if spec.verify else k + 1), dtype=object)
    for j, (labels, idx) in enumerate(zip(grid.labels, indices)):
        fields[:, j] = labels[idx]
    fields[:, k] = outcomes[code]
    n_viol = 0
    if spec.verify:
        fields[:, k + 1:] = "", ",Invalid\r\n"  # min_slack, then status and the line end
        accepted = [i for i in range(stop - start) if i not in batch.errors]
        a, b, c = batch.params
        rows = [HypergeomParams(a[i], b[i], c[i]) for i in accepted]
        reports = verify_rows([batch.shape_class(i) for i in accepted], rows, spec.grid, spec.series)
        for i, report in zip(accepted, reports):
            fields[i, k + 1:] = render_value(report.min_slack), f",{report.status}\r\n"
        n_viol = sum(report.status == VIOLATED for report in reports)
    return "".join(fields.ravel().tolist()), int(np.count_nonzero(code == 0)), n_viol


def run_scan(spec: ScanSpec, out_path: str, threads: int = 1) -> dict:
    """Check every grid point (row-major over the axes, first axis slowest)
    and stream the CSV.

    Rows go in chunks of SCAN_CHUNK_ROWS: every kind checks a whole chunk in
    one call of its array checker, and each chunk's CSV text is written in
    one piece before the next chunk's rows are held.  A row the checker
    refuses is written as refused ("invalid: <message>", status Invalid when
    verifying).  Scans run on one thread: `threads` has no effect, and it
    stays only because the benchmark in perfbench/ passes it.
    """
    grid = _ScanGrid(spec)
    header = [ax.symbol for ax in spec.axes] + ["certificate_passed", "failed_condition", "min_slack", "status"]
    n_pass = 0
    n_viol = 0
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, grid.size, SCAN_CHUNK_ROWS):
            text, certified, violations = _scan_chunk(spec, grid, start, min(start + SCAN_CHUNK_ROWS, grid.size))
            fh.write(text)
            n_pass += certified
            n_viol += violations
    return {
        "points": grid.size,
        "certified": n_pass,
        "failed": grid.size - n_pass,
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
    summary = run_scan(spec, args.out)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"scan: {summary['points']} points, {summary['certified']} certified, "
            f"{summary['failed']} failed, {summary['verifier_violations']} verifier violations -> {summary['out']}"
        )
    return 0


def _add_settings_flags(parser: argparse.ArgumentParser, *settings_types) -> None:
    """One flag per field of each settings type, with the field's type, default and choices."""
    for settings_cls in settings_types:
        types = get_type_hints(settings_cls)
        for f in fields(settings_cls):
            parser.add_argument(SETTINGS_FLAGS[f.name], type=types[f.name], default=f.default,
                                choices=f.metadata.get("choices"), help=_SETTINGS_HELP.get(f.name))


def _add_params(parser: argparse.ArgumentParser, with_z: bool = False) -> None:
    parser.add_argument("--a", type=_parse_complex, required=True, metavar="RE,IM")
    parser.add_argument("--b", type=_parse_complex, required=True, metavar="RE,IM")
    parser.add_argument("--c", type=_parse_complex, default=0j, metavar="RE,IM",
                        help="ignored by checkers that pin c = a+b+1")
    if with_z:
        parser.add_argument("--z", type=_parse_complex, required=True, metavar="RE,IM")


def _add_class_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--class", dest="cls", choices=tuple(SHAPE_CLASSES), required=required, default=None)
    parser.add_argument("--alpha", type=float, default=0.0, help="order parameter")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.0, help="spiral angle in radians")


def _add_certify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theorem", choices=tuple(CHECKERS), required=True)
    _add_params(parser)
    _add_class_flags(parser, required=False)
    parser.add_argument("--s", type=float, default=0.0, help="imaginary shift for the cor-a2 family")
    _add_settings_flags(parser, LineSearchSettings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypstar",
        description="Certificates and numerical verification for geometric properties of z*2F1(a,b;c;z)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate F, F', f and q at a point")
    _add_params(p_eval, with_z=True)
    # the series flags are not on certify, which sums no series, nor on scan,
    # which takes its series settings from the spec
    _add_settings_flags(p_eval, SeriesSettings)
    # --json only where it changes stdout: certify, verify and crosscheck always print JSON
    p_eval.add_argument("--json", action="store_true", help="machine-readable stdout; logs stay on stderr")
    p_eval.set_defaults(func=cmd_eval)

    p_cert = sub.add_parser("certify", help="run one certificate checker")
    _add_certify_flags(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_verify = sub.add_parser("verify", help="disk-grid verification of a class membership")
    _add_params(p_verify)
    _add_class_flags(p_verify, required=True)
    _add_settings_flags(p_verify, DiskGridSettings, SeriesSettings)
    p_verify.set_defaults(func=cmd_verify)

    p_cross = sub.add_parser("crosscheck", help="certificate plus disk verification, with a soundness verdict")
    _add_certify_flags(p_cross)
    _add_settings_flags(p_cross, DiskGridSettings, SeriesSettings)
    p_cross.set_defaults(func=cmd_crosscheck)

    p_scan = sub.add_parser("scan", help="parameter-region scan to CSV")
    p_scan.add_argument("--spec", required=True, help="path to a ScanSpec JSON file")
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.add_argument("--json", action="store_true", help="machine-readable stdout; logs stay on stderr")
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
    except (RadiusExceeded, NoConvergence, ZeroOfF, NonFinite, ArithmeticError) as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
