"""Command-line interface: synth, classify, verify, convert.

Exit codes: 0 success, 1 verification failure, 2 input error (a file that does
not parse, non-finite coefficients or exact ones beyond float range included,
a curve whose surface cannot be compiled, or a curve too large for float
evaluation on the domain), 3 invalid arguments (domain, probe, resolution,
suite or mode names; non-finite domain bounds and probes included).

Float limit of synth, classify and verify: B = 2 c (d + 1) d^2 r^d <= 1e75, with
c = max(1, largest |coefficient component|), d >= 1 the degree and
r = max(1, max|u| + max|v|) over the domain.  B bounds |F|, |G| and their
first two derivatives, and no computed value is a product of more than four
of those, so B^4 fits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import conversions, io, residuals, singularities
from .surfaces import Domain, InvalidDomain, compile_surface, sample_grid

SUITES = ("duality", "two_form", "conformal", "monge_ampere", "lift", "ccr")
CORRUPTIONS = ("negate-n1", "negate-n2", "scale-phi", "flip-q")
CONVERT_MODES = ("cls", "cortes", "blaschke", "blaschke-inverse")


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract: bad flags exit 3, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def _fail(code, message):
    sys.stderr.write(message.rstrip() + "\n")
    return code


def _parse_res(text):
    parts = str(text).split(",")
    if len(parts) == 1:
        parts = [parts[0], parts[0]]
    if len(parts) != 2:
        raise InvalidDomain(f"resolution must be N or NU,NV, got {text!r}")
    try:
        nu, nv = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InvalidDomain(f"resolution must be integer, got {text!r}") from exc
    return nu, nv


def _parse_probe(text):
    parts = str(text).split(",")
    if len(parts) != 2:
        raise InvalidDomain(f"probe must be u,v, got {text!r}")
    try:
        p = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InvalidDomain(f"probe must be numeric, got {text!r}") from exc
    if not all(map(math.isfinite, p)):
        raise InvalidDomain(f"probe must be finite, got {text!r}")
    return p


def _compile(curve, domain):
    """Compiled surface of the curve; a curve that cannot compile, or that breaks
    the float limit on the domain (module docstring), is an input error."""
    d = max(curve.F.degree, curve.G.degree, 1)
    r = max(1.0, max(abs(domain.u0), abs(domain.u1)) + max(abs(domain.v0), abs(domain.v1)))
    log_bound = math.log10(2 * (d + 1) * d * d) + math.log10(curve.coeff_scale) + d * math.log10(r)
    if log_bound > 75:
        raise io.CurveParseError(
            f"curve too large for float evaluation on this domain: "
            f"field bound 1e{log_bound:.0f} exceeds 1e75"
        )
    try:
        return compile_surface(curve)
    except ValueError as exc:
        raise io.CurveParseError(f"cannot compile the surface: {exc}") from exc


def _emit(obj, out_path):
    if out_path:
        io.write_json_report(obj, out_path)
    else:
        json.dump(obj, sys.stdout, indent=2, default=io._coerce_json)
        sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="affsphere", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--curve", required=True, help="curve JSON file")
        p.add_argument("--domain", default="-1,1,-1,1", help="u0,u1,v0,v1")
        p.add_argument("--res", default="256", help="grid resolution N or NU,NV")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_synth = sub.add_parser("synth", help="sample a surface mesh")
    common(p_synth)
    p_synth.add_argument("--format", choices=("obj", "csv", "json"), default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_classify = sub.add_parser("classify", help="trace and classify singularities")
    common(p_classify)
    p_classify.add_argument(
        "--probe", action="append", default=[], help="extra probe point u,v (repeatable)"
    )
    p_classify.set_defaults(func=cmd_classify)

    p_verify = sub.add_parser("verify", help="run identity residual suites")
    common(p_verify)
    p_verify.add_argument("--suites", default=",".join(SUITES), help="comma-separated suite names")
    p_verify.add_argument(
        "--corrupt", choices=CORRUPTIONS, default=None, help="negative-control corruption"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_convert = sub.add_parser("convert", help="convert between parametrizations")
    p_convert.add_argument("--mode", required=True, choices=CONVERT_MODES)
    p_convert.add_argument("--in", dest="in_file", required=True, help="input file")
    p_convert.add_argument("--out", required=True, help="output file")
    p_convert.set_defaults(func=cmd_convert)
    return parser


def cmd_synth(args) -> int:
    curve = io.load_curve(args.curve)
    domain = Domain.parse(args.domain)
    nu, nv = _parse_res(args.res)
    if not (2 <= nu <= 4096 and 2 <= nv <= 4096):
        raise InvalidDomain(f"resolution {nu}x{nv} outside [2, 4096]")
    fmt = args.format
    if fmt is None:
        if args.out and "." in args.out:
            ext = args.out.rsplit(".", 1)[1].lower()
            fmt = ext if ext in ("obj", "csv", "json") else "json"
        else:
            fmt = "json"
    _compile(curve, domain)
    grid = sample_grid(curve, domain, (nu, nv))
    if args.out:
        io.write_grid(grid, args.out, fmt)
        sys.stderr.write(f"wrote {nu}x{nv} {fmt} grid to {args.out}\n")
    else:
        _emit(io.grid_to_json(grid), None)
    return 0


def cmd_classify(args) -> int:
    curve = io.load_curve(args.curve)
    domain = Domain.parse(args.domain)
    nu, nv = _parse_res(args.res)
    if nu != nv:
        raise InvalidDomain(f"classification grid must be square, got {nu}x{nv}")
    if nu < 16 or nu > 4096:
        raise InvalidDomain(f"classification resolution {nu} outside [16, 4096]")
    _compile(curve, domain)
    probes = [_snap_probe(curve, domain, nu, _parse_probe(p)) for p in args.probe]
    report = singularities.classification_report(curve, domain, grid_res=nu, probes=probes)
    _emit(report, args.out)
    return 0


def _snap_probe(curve, domain, res, p):
    """Pull a probe onto the singular set when it is within half a grid cell."""
    surf = compile_surface(curve)
    cell = 0.5 * float(
        np.hypot(
            (domain.u1 - domain.u0) / max(res - 1, 1),
            (domain.v1 - domain.v0) / max(res - 1, 1),
        )
    )
    tols = singularities.tolerances_for(curve, domain.radius)
    if abs(surf.area_density(*p)) <= tols.sing:
        return p
    (q,), (ok,) = singularities._newton_project_rows(
        surf, np.array([p], dtype=float), np.array([tols.sing]), np.array([cell])
    )
    if ok and np.hypot(q[0] - p[0], q[1] - p[1]) <= cell:
        return float(q[0]), float(q[1])
    return p


def cmd_verify(args) -> int:
    curve = io.load_curve(args.curve)
    domain = Domain.parse(args.domain)
    names = [s.strip() for s in args.suites.split(",") if s.strip()]
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise InvalidDomain(f"unknown suite name(s): {', '.join(unknown)}")

    surf = _compile(curve, domain)
    flip_q = args.corrupt == "flip-q"
    if args.corrupt == "negate-n1":
        surf = surf.with_patched_fields(negate_n1=True)
    elif args.corrupt == "negate-n2":
        surf = surf.with_patched_fields(negate_n2=True)
    elif args.corrupt == "scale-phi":
        surf = surf.with_patched_fields(scale_phi=True)

    rng = np.random.default_rng(12345)
    reports = []
    points = patch = None
    for name in names:
        try:
            if name in ("duality", "two_form", "conformal"):
                if points is None:
                    points = residuals.random_regular_points(curve, 100, rng, domain)
                fn = {
                    "duality": residuals.duality_residual,
                    "two_form": residuals.two_form_residual,
                    "conformal": residuals.metric_conformality,
                }[name]
                reports.append(fn(surf, points))
            elif name in ("monge_ampere", "lift"):
                if patch is None:
                    patch = residuals.regular_graph_patch(curve, domain, res=20)
                if name == "monge_ampere":
                    reports.append(residuals.monge_ampere_residual(surf, patch))
                else:
                    reports.append(residuals.lift_residual(surf, patch, flip_q=flip_q))
            else:
                main, control = residuals.ccr_residual(curve, domain)
                reports.extend([main, control])
        except residuals.PatchNotGraph as exc:
            reports.append(
                residuals.ResidualReport(name, float("inf"), float("inf"), 0, False, 0.0)
            )
            sys.stderr.write(f"suite {name}: {exc}\n")

    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        sys.stderr.write(
            f"suite {rep.name}: {status} (max {rep.max_abs:.3g} over {rep.points_checked} checks)\n"
        )
    _emit([rep.as_dict() for rep in reports], args.out)
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_convert(args) -> int:
    mode = args.mode
    try:
        if mode == "cls":
            sig, poly = io.load_generator(args.in_file)
            if sig != "indefinite":
                raise io.CurveParseError("cls conversion needs an indefinite generator")
            io.save_curve(conversions.cls_to_curve(poly), args.out)
        elif mode == "cortes":
            sig, poly = io.load_generator(args.in_file)
            if sig != "lsc":
                raise io.CurveParseError("cortes conversion needs an lsc generator")
            io.save_curve(conversions.cortes_to_holo(poly), args.out)
        elif mode == "blaschke":
            curve = io.load_curve(args.in_file)
            if curve.signature != "indefinite":
                raise io.CurveParseError("blaschke conversion needs an indefinite curve")
            io.save_waves(*conversions.curve_to_blaschke(curve), args.out)
        else:
            waves = io.load_waves(args.in_file)
            io.save_curve(conversions.blaschke_to_curve(*waves), args.out)
    except io.CurveParseError:
        raise
    except ValueError as exc:
        # the converted curve breaks a curve limit, e.g. an exact coefficient
        # beyond float range; it is built before its file is opened
        raise io.CurveParseError(f"cannot build the converted curve: {exc}") from exc
    sys.stderr.write(f"wrote {args.out}\n")
    return 0


_VALUE_FLAGS = frozenset(
    {"--curve", "--domain", "--res", "--out", "--format", "--probe", "--suites",
     "--corrupt", "--mode", "--in"}
)


def _join_value_flags(argv):
    """Rewrite [--flag, value] as [--flag=value] so negative values parse."""
    out = []
    it = iter(argv)
    for token in it:
        if token in _VALUE_FLAGS:
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_value_flags(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except io.CurveParseError as exc:
        return _fail(2, f"input error: {exc}")
    except InvalidDomain as exc:
        return _fail(3, f"invalid arguments: {exc}")


if __name__ == "__main__":
    sys.exit(main())
