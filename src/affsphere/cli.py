"""Command-line interface: synth, classify, verify, convert.

Exit codes: 0 success, 1 verification failure, 2 input error (a file that does
not parse, non-finite coefficients or exact ones beyond float range included,
a curve whose surface cannot be compiled, or a curve too large for float
evaluation on the domain), 3 invalid arguments (domain, probe, resolution,
suite or mode names; non-finite domain bounds and probes included; an --out
path that cannot be opened for writing).

Float limit of synth, classify and verify: B = 2 c (d + 1) d^2 r^d <= 1e75, with
c = max(1, largest |coefficient component|), d >= 1 the degree and
r = max(1, max(|u| + |v|)) over the domain and classify's probes; over the
domain that is max|u| + max|v|.  B bounds |F|, |G| and their first two
derivatives, and no computed value is a product of more than four of those,
so B^4 fits.  A curve that breaks the limit on the domain is an input error;
a probe that breaks it, on a curve within it, is an invalid argument.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import conversions, io, residuals, singularities
from .surfaces import _SHORTHANDS, Domain, InvalidDomain, compile_surface, sample_grid

# suite name -> (the input it takes, its runner returning the suite's reports);
# runners look residuals' functions up per call, so a wrapper installed over one is run
_SUITES = {
    "duality": ("points", lambda surf, x, flip_q: [residuals.duality_residual(surf, x)]),
    "two_form": ("points", lambda surf, x, flip_q: [residuals.two_form_residual(surf, x)]),
    "conformal": ("points", lambda surf, x, flip_q: [residuals.metric_conformality(surf, x)]),
    "monge_ampere": ("patch", lambda surf, x, flip_q: [residuals.monge_ampere_residual(surf, x)]),
    "lift": ("patch", lambda surf, x, flip_q: [residuals.lift_residual(surf, x, flip_q=flip_q)]),
    "ccr": ("domain", lambda surf, domain, flip_q: residuals.ccr_residual(surf.curve, domain)),
}
SUITES = tuple(_SUITES)
# the field corruptions of Surface.with_patched_fields, then flip-q, which lift applies
CORRUPTIONS = tuple(key.replace("_", "-") for key in _SHORTHANDS) + ("flip-q",)
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


def _log_bound(curve, points):
    """log10 of the field bound B of the float limit (module docstring) over the (u, v) points."""
    d = max(curve.F.degree, curve.G.degree, 1)
    r = max([1.0] + [abs(u) + abs(v) for u, v in points])
    return math.log10(2 * (d + 1) * d * d) + math.log10(curve.coeff_scale) + d * math.log10(r)


def _bound_text(log_bound):
    """B = 10**log_bound as 'm.mme<exponent>', the mantissa rounded up, so that a
    bound above the limit never reads as the limit; 'inf' when |u| + |v| overflows."""
    if math.isinf(log_bound):
        return "inf"
    exponent = math.floor(log_bound)
    mantissa = math.ceil(10 ** (log_bound - exponent) * 100) / 100
    if mantissa >= 10:  # 9.999... rounded up
        mantissa, exponent = 1.0, exponent + 1
    return f"{mantissa:.2f}e{exponent}"


def _compile(curve, domain, probes=()):
    """Compiled surface of the curve; a curve that cannot compile, or that breaks
    the float limit on the domain (module docstring), is an input error, and a
    probe that breaks it an invalid argument."""
    corners = [(u, v) for u in (domain.u0, domain.u1) for v in (domain.v0, domain.v1)]
    log_bound = _log_bound(curve, corners)
    if log_bound > 75:
        raise io.CurveParseError(
            f"curve too large for float evaluation on this domain: "
            f"field bound {_bound_text(log_bound)} exceeds 1e75"
        )
    for p in probes:  # r is the larger of the domain's and the probe's, and the domain's passed
        log_bound = _log_bound(curve, [p])
        if log_bound > 75:
            raise InvalidDomain(
                f"probe {p[0]!r},{p[1]!r} too far out for float evaluation of this curve: "
                f"field bound {_bound_text(log_bound)} exceeds 1e75"
            )
    try:
        return compile_surface(curve)
    except ValueError as exc:
        raise io.CurveParseError(f"cannot compile the surface: {exc}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and kept for the process."""
    parser = _Parser(prog="affsphere", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--curve", required=True, help="curve JSON file")
        p.add_argument("--domain", default="-1,1,-1,1", help="u0,u1,v0,v1")
        p.add_argument("--res", default="256", help="grid resolution N or NU,NV")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_synth = sub.add_parser("synth", help="sample a surface mesh")
    common(p_synth)
    p_synth.add_argument("--format", choices=tuple(io.GRID_WRITERS), default=None)

    p_classify = sub.add_parser("classify", help="trace and classify singularities")
    common(p_classify)
    p_classify.add_argument(
        "--probe", action="append", default=[], help="extra probe point u,v (repeatable)"
    )

    p_verify = sub.add_parser("verify", help="run identity residual suites")
    common(p_verify)
    p_verify.add_argument("--suites", default=",".join(SUITES), help="comma-separated suite names")
    p_verify.add_argument(
        "--corrupt", choices=CORRUPTIONS, default=None, help="negative-control corruption"
    )

    p_convert = sub.add_parser("convert", help="convert between parametrizations")
    p_convert.add_argument("--mode", required=True, choices=CONVERT_MODES)
    p_convert.add_argument("--in", dest="in_file", required=True, help="input file")
    p_convert.add_argument("--out", required=True, help="output file")
    return parser


def cmd_synth(args) -> int:
    curve = io.load_curve(args.curve)
    domain = Domain.parse(args.domain)
    nu, nv = _parse_res(args.res)
    if not (2 <= nu <= 4096 and 2 <= nv <= 4096):
        raise InvalidDomain(f"resolution {nu}x{nv} outside [2, 4096]")
    ext = args.out.rsplit(".", 1)[1].lower() if args.out and "." in args.out else None
    fmt = args.format or (ext if ext in io.GRID_WRITERS else "json")
    _compile(curve, domain)
    grid = sample_grid(curve, domain, (nu, nv))
    io.write_grid(grid, args.out or sys.stdout, fmt)
    if args.out:
        sys.stderr.write(f"wrote {nu}x{nv} {fmt} grid to {args.out}\n")
    return 0


def cmd_classify(args) -> int:
    curve = io.load_curve(args.curve)
    domain = Domain.parse(args.domain)
    nu, nv = _parse_res(args.res)
    if nu != nv:
        raise InvalidDomain(f"classification grid must be square, got {nu}x{nv}")
    if nu < 16 or nu > 4096:
        raise InvalidDomain(f"classification resolution {nu} outside [16, 4096]")
    probes = [_parse_probe(p) for p in args.probe]
    _compile(curve, domain, probes)
    probes = [_snap_probe(curve, domain, nu, p) for p in probes]
    report = singularities.classification_report(curve, domain, grid_res=nu, probes=probes)
    io.write_json_report(report, args.out or sys.stdout)
    return 0


def _snap_probe(curve, domain, res, p):
    """Pull a probe onto the singular set when it is within half a grid cell.

    Nearest-point Newton steps on lam from p: they stop once |lam| <= tol,
    give up where the gradient vanishes or an iterate is more than half a
    cell from p, and after 60 steps keep the iterate only if |lam| <= 100
    tol.  tol is the classifier's singular threshold at the point tested
    (`_point_tols`), not the domain's.  A probe that gives up is returned as given.
    """
    surf = compile_surface(curve)
    cell = 0.5 * float(
        np.hypot(
            (domain.u1 - domain.u0) / max(res - 1, 1),
            (domain.v1 - domain.v0) / max(res - 1, 1),
        )
    )
    if abs(surf.area_density(*p)) <= singularities._point_tols(curve, p).sing:
        return p
    u, v = float(p[0]), float(p[1])
    for _ in range(60):
        lam, (gu, gv), _, _ = surf.chart_jet(u, v)
        tol = singularities._point_tols(curve, (u, v)).sing
        g2 = gu * gu + gv * gv
        if abs(lam) <= tol or g2 == 0.0:
            break
        u, v = u - lam * gu / g2, v - lam * gv / g2
        if np.hypot(u - p[0], v - p[1]) > cell:
            return p
    else:
        lam, tol = surf.chart_jet(u, v)[0], 100 * singularities._point_tols(curve, (u, v)).sing
    if abs(lam) <= tol and np.hypot(u - p[0], v - p[1]) <= cell:
        return float(u), float(v)
    return p


def cmd_verify(args) -> int:
    curve = io.load_curve(args.curve)
    domain = Domain.parse(args.domain)
    _parse_res(args.res)  # checked only: the graph patch of monge_ampere and lift is 20x20
    names = list(dict.fromkeys(s.strip() for s in args.suites.split(",") if s.strip()))
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise InvalidDomain(f"unknown suite name(s): {', '.join(unknown)}")
    if not names:
        raise InvalidDomain("no suite selected")

    surf = _compile(curve, domain)
    shorthand = (args.corrupt or "").replace("-", "_")
    if shorthand in _SHORTHANDS:
        surf = surf.with_patched_fields(**{shorthand: True})

    # each input is built, evaluated on surf with one field_jets call (and for
    # the patch one chart solve), when a suite first needs it; the suites that
    # read it share that evaluation.  An input whose build raised
    # PatchNotGraph is built again by the next suite that needs it.
    rng = np.random.default_rng(12345)
    build = {
        "points": lambda: residuals.evaluate(
            surf, residuals.random_regular_points(curve, 100, rng, domain)),
        "patch": lambda: residuals.evaluate(
            surf, residuals.regular_graph_patch(curve, domain, res=20), chart=True),
        "domain": lambda: domain,
    }
    inputs = {}
    reports = []
    for name in names:
        need, run = _SUITES[name]
        try:
            if need not in inputs:
                inputs[need] = build[need]()
            reports.extend(run(surf, inputs[need], args.corrupt == "flip-q"))
        except residuals.PatchNotGraph as exc:
            tolerance = residuals.TOLERANCES[name]
            reports.append(residuals.ResidualReport(name, math.inf, math.inf, 0, False, tolerance))
            sys.stderr.write(f"suite {name}: {exc}\n")

    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        sys.stderr.write(
            f"suite {rep.name}: {status} (max {rep.max_abs:.3g} over {rep.points_checked} checks)\n"
        )
    io.write_json_report([rep.as_dict() for rep in reports], args.out or sys.stdout)
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
        # looked up per call: a wrapper installed over cmd_<name> is the one run
        return globals()[f"cmd_{args.command}"](args)
    except io.CurveParseError as exc:
        return _fail(2, f"input error: {exc}")
    except (InvalidDomain, io.UnwritableOutput) as exc:
        return _fail(3, f"invalid arguments: {exc}")


if __name__ == "__main__":
    sys.exit(main())
