"""Curve files, mesh export, and report serialization.

Curve file schema (JSON):

    {"signature": "indefinite" | "lsc",
     "F": [[re, im], [re, im], ...],
     "G": [[re, im], ...]}

Coefficient index is the power of z.  Rational entries are strings like
"3" or "-1/2" and survive a round trip exactly; plain numbers are floats.
"""

from __future__ import annotations

import json

import numpy as np

from .paracomplex import ComplexPoly, ParaPoly, Poly1, scalar_from_text, scalar_to_text
from .surfaces import MAX_CURVE_DEGREE, HoloCurve, ParaCurve, SurfaceGrid

# signature -> (polynomial class, curve class)
_TYPES = {"indefinite": (ParaPoly, ParaCurve), "lsc": (ComplexPoly, HoloCurve)}
SIGNATURES = tuple(_TYPES)


class CurveParseError(ValueError):
    """Malformed curve input: JSON schema, coefficient syntax or degree cap, or a
    curve whose surface cannot be compiled (raised by the CLI)."""


def poly_to_pairs(poly):
    return [[scalar_to_text(c.re), scalar_to_text(c.im)] for c in poly.coeffs]


def pairs_to_components(pairs):
    if not isinstance(pairs, list):
        raise CurveParseError("polynomial must be an array of [re, im] pairs")
    if len(pairs) > MAX_CURVE_DEGREE + 1:
        raise CurveParseError(
            f"{len(pairs)} coefficients listed; curve degree is capped at {MAX_CURVE_DEGREE}"
        )
    out = []
    for k, entry in enumerate(pairs):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise CurveParseError(f"coefficient {k} is not an [re, im] pair")
        try:
            out.append((scalar_from_text(entry[0]), scalar_from_text(entry[1])))
        except (ValueError, TypeError) as exc:
            raise CurveParseError(f"coefficient {k}: {exc}") from exc
    return out


def curve_to_json(curve) -> dict:
    return {
        "signature": curve.signature,
        "F": poly_to_pairs(curve.F),
        "G": poly_to_pairs(curve.G),
    }


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CurveParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CurveParseError(f"{path} is not valid JSON: {exc}") from exc


def _signature_types(obj, kind):
    """(signature, poly class, curve class) named by a curve or generator object."""
    if not isinstance(obj, dict):
        raise CurveParseError(f"{kind} file must be a JSON object")
    sig = obj.get("signature")
    if sig not in SIGNATURES:
        raise CurveParseError(f"signature must be one of {SIGNATURES}, got {sig!r}")
    return (sig, *_TYPES[sig])


def curve_from_json(obj) -> ParaCurve:
    _, poly_cls, curve_cls = _signature_types(obj, "curve")
    if "F" not in obj or "G" not in obj:
        raise CurveParseError("curve file needs both F and G")
    try:
        f = poly_cls(pairs_to_components(obj["F"]))
        g = poly_cls(pairs_to_components(obj["G"]))
        return curve_cls(f, g)
    except CurveParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise CurveParseError(str(exc)) from exc


def load_curve(path) -> ParaCurve:
    return curve_from_json(_read_json(path))


def save_curve(curve, path):
    with open(path, "w") as fh:
        json.dump(curve_to_json(curve), fh, indent=2)
        fh.write("\n")


def load_generator(path):
    """Read a one-polynomial generator file: {"signature": ..., "poly": [[re, im], ...]}.

    Returns (signature, poly) with the polynomial typed by the signature.
    """
    obj = _read_json(path)
    sig, poly_cls, _ = _signature_types(obj, "generator")
    if "poly" not in obj:
        raise CurveParseError("generator file needs a poly entry")
    try:
        return sig, poly_cls(pairs_to_components(obj["poly"]))
    except CurveParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise CurveParseError(str(exc)) from exc


def _coeff_list(poly1):
    return [scalar_to_text(c) for c in poly1.coeffs]


def _poly1_from_list(items, name):
    if not isinstance(items, list):
        raise CurveParseError(f"{name} must be an array of coefficients")
    out = []
    for k, entry in enumerate(items):
        try:
            out.append(scalar_from_text(entry))
        except (ValueError, TypeError) as exc:
            raise CurveParseError(f"{name} coefficient {k}: {exc}") from exc
    return Poly1(out)


def waves_to_json(u1, v1, u2, v2) -> dict:
    return {
        "U1": _coeff_list(u1),
        "V1": _coeff_list(v1),
        "U2": _coeff_list(u2),
        "V2": _coeff_list(v2),
    }


def waves_from_json(obj):
    if not isinstance(obj, dict):
        raise CurveParseError("wave file must be a JSON object")
    missing = [k for k in ("U1", "V1", "U2", "V2") if k not in obj]
    if missing:
        raise CurveParseError(f"wave file is missing {', '.join(missing)}")
    return tuple(_poly1_from_list(obj[k], k) for k in ("U1", "V1", "U2", "V2"))


def load_waves(path):
    return waves_from_json(_read_json(path))


def save_waves(u1, v1, u2, v2, path):
    with open(path, "w") as fh:
        json.dump(waves_to_json(u1, v1, u2, v2), fh, indent=2)
        fh.write("\n")


# -- mesh export ----------------------------------------------------------


def write_obj(grid: SurfaceGrid, path):
    """Wavefront OBJ: row-major vertices, quad faces between grid neighbours."""
    nu, nv = grid.shape
    lines = []
    xs, ys, zs = grid.x1, grid.x2, grid.phi
    for i in range(nu):
        for j in range(nv):
            lines.append(f"v {xs[i, j]:.9g} {ys[i, j]:.9g} {zs[i, j]:.9g}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = a + nv
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(grid: SurfaceGrid, path):
    """CSV with columns u,v,x1,x2,phi,n1,n2,lambda at full float precision."""
    nu, nv = grid.shape
    with open(path, "w") as fh:
        fh.write("u,v,x1,x2,phi,n1,n2,lambda\n")
        for i in range(nu):
            u = grid.u_axis[i]
            for j in range(nv):
                row = (
                    u, grid.v_axis[j], grid.x1[i, j], grid.x2[i, j],
                    grid.phi[i, j], grid.n1[i, j], grid.n2[i, j],
                    grid.density[i, j],
                )
                fh.write(",".join(f"{val:.17g}" for val in row) + "\n")


def grid_to_json(grid: SurfaceGrid) -> dict:
    return {
        "signature": grid.curve.signature,
        "domain": [grid.domain.u0, grid.domain.u1, grid.domain.v0, grid.domain.v1],
        "shape": list(grid.shape),
        "u_axis": grid.u_axis.tolist(),
        "v_axis": grid.v_axis.tolist(),
        "fields": {
            "x1": grid.x1.tolist(),
            "x2": grid.x2.tolist(),
            "phi": grid.phi.tolist(),
            "n1": grid.n1.tolist(),
            "n2": grid.n2.tolist(),
            "lambda": grid.density.tolist(),
        },
    }


def write_grid(grid: SurfaceGrid, path, fmt):
    if fmt == "obj":
        write_obj(grid, path)
    elif fmt == "csv":
        write_csv(grid, path)
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(grid_to_json(grid), fh)
            fh.write("\n")
    else:
        raise ValueError(f"unknown grid format {fmt!r}")


def write_json_report(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, default=_coerce_json)
        fh.write("\n")


def _coerce_json(val):
    if isinstance(val, (np.floating, np.integer)):
        return val.item()
    if isinstance(val, np.ndarray):
        return val.tolist()
    raise TypeError(f"not JSON serializable: {type(val)}")
