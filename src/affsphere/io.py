"""Curve files, mesh export, and report serialization.

Curve file schema (JSON):

    {"signature": "indefinite" | "lsc",
     "F": [[re, im], [re, im], ...],
     "G": [[re, im], ...]}

Coefficient index is the power of z.  Rational entries are strings like
"3" or "-1/2" and survive a round trip exactly; plain numbers are floats.

Every grid writer (``GRID_WRITERS``: OBJ, CSV and compact JSON) streams one
grid row at a time from the grid's arrays, so a write holds a few rows of
text beside the grid: OBJ formats each row with one ``%``, CSV each line,
JSON each field row with ``_float_texts``.  Every other JSON output (curves,
wave files and reports, a file or stdout alike) goes through one writer,
``_write_json``, whose only mode is indented JSON.

Indented JSON comes from ``_indented``: the bytes ``json.dump`` writes with
``indent=2, default=_coerce_json``, the tests' oracle, without json's
pure-Python encoder that yields and writes every token.
Sibling dicts with one key sequence (report points, verify suites) fill
one ``%`` template built for that key sequence and depth.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .paracomplex import ComplexPoly, ParaPoly, Poly1, scalar_from_text, scalar_to_text
from .surfaces import MAX_CURVE_DEGREE, HoloCurve, ParaCurve, SurfaceGrid

# signature -> (polynomial class, curve class)
_TYPES = {"indefinite": (ParaPoly, ParaCurve), "lsc": (ComplexPoly, HoloCurve)}
SIGNATURES = tuple(_TYPES)


class CurveParseError(ValueError):
    """Malformed curve input: JSON schema, coefficient syntax or degree cap, or a
    curve whose surface cannot be compiled (raised by the CLI)."""


class UnwritableOutput(OSError):
    """An output path that cannot be opened for writing."""


@contextmanager
def _output(out):
    """Text stream for a writer: out itself when it has a write method, else
    the file at path out, opened for writing and closed afterwards."""
    if hasattr(out, "write"):
        yield out
        return
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {out}: {exc.strerror or exc}") from exc
    with fh:
        yield fh


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
    _write_json(curve_to_json(curve), path)


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
    _write_json(waves_to_json(u1, v1, u2, v2), path)


# -- mesh export ----------------------------------------------------------


def write_obj(grid: SurfaceGrid, path):
    """Wavefront OBJ to a path or text stream: row-major vertices, quad faces
    between grid neighbours."""
    nu, nv = grid.shape
    vertices, faces = "v %.9g %.9g %.9g\n" * nv, "f %d %d %d %d\n" * (nv - 1)
    ids = np.arange(1, nv)  # 1-based ids of the first row's vertices but its last
    with _output(path) as fh:
        for i in range(nu):
            rows = np.column_stack([grid.x1[i], grid.x2[i], grid.phi[i]])
            fh.write(vertices % tuple(rows.ravel().tolist()))
        for i in range(nu - 1):
            a = ids + i * nv
            fh.write(faces % tuple(np.column_stack([a, a + nv, a + nv + 1, a + 1]).ravel().tolist()))


def write_csv(grid: SurfaceGrid, path):
    """CSV to a path or text stream, columns u,v,x1,x2,phi,n1,n2,lambda at full
    float precision."""
    line = ",".join(["%.17g"] * 8) + "\n"
    v = grid.v_axis.tolist()
    with _output(path) as fh:
        fh.write("u,v,x1,x2,phi,n1,n2,lambda\n")
        for i, u in enumerate(grid.u_axis.tolist()):
            fields = (f[i].tolist() for f in (grid.x1, grid.x2, grid.phi, grid.n1, grid.n2, grid.density))
            fh.write("".join([line % row for row in zip(repeat(u), v, *fields)]))


def write_json_grid(grid: SurfaceGrid, path):
    """Compact JSON to a path or text stream: the signature, domain, shape,
    axes and the six fields as nested row lists, every float of the arrays
    written by `_float_texts`."""
    nu, nv = grid.shape
    d = grid.domain
    domain = ", ".join(_scalar(x) or _scalar(_coerce_json(x)) for x in (d.u0, d.u1, d.v0, d.v1))
    fields = {"x1": grid.x1, "x2": grid.x2, "phi": grid.phi, "n1": grid.n1, "n2": grid.n2,
              "lambda": grid.density}
    with _output(path) as fh:
        fh.write(f'{{"signature": {encode_basestring_ascii(grid.curve.signature)}, '
                 f'"domain": [{domain}], "shape": [{nu}, {nv}], '
                 f'"u_axis": {_float_row(grid.u_axis)}, "v_axis": {_float_row(grid.v_axis)}, "fields": {{')
        for k, (name, field) in enumerate(fields.items()):
            fh.write(f'{", " if k else ""}"{name}": [')
            for i, row in enumerate(field):
                fh.write(f", {_float_row(row)}" if i else _float_row(row))
            fh.write("]")
        fh.write("}}\n")


def _float_row(xs):
    """Compact JSON list of a 1-D float array."""
    return "[" + ", ".join(_float_texts(xs.tolist())) + "]"


# format name -> writer(grid, path or text stream)
GRID_WRITERS = {"obj": write_obj, "csv": write_csv, "json": write_json_grid}


def write_grid(grid: SurfaceGrid, path, fmt):
    if fmt not in GRID_WRITERS:
        raise ValueError(f"unknown grid format {fmt!r}")
    GRID_WRITERS[fmt](grid, path)


def write_json_report(obj, path):
    _write_json(obj, path)


def _write_json(obj, out):
    """The one JSON writer: obj indented by two spaces, and a newline, to a path
    or text stream; numpy scalars and arrays as their Python values."""
    with _output(out) as fh:
        fh.write(_indented(obj))
        fh.write("\n")


def _coerce_json(val):
    if isinstance(val, (np.floating, np.integer)):
        return val.item()
    if isinstance(val, np.ndarray):
        return val.tolist()
    raise TypeError(f"not JSON serializable: {type(val)}")


# float.__repr__ of the floats json writes as tokens
_FLOAT_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(xs):
    """JSON texts of floats: float.__repr__, json's tokens for nan and +-inf."""
    out = list(map(float.__repr__, xs))
    return out if _FLOAT_TOKENS.keys().isdisjoint(out) else [_FLOAT_TOKENS.get(r, r) for r in out]


# JSON texts of a sequence of values of exactly one of these types; subclasses take _scalar
_TEXTS = {
    str: lambda xs: list(map(encode_basestring_ascii, xs)),
    float: _float_texts,
    int: lambda xs: list(map(int.__repr__, xs)),
    bool: lambda xs: ["true" if x else "false" for x in xs],
    type(None): lambda xs: ["null"] * len(xs),
}


def _scalar(o):
    """JSON text of a str, None, bool, int or float, None for other values;
    a subclass (numpy's float64) takes the branch of json's first isinstance test."""
    kind = next((k for k in (str, type(None), bool, int, float) if isinstance(o, k)), None)
    return None if kind is None else _TEXTS[kind]((o,))[0]


_PAD = "  "  # one indentation level of _indented


def _indented(obj):
    """json.dumps(obj, indent=2, default=_coerce_json), as one string.

    Siblings are written together (`texts`, one frame per nesting level, as
    json's encoder): values of one exact type by one map, rows (more dicts
    with one sequence of string keys, or lists of one length, than columns)
    by one %-template filled from their columns; keys must be strings, as 1,
    1.0 and True, or 0.0 and -0.0, are equal keys with different text.  A
    structure nested too deeply raises RecursionError, at json's depth; a
    circular one, which recurses to that limit too, json's ValueError."""

    def texts(values, depth):
        kinds = set(map(type, values))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind in _TEXTS:
            return _TEXTS[kind](values)
        template = None
        if kind is dict and len(values) > len(values[0]):
            keys = tuple(values[0])
            if keys and all(isinstance(k, str) for k in keys) and all(tuple(x) == keys for x in values):
                template, columns = _template(_key_names(keys), depth, "{}"), zip(*[x.values() for x in values])
        elif (kind is list or kind is tuple) and len(values) > len(values[0]):
            n = len(values[0])
            if n and all(len(x) == n for x in values):
                template, columns = _template(["%s"] * n, depth, "[]"), zip(*values)
        if template is not None:
            return [template % row for row in zip(*map(texts, columns, repeat(depth + 1)))]
        out = []
        for o in values:
            write = _TEXTS.get(type(o))
            if write is not None:
                out.append(write((o,))[0])
            elif isinstance(o, dict) and o:
                keys, items = zip(*o.items())
                out.append(_template(_key_names(keys), depth, "{}") % tuple(texts(items, depth + 1)))
            elif isinstance(o, (list, tuple)) and o:
                out.append(_template(["%s"] * len(o), depth, "[]") % tuple(texts(o, depth + 1)))
            elif isinstance(o, (list, tuple, dict)):
                out.append("{}" if isinstance(o, dict) else "[]")
            else:
                text = _scalar(o)
                out.append(texts([_coerce_json(o)], depth)[0] if text is None else text)
        return out

    try:
        return texts([obj], 0)[0]
    except RecursionError:
        json.dumps(obj, default=_coerce_json)  # json's own ValueError if obj is circular
        raise


def _template(items, depth, brackets):
    """Text of a container of these items whose opening bracket is at this depth."""
    inner = "\n" + _PAD * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + _PAD * depth + brackets[1]


def _key_names(keys):
    """'"key": %s' items of a dict template; a key that is not a string is
    written as its JSON text, quoted, as json does."""
    names = []
    for key in keys:
        if not isinstance(key, str):
            text = _scalar(key)
            if text is None:
                raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
            key = text
        names.append(encode_basestring_ascii(key).replace("%", "%%") + ": %s")
    return names
