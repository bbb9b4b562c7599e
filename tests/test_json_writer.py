"""The indented JSON writer writes json.dump's bytes.

`io._write_json` with indent=2 must write exactly
json.dump(obj, fh, indent=2, default=io._coerce_json) plus a newline, on
every report, verify output, curve and wave file the program writes and
on arbitrary JSON-able objects; an object json.dump cannot write must
raise the same exception type.
"""

import io as stdio
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsphere import cli, io
from affsphere.paracomplex import ComplexPoly, ParaPoly, Poly1
from affsphere.singularities import classification_report
from affsphere.surfaces import Domain, HoloCurve, ParaCurve

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
REFS = json.loads((ROOT / "perfbench" / "refs" / "classify.json").read_text())


def _oracle(obj):
    fh = stdio.StringIO()
    json.dump(obj, fh, indent=2, default=io._coerce_json)
    return fh.getvalue() + "\n"


def _written(obj):
    fh = stdio.StringIO()
    io._write_json(obj, fh)
    return fh.getvalue()


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_golden_reports(path):
    obj = json.loads(path.read_text())
    assert _written(obj) == _oracle(obj)


@pytest.mark.parametrize("entry", REFS["fixed"] + REFS["pool"], ids=lambda e: e["id"])
def test_reports_of_the_benchmark_curves(entry):
    curve = io.curve_from_json(entry["curve"])
    probe = cli._snap_probe(curve, Domain(), 64, tuple(entry["probe"]))
    report = classification_report(curve, Domain(), grid_res=64, probes=[probe])
    assert _written(report) == _oracle(report)


@pytest.mark.parametrize("corrupt", (None,) + cli.CORRUPTIONS)
def test_verify_outputs(corrupt, tmp_path, monkeypatch):
    written = []
    original = io.write_json_report

    def captured(obj, out):
        written.append(obj)
        return original(obj, out)

    monkeypatch.setattr(io, "write_json_report", captured)
    curve = tmp_path / "curve.json"
    io.save_curve(ParaCurve(ParaPoly([0, Fraction(1, 2), 0, 1]), ParaPoly([1, 0, 0, 0, 1])), curve)
    out = tmp_path / "verify.json"
    argv = ["verify", "--curve", str(curve), "--out", str(out)] + (["--corrupt", corrupt] if corrupt else [])
    assert cli.main(argv) in (0, 1)
    assert len(written) == 1 and out.read_text() == _oracle(written[0])


def test_curve_and_wave_files(tmp_path):
    curves = [
        ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([(Fraction(-1, 3), Fraction(7, 2)), (0, 0), (0, 1)])),
        HoloCurve(ComplexPoly([(0.1, -0.0), (1e16, 3.5)]), ComplexPoly([(5e-324, -2.5e-7)])),
    ]
    for k, curve in enumerate(curves):
        io.save_curve(curve, tmp_path / f"c{k}.json")
        assert (tmp_path / f"c{k}.json").read_text() == _oracle(io.curve_to_json(curve))
    waves = (Poly1([0.1, 2.0, -1e-300]), Poly1([Fraction(1, 3)]), Poly1([]), Poly1([1e300, 5e-324]))
    io.save_waves(*waves, tmp_path / "w.json")
    assert (tmp_path / "w.json").read_text() == _oracle(io.waves_to_json(*waves))


scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-5, float("nan"), float("inf"), float("-inf")]),
    st.text(),
    st.builds(np.float64, st.floats()), st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.float32, st.floats(width=32)),
)
keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.sampled_from([0.0, -0.0, 1.0, 0.5]),
                 st.booleans(), st.none())
arrays = st.builds(np.array, st.lists(st.floats(allow_nan=True), max_size=4))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(keys, children, max_size=6),
        # rows: several dicts with one key sequence, or lists of one length
        st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True).flatmap(
            lambda ks: st.lists(st.fixed_dictionaries({k: children for k in ks}), min_size=1, max_size=8)),
        st.integers(1, 3).flatmap(
            lambda n: st.lists(st.lists(children, min_size=n, max_size=n), min_size=1, max_size=8)),
    )


json_objects = st.recursive(st.one_of(scalars, arrays), _containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(obj=json_objects)
def test_arbitrary_objects(obj):
    assert _written(obj) == _oracle(obj)


class Opaque:
    pass


UNWRITABLE = {
    "object": Opaque(), "set": {"a": [1, {2}]}, "bytes": [b"bytes"], "tuple-key": {(1, 2): 3},
    "complex-key": {1j: 0}, "numpy-bool": [np.bool_(True)], "complex": [1 + 2j],
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE))
def test_unwritable_objects_raise_as_json_does(name):
    obj = UNWRITABLE[name]
    with pytest.raises(Exception) as want:
        _oracle(obj)
    with pytest.raises(want.type):
        _written(obj)


def test_circular_structures_raise_value_error():
    loop = [1.0]
    loop.append(loop)
    rows = [{"a": 1}, {"a": 2}]
    rows[1]["a"] = rows
    for obj in (loop, rows):
        with pytest.raises(ValueError):
            _oracle(obj)
        with pytest.raises(ValueError):
            _written(obj)


def _nested(depth, kind):
    obj = 0.5
    for _ in range(depth):
        obj = [obj] if kind == "list" else [{"a": obj, "b": 1}, {"a": 2, "b": 3}, {"a": 4, "b": 5}]
    return obj


@pytest.mark.parametrize("kind", ["list", "rows"])
def test_deep_structures_are_not_circular(kind):
    """Nested as deep as json writes it: the same bytes; far deeper: json's
    RecursionError, not a false circular-reference error."""
    limit = sys.getrecursionlimit()
    deep = _nested((limit if kind == "list" else limit // 2) - 200, kind)
    assert _written(deep) == _oracle(deep)
    too_deep = _nested(2 * limit, kind)
    with pytest.raises(RecursionError):
        _oracle(too_deep)
    with pytest.raises(RecursionError):
        _written(too_deep)
