"""A classification report takes one classification pass and a bounded number of kernel passes.

`classification_report` classifies its nodes, its swallowtail roots and its
probes in one `_classify_points` call; the swallowtails it reports are those
`locate_swallowtails` finds.  The Horner-pass budget fails a change that
scatters point-kernel calls again.
"""

import json
from pathlib import Path

import pytest

from affsphere import io, surfaces
from affsphere import singularities as sg
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import Domain, ParaCurve

DATA = Path(__file__).resolve().parent / "data"
REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "classify.json"
QUAD_CUBIC = ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3))
CUBIC_QUARTIC = ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4))
BOX = Domain(-1.2, 1.2, -1.2, 1.2)
# pool curve d3-lsc-26, with five swallowtails
HASH_SENSITIVE = {
    "signature": "lsc",
    "F": [["2/3", "17/6"], ["11/6", "-4/3"], ["5/2", "1/2"], ["3/2", "-3"]],
    "G": [["-5/2", "-7/3"], ["-1/6", "3/2"], ["-2/3", "7/3"], ["2/3", "11/6"]],
}
# swallowtails located on each curve at res 64
SWALLOWTAILS = {"z2z3": 1, "z3z4": 1, "d3-lsc-26": 5, "d3-indefinite-02": 0,
                "d3-indefinite-13": 1, "d3-lsc-17": 3, "d4-lsc-43": 2}
# Horner passes of one cold classification_report at res 64 on Domain(),
# the three of Surface._build included, measured when the point kernel took
# one stacked pass per array call; the per-list kernel before it made 302
# and 324.
HORNER_BUDGET = {"z2z3": 57, "z3z4": 63}


def _curves():
    pool = {e["id"]: e["curve"] for e in json.loads(REFS.read_text())["pool"]}
    curves = {"z2z3": (QUAD_CUBIC, BOX), "z3z4": (CUBIC_QUARTIC, BOX),
              "d3-lsc-26": (io.curve_from_json(HASH_SENSITIVE), Domain())}
    for path in sorted(DATA.glob("pool_*_64.json")):
        pool_id = path.name[len("pool_"):-len("_64.json")]
        curves[pool_id] = (io.curve_from_json(pool[pool_id]), Domain())
    return curves


CURVES = _curves()


def test_report_classifies_once(monkeypatch):
    calls = []
    original = sg._classify_points

    def counted(curve, pts):
        calls.append(len(pts))
        return original(curve, pts)

    monkeypatch.setattr(sg, "_classify_points", counted)
    report = sg.classification_report(QUAD_CUBIC, Domain(), grid_res=64, probes=[(-2 / 3, 0.0)])
    assert len(calls) == 1
    assert [p["class"] for p in report["points"]].count(sg.TAG_SWALLOWTAIL) >= 1


@pytest.mark.parametrize("name", sorted(CURVES))
def test_report_swallowtails_are_located_swallowtails(name):
    curve, domain = CURVES[name]
    report = sg.classification_report(curve, domain, grid_res=64)
    nodes = {(u, v) for c in report["singular_curves"] for u, v in c}
    got = [p for p in report["points"] if (p["u"], p["v"]) not in nodes]
    want = sg.locate_swallowtails(curve, sg.trace_singular_curves(curve, domain, 64))
    assert len(got) == len(want) == SWALLOWTAILS[name]
    for entry, (q, cls) in zip(got, want):
        assert entry["class"] == cls.tag == sg.TAG_SWALLOWTAIL
        located = {"u": float(q[0]), "v": float(q[1]), "degenerate": cls.degenerate,
                   "evidence": cls.evidence.as_dict()}
        assert json.dumps(located) == json.dumps({k: entry[k] for k in located})


@pytest.mark.parametrize("name", sorted(HORNER_BUDGET))
def test_horner_pass_budget(name, monkeypatch):
    curve = {"z2z3": QUAD_CUBIC, "z3z4": CUBIC_QUARTIC}[name]
    calls = []
    original = surfaces._horner

    def counted(*args):
        calls.append(1)
        return original(*args)

    surfaces._compiled.cache_clear()
    monkeypatch.setattr(surfaces, "_horner", counted)
    sg.classification_report(curve, Domain(), grid_res=64)
    assert len(calls) <= HORNER_BUDGET[name]
