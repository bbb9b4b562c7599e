"""Golden classification reports of the acceptance curves at 64x64.

The files in tests/data were written by this module's __main__ block; a
change to the singular-set pipeline that keeps its output must keep them.
Regenerate (only for an intended change of output) with

    PYTHONPATH=src python tests/test_golden_report.py
"""

import json
import math
from pathlib import Path

import pytest

from affsphere.paracomplex import ParaPoly
from affsphere.singularities import classification_report
from affsphere.surfaces import Domain, ParaCurve

DATA = Path(__file__).resolve().parent / "data"
BOX = Domain(-1.2, 1.2, -1.2, 1.2)
PROBES = [(-2 / 3, 0.0), (0.3, 0.0)]
CURVES = {
    "report_z2z3_64.json": ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1])),
    "report_z3z4_64.json": ParaCurve(ParaPoly([0, 0, 0, 1]), ParaPoly([0, 0, 0, 0, 1])),
}


def _report(name):
    return classification_report(CURVES[name], BOX, grid_res=64, probes=PROBES)


def _close(got, want, rel):
    return math.isclose(got, want, rel_tol=0.0, abs_tol=rel * max(1.0, abs(want)))


@pytest.mark.parametrize("name", sorted(CURVES))
def test_report_matches_golden(name):
    want = json.loads((DATA / name).read_text())
    got = json.loads(json.dumps(_report(name)))
    assert got["curve"] == want["curve"]
    assert got["domain"] == want["domain"]

    assert len(got["singular_curves"]) == len(want["singular_curves"])
    for gc, wc in zip(got["singular_curves"], want["singular_curves"]):
        assert len(gc) == len(wc)
        for gp, wp in zip(gc, wc):
            assert all(abs(g - w) <= 1e-12 for g, w in zip(gp, wp)), (gp, wp)

    assert [p["class"] for p in got["points"]] == [p["class"] for p in want["points"]]
    for gp, wp in zip(got["points"], want["points"]):
        assert abs(gp["u"] - wp["u"]) <= 1e-12 and abs(gp["v"] - wp["v"]) <= 1e-12
        assert gp["degenerate"] == wp["degenerate"]
        assert gp["evidence"].keys() == wp["evidence"].keys()
        for key, w in wp["evidence"].items():
            g = gp["evidence"][key]
            if w is None or isinstance(w, int):
                assert g == w, (key, g, w)
            else:
                assert _close(g, w, 1e-9), (key, g, w)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in sorted(CURVES):
        (DATA / name).write_text(json.dumps(_report(name), indent=1) + "\n")
