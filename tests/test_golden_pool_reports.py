"""Golden classification reports of four benchmark pool curves at 64x64.

The curves come from perfbench/refs/classify.json: two indefinite and two
convex ones, three of them with swallowtails.  Each report carries the
entry's probe, pulled onto the singular set as `affsphere classify` does.
The files in tests/data were written by this module's __main__ block before
classification moved to arrays; a change that keeps the output must keep
them.  Regenerate (only for an intended change of output) with

    PYTHONPATH=src python tests/test_golden_pool_reports.py
"""

import json
import math
from pathlib import Path

import pytest

from affsphere import cli, io
from affsphere.singularities import classification_report
from affsphere.surfaces import Domain

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
REFS = ROOT / "perfbench" / "refs" / "classify.json"
POOL_IDS = ("d3-indefinite-02", "d3-indefinite-13", "d3-lsc-17", "d4-lsc-43")
RES = 64


def _entry(pool_id):
    pool = json.loads(REFS.read_text())["pool"]
    return next(e for e in pool if e["id"] == pool_id)


def _report(pool_id):
    entry = _entry(pool_id)
    curve = io.curve_from_json(entry["curve"])
    domain = Domain()
    probe = cli._snap_probe(curve, domain, RES, tuple(entry["probe"]))
    return classification_report(curve, domain, grid_res=RES, probes=[probe])


def _path(pool_id):
    return DATA / f"pool_{pool_id}_{RES}.json"


def _close(got, want, tol):
    return math.isclose(got, want, rel_tol=0.0, abs_tol=tol * max(1.0, abs(want)))


@pytest.mark.parametrize("pool_id", POOL_IDS)
def test_pool_report_matches_golden(pool_id):
    """Same tolerances as test_golden_report: nodes to 1e-12, evidence to 1e-9 relative."""
    want = json.loads(_path(pool_id).read_text())
    got = json.loads(json.dumps(_report(pool_id)))
    assert got["curve"] == want["curve"]
    assert got["domain"] == want["domain"]
    assert [len(c) for c in got["singular_curves"]] == [len(c) for c in want["singular_curves"]]
    for gc, wc in zip(got["singular_curves"], want["singular_curves"]):
        for gp, wp in zip(gc, wc):
            assert all(_close(g, w, 1e-12) for g, w in zip(gp, wp)), (gp, wp)
    assert [p["class"] for p in got["points"]] == [p["class"] for p in want["points"]]
    for gp, wp in zip(got["points"], want["points"]):
        assert _close(gp["u"], wp["u"], 1e-12) and _close(gp["v"], wp["v"], 1e-12)
        assert gp["degenerate"] == wp["degenerate"]
        assert gp["evidence"].keys() == wp["evidence"].keys()
        for key, w in wp["evidence"].items():
            g = gp["evidence"][key]
            if w is None or isinstance(w, int):
                assert g == w, (key, g, w)
            else:
                assert _close(g, w, 1e-9), (key, g, w)


def test_pool_selection_covers_both_signatures_and_swallowtails():
    entries = [_entry(i) for i in POOL_IDS]
    assert {e["curve"]["signature"] for e in entries} == {"indefinite", "lsc"}
    assert any("Swallowtail" in e["tags"] for e in entries)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for pool_id in POOL_IDS:
        _path(pool_id).write_text(json.dumps(_report(pool_id), indent=1) + "\n")
