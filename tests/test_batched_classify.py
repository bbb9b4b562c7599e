"""Classification runs as array passes over all points of a report.

`_classify_points` takes every stage once on the rows that reach it, so the
number of density evaluations does not depend on the number of traced
nodes; and a one-row call (`classify_point`) gives the same numbers as the
row inside a report.
"""

import json

import numpy as np
import pytest

from affsphere import singularities as sg
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import Domain, HoloCurve, ParaCurve, Surface, compile_surface

QUAD_CUBIC = ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3))
CUBIC_QUARTIC = ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4))
BOX = Domain(-1.2, 1.2, -1.2, 1.2)
# chart_jet calls of one pass: the rows' jets, which give lam, the chart
# components and the front criteria alike
CLASSIFY_BOUND = 1


@pytest.fixture
def jet_calls(monkeypatch):
    calls = [0]
    original = Surface.chart_jet

    def counted(self, u, v):
        calls[0] += 1
        return original(self, u, v)

    monkeypatch.setattr(Surface, "chart_jet", counted)
    return calls


def _nodes(traced):
    return np.concatenate([sc.points for sc in traced])


@pytest.mark.parametrize("curve", [QUAD_CUBIC, CUBIC_QUARTIC], ids=["z2z3", "z3z4"])
def test_density_evaluations_do_not_grow_with_nodes(curve, jet_calls):
    counts = {}
    for res in (64, 256):
        nodes = _nodes(sg.trace_singular_curves(curve, BOX, res))
        jet_calls[0] = 0
        classes = sg._classify_points(curve, nodes)
        counts[res] = (len(nodes), jet_calls[0])
        assert len(classes) == len(nodes)
        jet_calls[0] = 0
        sg.classification_report(curve, BOX, grid_res=res)
        counts[res] += (jet_calls[0],)
    (nodes64, classify64, report64), (nodes256, classify256, report256) = counts[64], counts[256]
    assert nodes256 > 3 * nodes64
    assert classify64 <= CLASSIFY_BOUND and classify256 <= CLASSIFY_BOUND
    # the trace's tangents, the swallowtail brackets and Newton steps add a few calls
    assert report256 <= 2 * report64 < nodes64


@pytest.mark.parametrize("curve", [QUAD_CUBIC, CUBIC_QUARTIC], ids=["z2z3", "z3z4"])
def test_classify_point_equals_report_entry_bitwise(curve):
    report = sg.classification_report(curve, BOX, grid_res=48)
    nodes = {(p["u"], p["v"]): p for p in report["points"]}
    traced = [q for c in report["singular_curves"] for q in c]
    assert len(traced) > 50
    compared = 0
    for u, v in traced[::3]:
        entry = nodes[(u, v)]  # every traced node is in the report
        cls = sg.classify_point(curve, (u, v))
        got = {"u": cls.point[0], "v": cls.point[1], "class": cls.tag,
               "degenerate": cls.degenerate, "evidence": cls.evidence.as_dict()}
        assert json.dumps(got) == json.dumps(entry)
        compared += 1
    assert compared > 15


def test_one_call_classifies_points_of_several_kinds():
    """Regular, branch, frontal-not-front and front rows in one array."""
    pts = [(0.3, 0.0), (0.0, 0.0), (0.5, 0.5), (-2 / 3, 0.0), (0.8, 0.1), (2 / 3, 0.0)]
    batched = sg._classify_points(QUAD_CUBIC, pts)
    for p, cls in zip(pts, batched):
        assert cls == sg.classify_point(QUAD_CUBIC, p)
    assert {cls.tag for cls in batched} >= {
        sg.TAG_REGULAR, sg.TAG_BRANCH, sg.TAG_FRONTAL_NOT_FRONT, sg.TAG_CUSPIDAL_EDGE,
        sg.TAG_SWALLOWTAIL,
    }
    assert sg._classify_points(QUAD_CUBIC, []) == []


@pytest.mark.parametrize("curve", [
    QUAD_CUBIC, CUBIC_QUARTIC, HoloCurve(ComplexPoly.monomial(2), ComplexPoly.monomial(3)),
], ids=["z2z3", "z3z4", "holo"])
def test_lift_frames_rows_equal_point_jets_bitwise(curve):
    surf = compile_surface(curve)
    pts = np.random.default_rng(5).uniform(-1.2, 1.2, (40, 2))
    x, nu = sg._lift_frames(surf, pts[:, 0], pts[:, 1])
    ranks = sg._lift_ranks(x, nu, sg._null_direction(sg._chart_matrix(surf, pts[:, 0], pts[:, 1]))[0])
    for k, (u, v) in enumerate(pts):
        for got, want in ((x, surf.position_jet(u, v)), (nu, surf.normal_jet(u, v))):
            for field in ("value", "du", "dv", "duu", "duv", "dvv"):
                assert getattr(got, field)[k].tobytes() == getattr(want, field).tobytes()
        assert ranks[k] == sg.lift_rank(curve, (u, v))
