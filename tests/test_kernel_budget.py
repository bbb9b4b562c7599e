"""A tighter Horner-pass budget for one cold classification report.

The trace evaluates the density once for the nodes of all its lines and
runs, and the swallowtail search takes its bracket references from the
node pass instead of evaluating the kernel again at those nodes.  A change
that brings back a per-piece density call or the second node pass exceeds
the budget.  Classification takes one chart_jet pass over all its rows,
for lam, its gradient, the chart components and the front criteria, and
one field_jets pass over the singular rows, for the lift ranks and Psi.
"""

import numpy as np
import pytest

from affsphere import surfaces
from affsphere import singularities as sg
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import Domain, ParaCurve, Surface

CURVES = {
    "z2z3": ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3)),
    "z3z4": ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4)),
}
# Horner passes of one cold classification_report at res 64 on Domain(), the
# three of Surface._build included, as measured with one chart_jet and one
# field_jets pass in classification; separate density_jet, chart_derivatives
# and chart_jet passes for the same rows made 27 on both curves.
HORNER_BUDGET = {"z2z3": 25, "z3z4": 25}


@pytest.mark.parametrize("name", sorted(HORNER_BUDGET))
def test_horner_pass_budget(name, monkeypatch):
    calls = []
    original = surfaces._horner

    def counted(*args):
        calls.append(1)
        return original(*args)

    surfaces._compiled.cache_clear()
    monkeypatch.setattr(surfaces, "_horner", counted)
    sg.classification_report(CURVES[name], Domain(), grid_res=64)
    assert len(calls) <= HORNER_BUDGET[name]


@pytest.mark.parametrize("name", sorted(CURVES))
def test_classification_takes_each_jet_once(name, monkeypatch):
    curve = CURVES[name]
    traced = sg.trace_singular_curves(curve, Domain(), 64)
    nodes = np.concatenate([sc.points for sc in traced])
    calls = {}
    for method in ("chart_jet", "field_jets", "density_jet", "chart_derivatives"):
        def counted(self, u, v, _method=method, _original=getattr(Surface, method)):
            calls[_method] = calls.get(_method, 0) + 1
            return _original(self, u, v)

        monkeypatch.setattr(Surface, method, counted)
    classes = sg._classify_points(curve, nodes)
    assert sg.TAG_FRONTAL_NOT_FRONT in {cls.tag for cls in classes}
    assert calls == {"chart_jet": 1, "field_jets": 1}
