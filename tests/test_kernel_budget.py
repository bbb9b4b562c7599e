"""A tighter Horner-pass budget for one cold classification report.

The trace returns polylines only and evaluates no jet at their nodes; the
swallowtail search evaluates the nodes once, with one chart_jet pass that
gives both vectors of det(gamma', eta), before its Newton steps.  A change
that brings back a node pass in the trace, or a second one in the search,
exceeds the budget.  Classification takes one chart_jet pass over all its
rows, for lam, its gradient, the chart components and the front criteria,
and one field_jets pass over the singular rows, for the lift ranks and Psi.
`null_vector` takes lam and the chart components from one chart_jet call.
"""

import numpy as np
import pytest

from affsphere import surfaces
from affsphere import singularities as sg
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import Domain, ParaCurve, Surface, compile_surface

CURVES = {
    "z2z3": ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3)),
    "z3z4": ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4)),
}
# Horner passes of one cold classification_report at res 64 on Domain(), the
# three of Surface._build included, as measured with one chart_jet and one
# field_jets pass in classification and one chart_jet pass over the traced
# nodes; a second node pass in the trace made 25 on both curves.
HORNER_BUDGET = {"z2z3": 24, "z3z4": 24}
# Surface kernel methods, each counted apart
KERNELS = ("chart_jet", "field_jets", "chart_derivatives")


def _count_kernel_calls(monkeypatch, methods=KERNELS):
    calls = {}
    for method in methods:
        def counted(self, u, v, _method=method, _original=getattr(Surface, method)):
            calls[_method] = calls.get(_method, 0) + 1
            return _original(self, u, v)

        monkeypatch.setattr(Surface, method, counted)
    return calls


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
    calls = _count_kernel_calls(monkeypatch)
    classes = sg._classify_points(curve, nodes)
    assert sg.TAG_FRONTAL_NOT_FRONT in {cls.tag for cls in classes}
    assert calls == {"chart_jet": 1, "field_jets": 1}


def test_null_vector_takes_one_chart_jet_call(monkeypatch):
    curve = CURVES["z3z4"]
    compile_surface(curve)
    calls = _count_kernel_calls(monkeypatch, KERNELS + ("_density",))
    sg.null_vector(curve, (1.0, 1.0))
    assert calls == {"chart_jet": 1}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_trace_evaluates_no_jet_and_the_search_one_before_newton(name, monkeypatch):
    curve = CURVES[name]
    calls = _count_kernel_calls(monkeypatch)
    traced = sg.trace_singular_curves(curve, Domain(), 64)
    assert calls == {}
    before_newton = []

    def newton(surf, seeds, reach):
        before_newton.append(dict(calls))
        return seeds

    monkeypatch.setattr(sg, "_swallowtail_newton", newton)
    assert len(sg._swallowtail_roots(compile_surface(curve), traced)) > 0
    assert before_newton == [{"chart_jet": 1}]
