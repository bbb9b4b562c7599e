"""A tighter Horner-pass budget for one cold classification report.

The trace evaluates the density once for the nodes of all its lines and
runs, and the swallowtail search takes its bracket references from the
node pass instead of evaluating the kernel again at those nodes.  A change
that brings back a per-piece density call or the second node pass exceeds
the budget.
"""

import pytest

from affsphere import surfaces
from affsphere import singularities as sg
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import Domain, ParaCurve

CURVES = {
    "z2z3": ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3)),
    "z3z4": ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4)),
}
# Horner passes of one cold classification_report at res 64 on Domain(), the
# three of Surface._build included, as measured with one density pass per
# trace; a density pass per null line and traced run, and a second kernel
# pass at the swallowtail bracket nodes, made 57 and 63.
HORNER_BUDGET = {"z2z3": 52, "z3z4": 58}


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
