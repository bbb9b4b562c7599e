"""The CLI's probe snap takes every exit path, and classification runs no solver.

`cli._snap_probe` pulls a probe onto {lam = 0} by nearest-point Newton steps:
it keeps a singular probe, stops at |lam| <= tol, gives up on a zero
gradient or a step beyond half a grid cell, and after 60 steps accepts
|lam| <= 100 tol.  Classification takes its front criteria, its swallowtail
roots and Psi from closed-form jets: Brent's method does not run in
`_classify_points`, `_swallowtail_roots`, `ccr_psi` or `ccr_residual`, and
the last two do not run the swallowtail Newton either; each takes two
kernel passes, the classifier's chart_jet and field_jets.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from affsphere import cli, io, residuals
from affsphere import singularities as sg
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import Domain, HoloCurve, ParaCurve, Surface, compile_surface

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "classify.json"
QUAD_CUBIC = ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3))
CUBIC_QUARTIC = ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4))
# lam = -(1 - 4|z|^2): zero on the circle |z| = 1/2, a critical point at 0
CIRCLE = HoloCurve(ComplexPoly([0, 1]), ComplexPoly([0, 0, 1]))


def _pool(pool_id):
    entry = next(e for e in json.loads(REFS.read_text())["pool"] if e["id"] == pool_id)
    return io.curve_from_json(entry["curve"])


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# -- the probe snap ----------------------------------------------------------------


def _snap(monkeypatch, p, res=8, sing=None):
    """(snapped probe, density_jet calls) of `_snap_probe` on CIRCLE over
    Domain(), with the singular tolerance replaced by sing when given."""
    if sing is not None:
        monkeypatch.setattr(sg, "tolerances_for", lambda curve, radius: sg.Tolerances(sing, 1e-7, 1e-9))
    compile_surface(CIRCLE)
    jets = _counting(monkeypatch, Surface, "density_jet")
    return cli._snap_probe(CIRCLE, Domain(), res, p), len(jets)


def test_snap_keeps_a_singular_probe(monkeypatch):
    p = (0.5, 0.0)
    q, calls = _snap(monkeypatch, p)
    assert q is p and calls == 0


def test_snap_converges_onto_the_circle(monkeypatch):
    q, calls = _snap(monkeypatch, (0.3, 0.45))
    assert q != (0.3, 0.45) and 1 < calls < 60
    lam = compile_surface(CIRCLE).density_jet(*q)[0]
    assert abs(lam) <= sg.tolerances_for(CIRCLE, 1.0).sing
    assert abs(np.hypot(*q) - 0.5) < 1e-9


def test_snap_gives_up_on_a_zero_gradient(monkeypatch):
    p = (0.0, 0.0)
    q, calls = _snap(monkeypatch, p)
    assert q is p and calls == 1


def test_snap_gives_up_on_a_step_beyond_half_a_cell(monkeypatch):
    p = (0.6, 0.1)
    assert _snap(monkeypatch, p)[0] != p  # the steps stay within half a cell at res 8
    q, calls = _snap(monkeypatch, p, res=4096)
    assert q is p and calls == 1


def test_snap_after_60_steps_accepts_within_100_tol(monkeypatch):
    q, calls = _snap(monkeypatch, (0.6, 0.1), sing=1e-18)
    assert calls == 61  # the fallback evaluation ran
    lam = compile_surface(CIRCLE).density_jet(*q)[0]
    assert 1e-18 < abs(lam) <= 1e-16
    assert abs(np.hypot(*q) - 0.5) < 1e-15


def test_snap_after_60_steps_keeps_the_probe_beyond_100_tol(monkeypatch):
    p = (0.41, 0.29)
    q, calls = _snap(monkeypatch, p, sing=0.0)
    assert calls == 61 and q is p


# -- classification without solvers ------------------------------------------------


@pytest.mark.parametrize("name", ["z2z3", "z3z4", "d3-lsc-26"])
def test_classification_reaches_no_solver(name, monkeypatch):
    curve = {"z2z3": QUAD_CUBIC, "z3z4": CUBIC_QUARTIC}.get(name) or _pool(name)
    surf = compile_surface(curve)
    traced = sg.trace_singular_curves(curve, Domain(), 64)
    nodes = np.concatenate([sc.points for sc in traced])

    def never(*args, **kwargs):
        raise AssertionError("a solver ran during classification")

    monkeypatch.setattr(sg, "_brent", never)
    classes = sg._classify_points(curve, nodes)
    roots = sg._swallowtail_roots(surf, traced)
    assert all(cls.tag is not None for cls in classes)
    assert len(roots) and {cls.tag for cls in sg._classify_points(curve, roots)} >= {sg.TAG_SWALLOWTAIL}


# a point on an exact frontal-not-front null line of each curve
NULL_LINE_POINTS = {"z2z3": (0.5, 0.5), "z3z4": (0.6, 0.6)}


@pytest.mark.parametrize("name", sorted(NULL_LINE_POINTS))
def test_psi_reaches_no_solver_and_one_field_jets_pass(name, monkeypatch):
    curve = {"z2z3": QUAD_CUBIC, "z3z4": CUBIC_QUARTIC}[name]
    compile_surface(curve)

    def never(*args, **kwargs):
        raise AssertionError("a solver ran for Psi")

    monkeypatch.setattr(sg, "_brent", never)
    monkeypatch.setattr(sg, "_swallowtail_newton", never)
    jets = _counting(monkeypatch, Surface, "field_jets")
    passes = _counting(monkeypatch, Surface, "_eval")
    psi0, dpsi0 = sg.ccr_psi(curve, NULL_LINE_POINTS[name])
    assert len(jets) == 1 and len(passes) == 2 and abs(psi0) < 1e-12 and abs(dpsi0) < 1e-10
    jets.clear()
    passes.clear()
    ccr, _ = residuals.ccr_residual(curve)
    assert len(jets) == 1 and len(passes) == 2 and ccr.points_checked > 0 and ccr.passed
