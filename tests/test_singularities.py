"""Singular set tracing, null directions, and classification criteria."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import Domain, HoloCurve, Jet2, ParaCurve, compile_surface
from affsphere import singularities as sg

QUAD_CUBIC = ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3))
CUBIC_QUARTIC = ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4))
BOX = Domain(-1.2, 1.2, -1.2, 1.2)


def hyperbola_point(t, sign=1):
    return (sign * 2 / 3 * np.cosh(t), sign * 2 / 3 * np.sinh(t))


# -- density and gradient ----------------------------------------------------


def test_density_and_gradient_exact():
    u, v = Fraction(1, 2), Fraction(1, 3)
    m = u * u - v * v
    assert sg.area_density(QUAD_CUBIC, (u, v)) == m * (4 - 9 * m)
    gu, gv = sg.grad_density(QUAD_CUBIC, (u, v))
    assert gu == (4 - 18 * m) * 2 * u
    assert gv == (4 - 18 * m) * (-2) * v


def test_gradient_degenerate_points():
    assert sg.grad_density(QUAD_CUBIC, (0, 0)) == (0, 0)
    assert sg.grad_density(CUBIC_QUARTIC, (1, 1)) == (0, 0)


# -- tracing -------------------------------------------------------------------


def test_trace_quad_cubic_locus():
    curves = sg.trace_singular_curves(QUAD_CUBIC, BOX, 64)
    lines = [sc for sc in curves if sc.kind == "null-line"]
    traced = [sc for sc in curves if sc.kind == "traced"]
    assert sorted(sc.line for sc in lines) == [("difference", 0.0), ("sum", 0.0)]
    assert len(traced) == 2
    for sc in traced:
        m = sc.points[:, 0] ** 2 - sc.points[:, 1] ** 2
        assert np.max(np.abs(m - 4 / 9)) < 1e-10
    sides = sorted(np.sign(sc.points[0, 0]) for sc in traced)
    assert sides == [-1, 1]


def test_trace_refinement_and_tangents():
    curves = sg.trace_singular_curves(QUAD_CUBIC, BOX, 64)
    surf = compile_surface(QUAD_CUBIC)
    for sc in curves:
        if sc.kind != "traced":
            continue
        for q, tan, flag in zip(sc.points, sc.tangents, sc.degenerate_flags):
            assert abs(surf.fields["density"](q[0], q[1])) < 1e-11
            assert not flag
            _, gu, gv = surf.density_jet(float(q[0]), float(q[1]))
            rot = np.array([-gv, gu])
            rot = rot / np.hypot(*rot)
            assert abs(abs(tan @ rot) - 1) < 1e-9
        steps = np.diff(sc.points, axis=0)
        dots = np.einsum("ij,ij->i", sc.tangents[:-1], steps)
        assert np.all(dots > 0)


def test_trace_empty_cases():
    assert sg.trace_singular_curves(
        ParaCurve(ParaPoly.monomial(1), ParaPoly.zero()), BOX, 32
    ) == []
    degenerate = ParaCurve(ParaPoly.monomial(1), ParaPoly.monomial(1))
    assert sg.trace_singular_curves(degenerate, BOX, 32) == []


def test_trace_resolution_guard():
    with pytest.raises(ValueError):
        sg.trace_singular_curves(QUAD_CUBIC, BOX, 8)


def test_trace_cubic_quartic_has_doubled_lines():
    curves = sg.trace_singular_curves(CUBIC_QUARTIC, BOX, 64)
    lines = sorted(sc.line for sc in curves if sc.kind == "null-line")
    assert lines == [("difference", 0.0), ("sum", 0.0)]
    traced = [sc for sc in curves if sc.kind == "traced"]
    assert len(traced) == 2
    for sc in traced:
        m = sc.points[:, 0] ** 2 - sc.points[:, 1] ** 2
        assert np.max(np.abs(m - 9 / 16)) < 1e-10


def test_trace_closed_singular_circle():
    # |G'| = |F'| on the circle of radius 0.8 for F = z^2/2, G = 0.8 z
    curve = HoloCurve(
        ComplexPoly([(0, 0), (0, 0), (0.5, 0)]), ComplexPoly([(0, 0), (0.8, 0)])
    )
    curves = sg.trace_singular_curves(curve, Domain(-1.5, 1.5, -1.5, 1.5), 64)
    assert len(curves) == 1
    sc = curves[0]
    assert sc.closed and sc.kind == "traced"
    radii = np.hypot(sc.points[:, 0], sc.points[:, 1])
    assert np.max(np.abs(radii - 0.8)) < 1e-10


# -- null directions ------------------------------------------------------------


def test_null_vector_matches_printed_parametrizations():
    surf = compile_surface(QUAD_CUBIC)
    for t in (0.0, 0.5, 1.0, -0.7):
        c, s = np.cosh(t), np.sinh(t)
        eta = sg.null_vector(QUAD_CUBIC, hyperbola_point(t))
        printed = np.array([-(c + 1) * (2 * c - 1), s * (1 + 2 * c)])
        assert abs(eta[0] * printed[1] - eta[1] * printed[0]) < 1e-12
        m = sg._chart_matrix(surf, *hyperbola_point(t))
        assert np.linalg.norm(m @ eta) <= 1e-7 * np.linalg.norm(m)
    for t in (0.0, 0.8):
        c, s = np.cosh(t), np.sinh(t)
        eta = sg.null_vector(QUAD_CUBIC, hyperbola_point(t, sign=-1))
        printed = np.array([-s * (1 + 2 * c), (c + 1) * (2 * c - 1)])
        assert abs(eta[0] * printed[1] - eta[1] * printed[0]) < 1e-12


def test_null_vector_corank_one_point():
    eta = sg.null_vector(CUBIC_QUARTIC, (1.0, 1.0))
    assert abs(eta[0] + eta[1]) < 1e-12  # parallel to (1, -1)
    m = sg._chart_matrix(compile_surface(CUBIC_QUARTIC), 1.0, 1.0)
    assert np.linalg.norm(m @ eta) < 1e-12


def test_null_vector_errors():
    with pytest.raises(sg.NotSingular):
        sg.null_vector(QUAD_CUBIC, (0.3, 0.0))
    with pytest.raises(sg.BranchPointError):
        sg.null_vector(QUAD_CUBIC, (0.0, 0.0))


def test_null_vector_residual_on_traced_points():
    for curve in (QUAD_CUBIC, CUBIC_QUARTIC):
        surf = compile_surface(curve)
        for sc in sg.trace_singular_curves(curve, BOX, 48):
            for q in sc.points[:: max(1, len(sc) // 8)]:
                try:
                    eta = sg.null_vector(curve, q)
                except (sg.BranchPointError, sg.NotSingular):
                    continue
                m = sg._chart_matrix(surf, q[0], q[1])
                assert np.linalg.norm(m @ eta) <= 1e-7 * max(
                    np.linalg.norm(m), 1.0
                )


# -- lift rank -------------------------------------------------------------------


def test_lift_rank_spectrum():
    zero = ParaCurve(ParaPoly.zero(), ParaPoly.zero())
    assert sg.lift_rank(zero, (0.3, 0.1)) == 0
    assert sg.lift_rank(CUBIC_QUARTIC, (1.0, 1.0)) == 1
    assert sg.lift_rank(QUAD_CUBIC, hyperbola_point(0.5)) == 2
    assert sg.lift_rank(QUAD_CUBIC, (0.25, 0.1)) == 2  # regular point
    lsc = HoloCurve(ComplexPoly.monomial(2), ComplexPoly.monomial(3))
    assert abs(float(sg.area_density(lsc, (2 / 3, 0.0)))) < 1e-15
    assert sg.lift_rank(lsc, (2 / 3, 0.0)) == 2


def test_lift_rank_one_iff_frontal_not_front():
    surf = compile_surface(QUAD_CUBIC)
    tols = sg.tolerances_for(QUAD_CUBIC, 1.2)
    for sc in sg.trace_singular_curves(QUAD_CUBIC, BOX, 48):
        for q in sc.points[:: max(1, len(sc) // 10)]:
            if np.hypot(q[0], q[1]) < 0.05:
                continue
            fnf = sg._fnf_kind(surf, surf.chart_derivatives(q[0], q[1]), tols) is not None
            assert (sg.lift_rank(QUAD_CUBIC, q) == 1) == fnf


# -- classification ----------------------------------------------------------------


def test_classify_regular_and_branch():
    assert sg.classify_point(QUAD_CUBIC, (0.3, 0.0)).tag == sg.TAG_REGULAR
    origin = sg.classify_point(QUAD_CUBIC, (0.0, 0.0))
    assert origin.tag == sg.TAG_BRANCH
    assert origin.degenerate


def test_classify_quad_cubic_table():
    # cuspidal edges along both hyperbola branches except the swallowtail
    for t in np.linspace(-1.0, 1.0, 5):
        cls = sg.classify_point(QUAD_CUBIC, hyperbola_point(t))
        assert cls.tag == sg.TAG_CUSPIDAL_EDGE
        assert abs(cls.evidence.det_ge) > 1e-6
        assert cls.evidence.lift_rank == 2
    for t in (0.4, 1.0):
        cls = sg.classify_point(QUAD_CUBIC, hyperbola_point(t, sign=-1))
        assert cls.tag == sg.TAG_CUSPIDAL_EDGE
    tail = sg.classify_point(QUAD_CUBIC, (-2 / 3, 0.0))
    assert tail.tag == sg.TAG_SWALLOWTAIL
    assert abs(tail.evidence.det_ge) <= 1e-6
    assert abs(tail.evidence.ddet_ge) > 1e-3
    for p in [(0.5, 0.5), (-0.4, -0.4), (0.5, -0.5)]:
        cls = sg.classify_point(QUAD_CUBIC, p)
        assert cls.tag == sg.TAG_FRONTAL_NOT_FRONT
        assert cls.evidence.lift_rank == 1
        assert abs(cls.evidence.dpsi0) < 1e-10


def test_classify_corank_one_degenerate_point():
    cls = sg.classify_point(CUBIC_QUARTIC, (1.0, 1.0))
    assert cls.tag == sg.TAG_FRONTAL_NOT_FRONT
    assert cls.degenerate
    assert cls.evidence.lift_rank == 1
    assert cls.evidence.psi0 == 0.0
    assert abs(cls.evidence.dpsi0) < 1e-10


def test_classify_degenerate_other():
    flat = ParaCurve(ParaPoly.monomial(1), ParaPoly.monomial(1))
    cls = sg.classify_point(flat, (0.3, 0.2))
    assert cls.tag == sg.TAG_DEGENERATE_OTHER
    assert cls.degenerate


def test_classify_trace_required_with_explicit_traced():
    with pytest.raises(sg.TraceRequired):
        sg.classify_point(QUAD_CUBIC, hyperbola_point(0.5), traced=[])


def test_classify_accepts_matching_traced():
    traced = sg.trace_singular_curves(QUAD_CUBIC, BOX, 64)
    cls = sg.classify_point(QUAD_CUBIC, hyperbola_point(0.5), traced=traced)
    assert cls.tag == sg.TAG_CUSPIDAL_EDGE


def test_evidence_dict_schema():
    cls = sg.classify_point(QUAD_CUBIC, (0.3, 0.0))
    assert set(cls.evidence.as_dict()) == {
        "lambda", "grad_norm", "det_ge", "ddet_ge", "psi0", "dpsi0", "lift_rank"
    }


# -- cuspidal cross cap obstruction ---------------------------------------------


def test_ccr_obstruction_vanishes_on_null_lines():
    for p in [(0.5, 0.5), (-0.4, -0.4), (0.5, -0.5), (0.8, 0.8)]:
        psi0, dpsi0 = sg.ccr_psi(QUAD_CUBIC, p)
        assert abs(psi0) < 1e-12
        assert abs(dpsi0) < 1e-10
    for p in [(1.0, 1.0), (0.6, 0.6), (0.7, -0.7)]:
        psi0, dpsi0 = sg.ccr_psi(CUBIC_QUARTIC, p)
        assert abs(psi0) < 1e-12
        assert abs(dpsi0) < 1e-10


def _control_psi_derivative():
    """Psi'(0) of the frontal (u, v^2, u v^3) along v = 0, with eta = (0, 1), by sympy."""
    u, v, t = sympy.symbols("u v t", real=True)
    x = sympy.Matrix([u, v**2, u * v**3])
    normal = sympy.Matrix([-2 * v**3, -3 * u * v, 2])
    assert sympy.simplify(normal.dot(x.diff(u))) == 0 and sympy.simplify(normal.dot(x.diff(v))) == 0
    nu = normal / sympy.sqrt(normal.dot(normal))
    psi = sympy.Matrix.hstack(x.diff(u), nu.diff(v), nu).det().subs({u: t, v: 0})
    return sympy.diff(psi, t).subs(t, 0)


def test_ccr_control_is_not_vacuous():
    psi0, dpsi0 = sg.ccr_psi_control()
    assert _control_psi_derivative() == sympy.Rational(-3, 2)
    assert abs(psi0) < 1e-12
    assert dpsi0 == -1.5


def test_ccr_control_is_computed_once_per_process(monkeypatch):
    first = sg.ccr_psi_control()

    def recomputed(*args):
        raise AssertionError("ccr_psi_control ran its jets again")

    monkeypatch.setattr(sg, "_psi", recomputed)
    assert sg.ccr_psi_control() == first


def _jet(field, u, v, at):
    """Jet2 of (1, 3) rows of a sympy vector field at the point at."""
    parts = [field, field.diff(u), field.diff(v), field.diff(u, 2), field.diff(u, v), field.diff(v, 2)]
    return Jet2(*(np.array([[float(c) for c in part.subs({u: at[0], v: at[1]})]]) for part in parts))


def test_psi_is_the_derivative_along_the_line():
    # Psi is multilinear in its three rows, so any fields exercise every term
    # of its derivative: det(x_d, nu_eta, nu) along p + t d against sympy
    u, v, t = sympy.symbols("u v t", real=True)
    x = sympy.Matrix([u**2 * v + v, u * v**2 - u**3, u + 2 * v**3])
    nu = sympy.Matrix([v**2 - u, u * v + 1, u**2 + v])
    p, d, eta = (sympy.Rational(1, 3), sympy.Rational(-1, 2)), (3, 4), (-12, 5)
    d, eta = [sympy.Matrix(w) / sympy.sqrt(w[0] ** 2 + w[1] ** 2) for w in (d, eta)]
    x_d = x.diff(u) * d[0] + x.diff(v) * d[1]
    nu_eta = nu.diff(u) * eta[0] + nu.diff(v) * eta[1]
    psi = sympy.Matrix.hstack(x_d, nu_eta, nu).det().subs({u: p[0] + t * d[0], v: p[1] + t * d[1]})
    want = [float(psi.subs(t, 0)), float(sympy.diff(psi, t).subs(t, 0))]
    rows = [np.array([list(w)], dtype=float) for w in (d, eta)]
    got = sg._psi(_jet(x, u, v, p), _jet(nu, u, v, p), *rows)
    np.testing.assert_allclose([got[0][0], got[1][0]], want, rtol=1e-13)
    assert abs(want[1]) > 0.1


def test_ccr_errors():
    with pytest.raises(sg.NotSingular):
        sg.ccr_psi(QUAD_CUBIC, (0.3, 0.0))
    flat = ParaCurve(ParaPoly.monomial(1), ParaPoly.monomial(1))
    with pytest.raises(sg.TraceRequired):
        sg.ccr_psi(flat, (0.3, 0.2))


# -- swallowtail location -----------------------------------------------------------


def test_locate_swallowtails_quad_cubic():
    traced = sg.trace_singular_curves(QUAD_CUBIC, BOX, 64)
    found = sg.locate_swallowtails(QUAD_CUBIC, traced)
    assert len(found) == 1
    q, cls = found[0]
    assert cls.tag == sg.TAG_SWALLOWTAIL
    assert np.hypot(q[0] + 2 / 3, q[1]) < 1e-8


def test_locate_swallowtails_cubic_quartic_front_locus():
    traced = sg.trace_singular_curves(CUBIC_QUARTIC, BOX, 64)
    found = sg.locate_swallowtails(CUBIC_QUARTIC, traced)
    assert len(found) == 1
    q, _ = found[0]
    assert q[0] < 0
    assert abs(q[0] ** 2 - q[1] ** 2 - 9 / 16) < 1e-10
    assert np.hypot(q[0] + 3 / 4, q[1]) < 1e-8
    # the printed location -2/3 is not on the front locus
    assert abs(float(sg.area_density(CUBIC_QUARTIC, (Fraction(-2, 3), 0)))) > 0.3


@pytest.mark.parametrize("curve, tail, want", [
    (QUAD_CUBIC, (-2 / 3, 0.0), 15 / 4), (CUBIC_QUARTIC, (-3 / 4, 0.0), 14 / 3),
], ids=["z2z3", "z3z4"])
def test_swallowtail_derivative_is_the_exact_one(curve, tail, want):
    # dD/dt of the closed form, which a stencil along the curve only approximates
    found = sg.locate_swallowtails(curve, sg.trace_singular_curves(curve, BOX, 64))
    assert len(found) == 1
    q, cls = found[0]
    assert np.hypot(q[0] - tail[0], q[1] - tail[1]) <= 1e-12
    for ddet in (cls.evidence.ddet_ge, sg.classify_point(curve, tail).evidence.ddet_ge):
        assert abs(abs(ddet) - want) <= 1e-12 * want


# -- global properties -----------------------------------------------------------


def test_sign_agreement_density_vs_frame_determinant():
    rng = np.random.default_rng(11)
    curves = [
        QUAD_CUBIC,
        CUBIC_QUARTIC,
        ParaCurve(
            ParaPoly([(0, 0), (1, Fraction(1, 2)), (Fraction(-1, 3), 1)]),
            ParaPoly([(0, 0), (0, 1), (1, Fraction(2, 3))]),
        ),
        HoloCurve(ComplexPoly.monomial(2), ComplexPoly.monomial(3)),
    ]
    checked = 0
    for curve in curves:
        surf = compile_surface(curve)
        for _ in range(50):
            u, v = rng.uniform(-1.2, 1.2, size=2)
            lam = float(surf.fields["density"](u, v))
            if abs(lam) < 1e-6:
                continue
            pj = surf.position_jet(u, v)
            nj = surf.normal_jet(u, v)
            det = float(np.linalg.det(np.array([pj.du, pj.dv, nj.value])))
            assert np.sign(det) == np.sign(lam)
            checked += 1
    assert checked >= 150


def test_classification_report_schema():
    report = sg.classification_report(
        QUAD_CUBIC, BOX, grid_res=32, probes=[(-2 / 3, 0.0), (0.3, 0.0)]
    )
    assert set(report) == {"curve", "domain", "singular_curves", "points"}
    assert report["curve"]["signature"] == "indefinite"
    assert report["domain"] == [-1.2, 1.2, -1.2, 1.2]
    assert len(report["singular_curves"]) >= 3
    tags = {p["class"] for p in report["points"]}
    assert sg.TAG_SWALLOWTAIL in tags
    assert sg.TAG_CUSPIDAL_EDGE in tags
    assert sg.TAG_FRONTAL_NOT_FRONT in tags
    probe_tags = [
        p["class"] for p in report["points"]
        if abs(p["u"] - 0.3) < 1e-9 and abs(p["v"]) < 1e-9
    ]
    assert probe_tags == [sg.TAG_REGULAR]
    for p in report["points"]:
        assert set(p["evidence"]) == {
            "lambda", "grad_norm", "det_ge", "ddet_ge", "psi0", "dpsi0", "lift_rank"
        }


# Pool curve d3-lsc-26 of the classify benchmark: with closed singular curves
# started from a hash-ordered set it reported 4 or 5 swallowtails depending on
# PYTHONHASHSEED.
HASH_SENSITIVE_CURVE = {
    "signature": "lsc",
    "F": [["2/3", "17/6"], ["11/6", "-4/3"], ["5/2", "1/2"], ["3/2", "-3"]],
    "G": [["-5/2", "-7/3"], ["-1/6", "3/2"], ["-2/3", "7/3"], ["2/3", "11/6"]],
}
REPORT_SCRIPT = """
import json, sys
from affsphere.io import curve_from_json
from affsphere.singularities import classification_report
from affsphere.surfaces import Domain
curve = curve_from_json(json.loads(sys.argv[1]))
print(json.dumps(classification_report(curve, Domain(), grid_res=64)))
"""


def test_classification_report_independent_of_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", REPORT_SCRIPT, json.dumps(HASH_SENSITIVE_CURVE)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        reports.append(proc.stdout)
    assert reports[1:] == reports[:1] * 3
    tags = [p["class"] for p in json.loads(reports[0])["points"]]
    assert tags.count(sg.TAG_SWALLOWTAIL) == 5
