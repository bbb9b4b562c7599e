"""Residual suites: positive oracles on known surfaces, negative controls."""

import numpy as np
import pytest

from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.residuals import (
    PatchNotGraph,
    ResidualReport,
    ccr_residual,
    duality_residual,
    lift_residual,
    metric_conformality,
    monge_ampere_residual,
    random_regular_points,
    regular_graph_patch,
    two_form_residual,
)
from affsphere.surfaces import Domain, HoloCurve, ParaCurve, compile_surface

Z = ParaPoly([0, 1])
ZERO = ParaPoly.zero()
Z2 = ParaPoly([0, 0, 1])
Z3 = ParaPoly([0, 0, 0, 1])
Z4 = ParaPoly([0, 0, 0, 0, 1])

LINEAR = ParaCurve(Z, ZERO)
QUAD_CUBIC = ParaCurve(Z2, Z3)
CUBIC_QUARTIC = ParaCurve(Z3, Z4)
LSC_PARABOLOID = HoloCurve(ComplexPoly.zero(), ComplexPoly([0, 1]))


def grid_points(n=5, lo=-0.9, hi=0.9):
    axis = np.linspace(lo, hi, n)
    return [(u, v) for u in axis for v in axis]


def random_para_curve(rng, degree=3):
    def poly():
        return ParaPoly([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree + 1)])

    return ParaCurve(poly(), poly())


def random_holo_curve(rng, degree=3):
    def poly():
        return ComplexPoly([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree + 1)])

    return HoloCurve(poly(), poly())


def test_report_dict_uses_pass_key():
    rep = ResidualReport("demo", 1.0, 0.5, 4, False, 0.1)
    d = rep.as_dict()
    assert d["pass"] is False
    assert d["name"] == "demo"
    assert set(d) == {"name", "max_abs", "mean_abs", "points_checked", "pass", "tolerance"}


def test_empty_point_set_passes_vacuously():
    rep = duality_residual(LINEAR, [])
    assert rep.points_checked == 0
    assert rep.passed


def test_duality_linear_curve_exact():
    rep = duality_residual(LINEAR, grid_points())
    assert rep.points_checked == 100
    assert rep.max_abs <= 1e-10
    assert rep.passed


def test_duality_quad_cubic():
    rng = np.random.default_rng(7)
    pts = random_regular_points(QUAD_CUBIC, 40, rng)
    rep = duality_residual(QUAD_CUBIC, pts)
    assert rep.max_abs <= 1e-8
    assert rep.passed


def test_duality_random_curves_both_signatures():
    rng = np.random.default_rng(11)
    for make in (random_para_curve, random_holo_curve):
        for _ in range(5):
            curve = make(rng)
            pts = random_regular_points(curve, 20, rng)
            rep = duality_residual(curve, pts)
            assert rep.max_abs <= 1e-8, (curve.signature, rep.max_abs)


def test_duality_fails_with_foreign_conormal():
    # Conormal data recomputed from a curve whose G has a corrupted coefficient.
    bad_g = ParaPoly([0, 0, 0, (1.0, 0.25)])
    bad = compile_surface(ParaCurve(Z2, bad_g))
    mixed = compile_surface(QUAD_CUBIC).with_patched_fields(
        n1=bad.fields["n1"], n2=bad.fields["n2"]
    )
    rng = np.random.default_rng(3)
    pts = random_regular_points(QUAD_CUBIC, 30, rng)
    rep = duality_residual(mixed, pts)
    assert not rep.passed


def test_two_form_random_points():
    rng = np.random.default_rng(5)
    pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(100)]
    rep = two_form_residual(QUAD_CUBIC, pts)
    assert rep.points_checked == 200
    assert rep.max_abs <= 1e-9
    rep_lsc = two_form_residual(LSC_PARABOLOID, pts)
    assert rep_lsc.max_abs <= 1e-9


def test_two_form_zero_curve_exactly_zero():
    rep = two_form_residual(ParaCurve(ZERO, ZERO), grid_points(3))
    assert rep.max_abs == 0.0
    assert rep.points_checked == 18


def test_two_form_negative_control_negated_n2():
    surf = compile_surface(QUAD_CUBIC).with_patched_fields(negate_n2=True)
    rng = np.random.default_rng(9)
    pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(50)]
    rep = two_form_residual(surf, pts)
    assert not rep.passed


def test_conformal_linear_values():
    surf = compile_surface(LINEAR)
    x1u = surf.fields["x1"].partial_u()
    n1u = surf.fields["n1"].partial_u()
    assert float(x1u(0.3, -0.2)) == 1.0
    g_uu = -(
        float(surf.fields["x1"].partial_u()(0.3, -0.2)) * float(n1u(0.3, -0.2))
        + float(surf.fields["x2"].partial_u()(0.3, -0.2))
        * float(surf.fields["n2"].partial_u()(0.3, -0.2))
    )
    assert g_uu == -1.0
    rep = metric_conformality(LINEAR, grid_points())
    assert rep.max_abs == 0.0


def test_conformal_random_curves():
    rng = np.random.default_rng(13)
    for make in (random_para_curve, random_holo_curve):
        curve = make(rng, degree=4)
        pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(100)]
        rep = metric_conformality(curve, pts)
        assert rep.max_abs <= 1e-9


def test_conformal_negative_control():
    surf = compile_surface(QUAD_CUBIC).with_patched_fields(negate_n1=True)
    rng = np.random.default_rng(17)
    pts = [(rng.uniform(0.2, 1), rng.uniform(-1, -0.2)) for _ in range(40)]
    rep = metric_conformality(surf, pts)
    assert not rep.passed


def test_regular_graph_patch_respects_floor():
    pts = regular_graph_patch(QUAD_CUBIC, Domain(-1, 1, -1, 1), res=20)
    assert len(pts) > 50
    surf = compile_surface(QUAD_CUBIC)
    for u, v in pts:
        assert abs(surf.area_density(u, v)) > 1e-6


def test_regular_graph_patch_degenerate_curve():
    with pytest.raises(PatchNotGraph):
        regular_graph_patch(ParaCurve(Z, Z), Domain(-1, 1, -1, 1))


def test_monge_ampere_linear_is_minus_one():
    rep = monge_ampere_residual(LINEAR, grid_points())
    assert rep.max_abs <= 1e-12
    assert rep.passed


def test_monge_ampere_lsc_paraboloid_is_plus_one():
    rep = monge_ampere_residual(LSC_PARABOLOID, grid_points())
    assert rep.max_abs <= 1e-12


def test_monge_ampere_quad_cubic_patch():
    patch = regular_graph_patch(QUAD_CUBIC, Domain(-1, 1, -1, 1), res=24)
    rep = monge_ampere_residual(QUAD_CUBIC, patch)
    assert rep.points_checked == len(patch)
    assert rep.max_abs <= 1e-5


def test_monge_ampere_rejects_singular_point():
    with pytest.raises(PatchNotGraph):
        monge_ampere_residual(QUAD_CUBIC, [(0.0, 0.0)])


def test_monge_ampere_negative_control_scaled_potential():
    surf = compile_surface(LINEAR).with_patched_fields(scale_phi=True)
    rep = monge_ampere_residual(surf, grid_points())
    assert not rep.passed
    assert rep.max_abs == pytest.approx(3.0, abs=1e-9)


def test_lift_linear_gradient_matches_oracle():
    from affsphere.residuals import _chart_solve

    surf = compile_surface(LINEAR)
    for u, v in ((0.4, 0.1), (-0.7, 0.6)):
        _, _, (p, q) = _chart_solve(u, v, surf.field_jets(u, v))
        assert p == pytest.approx(-u, abs=1e-14)
        assert q == pytest.approx(v, abs=1e-14)
    rep = lift_residual(LINEAR, grid_points())
    assert rep.max_abs <= 1e-12


def test_lift_cubic_quartic_patch():
    patch = regular_graph_patch(CUBIC_QUARTIC, Domain(-1, 1, -1, 1), res=24)
    rep = lift_residual(CUBIC_QUARTIC, patch)
    assert rep.max_abs <= 1e-5
    assert rep.passed


def test_lift_flip_q_negative_control():
    rep = lift_residual(LINEAR, grid_points(), flip_q=True)
    assert not rep.passed


def test_graph_gradient_is_minus_conormal():
    from affsphere.residuals import _chart_solve

    rng = np.random.default_rng(23)
    for make in (random_para_curve, random_holo_curve):
        curve = make(rng)
        surf = compile_surface(curve)
        for u, v in random_regular_points(curve, 15, rng):
            _, _, (p, q) = _chart_solve(u, v, surf.field_jets(u, v))
            n1 = float(surf.fields["n1"](u, v))
            n2 = float(surf.fields["n2"](u, v))
            scale = max(1.0, abs(n1), abs(n2))
            assert abs(p + n1) / scale < 1e-10
            assert abs(q + n2) / scale < 1e-10


def test_ccr_residual_on_quad_cubic():
    main, control = ccr_residual(QUAD_CUBIC, Domain(-1.2, 1.2, -1.2, 1.2))
    assert main.points_checked > 0
    assert main.passed
    assert control.passed
    assert control.name == "ccr_control"


def test_random_regular_points_avoid_singular_set():
    rng = np.random.default_rng(29)
    surf = compile_surface(QUAD_CUBIC)
    pts = random_regular_points(QUAD_CUBIC, 50, rng)
    assert len(pts) == 50
    for u, v in pts:
        assert abs(surf.area_density(u, v)) > 1e-3
