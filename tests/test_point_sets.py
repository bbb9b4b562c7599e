"""Point sets as arrays: field_jets on arrays, and one kernel call per residual suite."""

from fractions import Fraction

import numpy as np
import pytest

from affsphere import residuals
from affsphere.bipoly import BiPoly
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.residuals import PatchNotGraph, regular_graph_patch
from affsphere.surfaces import FIELD_NAMES, Domain, HoloCurve, ParaCurve, Surface, compile_surface

SIGNATURES = [(ParaCurve, ParaPoly), (HoloCurve, ComplexPoly)]
QUAD_CUBIC = ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1]))
BOX = Domain(-1.2, 1.2, -1.2, 1.2)
PATCH_BIPOLY = BiPoly({(0, 0): Fraction(1, 3), (1, 0): 0.75, (2, 1): -1.25, (0, 3): 2.5})
PATCHES = [
    {},
    {"negate_n1": True},
    {"scale_phi": True},
    {"n2": PATCH_BIPOLY},
    {"phi": PATCH_BIPOLY, "negate_n1": True},
]
POINT_SUITES = [
    residuals.duality_residual,
    residuals.two_form_residual,
    residuals.metric_conformality,
]
PATCH_SUITES = [residuals.monge_ampere_residual, residuals.lift_residual]


def _random_curve(rng, curve_cls, poly_cls, degree=4):
    def poly():
        return poly_cls([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree + 1)])

    return curve_cls(poly(), poly())


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("patch", PATCHES, ids=lambda p: "+".join(p) or "plain")
@pytest.mark.parametrize("curve_cls,poly_cls", SIGNATURES, ids=["indefinite", "lsc"])
def test_field_jets_on_arrays_match_points_bit_for_bit(curve_cls, poly_cls, patch):
    rng = np.random.default_rng(7)
    surf = compile_surface(_random_curve(rng, curve_cls, poly_cls)).with_patched_fields(**patch)
    u, v = rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.5, 1.5, 40)
    got = surf.field_jets(u, v)
    want = [surf.field_jets(a, b) for a, b in zip(u.tolist(), v.tolist())]
    for name in FIELD_NAMES:
        for k in range(6):
            column = [getattr(j, name)[k] for j in want]
            assert all(type(x) is float for x in column), (name, k)
            assert np.array_equal(_bits(getattr(got, name)[k]), _bits(column)), (name, k)


@pytest.mark.parametrize("suite", POINT_SUITES + PATCH_SUITES, ids=lambda f: f.__name__)
def test_each_suite_calls_field_jets_once(suite, monkeypatch):
    surf = compile_surface(QUAD_CUBIC)
    points = regular_graph_patch(surf, BOX, res=12)
    calls = []
    original = Surface.field_jets

    def counted(self, u, v):
        calls.append(np.size(u))
        return original(self, u, v)

    monkeypatch.setattr(Surface, "field_jets", counted)
    rep = suite(surf, points)
    assert calls == [len(points)]
    assert rep.points_checked > 0


@pytest.mark.parametrize("suite", POINT_SUITES + PATCH_SUITES, ids=lambda f: f.__name__)
def test_suites_accept_any_point_set(suite):
    surf = compile_surface(QUAD_CUBIC)
    empty = suite(surf, [])
    assert (empty.points_checked, empty.passed, empty.max_abs) == (0, True, 0.0)
    assert suite(surf, np.empty((0, 2))).points_checked == 0
    points = regular_graph_patch(surf, BOX, res=10)
    pairs = [(float(a), float(b)) for a, b in points]
    reports = [
        suite(surf, pairs),
        suite(surf, points),
        suite(surf, ((a, b) for a, b in pairs)),
    ]
    assert reports[0].points_checked >= len(pairs)
    assert reports[0].passed
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_suites_reject_points_that_are_not_pairs():
    with pytest.raises(ValueError):
        residuals.duality_residual(QUAD_CUBIC, [(0.5, 0.1, 0.2)])


@pytest.mark.parametrize("suite", PATCH_SUITES, ids=lambda f: f.__name__)
def test_patch_suites_name_first_degenerate_point(suite):
    # (z^2, z^3): the density vanishes where u^2 = v^2
    regular = [(0.5, 0.1), (0.9, -0.3)]
    with pytest.raises(PatchNotGraph, match=r"\(0\.25, 0\.25\)"):
        suite(QUAD_CUBIC, [regular[0], (0.25, 0.25), regular[1], (0.0, 0.0)])
    with pytest.raises(PatchNotGraph, match=r"\(0\.0, 0\.0\)"):
        suite(QUAD_CUBIC, [regular[0], (0.0, 0.0), regular[1], (0.25, 0.25)])


@pytest.mark.parametrize("curve_cls,poly_cls", SIGNATURES, ids=["indefinite", "lsc"])
def test_chart_solve_on_arrays_matches_lu_per_point(curve_cls, poly_cls):
    # Cramer's rule against LAPACK's LU solve, one point at a time
    surf = compile_surface(_random_curve(np.random.default_rng(11), curve_cls, poly_cls))
    points = regular_graph_patch(surf, BOX, res=16)
    u, v = points[:, 0], points[:, 1]
    _, det, (p, q) = residuals._chart_solve(surf, u, v)
    for k, (a, b) in enumerate(points.tolist()):
        j = surf.field_jets(a, b)
        jac = np.array([[j.x1[1], j.x1[2]], [j.x2[1], j.x2[2]]])
        want = np.linalg.solve(jac.T, [j.phi[1], j.phi[2]])
        assert det[k] == pytest.approx(np.linalg.det(jac), rel=1e-12)
        assert abs(p[k] - want[0]) <= 1e-12 * max(1.0, *np.abs(want))
        assert abs(q[k] - want[1]) <= 1e-12 * max(1.0, *np.abs(want))
