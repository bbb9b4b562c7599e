"""Surface synthesis: representation fields, jets, grids, serialization."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsphere import io
from affsphere.paracomplex import ComplexPoly, ParaPoly, para_to_dalembert
from affsphere.surfaces import (
    MAX_CURVE_DEGREE,
    Domain,
    HoloCurve,
    InvalidDomain,
    ParaCurve,
    Surface,
    compile_surface,
    graph_potential,
    sample_grid,
)

Z_PARA = ParaPoly.monomial(1)
Z_CPLX = ComplexPoly.monomial(1)


def para_curve(fk, gk):
    return ParaCurve(ParaPoly.monomial(fk), ParaPoly.monomial(gk))


# -- frozen representation oracles ---------------------------------------


def test_linear_indefinite_surface_fields():
    # F = z, G = 0: x = (u, v), n = (u, -v), phi = (v^2 - u^2)/2, density 1
    curve = ParaCurve(Z_PARA, ParaPoly.zero())
    surf = compile_surface(curve)
    u, v = Fraction(3, 5), Fraction(-1, 4)
    assert surf.fields["x1"](u, v) == u
    assert surf.fields["x2"](u, v) == v
    assert surf.fields["n1"](u, v) == u
    assert surf.fields["n2"](u, v) == -v
    assert surf.fields["phi"](u, v) == (v * v - u * u) / 2
    assert surf.fields["density"](u, v) == 1


def test_lsc_paraboloid():
    # F = 0, G = z gives the elliptic paraboloid (u, v, (u^2+v^2)/2)
    curve = HoloCurve(ComplexPoly.zero(), Z_CPLX)
    surf = compile_surface(curve)
    u, v = Fraction(2, 3), Fraction(-1, 2)
    assert surf.fields["x1"](u, v) == u
    assert surf.fields["x2"](u, v) == v
    assert surf.fields["phi"](u, v) == (u * u + v * v) / 2
    assert surf.fields["n1"](u, v) == -u
    assert surf.fields["n2"](u, v) == -v
    assert surf.fields["density"](u, v) == 1


def test_lsc_conjugate_paraboloid():
    # F = z, G = 0 gives (conj z, -|z|^2 / 2)
    curve = HoloCurve(Z_CPLX, ComplexPoly.zero())
    s = compile_surface(curve).sample(0.5, 0.25)
    assert np.allclose(s.position, [0.5, -0.25, -(0.25**2 + 0.5**2) / 2])
    surf = compile_surface(curve)
    assert surf.fields["density"](Fraction(1), Fraction(0)) == -1


def test_potential_gauge_vanishes_at_origin():
    for curve in (
        para_curve(2, 3),
        para_curve(3, 4),
        HoloCurve(Z_CPLX + ComplexPoly.monomial(3), Z_CPLX),
    ):
        assert graph_potential(curve).coeff(0, 0) == 0


def test_cubic_quartic_potential_polynomial():
    # Full potential for F = z^3, G = z^4, normalized at the origin.
    phi = graph_potential(para_curve(3, 4))
    h = Fraction(1, 2)
    expected = {
        (6, 0): -h, (4, 2): Fraction(3, 2), (2, 4): -Fraction(3, 2), (0, 6): h,
        (7, 0): Fraction(1, 7), (5, 2): 3, (3, 4): 5, (1, 6): 1,
        (8, 0): h, (6, 2): -2, (4, 4): 3, (2, 6): -2, (0, 8): h,
    }
    assert dict(phi.c) == expected


def _random_exact_curve(rng, curve_cls, poly_cls, degree):
    def q():
        return Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 7)))

    def poly():
        lead = (0, 0)
        while lead == (0, 0):
            lead = (q(), q())
        return poly_cls([(q(), q()) for _ in range(degree)] + [lead])

    return curve_cls(poly(), poly())


def _closed_form_potential(curve, u, v):
    """1/2 (mod G - mod F) - s (Re(G F) - 2 Re Int F dG) at u + e v, e**2 = s.

    With s = -1 this is the convex (holomorphic) formula; with s = +1 the
    same expression holds for the para-holomorphic pair.  mod is
    PlanarScalar.modulus, z conj(z).
    """
    F, G = curve.F, curve.G
    s = F.SCALAR.UNIT_SQ
    z = F.SCALAR(u, v)
    h = (F * G.derivative()).antiderivative()
    return Fraction(1, 2) * (G(z).modulus() - F(z).modulus()) - s * (
        (G * F)(z).re - 2 * h(z).re
    )


@pytest.mark.parametrize(
    "curve_cls, poly_cls", [(HoloCurve, ComplexPoly), (ParaCurve, ParaPoly)]
)
def test_potential_matches_closed_form_oracle(curve_cls, poly_cls):
    # phi and the oracle both have degree <= 2d, so agreeing on a
    # (2d+1) x (2d+1) grid of integer points makes them the same polynomial
    rng = np.random.default_rng(404)
    for degree in range(1, 7):
        for _ in range(2):
            curve = _random_exact_curve(rng, curve_cls, poly_cls, degree)
            phi = graph_potential(curve)
            assert phi.is_exact()
            origin = _closed_form_potential(curve, 0, 0)
            nodes = range(-degree, degree + 1)
            for u in nodes:
                for v in nodes:
                    assert phi(u, v) == _closed_form_potential(curve, u, v) - origin


@pytest.mark.parametrize("bound", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize(
    "curve_cls, poly_cls", [(HoloCurve, ComplexPoly), (ParaCurve, ParaPoly)]
)
def test_float_curve_of_capped_degree_passes_closedness(curve_cls, poly_cls, bound):
    rng = np.random.default_rng(5)

    def poly():
        return poly_cls(
            [(float(a), float(b)) for a, b in rng.uniform(-bound, bound, (MAX_CURVE_DEGREE + 1, 2))]
        )

    surf = Surface(curve_cls(poly(), poly()))
    assert max(i + j for i, j in surf.fields["phi"].c) == 2 * MAX_CURVE_DEGREE
    # the one-form -<n, dx> = a du + b dv is closed: a_v = b_u coefficientwise,
    # to float rounding relative to the largest coefficient compared
    f = surf.fields
    a = -(f["n1"] * f["x1"].partial_u() + f["n2"] * f["x2"].partial_u())
    b = -(f["n1"] * f["x1"].partial_v() + f["n2"] * f["x2"].partial_v())
    a_v, b_u = a.partial_v(), b.partial_u()
    scale = max(abs(c) for c in (*a_v.c.values(), *b_u.c.values()))
    assert max((abs(c) for c in (a_v - b_u).c.values()), default=0.0) <= 1e-12 * scale


def test_sample_grid_peak_memory_linear_in_nodes():
    # a degree-32 curve has degree-64 fields; the peak must stay within ten
    # float64 arrays of N^2 nodes (six fields plus Horner temporaries), with no
    # factor of the degree
    rng = np.random.default_rng(3)

    def poly():
        pairs = rng.uniform(-1, 1, (MAX_CURVE_DEGREE + 1, 2))
        return ParaPoly([(float(a), float(b)) for a, b in pairs])

    curve = ParaCurve(poly(), poly())
    compile_surface(curve)
    n = 512
    tracemalloc.start()
    try:
        sample_grid(curve, Domain(), (n, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * n * n


def test_cubic_quartic_position_at_unit_point():
    s = compile_surface(para_curve(3, 4)).sample(1.0, 0.0)
    assert np.allclose(s.position, [0.0, 0.0, 1.0 / 7.0])
    assert np.allclose(s.conormal, [2.0, 0.0, 1.0])


def test_density_golden_quadratic_cubic():
    # F = z^2, G = z^3: density (u^2 - v^2)(4 - 9(u^2 - v^2))
    surf = compile_surface(para_curve(2, 3))
    for u, v in [(1, 0), (Fraction(1, 2), Fraction(1, 3)), (2, 1), (0, 1)]:
        u, v = Fraction(u), Fraction(v)
        m = u * u - v * v
        assert surf.fields["density"](u, v) == m * (4 - 9 * m)


def test_density_golden_cubic_quartic():
    surf = compile_surface(para_curve(3, 4))
    for u, v in [(1, 0), (Fraction(-3, 4), Fraction(0)), (Fraction(-2, 3), Fraction(0))]:
        u, v = Fraction(u), Fraction(v)
        m = u * u - v * v
        assert surf.fields["density"](u, v) == m * m * (9 - 16 * m)
    assert surf.fields["density"](Fraction(-3, 4), Fraction(0)) == 0
    assert surf.fields["density"](Fraction(-2, 3), Fraction(0)) == Fraction(272, 729)


def test_dalembert_factorization_of_density():
    # density = 4 [rhoF'(u+v) sigmaF'(u-v) - rhoG'(u+v) sigmaG'(u-v)]
    f = ParaPoly([(0, 0), (Fraction(1, 2), Fraction(-1, 3)), (2, 1)])
    g = ParaPoly([(0, 0), (1, Fraction(3, 4)), (0, Fraction(1, 5)), (1, 0)])
    surf = compile_surface(ParaCurve(f, g))
    pf = para_to_dalembert(f)
    pg = para_to_dalembert(g)
    rf, sf = pf.rho.derivative(), pf.sigma.derivative()
    rg, sg = pg.rho.derivative(), pg.sigma.derivative()
    for u, v in [(Fraction(1, 3), Fraction(1, 7)), (Fraction(-1, 2), Fraction(2, 5))]:
        s, t = u + v, u - v
        lam = surf.fields["density"](u, v)
        assert lam == 4 * (rf(s) * sf(t) - rg(s) * sg(t))


def test_jets_of_linear_curve_at_origin():
    curve = ParaCurve(Z_PARA, ParaPoly.zero())
    surf = compile_surface(curve)
    pj = surf.position_jet(0.0, 0.0)
    assert np.allclose(pj.value, [0, 0, 0])
    assert np.allclose(pj.du, [1, 0, 0])
    assert np.allclose(pj.dv, [0, 1, 0])
    nj = surf.normal_jet(0.0, 0.0)
    assert np.allclose(nj.value, [0, 0, 1])


def test_frontal_identity_normal_kills_tangents():
    rng = np.random.default_rng(7)
    for curve in (para_curve(2, 3), para_curve(3, 4),
                  HoloCurve(Z_CPLX * 2 + ComplexPoly.monomial(2), ComplexPoly.monomial(3))):
        surf = compile_surface(curve)
        for _ in range(12):
            u, v = rng.uniform(-1, 1, size=2)
            pj = surf.position_jet(u, v)
            nu = surf.normal_jet(u, v)
            assert abs(pj.du @ nu.value) < 1e-10
            assert abs(pj.dv @ nu.value) < 1e-10


def test_normal_jet_matches_finite_differences():
    surf = compile_surface(para_curve(2, 3))
    u0, v0, h = 0.37, -0.22, 1e-5

    def nval(u, v):
        return surf.normal_jet(u, v).value

    nj = surf.normal_jet(u0, v0)
    fd_u = (nval(u0 + h, v0) - nval(u0 - h, v0)) / (2 * h)
    fd_v = (nval(u0, v0 + h) - nval(u0, v0 - h)) / (2 * h)
    assert np.allclose(nj.du, fd_u, atol=1e-7)
    assert np.allclose(nj.dv, fd_v, atol=1e-7)
    fd_uu = (nval(u0 + h, v0) - 2 * nval(u0, v0) + nval(u0 - h, v0)) / h**2
    assert np.allclose(nj.duu, fd_uu, atol=1e-4)


def test_degree_cap_enforced_at_curve_boundary():
    with pytest.raises(ValueError):
        ParaCurve(ParaPoly.monomial(33), ParaPoly.zero())
    # internal products may exceed the cap without complaint
    phi = graph_potential(ParaCurve(ParaPoly.monomial(32), ParaPoly.zero()))
    assert max(i + j for i, j in phi.c) > 32


# -- domains and grids -----------------------------------------------------


def test_domain_parse_and_validation():
    d = Domain.parse("-1, 2, 0.5, 3")
    assert (d.u0, d.u1, d.v0, d.v1) == (-1.0, 2.0, 0.5, 3.0)
    assert d.radius == 3.0
    with pytest.raises(InvalidDomain):
        Domain(1, -1, 0, 1)
    with pytest.raises(InvalidDomain):
        Domain.parse("1,2,3")
    with pytest.raises(InvalidDomain):
        Domain.parse("a,b,c,d")


@pytest.mark.parametrize("text", ["-inf,inf,-1,1", "nan,1,-1,1", "-1,1,-1,inf", "-1,1,nan,nan"])
def test_domain_parse_rejects_non_finite_bounds(text):
    with pytest.raises(InvalidDomain):
        Domain.parse(text)


def test_sample_grid_layout_row_major():
    curve = para_curve(2, 3)
    grid = sample_grid(curve, Domain(-1, 1, 0, 2), (4, 3))
    assert grid.shape == (4, 3)
    surf = compile_surface(curve)
    i, j = 2, 1
    u, v = grid.u_axis[i], grid.v_axis[j]
    assert np.isclose(grid.x1[i, j], surf.fields["x1"](u, v))
    assert np.isclose(grid.phi[i, j], surf.fields["phi"](u, v))
    assert np.isclose(grid.density[i, j], surf.fields["density"](u, v))
    with pytest.raises(InvalidDomain):
        sample_grid(curve, Domain(), (1, 5))


def test_grid_node_hits_potential_golden():
    # u = 1, v = 0 node of the cubic/quartic pair carries phi = 1/7
    grid = sample_grid(para_curve(3, 4), Domain(-1, 1, -1, 1), (3, 3))
    assert np.isclose(grid.phi[2, 1], 1.0 / 7.0)


# -- serialization ----------------------------------------------------------


def test_curve_json_round_trip_exact():
    curve = ParaCurve(
        ParaPoly([(Fraction(1, 2), 0), (0, Fraction(-2, 3))]),
        ParaPoly([(3, 0)]),
    )
    again = io.curve_from_json(io.curve_to_json(curve))
    assert again == curve
    assert again.is_exact()


def test_curve_json_round_trip_float(tmp_path):
    curve = HoloCurve(ComplexPoly([(0.5, -1.25)]), ComplexPoly([(0, 0), (1, 0)]))
    path = tmp_path / "c.json"
    io.save_curve(curve, path)
    again = io.load_curve(path)
    assert again.signature == "lsc"
    assert again == curve


def test_curve_json_rejects_malformed():
    with pytest.raises(io.CurveParseError):
        io.curve_from_json({"signature": "weird", "F": [], "G": []})
    with pytest.raises(io.CurveParseError):
        io.curve_from_json({"signature": "indefinite", "F": [[1]], "G": []})
    with pytest.raises(io.CurveParseError):
        io.curve_from_json({"signature": "indefinite", "F": [["x", "y"]], "G": []})
    with pytest.raises(io.CurveParseError):
        io.curve_from_json(
            {"signature": "indefinite", "F": [[0, 0]] * 34, "G": []}
        )
    with pytest.raises(io.CurveParseError):
        io.curve_from_json({"signature": "indefinite", "F": []})


def test_obj_and_csv_export(tmp_path):
    grid = sample_grid(para_curve(2, 3), Domain(), (4, 5))
    obj_path = tmp_path / "m.obj"
    io.write_obj(grid, obj_path)
    lines = obj_path.read_text().strip().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 20
    assert sum(1 for ln in lines if ln.startswith("f ")) == 12
    csv_path = tmp_path / "m.csv"
    io.write_csv(grid, csv_path)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "u,v,x1,x2,phi,n1,n2,lambda"
    assert len(rows) == 21
    first = rows[1].split(",")
    assert float(first[0]) == grid.u_axis[0]


def test_grid_json_export(tmp_path):
    grid = sample_grid(para_curve(2, 3), Domain(), (3, 3))
    path = tmp_path / "g.json"
    io.write_grid(grid, path, "json")
    obj = json.loads(path.read_text())
    assert obj["shape"] == [3, 3]
    assert len(obj["fields"]["phi"]) == 3


# -- property checks ---------------------------------------------------------


small_poly = st.lists(
    st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=20, deadline=None)
@given(small_poly, small_poly)
def test_potential_gradient_is_minus_n_dot_dx(fc, gc):
    curve = ParaCurve(ParaPoly(fc), ParaPoly(gc))
    surf = compile_surface(curve)
    f = surf.fields
    lhs_u = f["phi"].partial_u()
    lhs_v = f["phi"].partial_v()
    rhs_u = -(f["n1"] * f["x1"].partial_u() + f["n2"] * f["x2"].partial_u())
    rhs_v = -(f["n1"] * f["x1"].partial_v() + f["n2"] * f["x2"].partial_v())
    assert lhs_u == rhs_u
    assert lhs_v == rhs_v


@settings(max_examples=20, deadline=None)
@given(small_poly, small_poly)
def test_lsc_potential_gradient_is_minus_n_dot_dx(fc, gc):
    curve = HoloCurve(ComplexPoly(fc), ComplexPoly(gc))
    surf = compile_surface(curve)
    f = surf.fields
    assert f["phi"].partial_u() == -(
        f["n1"] * f["x1"].partial_u() + f["n2"] * f["x2"].partial_u()
    )
    assert f["phi"].partial_v() == -(
        f["n1"] * f["x1"].partial_v() + f["n2"] * f["x2"].partial_v()
    )
