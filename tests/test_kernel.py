"""The float field kernel against the exact bivariate fields, and what it must not need."""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from affsphere import bipoly, cli, surfaces
from affsphere.bipoly import BiPoly
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.singularities import classification_report, tolerances_for
from affsphere.surfaces import Domain, HoloCurve, ParaCurve, Surface, compile_surface, sample_grid

SIGNATURES = [(ParaCurve, ParaPoly), (HoloCurve, ComplexPoly)]
REPO = Path(__file__).resolve().parent.parent


def _exact_value(poly, u, v):
    """Exact value of a BiPoly at rational (u, v), in integer arithmetic over one denominator."""
    if not poly.c:
        return Fraction(0)
    u, v = Fraction(u), Fraction(v)
    deg = max(max(i, j) for i, j in poly.c)
    den = math.lcm(*(Fraction(c).denominator for c in poly.c.values()))
    a, b, c, d = u.numerator, u.denominator, v.numerator, v.denominator
    pu = [a**i * b ** (deg - i) for i in range(deg + 1)]
    pv = [c**j * d ** (deg - j) for j in range(deg + 1)]
    num = sum(int(Fraction(val) * den) * pu[i] * pv[j] for (i, j), val in poly.c.items())
    return Fraction(num, den * b**deg * d**deg)


def _exact_jet(poly, u, v):
    pu, pv = poly.partial_u(), poly.partial_v()
    polys = (poly, pu, pv, pu.partial_u(), pu.partial_v(), pv.partial_v())
    return [_exact_value(p, u, v) for p in polys]


def _close(got, want, what):
    for g, w in zip(np.ravel(got), np.ravel(want)):
        assert abs(float(g) - float(w)) <= 1e-12 * max(1.0, abs(float(w))), (what, g, w)


def _as_exact(curve):
    """The same curve with every float coefficient as the Fraction it equals."""
    def poly(p):
        return type(p)([(Fraction(c.re), Fraction(c.im)) for c in p.coeffs])

    return type(curve)(poly(curve.F), poly(curve.G))


def _curve(rng, curve_cls, poly_cls, degree, scale):
    """Exact curve (scale None) or float curve with coefficients uniform in +-scale."""
    def coeff():
        if scale is None:
            return Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 7)))
        return float(rng.uniform(-scale, scale))

    def poly():
        lead = (0, 0)
        while lead == (0, 0):
            lead = (coeff(), coeff())
        return poly_cls([(coeff(), coeff()) for _ in range(degree)] + [lead])

    return curve_cls(poly(), poly())


def _normal_reference(nj_exact):
    """Unit normal N/|N| and its partials from exact jets of N = (n1, n2, 1), vector form."""
    n, nu, nv, nuu, nuv, nvv = (np.array([float(x) for x in col]) for col in zip(*nj_exact))
    r = math.sqrt(n @ n)
    a, b = n @ nu, n @ nv
    return (
        n / r,
        nu / r - n * a / r**3,
        nv / r - n * b / r**3,
        nuu / r - (2 * nu * a + n * (nu @ nu + n @ nuu)) / r**3 + 3 * n * a * a / r**5,
        nuv / r - (nu * b + nv * a + n * (nu @ nv + n @ nuv)) / r**3 + 3 * n * a * b / r**5,
        nvv / r - (2 * nv * b + n * (nv @ nv + n @ nvv)) / r**3 + 3 * n * b * b / r**5,
    )


# exact curves of degree 1-32; float curves at three coefficient scales, and
# at the degree cap with the largest one
CASES = [(d, None) for d in (1, 2, 3, 5, 8, 13, 21, 32)] + [
    (16, 1e-3), (16, 1.0), (16, 1e3), (32, 1e3)
]


@pytest.mark.parametrize("curve_cls, poly_cls", SIGNATURES)
@pytest.mark.parametrize("degree, scale", CASES)
def test_kernel_matches_exact_fields(curve_cls, poly_cls, degree, scale):
    rng = np.random.default_rng([degree, 0 if scale is None else int(math.log10(scale)) + 5])
    curve = _curve(rng, curve_cls, poly_cls, degree, scale)
    surf = Surface(curve)
    exact = Surface(_as_exact(curve))
    fields, extras = exact.fields, exact.extras
    for _ in range(3 if degree > 16 else 6):
        # dyadic points, so the float point is the rational one
        u, v = (Fraction(int(k), 64) for k in rng.integers(-64, 65, 2))
        fu, fv = float(u), float(v)
        jets = {name: _exact_jet(fields[name], u, v) for name in ("x1", "x2", "phi", "n1", "n2")}
        got = surf.field_jets(fu, fv)
        for name, want in jets.items():
            _close(getattr(got, name), want, name)
        for slot, pj, cj in zip(range(6), _jet_arrays(surf.position_jet(fu, fv)),
                                _jet_arrays(surf.conormal_jet(fu, fv))):
            _close(pj, [jets[k][slot] for k in ("x1", "x2", "phi")], f"position_jet[{slot}]")
            _close(cj, [jets["n1"][slot], jets["n2"][slot], 1 if slot == 0 else 0],
                   f"conormal_jet[{slot}]")
        one = [1, 0, 0, 0, 0, 0]
        normal = _normal_reference([jets["n1"], jets["n2"], one])
        for slot, (got_slot, want_slot) in enumerate(
            zip(_jet_arrays(surf.normal_jet(fu, fv)), normal)
        ):
            _close(got_slot, want_slot, f"normal_jet[{slot}]")
        density = _exact_jet(fields["density"], u, v)[:3]
        _close(surf.density_jet(fu, fv), density, "density_jet")
        _close([surf.area_density(fu, fv), *surf.grad_density(fu, fv)], density, "density")
        want = [_exact_value(extras[k], u, v) for k in ("f1u", "f2u", "g1u", "g2u")]
        _close(surf.chart_derivatives(fu, fv), want, "chart_derivatives")


@pytest.mark.parametrize("curve_cls, poly_cls", SIGNATURES)
@pytest.mark.parametrize("degree, scale", [(1, None), (3, None), (8, None), (21, None), (16, 1.0)])
def test_chart_jet_matches_exact_derivatives(curve_cls, poly_cls, degree, scale):
    """The density's gradient and Hessian, and the components of F' and G' with
    their u and v partials, against the exact BiPolys."""
    rng = np.random.default_rng([degree, 7])
    curve = _curve(rng, curve_cls, poly_cls, degree, scale)
    surf = Surface(curve)
    exact = Surface(_as_exact(curve))
    density, extras = exact.fields["density"], exact.extras
    for _ in range(4):
        u, v = (Fraction(int(k), 64) for k in rng.integers(-64, 65, 2))
        lam, grad, hess, (comps, comps_u, comps_v) = surf.chart_jet(float(u), float(v))
        _close([lam, *grad, *hess], _exact_jet(density, u, v), "density jet")
        for key, got, got_u, got_v in zip(("f1u", "f2u", "g1u", "g2u"), comps, comps_u, comps_v):
            want = _exact_jet(extras[key], u, v)[:3]
            _close([got, got_u, got_v], want, key)


def _jet_arrays(jet):
    return (jet.value, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv)


def _raise(*args, **kwargs):
    raise AssertionError("exact bivariate work on a float path")


QUAD_CUBIC = ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1]))


def test_float_paths_do_no_exact_bivariate_work(monkeypatch, tmp_path):
    curve = _curve(np.random.default_rng(32), ParaCurve, ParaPoly, 32, None)
    surfaces._compiled.cache_clear()
    monkeypatch.setattr(BiPoly, "_exact_mul", _raise)
    monkeypatch.setattr(bipoly, "expand_planar_poly", _raise)
    monkeypatch.setattr(surfaces, "expand_planar_poly", _raise)
    compile_surface(curve)
    grid = sample_grid(curve, Domain(), (64, 64))
    assert np.all(np.isfinite(grid.phi))
    report = classification_report(QUAD_CUBIC, Domain(-1.2, 1.2, -1.2, 1.2), grid_res=64)
    assert any(p["class"] == "Swallowtail" for p in report["points"])
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"signature": "indefinite", "F": [[0, 0], [0, 0], [1, 0]],
                                "G": [[0, 0], [0, 0], [0, 0], [1, 0]]}))
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--curve", str(path), "--out", str(out)]) == 0
    suites = json.loads(out.read_text())
    assert {s["name"] for s in suites} >= set(cli.SUITES)
    surfaces._compiled.cache_clear()


def test_import_loads_neither_scipy_signal_nor_sympy():
    code = "import sys, affsphere; print(sorted(m for m in ('scipy.signal', 'sympy') if m in sys.modules))"
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[]"


def _termwise_mul(self, other):
    out = {}
    for (i1, j1), a in self.c.items():
        for (i2, j2), b in other.c.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + a * b
    return BiPoly(out)


@pytest.mark.parametrize("curve_cls, poly_cls", SIGNATURES)
def test_lazy_exact_fields_match_termwise_product_build(curve_cls, poly_cls, monkeypatch):
    # the exact fields are built on first access, so build them before the
    # termwise product is patched in; values and types must agree
    rng = np.random.default_rng(78)

    def q():
        n = int(rng.integers(-12, 13))
        return n if rng.random() < 0.3 else Fraction(n, int(rng.integers(1, 7)))

    def poly(degree):
        return poly_cls([(q(), q()) for _ in range(degree)] + [(q() or 1, q())])

    curves = [curve_cls(poly(d), poly(d)) for d in range(1, 9)]
    built = [(s.fields, s.extras) for s in map(Surface, curves)]
    monkeypatch.setattr(BiPoly, "_exact_mul", _termwise_mul)
    for curve, (fields, extras) in zip(curves, built):
        ref = Surface(curve)
        for got, want in ((fields, ref.fields), (extras, ref.extras)):
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].is_exact()
                assert {k: (type(c), c) for k, c in got[name].c.items()} == {
                    k: (type(c), c) for k, c in want[name].c.items()
                }, name


def _zero_density_pairs():
    """(F, G) whose densities vanish identically although F' and G' differ."""
    rot = (Fraction(3, 5), Fraction(4, 5))  # |rot| = 1 in C
    f = ComplexPoly([(1, 2), (Fraction(1, 2), -1), (0, 3)])
    yield HoloCurve(f, f * ComplexPoly([rot]).coeffs[0] + ComplexPoly([(7, 1)]))
    # split ring: rho' scaled by k and sigma' by 1/k keeps rho' sigma'
    from affsphere.paracomplex import DAlembertPair, Poly1

    rho, sigma = Poly1([0, 1, Fraction(1, 2), 2]), Poly1([0, -1, 3])
    k = Fraction(5, 2)
    yield ParaCurve(DAlembertPair(rho, sigma).to_poly(),
                    DAlembertPair(rho * k, sigma * (1 / k)).to_poly())
    yield ParaCurve(ParaPoly([(1, 1), (2, -3)]), ParaPoly([(0, 5), (2, -3)]))


@pytest.mark.parametrize("curve_cls, poly_cls", SIGNATURES)
def test_density_is_zero_matches_exact_density(curve_cls, poly_cls):
    rng = np.random.default_rng(11)
    curves = [_curve(rng, curve_cls, poly_cls, d, None) for d in (0, 1, 2, 3)]
    curves += [c for c in _zero_density_pairs() if isinstance(c, curve_cls)]
    curves.append(curve_cls(poly_cls.zero(), poly_cls([(1, 2)])))
    zero = 0
    for curve in curves:
        surf = Surface(curve)
        assert surf.density_is_zero == surf.fields["density"].is_zero(), curve
        zero += surf.density_is_zero
    assert zero >= 2


@pytest.mark.parametrize("curve_cls, poly_cls", SIGNATURES)
def test_density_grid_nodes_equal_scalar_density(curve_cls, poly_cls):
    # the trace brackets roots with grid signs and refines with scalar values
    curve = _curve(np.random.default_rng(4), curve_cls, poly_cls, 9, 2.0)
    surf = Surface(curve)
    u_axis, v_axis = Domain(-1.5, 1.0, -1.0, 1.25).axes(37, 300)
    grid = surf.density_grid(u_axis, v_axis)
    want = [[surf.area_density(u, v) for v in v_axis.tolist()] for u in u_axis.tolist()]
    assert np.array_equal(grid.view(np.uint64), np.array(want).view(np.uint64))


def test_curve_hash_and_scale_need_no_coefficient_work(monkeypatch):
    curve = ParaCurve(ParaPoly([(Fraction(1, 3), -2), (5, Fraction(7, 2))]),
                      ParaPoly([(0, Fraction(-9, 4))]))
    compile_surface(curve)
    monkeypatch.setattr(Fraction, "__hash__", _raise)
    monkeypatch.setattr(Fraction, "__float__", _raise)
    assert compile_surface(curve) is compile_surface(curve)
    assert curve.coeff_scale == 5.0
    assert tolerances_for(curve).deg == 1e-7 * 5.0


def test_holo_curve_rejects_para_components():
    with pytest.raises(TypeError, match="HoloCurve needs two ComplexPoly components"):
        HoloCurve(ParaPoly([1]), ParaPoly([1]))
    with pytest.raises(TypeError, match="ParaCurve needs two ParaPoly components"):
        ParaCurve(ComplexPoly([1]), ComplexPoly([1]))


@pytest.mark.parametrize("curve_cls,poly_cls", SIGNATURES, ids=["indefinite", "lsc"])
def test_density_grid_across_blocks_equals_scalar_density(curve_cls, poly_cls):
    # 220 x 300 nodes take two row blocks of _BLOCK_NODES (218 rows, then 2)
    curve = _curve(np.random.default_rng(5), curve_cls, poly_cls, 9, 2.0)
    surf = Surface(curve)
    u_axis, v_axis = Domain(-1.5, 1.0, -1.0, 1.25).axes(220, 300)
    assert len(u_axis) * len(v_axis) > surfaces._BLOCK_NODES
    grid = surf.density_grid(u_axis, v_axis)
    want = [[surf.area_density(u, v) for v in v_axis.tolist()] for u in u_axis.tolist()]
    assert np.array_equal(grid.view(np.uint64), np.array(want).view(np.uint64))
