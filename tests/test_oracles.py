"""Array and early-exit rewrites checked against the loops they replaced.

Each oracle below is the former implementation, kept here verbatim in
behaviour: point-at-a-time regular-point draws, the full dictionaries of
coefficient products behind `density_is_zero`, and the marching-squares
loop over every grid cell.
"""

from fractions import Fraction

import numpy as np
import pytest

from affsphere import residuals
from affsphere import singularities as sg
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import Domain, HoloCurve, ParaCurve, Surface, compile_surface
from test_kernel import _curve, _zero_density_pairs

SIGNATURES = [(ParaCurve, ParaPoly), (HoloCurve, ComplexPoly)]
QUAD_CUBIC = ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3))
CUBIC_QUARTIC = ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4))


def _regular_points_one_by_one(curve, n, rng, domain):
    surf = compile_surface(curve)
    out = []
    tries = 0
    while len(out) < n and tries < 200 * n:
        tries += 1
        u = rng.uniform(domain.u0, domain.u1)
        v = rng.uniform(domain.v0, domain.v1)
        if abs(float(surf.area_density(u, v))) > 1e-3:
            out.append((u, v))
    return out


@pytest.mark.parametrize("curve", [
    QUAD_CUBIC, CUBIC_QUARTIC, HoloCurve(ComplexPoly.monomial(2), ComplexPoly.monomial(3)),
], ids=["z2z3", "z3z4", "holo"])
@pytest.mark.parametrize("n", [1, 7, 100])
def test_block_draws_match_one_by_one(curve, n):
    domain = Domain(-1.5, 0.5, -1.0, 2.0)
    seed = 12345 + n
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = residuals.random_regular_points(curve, n, got_rng, domain)
    want = _regular_points_one_by_one(curve, n, want_rng, domain)
    assert got == want
    assert all(type(c) is float for p in got for c in p)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_block_draws_give_up_after_the_same_tries():
    # (z, z) has zero density everywhere, so every candidate is rejected
    flat = ParaCurve(ParaPoly.monomial(1), ParaPoly.monomial(1))
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(residuals.PatchNotGraph):
        residuals.random_regular_points(flat, 5, got_rng)
    assert _regular_points_one_by_one(flat, 5, want_rng, Domain()) == []
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _density_is_zero_by_dicts(curve):
    def outer(poly):
        c = poly.derivative().coeffs
        products = {(k, m): a * b.conjugate() for k, a in enumerate(c) for m, b in enumerate(c)}
        return {key: p for key, p in products.items() if p != 0}

    return outer(curve.F) == outer(curve.G)


@pytest.mark.parametrize("curve_cls, poly_cls", SIGNATURES)
def test_density_is_zero_matches_product_dicts(curve_cls, poly_cls):
    rng = np.random.default_rng(2024)
    curves = [c for c in _zero_density_pairs() if isinstance(c, curve_cls)]
    for degree in (1, 2, 3, 5, 8, 13, 21, 32):
        for scale in (None, 1.0):
            f = _curve(rng, curve_cls, poly_cls, degree, scale).F
            g = _curve(rng, curve_cls, poly_cls, degree, scale).G
            curves.append(curve_cls(f, g))
            # F' = G': zero density after a pass over every product
            curves.append(curve_cls(f, f + poly_cls([(1, 0)])))
            # equal up to the last product only
            tail = poly_cls([(0, 0)] * degree + [(Fraction(1, 7), 0)])
            curves.append(curve_cls(f, f + tail))
    curves.append(curve_cls(poly_cls.zero(), poly_cls([(1, 2)])))
    results = []
    for curve in curves:
        want = _density_is_zero_by_dicts(curve)
        assert Surface(curve).density_is_zero == want, curve
        results.append(want)
    assert any(results) and not all(results)


def _marching_squares_every_cell(surf, u_axis, v_axis, lam_grid):
    d = surf.area_density
    tol = {"xtol": 1e-14, "rtol": 8.9e-16}
    nu, nv = lam_grid.shape
    sgn = np.where(lam_grid >= 0.0, 1, -1)
    crossings = {}

    def edge_point(kind, i, j):
        key = (kind, i, j)
        if key in crossings:
            return key
        if kind == "h":
            v0 = v_axis[j]
            root = sg._bracket_root(lambda x: d(x, v0), u_axis[i], u_axis[i + 1],
                                    lam_grid[i, j], lam_grid[i + 1, j], **tol)
            crossings[key] = (root, v0)
        else:
            u0 = u_axis[i]
            root = sg._bracket_root(lambda x: d(u0, x), v_axis[j], v_axis[j + 1],
                                    lam_grid[i, j], lam_grid[i, j + 1], **tol)
            crossings[key] = (u0, root)
        return key

    segments = []
    for i in range(nu - 1):
        for j in range(nv - 1):
            s00, s10 = sgn[i, j], sgn[i + 1, j]
            s11, s01 = sgn[i + 1, j + 1], sgn[i, j + 1]
            cell_edges = {}
            if s00 != s10:
                cell_edges["bottom"] = ("h", i, j)
            if s10 != s11:
                cell_edges["right"] = ("v", i + 1, j)
            if s01 != s11:
                cell_edges["top"] = ("h", i, j + 1)
            if s00 != s01:
                cell_edges["left"] = ("v", i, j)
            if len(cell_edges) == 2:
                pairs = [tuple(cell_edges)]
            elif cell_edges:
                center_sign = 1 if d(
                    0.5 * (u_axis[i] + u_axis[i + 1]), 0.5 * (v_axis[j] + v_axis[j + 1])
                ) >= 0 else -1
                if center_sign == s00:
                    pairs = [("bottom", "right"), ("top", "left")]
                else:
                    pairs = [("bottom", "left"), ("right", "top")]
            else:
                continue
            for ea, eb in pairs:
                segments.append((edge_point(*cell_edges[ea]), edge_point(*cell_edges[eb])))
    return segments, crossings


@pytest.mark.parametrize("curve_cls, poly_cls", SIGNATURES)
def test_marching_squares_matches_every_cell_loop(curve_cls, poly_cls):
    rng = np.random.default_rng(9)
    curves = [_curve(rng, curve_cls, poly_cls, degree, None) for degree in (2, 3, 4)]
    if curve_cls is ParaCurve:
        # the sign-changing null lines of (z^2, z^3) cross at the centre
        # of a saddle cell of the even grid
        curves += [QUAD_CUBIC, CUBIC_QUARTIC]
    saddles = 0
    for curve in curves:
        surf = compile_surface(curve)
        u_axis, v_axis = Domain(-1.2, 1.2, -1.2, 1.2).axes(32, 32)
        lam = surf.density_grid(u_axis, v_axis)
        got = sg._marching_squares(surf, u_axis, v_axis, lam)
        want = _marching_squares_every_cell(surf, u_axis, v_axis, lam)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert all(type(k) is int for seg in got[0] for key in seg for k in key[1:])
        sgn = lam >= 0.0
        s00, s10, s01, s11 = sgn[:-1, :-1], sgn[1:, :-1], sgn[:-1, 1:], sgn[1:, 1:]
        saddles += int(np.sum((s00 != s10) & (s10 != s11) & (s11 != s01) & (s01 != s00)))
    if curve_cls is ParaCurve:
        assert saddles > 0
