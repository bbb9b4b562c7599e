"""Bivariate polynomial layer: expansion, calculus, evaluation."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affsphere import surfaces
from affsphere.bipoly import BiPoly, expand_planar_poly
from affsphere.paracomplex import ComplexPoly, ParaPoly

U = BiPoly({(1, 0): 1})
V = BiPoly({(0, 1): 1})


def test_ring_basics():
    p = 2 * U * V + 3
    assert p.coeff(1, 1) == 2
    assert p.coeff(0, 0) == 3
    assert (p - p).is_zero()
    assert p(2, 5) == 23


def test_scalar_fraction_ops_stay_exact():
    p = Fraction(1, 2) * (U * U) + Fraction(1, 3)
    assert p.coeff(2, 0) == Fraction(1, 2)
    assert p.is_exact()
    assert p(Fraction(1), Fraction(0)) == Fraction(5, 6)


def test_partials():
    p = U * U * V + 4 * V
    assert p.partial_u() == 2 * U * V
    assert p.partial_v() == U * U + 4


def test_expand_para_square_and_cube():
    # (u + jv)^2 = (u^2 + v^2) + j(2uv), (u + jv)^3 uses j^2 = 1
    re2, im2 = expand_planar_poly(ParaPoly.monomial(2))
    assert re2 == U * U + V * V
    assert im2 == 2 * U * V
    re3, im3 = expand_planar_poly(ParaPoly.monomial(3))
    assert re3 == U * U * U + 3 * U * V * V
    assert im3 == 3 * U * U * V + V * V * V


def test_expand_complex_square():
    re2, im2 = expand_planar_poly(ComplexPoly.monomial(2))
    assert re2 == U * U - V * V
    assert im2 == 2 * U * V


coeff_pairs = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(coeff_pairs)
def test_expand_satisfies_para_cauchy_riemann(pairs):
    f = ParaPoly(pairs)
    re, im = expand_planar_poly(f)
    assert re.partial_u() == im.partial_v()
    assert re.partial_v() == im.partial_u()


@settings(max_examples=40, deadline=None)
@given(coeff_pairs)
def test_expand_satisfies_cauchy_riemann(pairs):
    f = ComplexPoly(pairs)
    re, im = expand_planar_poly(f)
    assert re.partial_u() == im.partial_v()
    assert re.partial_v() == -(im.partial_u())


@settings(max_examples=25, deadline=None)
@given(coeff_pairs, st.fractions(-2, 2, max_denominator=6), st.fractions(-2, 2, max_denominator=6))
def test_expand_matches_scalar_evaluation(pairs, u, v):
    f = ParaPoly(pairs)
    re, im = expand_planar_poly(f)
    z = f.SCALAR(u, v)
    w = f(z)
    assert re(u, v) == w.re
    assert im(u, v) == w.im


def test_array_evaluation_matches_exact():
    p = U * U * V - 3 * V + Fraction(1, 2)
    uu = np.array([[0.0, 1.0], [2.0, -1.0]])
    vv = np.array([[1.0, 0.5], [0.25, 2.0]])
    got = p(uu, vv)
    for idx in np.ndindex(uu.shape):
        exact = p(Fraction(uu[idx]), Fraction(vv[idx]))
        assert abs(got[idx] - float(exact)) < 1e-12


# -- scalar float evaluation -------------------------------------------------


def _polyval2d_reference(p, u, v):
    """Reference value: numpy's polyval2d on 0-d float64 input over the dense table."""
    nu = 1 + max((i for i, _ in p.c), default=0)
    nv = 1 + max((j for _, j in p.c), default=0)
    dense = np.zeros((nu, nv))
    for (i, j), c in p.c.items():
        dense[i, j] = float(c)
    with np.errstate(all="ignore"):
        return float(np.polynomial.polynomial.polyval2d(np.float64(u), np.float64(v), dense))


@st.composite
def bipolys(draw):
    """Zero, constant, u-only, v-only or full BiPolys with float or Fraction coefficients."""
    coeffs = draw(st.sampled_from([
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        st.fractions(-5, 5, max_denominator=12),
    ]))
    shape = draw(st.sampled_from(["zero", "constant", "u-only", "v-only", "full"]))
    if shape == "zero":
        return BiPoly()
    nu = draw(st.integers(1, 9)) if shape in ("u-only", "full") else 0
    nv = draw(st.integers(1, 9)) if shape in ("v-only", "full") else 0
    keys = [(i, j) for i in range(nu + 1) for j in range(nv + 1)]
    return BiPoly(draw(st.dictionaries(st.sampled_from(keys), coeffs, max_size=len(keys))))


points = st.floats(-3, 3, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [math.inf, -math.inf, math.nan]
)


@settings(max_examples=200, deadline=None)
@given(bipolys(), points, points, st.sampled_from([float, np.float64]))
def test_scalar_float_evaluation_is_bitwise_polyval2d(p, u, v, kind):
    got = p(kind(u), kind(v))
    want = _polyval2d_reference(p, u, v)
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert repr(got) == repr(want)  # signed zeros too


@settings(max_examples=60, deadline=None)
@given(
    bipolys(),
    st.fractions(-3, 3, max_denominator=10),
    st.fractions(-3, 3, max_denominator=10),
    st.booleans(),
)
def test_exact_points_still_evaluate_exactly(p, u, v, integral):
    if integral:
        u, v = int(u), int(v)
    got = p(u, v)
    assert got == sum((c * Fraction(u) ** i * Fraction(v) ** j for (i, j), c in p.c.items()), 0)
    if p.is_exact():
        assert isinstance(got, (int, Fraction))


# -- exact products -------------------------------------------------------------


def _termwise_product(p, q):
    """Reference: the product accumulated one coefficient product at a time."""
    out = {}
    for (i1, j1), a in p.c.items():
        for (i2, j2), b in q.c.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + a * b
    return {k: c for k, c in out.items() if c != 0}


def _typed(c):
    return {k: (type(val), val) for k, val in c.items()}


@st.composite
def exact_bipolys(draw, scalars=None):
    """BiPolys whose coefficients mix int and Fraction, Fraction(n, 1) included."""
    if scalars is None:
        scalars = (
            st.integers(-9, 9)
            | st.fractions(-5, 5, max_denominator=12)
            | st.integers(-9, 9).map(Fraction)
        )
    nu, nv = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    keys = [(i, j) for i in range(nu + 1) for j in range(nv + 1)]
    return BiPoly(draw(st.dictionaries(st.sampled_from(keys), scalars, max_size=len(keys))))


@settings(max_examples=200, deadline=None)
@given(exact_bipolys(), exact_bipolys())
def test_exact_product_matches_termwise_fractions(p, q):
    got = p * q
    assert _typed(got.c) == _typed(_termwise_product(p, q))
    assert got.is_exact()


@settings(max_examples=60, deadline=None)
@given(exact_bipolys(st.integers(-50, 50)), exact_bipolys(st.integers(-50, 50)))
def test_integer_product_stays_int(p, q):
    got = p * q
    assert got.c == _termwise_product(p, q)
    assert all(type(c) is int for c in got.c.values())


def test_exact_product_drops_cancelled_terms():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert (U + V) * (U - V) == U * U - V * V
    assert ((U + V) * (U - V)).coeff(1, 1) == 0
    prod = (half * U + third * V) * (half * U - third * V)
    assert prod.c == {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)}
    assert all(type(c) is Fraction for c in prod.c.values())
    mixed = (U + half * V) * (U - half * V)
    assert _typed(mixed.c) == {(2, 0): (int, 1), (0, 2): (Fraction, Fraction(-1, 4))}
    assert (half * U * V * (2 * U) - U * U * V).is_zero()


@settings(max_examples=60, deadline=None)
@given(exact_bipolys(), bipolys())
def test_exact_times_float_keeps_termwise_floats(p, q):
    q = q + BiPoly({(10, 10): 0.25})  # a float coefficient outside the drawn keys
    for got, want in ((p * q, _termwise_product(p, q)), (q * p, _termwise_product(q, p))):
        assert _typed(got.c) == _typed(want)


def test_expansion_equals_the_binomial_loop_up_to_degree_64():
    """The shared int64 expansion table gives the exact terms of z**k up to K's
    degree 64 (C(64, 32) near 2**63), with termwise coefficient types, also
    after the float grid tables took the same table."""
    rng = np.random.default_rng(64)
    for poly_cls in (ParaPoly, ComplexPoly):
        s = poly_cls.SCALAR.UNIT_SQ
        surfaces._planar_tables(np.ones((65, 2)), float(s))
        poly = poly_cls([
            (Fraction(int(a), 7), int(b)) if k % 2 else (float(a) / 3, Fraction(int(b), 5))
            for k, (a, b) in enumerate(rng.integers(-9, 10, (65, 2)))
        ])
        want_re, want_im = {}, {}
        for k, c in enumerate(poly.coeffs):
            for j in range(k + 1):
                a, b = (s * c.im, c.re) if j % 2 else (c.re, c.im)
                w = math.comb(k, j) * s ** (j // 2)
                want_re[k - j, j], want_im[k - j, j] = a * w, b * w
        for got, want in zip(expand_planar_poly(poly), (BiPoly(want_re), BiPoly(want_im))):
            assert got == want
            assert [type(x) for _, x in got.terms()] == [type(x) for _, x in want.terms()]
