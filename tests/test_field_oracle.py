"""The exact fields against a sympy build from the definitions.

The oracle takes x and n from F(u + e v) and G(u + e v) with e**2 = s in
the paper's form (x = F - conj G, n = conj F + G for s = +1; x = conj F + G,
n = conj F - G for s = -1), integrates phi = -Int <n, dx> from the origin,
and takes the density as the Jacobian det d(x1, x2)/d(u, v).  sympy is a
test-only dependency.
"""

import pytest
import sympy

from affsphere.surfaces import Surface
from test_exact_fields import curve_id, mixed_curves

U, V = sympy.symbols("u v")


def _poly(expr):
    return sympy.Poly(expr, U, V, domain=sympy.QQ)


def _rational(c):
    return sympy.Rational(int(c.numerator), int(c.denominator))


def _components(planar_poly, s):
    """(re, im) of P(u + e v) as sympy polynomials, by Horner's rule in the ring."""
    re, im = _poly(0), _poly(0)
    for c in reversed(planar_poly.coeffs):
        re, im = re * U + s * im * V + _rational(c.re), re * V + im * U + _rational(c.im)
    return re, im


def _oracle(curve):
    s = curve.unit_sq
    (f1, f2), (g1, g2) = _components(curve.F, s), _components(curve.G, s)
    if s > 0:
        x, n = (f1 - g1, f2 + g2), (f1 + g1, g2 - f2)
    else:
        x, n = (f1 + g1, g2 - f2), (f1 - g1, -f2 - g2)
    a = -(n[0] * x[0].diff(U) + n[1] * x[1].diff(U))
    b = -(n[0] * x[0].diff(V) + n[1] * x[1].diff(V))
    assert a.diff(V) == b.diff(U)
    phi = _poly(a.as_expr().subs(V, 0)).integrate(U) + b.integrate(V)
    density = x[0].diff(U) * x[1].diff(V) - x[0].diff(V) * x[1].diff(U)
    return {"x1": x[0], "x2": x[1], "phi": phi, "n1": n[0], "n2": n[1], "density": density}


@pytest.mark.parametrize("curve", mixed_curves(range(13), 83), ids=curve_id)
def test_exact_fields_match_the_sympy_oracle(curve):
    fields = Surface(curve).fields
    for name, want in _oracle(curve).items():
        got = {k: _rational(c) for k, c in fields[name].c.items()}
        assert got == {k: c for k, c in want.as_dict().items() if c != 0}, name
