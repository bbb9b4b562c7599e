"""Identities the exact fields must satisfy, checked as BiPoly equalities.

The exact build takes phi from its closed form, so nothing in it integrates
-<n, dx>.  These tests check what that integration used to guarantee: phi
has the partials of the one-form and vanishes at the origin, and the density
is the Jacobian of the position.
"""

from fractions import Fraction

import numpy as np
import pytest

from affsphere.bipoly import BiPoly
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import HoloCurve, ParaCurve, Surface

SIGNATURES = [(ParaCurve, ParaPoly), (HoloCurve, ComplexPoly)]


def mixed_curves(degrees, seed):
    """Exact curves of both signatures whose coefficients mix int and Fraction."""
    out = []
    for index, (curve_cls, poly_cls) in enumerate(SIGNATURES):
        rng = np.random.default_rng([seed, index])

        def q():
            n = int(rng.integers(-12, 13))
            return n if rng.random() < 0.3 else Fraction(n, int(rng.integers(1, 7)))

        def poly(degree):
            lead = (0, 0)
            while lead == (0, 0):
                lead = (q(), q())
            return poly_cls([(q(), q()) for _ in range(degree)] + [lead])

        out += [curve_cls(poly(d), poly(d)) for d in degrees]
    return out


def curve_id(curve):
    return f"{curve.signature}-{max(curve.F.degree, curve.G.degree)}"


CURVES = mixed_curves(range(10), 81)


@pytest.mark.parametrize("curve", CURVES, ids=curve_id)
def test_exact_fields_satisfy_the_defining_identities(curve):
    f = Surface(curve).fields
    x1, x2, phi, n1, n2 = (f[k] for k in ("x1", "x2", "phi", "n1", "n2"))
    assert phi.partial_u() == -(n1 * x1.partial_u() + n2 * x2.partial_u())
    assert phi.partial_v() == -(n1 * x1.partial_v() + n2 * x2.partial_v())
    assert phi.coeff(0, 0) == 0
    assert f["density"] == x1.partial_u() * x2.partial_v() - x1.partial_v() * x2.partial_u()
    assert all(p.is_exact() for p in f.values())


def test_exact_build_makes_four_bivariate_products(monkeypatch):
    calls = []
    exact_mul = BiPoly._exact_mul

    def counted(self, other):
        calls.append(None)
        return exact_mul(self, other)

    monkeypatch.setattr(BiPoly, "_exact_mul", counted)
    for curve in CURVES + mixed_curves([16], 82):
        calls.clear()
        Surface(curve).fields
        assert len(calls) == 4, curve_id(curve)
