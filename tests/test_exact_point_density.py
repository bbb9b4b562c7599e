"""Density and its gradient at exact points come from F' and F'' in the curve's
ring, without building the exact bivariate fields."""

from fractions import Fraction

import pytest
from test_exact_fields import curve_id, mixed_curves

from affsphere.bipoly import BiPoly
from affsphere.surfaces import Surface

POINTS = [
    (Fraction(1, 2), Fraction(-3, 4)), (1, -2), (0, 0), (2, Fraction(1, 3)), (Fraction(-5, 3), 0),
]


def _bivariate(surf, u, v):
    d = surf.fields["density"]
    return d(u, v), d.partial_u()(u, v), d.partial_v()(u, v)


@pytest.mark.parametrize("curve", mixed_curves(range(10), 15), ids=curve_id)
def test_exact_point_density_equals_bivariate_evaluation(curve):
    ring, bivariate = Surface(curve), Surface(curve)
    for u, v in POINTS:
        got = (ring.area_density(u, v), *ring.grad_density(u, v))
        want = _bivariate(bivariate, u, v)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
    assert "_exact" not in vars(ring)


def test_exact_point_density_makes_no_bivariate_product(monkeypatch):
    calls = []
    exact_mul = BiPoly._exact_mul

    def counted(self, other):
        calls.append(1)
        return exact_mul(self, other)

    monkeypatch.setattr(BiPoly, "_exact_mul", counted)
    for curve in mixed_curves([12], 32):
        surf = Surface(curve)
        value = surf.area_density(Fraction(1, 2), Fraction(-3, 4))
        grad = surf.grad_density(Fraction(1, 2), Fraction(-3, 4))
        assert all(isinstance(x, Fraction) for x in (value, *grad))
    assert calls == []
