"""Maps between the curve-pair data and other classical parametrizations.

A single para-holomorphic (resp. holomorphic) polynomial f generates an
indefinite (resp. convex) surface through the half-sum curves; the Blaschke
side trades a curve pair for four univariate wave polynomials.  All maps here
are linear in the coefficients and exact on rational input.
"""

from __future__ import annotations

from fractions import Fraction

from .paracomplex import (
    ComplexPoly,
    DAlembertPair,
    ParaPoly,
    Poly1,
    is_exact,
    para_to_dalembert,
)
from .surfaces import HoloCurve, ParaCurve


def _half_for(poly) -> Fraction | float:
    return Fraction(1, 2) if poly.is_exact() else 0.5


_CURVE_OF = {ParaPoly: ParaCurve, ComplexPoly: HoloCurve}


def _generator_curve(f, poly_cls, name):
    """(z - e f'(z))/2 and (z + e f'(z))/2 with e the unit of poly_cls's ring."""
    if not isinstance(f, poly_cls):
        raise TypeError(f"{name} expects a {poly_cls.__name__}")
    z = poly_cls.monomial(1)
    edf = f.derivative() * poly_cls.SCALAR(0, 1)
    half = _half_for(f)
    return _CURVE_OF[poly_cls]((z - edf) * half, (z + edf) * half)


def cls_to_curve(f: ParaPoly) -> ParaCurve:
    """Curve pair of the para-holomorphic generator f.

    F = (z - j f'(z))/2 and G = (z + j f'(z))/2, so the synthesized surface
    is the graph construction over f.
    """
    return _generator_curve(f, ParaPoly, "cls_to_curve")


def cortes_to_holo(f: ComplexPoly) -> HoloCurve:
    """Curve pair of the holomorphic generator f.

    F = (z - i f'(z))/2 and G = (z + i f'(z))/2.
    """
    return _generator_curve(f, ComplexPoly, "cortes_to_holo")


def curve_to_blaschke(curve: ParaCurve):
    """Wave polynomials (U1, V1, U2, V2) of an indefinite curve pair.

    With (rho1, sigma1) and (rho2, sigma2) the d'Alembert splits of F and G:
    U1 = rho1 + rho2, V1 = sigma1 + sigma2, U2 = -rho1 + rho2,
    V2 = sigma1 - sigma2.
    """
    if curve.signature != "indefinite":
        raise TypeError("curve_to_blaschke expects an indefinite curve")
    p1 = para_to_dalembert(curve.F)
    p2 = para_to_dalembert(curve.G)
    u1 = p1.rho + p2.rho
    v1 = p1.sigma + p2.sigma
    u2 = -p1.rho + p2.rho
    v2 = p1.sigma - p2.sigma
    return u1, v1, u2, v2


def blaschke_to_curve(u1: Poly1, v1: Poly1, u2: Poly1, v2: Poly1) -> ParaCurve:
    """Exact inverse of curve_to_blaschke."""
    exact = all(is_exact(c) for p in (u1, v1, u2, v2) for c in p.coeffs)
    half = Fraction(1, 2) if exact else 0.5
    rho1 = (u1 - u2) * half
    rho2 = (u1 + u2) * half
    sigma1 = (v1 + v2) * half
    sigma2 = (v1 - v2) * half
    F = DAlembertPair(rho1, sigma1).to_poly()
    G = DAlembertPair(rho2, sigma2).to_poly()
    return ParaCurve(F, G)
