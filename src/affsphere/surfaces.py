r"""Surface synthesis from polynomial curve pairs.

A curve pair F = f1 + e f2, G = g1 + e g2 over the planar ring with unit e,
e**2 = s, gives

    x = (f1 - s g1, s f2 + g2),   n = (f1 + s g1, s g2 - f2),   phi = -Int <n, dx>.

A para-holomorphic pair (s = +1) gives the indefinite surface x = F - conj(G),
n = conj(F) + G; a holomorphic pair (s = -1) gives the locally strongly convex
one x = conj(F) + G, n = conj(F) - G.  In both signatures the conormal
(n1, n2, 1) annihilates the tangent plane, so the same closed one-form
-<n, dx> integrates to the potential, normalized to vanish at the origin.

Every field is a short closed form in F, G, their derivatives and
antiderivatives, with z = u + e v:

    density = s (|F'|^2 - |G'|^2),
    phi     = 1/2 (|G|^2 - |F|^2) - s (Re(G F) - 2 Re H) - (its value at 0)
            = 1/2 (|G|^2 - |F|^2) - s Re K - (its value at 0),

where |P|^2 = P conj(P) = p1^2 - s p2^2, H = Int_0 F dG, and
K = G F - 2 H - G(0) F(0) = Int_0 (G dF - F dG).  K replaces the two large
terms G F and 2 H, which cancel, by one.  A Surface keeps the univariate
coefficient vectors of these polynomials in float and evaluates fields from
them: points by Horner's rule in the planar ring, with partials from
d/du P = P' and d/dv P = e P'; grids from dense (u, v) tables.  The exact
bivariate polynomials (``Surface.fields``, ``Surface.extras``,
``graph_potential``) are built only when first asked for.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .bipoly import BiPoly, expand_planar_poly
from .paracomplex import ComplexPoly, ParaPoly

MAX_CURVE_DEGREE = 32


class ClosednessViolation(ValueError):
    """The potential one-form failed the mixed-partial check (corrupted input)."""


class InvalidDomain(ValueError):
    """Degenerate rectangle or malformed resolution."""


@dataclass(frozen=True)
class Domain:
    """Closed rectangle [u0, u1] x [v0, v1]."""

    u0: float = -1.0
    u1: float = 1.0
    v0: float = -1.0
    v1: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.u0, self.u1, self.v0, self.v1))):
            raise InvalidDomain(f"non-finite domain {self}")
        if not (self.u0 < self.u1 and self.v0 < self.v1):
            raise InvalidDomain(f"degenerate domain {self}")

    @classmethod
    def parse(cls, text):
        """Parse 'u0,u1,v0,v1'."""
        parts = [p.strip() for p in str(text).split(",")]
        if len(parts) != 4:
            raise InvalidDomain(f"expected u0,u1,v0,v1 not {text!r}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise InvalidDomain(str(exc)) from exc
        return cls(*vals)

    @property
    def radius(self):
        """Largest coordinate magnitude over the rectangle corners."""
        return max(abs(self.u0), abs(self.u1), abs(self.v0), abs(self.v1))

    def axes(self, nu, nv):
        if nu < 2 or nv < 2:
            raise InvalidDomain(f"resolution {nu}x{nv} below 2x2")
        return (np.linspace(self.u0, self.u1, nu), np.linspace(self.v0, self.v1, nv))


def _check_degree(poly, name):
    if poly.degree > MAX_CURVE_DEGREE:
        raise ValueError(
            f"{name} has degree {poly.degree}; curve components are capped "
            f"at {MAX_CURVE_DEGREE}"
        )


class ParaCurve:
    """Pair (F, G) of para-holomorphic polynomials driving an indefinite surface.

    Curves are immutable cache keys: the hash and the coefficient scale are
    computed once, here.
    """

    signature = "indefinite"
    POLY = ParaPoly

    def __init__(self, F, G):
        if not isinstance(F, self.POLY) or not isinstance(G, self.POLY):
            raise TypeError(
                f"{type(self).__name__} needs two {self.POLY.__name__} components"
            )
        _check_degree(F, "F")
        _check_degree(G, "G")
        self.F = F
        self.G = G
        try:
            self.coeff_scale = max(
                [1.0] + [abs(float(x)) for p in (F, G) for c in p.coeffs for x in (c.re, c.im)]
            )
        except OverflowError as exc:
            raise ValueError(f"exact coefficient beyond float range: {exc}") from exc
        self._hash = hash((type(self).__name__, F, G))

    @property
    def unit_sq(self):
        """Square of the ring unit: +1 (para-complex j) or -1 (complex i)."""
        return self.F.SCALAR.UNIT_SQ

    def is_exact(self):
        return self.F.is_exact() and self.G.is_exact()

    def __eq__(self, other):
        return (
            isinstance(other, type(self)) and self.F == other.F and self.G == other.G
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}(F={self.F!r}, G={self.G!r})"


class HoloCurve(ParaCurve):
    """Pair (F, G) of holomorphic polynomials driving a convex surface."""

    signature = "lsc"
    POLY = ComplexPoly


@dataclass(frozen=True)
class Jet2:
    """Value and exact first/second partials of a vector field at a point."""

    value: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray


class FieldJets(NamedTuple):
    """(value, du, dv, duu, duv, dvv) of each scalar field: floats, or arrays over points."""

    x1: tuple
    x2: tuple
    phi: tuple
    n1: tuple
    n2: tuple


@dataclass(frozen=True)
class SurfaceSample:
    domain_point: tuple
    position: np.ndarray
    conormal: np.ndarray
    unit_normal: np.ndarray


@dataclass(frozen=True)
class SurfaceGrid:
    """Row-major grid of the surface fields (axis order: u index, then v index)."""

    curve: object
    domain: Domain
    u_axis: np.ndarray
    v_axis: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    phi: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    density: np.ndarray

    @property
    def shape(self):
        return (len(self.u_axis), len(self.v_axis))


FIELD_NAMES = ("x1", "x2", "phi", "n1", "n2")
# negative-control shorthands of Surface.with_patched_fields: field and factor
_SHORTHANDS = {"negate_n1": ("n1", -1), "negate_n2": ("n2", -1), "scale_phi": ("phi", 2)}
# nodes per block of density_grid, which bounds its temporaries
_BLOCK_NODES = 1 << 16


class Surface:
    """Fields of the surface of a curve pair, evaluated from F and G.

    The float kernel holds the coefficient vectors of F, G, F', G', F'', G''
    and K = Int (G dF - F dG).  Points (``field_jets``, ``density_jet``,
    ``chart_derivatives`` and the Jet2 views) use planar Horner on Python
    floats, and ``field_jets`` runs the same operations on arrays of points;
    grids use dense coefficient tables.  The exact bivariate fields
    x1, x2, phi, n1, n2, density (``fields``) and the component derivatives
    f1u, f2u, g1u, g2u (``extras``) are BiPolys built on first access, exact
    whenever the curve is exact.
    """

    def __init__(self, curve, _patches=None):
        self.curve = curve
        self.signature = curve.signature
        self.unit_sq = float(curve.unit_sq)
        self._polys, self._horner, self._phi0 = self._build(curve)
        # field name -> factor (number) or replacement (BiPoly)
        self._patches = dict(_patches or {})

    @staticmethod
    def _build(curve):
        """Float coefficient vectors of F, G, F', G' and K, the Horner lists and phi(0, 0).

        Horner lists, highest degree first, in ring coordinates (_horner):
        F, F', F'', G, G', G'', K, K', K''.
        """
        s = float(curve.unit_sq)
        n = max(len(curve.F.coeffs), len(curve.G.coeffs), 1)
        F, G = _float_planar(curve.F, n), _float_planar(curve.G, n)
        dF, dG = _derivative(F), _derivative(G)
        dK = _planar_mul(G, dF, s) - _planar_mul(F, dG, s)
        K = _antiderivative(dK)
        horner = [
            list(zip(*(c[::-1].tolist() for c in _ring_coords(p[:, 0], p[:, 1], s))))
            for p in (F, dF, _derivative(dF), G, dG, _derivative(dG), K, dK, _derivative(dK))
        ]
        at_origin = [_horner(horner[k], 0.0, 0.0, s) for k in (0, 3, 6)]
        phi0 = _phi_closed_form(*at_origin, s)
        return {"F": F, "G": G, "dF": dF, "dG": dG, "K": K}, horner, phi0

    # -- exact output, built on request ------------------------------------

    @cached_property
    def _exact(self):
        return _exact_fields(self.curve)

    @cached_property
    def fields(self):
        """Exact BiPolys x1, x2, phi, n1, n2, density, with any patches applied."""
        fields = dict(self._exact[0])
        for name, patch in self._patches.items():
            fields[name] = patch if isinstance(patch, BiPoly) else patch * fields[name]
        return fields

    @property
    def extras(self):
        """Exact BiPolys f1u, f2u, g1u, g2u: the components of F' and G'."""
        return self._exact[1]

    @cached_property
    def density_is_zero(self):
        """Whether the density s (|F'|^2 - |G'|^2) is the zero polynomial.

        |P'|^2 = P'(z) conj(P')(conj z) with z and conj z independent
        variables (in the split case, the null coordinates u + v and u - v),
        so the density vanishes exactly when the outer products
        c_k conj(c_l) of the coefficient vectors of F' and G' agree.  In the
        split ring c_k conj(c_l) carries rho_k sigma_l and sigma_k rho_l of
        the d'Alembert split, so this is rF' (x) sF' = rG' (x) sG' there.
        Products are compared pair by pair, a missing coefficient counting
        as 0, up to the first pair that differs.  Exact for exact curves.
        """
        f = self.curve.F.derivative().coeffs
        g = self.curve.G.derivative().coeffs

        def product(c, k, m):
            return c[k] * c[m].conjugate() if k < len(c) and m < len(c) else 0

        n = max(len(f), len(g))
        return all(product(f, k, m) == product(g, k, m) for k in range(n) for m in range(n))

    # -- verification fixtures -------------------------------------------

    def with_patched_fields(self, **patches):
        """Copy with named fields replaced (verification fixtures only).

        Accepted keys: x1, x2, phi, n1 or n2 mapped to a BiPoly, evaluated
        through the BiPoly; or the shorthands negate_n1 / negate_n2 /
        scale_phi set to True, which scale the kernel's output.
        """
        out = dict(self._patches)
        for key, val in patches.items():
            if key in _SHORTHANDS and val:
                name, factor = _SHORTHANDS[key]
                out[name] = factor * out.get(name, 1)
            elif key in FIELD_NAMES and isinstance(val, BiPoly):
                out[key] = val
            else:
                raise ValueError(f"unknown field patch {key!r}")
        return Surface(self.curve, _patches=out)

    # -- point kernel -------------------------------------------------------

    def _eval(self, k, u, v):
        """Ring coordinates of Horner list k at (u, v)."""
        return _horner(self._horner[k], u, v, self.unit_sq)

    def _parts(self, k, u, v):
        """(re, im) components of Horner list k at (u, v)."""
        return _re_im(self._eval(k, u, v), self.unit_sq)

    def _density(self, u, v):
        """s (|F'|^2 - |G'|^2) at scalars or broadcasting arrays, same operations for both."""
        s = self.unit_sq
        return s * _mod_diff(self._eval(1, u, v), self._eval(4, u, v), s)

    def density_jet(self, u, v):
        """(density, d/du, d/dv) at a float point."""
        s = self.unit_sq
        dF, dG = self._eval(1, u, v), self._eval(4, u, v)
        f_u, f_v = _mod_gradient(dF, self._eval(2, u, v), s)
        g_u, g_v = _mod_gradient(dG, self._eval(5, u, v), s)
        return s * _mod_diff(dF, dG, s), s * (f_u - g_u), s * (f_v - g_v)

    def chart_derivatives(self, u, v):
        """(f1u, f2u, g1u, g2u): the components of F' and G' at a float point."""
        return (*self._parts(1, u, v), *self._parts(4, u, v))

    def field_jets(self, u, v) -> FieldJets:
        """Jets of x1, x2, phi, n1, n2 at a float point, or at equal-length float
        arrays bit for bit as point by point, patches applied."""
        s = self.unit_sq
        F, dF, d2F, G, dG, d2G, K, dK, d2K = (self._eval(k, u, v) for k in range(9))
        f = _planar_partials(*(_re_im(w, s) for w in (F, dF, d2F)), s)
        g = _planar_partials(*(_re_im(w, s) for w in (G, dG, d2G)), s)
        x1 = tuple(a[0] - s * b[0] for a, b in zip(f, g))
        x2 = tuple(s * a[1] + b[1] for a, b in zip(f, g))
        n1 = tuple(a[0] + s * b[0] for a, b in zip(f, g))
        n2 = tuple(s * b[1] - a[1] for a, b in zip(f, g))
        # phi's partials from its closed form rather than from -<n, dx>,
        # whose products cancel where one null component dominates
        mod = [
            0.5 * (b - a)
            for a, b in zip(
                (*_mod_gradient(F, dF, s), *_mod_hessian(F, dF, d2F, s)),
                (*_mod_gradient(G, dG, s), *_mod_hessian(G, dG, d2G, s)),
            )
        ]
        (k1, k2), (kk1, kk2) = _re_im(dK, s), _re_im(d2K, s)
        phi = (
            _phi_closed_form(F, G, K, s) - self._phi0,
            mod[0] - s * k1, mod[1] - k2,
            mod[2] - s * kk1, mod[3] - kk2, mod[4] - kk1,
        )
        jets = FieldJets(x1, x2, phi, n1, n2)
        if self._patches:
            jets = jets._replace(
                **{name: _patched(getattr(jets, name), patch, u, v)
                   for name, patch in self._patches.items()}
            )
        return jets

    # -- scalar fields ----------------------------------------------------

    def area_density(self, u, v):
        """Density at (u, v): float for a float point, exact BiPoly value otherwise."""
        if isinstance(u, float) or isinstance(v, float):
            return self._density(float(u), float(v))
        return self.fields["density"](u, v)

    def grad_density(self, u, v):
        if isinstance(u, float) or isinstance(v, float):
            return self.density_jet(float(u), float(v))[1:]
        d = self.fields["density"]
        return (d.partial_u()(u, v), d.partial_v()(u, v))

    # -- jets --------------------------------------------------------------

    def position_jet(self, u, v) -> Jet2:
        return _position_jet(self.field_jets(float(u), float(v)))

    def conormal_jet(self, u, v) -> Jet2:
        return _conormal_jet(self.field_jets(float(u), float(v)))

    def normal_jet(self, u, v) -> Jet2:
        """Unit normal (n1, n2, 1)/sqrt(n1^2 + n2^2 + 1) and its partials."""
        return _unit_normal_jet(self.conormal_jet(u, v))

    def jet(self, p, which) -> Jet2:
        u, v = p
        if which == "position":
            return self.position_jet(u, v)
        if which == "conormal":
            return self.conormal_jet(u, v)
        if which == "unit_normal":
            return self.normal_jet(u, v)
        raise ValueError(f"unknown jet selector {which!r}")

    # -- samples and grids ------------------------------------------------------

    def sample(self, u, v) -> SurfaceSample:
        j = self.field_jets(float(u), float(v))
        pos = np.array([j.x1[0], j.x2[0], j.phi[0]])
        con = np.array([j.n1[0], j.n2[0], 1.0])
        return SurfaceSample(
            domain_point=(u, v),
            position=pos,
            conormal=con,
            unit_normal=con / np.sqrt(con @ con),
        )

    def density_grid(self, u_axis, v_axis):
        """Density on the tensor grid u_axis x v_axis, in blocks of rows.

        Every node runs the operations of the scalar density, so grid signs
        and point values agree bit for bit (the singular-set trace relies on
        it), and temporaries stay within one block.
        """
        u_axis = np.asarray(u_axis, dtype=float)
        v_axis = np.asarray(v_axis, dtype=float)
        out = np.empty((len(u_axis), len(v_axis)))
        rows = max(1, _BLOCK_NODES // max(len(v_axis), 1))
        for i in range(0, len(u_axis), rows):
            out[i:i + rows] = self._density(u_axis[i:i + rows, None], v_axis)
        return out

    @cached_property
    def grid_tables(self):
        """Dense float (u, v) coefficient tables of the six fields.

        Components come from one binomial change of basis per polynomial;
        the squared moduli in the density and the potential are 2-D
        products of those tables, and K is univariate first.
        """
        s = self.unit_sq
        p = self._polys
        f1, f2 = _planar_tables(p["F"], s)
        g1, g2 = _planar_tables(p["G"], s)
        ring = {"F": _ring_coords(f1, f2, s), "G": _ring_coords(g1, g2, s)}
        for k in ("dF", "dG"):
            ring[k] = _ring_coords(*_planar_tables(p[k], s), s)
        density = s * _mod_diff(ring["dF"], ring["dG"], s, _mul2d)
        mod_diff = _mod_diff(ring["G"], ring["F"], s, _mul2d)
        phi = _combine((0.5, mod_diff), (-s, _planar_tables(p["K"], s)[0]))
        phi[0, 0] = 0.0
        return {
            "x1": f1 - s * g1, "x2": s * f2 + g2, "phi": phi,
            "n1": f1 + s * g1, "n2": s * g2 - f2, "density": density,
        }


# -- float kernel --------------------------------------------------------------


def _float_planar(poly, n):
    """(n, 2) float (re, im) coefficients of a planar polynomial, lowest degree first."""
    out = np.zeros((n, 2))
    for k, c in enumerate(poly.coeffs):
        out[k] = float(c.re), float(c.im)
    return out


def _derivative(c):
    if len(c) < 2:
        return np.zeros((1, 2))
    return c[1:] * np.arange(1, len(c))[:, None]


def _antiderivative(c):
    """Antiderivative vanishing at 0."""
    out = np.zeros((len(c) + 1, 2))
    out[1:] = c / np.arange(1, len(c) + 1)[:, None]
    return out


def _planar_mul(a, b, s):
    """Product in the planar ring: (a1 + e a2)(b1 + e b2) = a1 b1 + s a2 b2 + e (a1 b2 + a2 b1)."""
    re = np.convolve(a[:, 0], b[:, 0]) + s * np.convolve(a[:, 1], b[:, 1])
    im = np.convolve(a[:, 0], b[:, 1]) + np.convolve(a[:, 1], b[:, 0])
    return np.column_stack([re, im])


def _ring_coords(re, im, s):
    """Ring coordinates of (re, im) data: itself for s = -1, (re + im, re - im) for s = +1.

    In the split ring (s = +1), P(u + j v) = alpha(u + v) e+ + beta(u - v) e-
    with e+- = (1 +- j)/2, and multiplication acts on alpha and beta
    separately.  Where one null component dwarfs the other, re and im are
    nearly equal and re**2 - im**2 cancels; alpha beta does not.
    """
    return (re, im) if s < 0 else (re + im, re - im)


def _re_im(w, s):
    """(re, im) of a ring value given in ring coordinates."""
    if s < 0:
        return w
    return 0.5 * (w[0] + w[1]), 0.5 * (w[0] - w[1])


def _horner(cs, u, v, s):
    """P(u + e v) in ring coordinates, Horner's rule in the ring e**2 = s.

    cs: ring coordinates of the coefficients, highest degree first.  For
    s = -1 this is complex Horner on (re, im); for s = +1 it is real Horner
    of alpha at u + v and of beta at u - v.  Python floats and broadcasting
    numpy arrays run the same IEEE operations, so an array entry equals the
    scalar value at that node bit for bit.
    """
    x = y = 0.0
    if s > 0:
        a, b = u + v, u - v
        for p, q in cs:
            x, y = x * a + p, y * b + q
        return x, y
    for p, q in cs:
        x, y = x * u - y * v + p, x * v + y * u + q
    return x, y


def _planar_partials(p0, p1, p2, s):
    """(value, du, dv, duu, duv, dvv) component pairs of P from P, P', P'' at z.

    d/du P = P' and d/dv P = e P', with e (a + e b) = s b + e a.
    """
    return (p0, p1, (s * p1[1], p1[0]), p2, (s * p2[1], p2[0]), (s * p2[0], s * p2[1]))


def _mod_diff(P, Q, s, mul=operator.mul):
    """|P|^2 - |Q|^2 of ring values (or tables, with mul=_mul2d), |P|^2 = P conj(P).

    s = +1: alpha beta; s = -1: re^2 + im^2, as a difference of squares.
    """
    if s > 0:
        return mul(P[0], P[1]) - mul(Q[0], Q[1])
    return mul(P[0] - Q[0], P[0] + Q[0]) + mul(P[1] - Q[1], P[1] + Q[1])


def _mod_gradient(P, dP, s):
    """(d/du, d/dv) of |P|^2 from P and P' in ring coordinates: 2 Re(P' conj P), 2 Re(e P' conj P)."""
    if s > 0:
        return dP[0] * P[1] + P[0] * dP[1], dP[0] * P[1] - P[0] * dP[1]
    return 2 * (P[0] * dP[0] + P[1] * dP[1]), 2 * (dP[0] * P[1] - dP[1] * P[0])


def _mod_hessian(P, dP, d2P, s):
    """(d2/du2, d2/dudv, d2/dv2) of |P|^2 from P, P', P'' in ring coordinates.

    2 Re(P'' conj P) + 2 |P'|^2, 2 Re(e P'' conj P), s (2 Re(P'' conj P) - 2 |P'|^2).
    """
    if s > 0:
        re2, mod1 = d2P[0] * P[1] + P[0] * d2P[1], 2 * dP[0] * dP[1]
        return re2 + mod1, d2P[0] * P[1] - P[0] * d2P[1], re2 - mod1
    re2, mod1 = 2 * (d2P[0] * P[0] + d2P[1] * P[1]), 2 * (dP[0] * dP[0] + dP[1] * dP[1])
    return re2 + mod1, 2 * (d2P[0] * P[1] - d2P[1] * P[0]), mod1 - re2


def _phi_closed_form(F, G, K, s):
    """1/2 (|G|^2 - |F|^2) - s Re K from ring values."""
    return 0.5 * _mod_diff(G, F, s) - s * _re_im(K, s)[0]


def _patched(jet, patch, u, v):
    if not isinstance(patch, BiPoly):
        return tuple(patch * x for x in jet)
    pu, pv = patch.partial_u(), patch.partial_v()
    polys = (patch, pu, pv, pu.partial_u(), pu.partial_v(), pv.partial_v())
    return tuple(p(u, v) for p in polys)


def _position_jet(j: FieldJets) -> Jet2:
    return Jet2(*(np.array(t) for t in zip(j.x1, j.x2, j.phi)))


def _conormal_jet(j: FieldJets) -> Jet2:
    return Jet2(*(np.array(t) for t in zip(j.n1, j.n2, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))))


def _unit_normal_jet(nj: Jet2) -> Jet2:
    """Unit normal (n1, n2, 1)/sqrt(delta), delta = n1^2 + n2^2 + 1, from the
    conormal jet nj by the quotient rule."""
    n, n_u, n_v = nj.value, nj.du, nj.dv
    d = float(n @ n)
    du, dv = 2 * float(n @ n_u), 2 * float(n @ n_v)
    duu = 2 * float(n_u @ n_u + n @ nj.duu)
    duv = 2 * float(n_u @ n_v + n @ nj.duv)
    dvv = 2 * float(n_v @ n_v + n @ nj.dvv)
    w = d ** -0.5
    w_u = -0.5 * du * d**-1.5
    w_v = -0.5 * dv * d**-1.5
    w_uu = -0.5 * duu * d**-1.5 + 0.75 * du * du * d**-2.5
    w_uv = -0.5 * duv * d**-1.5 + 0.75 * du * dv * d**-2.5
    w_vv = -0.5 * dvv * d**-1.5 + 0.75 * dv * dv * d**-2.5
    return Jet2(
        value=n * w,
        du=n_u * w + n * w_u,
        dv=n_v * w + n * w_v,
        duu=nj.duu * w + 2 * n_u * w_u + n * w_uu,
        duv=nj.duv * w + n_u * w_v + n_v * w_u + n * w_uv,
        dvv=nj.dvv * w + 2 * n_v * w_v + n * w_vv,
    )


@lru_cache(maxsize=None)
def _basis(n, s):
    """Change of basis from z**k to u**(k-j) v**j for k < n, with e**j = s**(j//2) e**(j%2).

    Row and column indices of the table entries, which source component
    (re at even j, im at odd j) feeds the real table, and the weights
    C(k, j) s**((j+1)//2) of the real table and C(k, j) s**(j//2) of the
    unit table.
    """
    k, j = np.tril_indices(n)
    binom = np.array([math.comb(a, b) for a, b in zip(k.tolist(), j.tolist())], dtype=float)
    even = j % 2 == 0
    return k - j, j, k, even, binom * s ** ((j + 1) // 2), binom * s ** (j // 2)


def _planar_tables(c, s):
    """Dense (u, v) coefficient tables (re, im) of the planar polynomial with coefficients c."""
    n = len(c)
    rows, cols, k, even, w_re, w_im = _basis(n, s)
    re, im = np.zeros((n, n)), np.zeros((n, n))
    re[rows, cols] = np.where(even, c[k, 0], c[k, 1]) * w_re
    im[rows, cols] = np.where(even, c[k, 1], c[k, 0]) * w_im
    return re, im


def _mul2d(a, b):
    """Product of two coefficient tables: one 1-D convolution of the zero-padded rows.

    Rows padded to the product's column count cannot spill into the next
    row, so the flat convolution is the 2-D one.
    """
    (ra, ca), (rb, cb) = a.shape, b.shape
    w = ca + cb - 1
    pa, pb = np.zeros((ra, w)), np.zeros((rb, w))
    pa[:, :ca] = a
    pb[:, :cb] = b
    return np.convolve(pa.ravel(), pb.ravel())[: (ra + rb - 1) * w].reshape(ra + rb - 1, w)


def _combine(*terms):
    """Sum of scaled tables of any shapes, terms given as (factor, table)."""
    shape = np.max([t.shape for _, t in terms], axis=0)
    out = np.zeros(shape)
    for k, t in terms:
        out[: t.shape[0], : t.shape[1]] += k * t
    return out


# -- exact bivariate fields ------------------------------------------------------


def _exact_fields(curve):
    """(fields, extras) as BiPolys from the bivariate expansion of F and G."""
    s = curve.unit_sq
    f1, f2 = expand_planar_poly(curve.F)
    g1, g2 = expand_planar_poly(curve.G)
    f1u, f2u = expand_planar_poly(curve.F.derivative())
    g1u, g2u = expand_planar_poly(curve.G.derivative())

    x1 = f1 - s * g1
    x2 = s * f2 + g2
    n1 = f1 + s * g1
    n2 = s * g2 - f2

    a = -(n1 * x1.partial_u() + n2 * x2.partial_u())
    b = -(n1 * x1.partial_v() + n2 * x2.partial_v())
    _require_closed(a, b)
    phi = _integrate_closed(a, b)

    density = s * (f1u * f1u - s * (f2u * f2u) - (g1u * g1u - s * (g2u * g2u)))
    fields = {
        "x1": x1, "x2": x2, "phi": phi, "n1": n1, "n2": n2,
        "density": density,
    }
    extras = {"f1u": f1u, "f2u": f2u, "g1u": g1u, "g2u": g2u}
    return fields, extras


def _require_closed(a, b):
    """Abort unless the one-form a du + b dv is closed (a_v = b_u).

    Float rounding is judged against the terms being compared, a_v and b_u:
    differentiation multiplies coefficients by up to the degree, so the
    sizes of a and b understate it at high degree.
    """
    a_v, b_u = a.partial_v(), b.partial_u()
    diff = a_v - b_u
    if diff.is_zero():
        return
    if diff.is_exact():
        raise ClosednessViolation("potential one-form is not closed")
    scale = max(a_v.max_abs_coeff(), b_u.max_abs_coeff(), 1.0)
    if float(diff.max_abs_coeff()) > 1e-12 * float(scale):
        raise ClosednessViolation("potential one-form is not closed")


def _integrate_closed(a, b):
    """Potential with partials (a, b) and value 0 at the origin.

    phi(u, v) = Int_0^u a(s, 0) ds + Int_0^v b(u, t) dt; closedness makes the
    u-partial come out right.
    """
    a_on_axis = BiPoly({(i, 0): c for i, c in enumerate(a.restrict_v(0)) if c != 0})
    return a_on_axis.antiderivative_u() + b.antiderivative_v()


@lru_cache(maxsize=128)
def _compiled(curve) -> Surface:
    return Surface(curve)


def compile_surface(curve) -> Surface:
    """Shared compiled Surface for a curve (cached; curves are immutable)."""
    return _compiled(curve)


def graph_potential(curve) -> BiPoly:
    """The exact potential (third coordinate) polynomial, gauge phi(0,0) = 0.

    phi = -Int <n, dx> in both signatures, integrated after an exact
    closedness check of the one-form; built on the first request.
    """
    return compile_surface(curve).fields["phi"]


def synth_indefinite(curve: ParaCurve, p) -> SurfaceSample:
    if curve.signature != "indefinite":
        raise TypeError("synth_indefinite expects an indefinite ParaCurve")
    return compile_surface(curve).sample(p[0], p[1])


def synth_lsc(curve: HoloCurve, p) -> SurfaceSample:
    if curve.signature != "lsc":
        raise TypeError("synth_lsc expects an lsc HoloCurve")
    return compile_surface(curve).sample(p[0], p[1])


def jet(curve, p, which) -> Jet2:
    """Jet2 of the selected field (position / conormal / unit_normal) at p."""
    return compile_surface(curve).jet(p, which)


def sample_grid(curve, domain: Domain, res) -> SurfaceGrid:
    """Evaluate the surface fields on a res[0] x res[1] grid over the domain."""
    nu, nv = int(res[0]), int(res[1])
    u_axis, v_axis = domain.axes(nu, nv)
    tables = compile_surface(curve).grid_tables
    values = {
        name: np.polynomial.polynomial.polygrid2d(u_axis, v_axis, table)
        for name, table in tables.items()
    }
    return SurfaceGrid(curve=curve, domain=domain, u_axis=u_axis, v_axis=v_axis, **values)
