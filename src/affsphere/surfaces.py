r"""Surface synthesis from polynomial curve pairs.

A curve pair F = f1 + e f2, G = g1 + e g2 over the planar ring with unit e,
e**2 = s, gives

    x = (f1 - s g1, s f2 + g2),   n = (f1 + s g1, s g2 - f2),   phi = -Int <n, dx>.

A para-holomorphic pair (s = +1) gives the indefinite surface x = F - conj(G),
n = conj(F) + G; a holomorphic pair (s = -1) gives the locally strongly convex
one x = conj(F) + G, n = conj(F) - G.  In both signatures the conormal
(n1, n2, 1) annihilates the tangent plane, so the one-form -<n, dx> is closed
and phi is its potential, normalized to vanish at the origin.

Every field is a short closed form in F, G, their derivatives and
antiderivatives, with z = u + e v:

    density = s (|F'|^2 - |G'|^2),
    phi     = 1/2 (|G|^2 - |F|^2) - s (Re(G F) - 2 Re H) - (its value at 0)
            = 1/2 (|G|^2 - |F|^2) - s Re K - (its value at 0),

where |P|^2 = P conj(P) = p1^2 - s p2^2, H = Int_0 F dG, and
K = G F - 2 H - G(0) F(0) = Int_0 (G dF - F dG).  K replaces the two large
terms G F and 2 H, which cancel, by one.  A Surface keeps the univariate
coefficient vectors of these polynomials in float and evaluates fields from
them: points by Horner's rule in the planar ring (split ring: real Horner at
u + v and u - v), partials from d/du P = P' and d/dv P = e P'; grids from
dense (u, v) tables.  The exact bivariate polynomials (``Surface.fields``,
``Surface.extras``, ``graph_potential``) are built only when first asked
for, from these same formulas.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .bipoly import BiPoly, _basis, expand_planar_poly
from .paracomplex import ComplexPoly, ParaPoly

MAX_CURVE_DEGREE = 32


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

    def axes(self, nu, nv):
        if nu < 2 or nv < 2:
            raise InvalidDomain(f"resolution {nu}x{nv} below 2x2")
        return (np.linspace(self.u0, self.u1, nu), np.linspace(self.v0, self.v1, nv))


def _point_pairs(points):
    """(n, 2) float array of an iterable of (u, v) pairs or an (n, 2) array; ValueError otherwise."""
    if not isinstance(points, np.ndarray):
        points = list(points)
    pts = np.asarray(points if len(points) else np.empty((0, 2)), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (u, v) pairs, got an array of shape {pts.shape}")
    return pts


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

    def rows(self, idx):
        """Jet of the selected rows, when the vectors are (n, 3) arrays over rows."""
        return Jet2(self.value[idx], self.du[idx], self.dv[idx], self.duu[idx], self.duv[idx], self.dvv[idx])


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

    The float kernel holds the Horner lists of F, F', F'', G, G', G'',
    K = Int (G dF - F dG), K', K'', F''' and G''' (the last two give the
    Hessian of the density and the partials of the chart matrix).  Points
    have two kernels, ``field_jets`` (and the Jet2 views of it) and
    ``chart_jet``, of which ``chart_derivatives`` is the one projection.
    They use planar Horner on Python floats, for s = +1 two passes of the
    grids' real Horner (``_horner_real``) in the null coordinates u + v and
    u - v.  On arrays of points each makes one Horner
    pass over a table stacking the lists it needs (``_eval``), bit for bit
    the per-point values (``_horner``); grids run
    tensor Horner over dense (u, v) coefficient tables (``grid_tables``), the
    fields concurrently, each with a serial run's steps and so its bits
    (``sample_grid``).
    The exact bivariate fields x1, x2, phi, n1, n2, density (``fields``)
    and the component derivatives f1u, f2u, g1u, g2u (``extras``) are
    BiPolys built on first access, exact whenever the curve is exact.
    """

    def __init__(self, curve, _patches=None):
        self.curve = curve
        self.signature = curve.signature
        self.unit_sq = float(curve.unit_sq)
        self._polys, self._horner, self._phi0 = self._build(curve)
        self._tables = {}  # Horner list indices -> stacked table (_stacked)
        # field name -> factor (number) or replacement (BiPoly)
        self._patches = dict(_patches or {})

    @staticmethod
    def _build(curve):
        """Float coefficient vectors of F, G, F', G' and K, the Horner lists and phi(0, 0).

        Horner lists, one column tuple per ring coordinate, highest degree
        first (_horner): F, F', F'', G, G', G'', K, K', K'', F''', G'''.
        """
        s = float(curve.unit_sq)
        n = max(len(curve.F.coeffs), len(curve.G.coeffs), 1)
        F, G = _float_planar(curve.F, n), _float_planar(curve.G, n)
        dF, dG = _derivative(F), _derivative(G)
        d2F, d2G = _derivative(dF), _derivative(dG)
        dK = _planar_mul(G, dF, s) - _planar_mul(F, dG, s)
        K = _antiderivative(dK)
        horner = [
            tuple(tuple(c[::-1].tolist()) for c in _ring_coords(p[:, 0], p[:, 1], s))
            for p in (F, dF, d2F, G, dG, d2G, K, dK, _derivative(dK), _derivative(d2F), _derivative(d2G))
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
        The coefficient of z^(k-1) in P' is k P_k, and the factor k l is
        common to both sides, so the products of the coefficients of F and G
        from index 1 on are compared instead, pair by pair, a missing
        coefficient counting as 0, up to the first pair that differs.  Exact
        for exact curves.
        """
        f, g = self.curve.F.coeffs[1:], self.curve.G.coeffs[1:]

        def product(c, k, m):
            return c[k] * c[m].conjugate() if k < len(c) and m < len(c) else 0

        n = max(len(f), len(g))
        return all(product(f, k, m) == product(g, k, m) for k in range(n) for m in range(n))

    # -- verification fixtures -------------------------------------------

    def with_patched_fields(self, **patches):
        """Copy with named fields replaced (verification fixtures only).

        Accepted keys: x1, x2, phi, n1 or n2 mapped to a BiPoly, evaluated
        through the BiPoly; or the shorthands negate_n1 / negate_n2 /
        scale_phi, which scale the kernel's output when true.
        """
        out = dict(self._patches)
        for key, val in patches.items():
            if key in _SHORTHANDS and val:
                name, factor = _SHORTHANDS[key]
                out[name] = factor * out.get(name, 1)
            elif key in FIELD_NAMES and isinstance(val, BiPoly):
                out[key] = val
            elif key not in _SHORTHANDS:
                raise ValueError(f"unknown field patch {key!r}")
        return Surface(self.curve, _patches=out)

    # -- point kernel -------------------------------------------------------

    def _eval(self, ks, u, v):
        """Ring coordinates of the Horner lists ks at (u, v), one pair per list: a
        pass per list at a scalar point, one pass over their `_stacked` table on arrays."""
        s = self.unit_sq
        if np.ndim(u) == 0 and np.ndim(v) == 0:
            return [_horner(self._horner[k], u, v, s) for k in ks]
        table = self._stacked(ks)
        x, y = _horner(table.reshape(table.shape + (1,) * max(np.ndim(u), np.ndim(v))), u, v, s)
        return list(zip(x, y))

    def _stacked(self, ks):
        """(2, steps, len(ks)) table of the Horner lists ks, built on first use:
        highest degree first, shorter lists padded with zeros at the top.  See
        `_horner` for why each entry still equals its list's own Horner pass."""
        if ks not in self._tables:
            lists = [self._horner[k] for k in ks]
            table = self._tables[ks] = np.zeros((2, max(len(cs[0]) for cs in lists), len(ks)))
            for j, cs in enumerate(lists):
                table[:, -len(cs[0]):, j] = cs
        return self._tables[ks]

    def _density(self, u, v):
        """s (|F'|^2 - |G'|^2) at scalars or broadcasting arrays, same operations for both;
        a pass per list, as a stacked pass of the two was up to 1.4x slower on density_grid's blocks."""
        s = self.unit_sq
        return s * _mod_diff(*(_horner(self._horner[k], u, v, s) for k in (1, 4)), s)

    def chart_jet(self, u, v):
        """(density, its gradient, its Hessian, chart components) at a float point
        or at arrays of points, from one pass over F', F'', F''', G', G'', G'''.

        The chart components are three 4-tuples: (f1u, f2u, g1u, g2u), the
        components of F' and G'; their u partials, the components of F'' and
        G''; and their v partials, the components of e F'' and e G''.  It is
        the one float point kernel of the density's jets and the chart
        matrix: chart_derivatives is its one projection.
        """
        s = self.unit_sq
        dF, d2F, d3F, dG, d2G, d3G = self._eval((1, 2, 9, 4, 5, 10), u, v)
        grad = [s * (a - b) for a, b in zip(_mod_gradient(dF, d2F, s), _mod_gradient(dG, d2G, s))]
        hess = [s * (a - b) for a, b in zip(_mod_hessian(dF, d2F, d3F, s), _mod_hessian(dG, d2G, d3G, s))]
        (f1, f2), (g1, g2), (a1, a2), (b1, b2) = (_re_im(w, s) for w in (dF, dG, d2F, d2G))
        comps = ((f1, f2, g1, g2), (a1, a2, b1, b2), (s * a2, a1, s * b2, b1))
        return s * _mod_diff(dF, dG, s), grad, hess, comps

    def chart_derivatives(self, u, v):
        """(f1u, f2u, g1u, g2u), the components of F' and G': chart_jet's first chart components."""
        return self.chart_jet(u, v)[3][0]

    def field_jets(self, u, v) -> FieldJets:
        """Jets of x1, x2, phi, n1, n2 at a float point, or at equal-length float
        arrays bit for bit as point by point, patches applied."""
        s = self.unit_sq
        F, dF, d2F, G, dG, d2G, K, dK, d2K = self._eval(tuple(range(9)), u, v)
        f = _planar_partials(*(_re_im(w, s) for w in (F, dF, d2F)), s)
        g = _planar_partials(*(_re_im(w, s) for w in (G, dG, d2G)), s)
        x1, x2, n1, n2 = zip(*(_representation(*a, *b, s) for a, b in zip(f, g)))
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
        """Density at (u, v): float for a float point, exact value otherwise."""
        if isinstance(u, float) or isinstance(v, float):
            return self._density(float(u), float(v))
        return self._exact_density_jet(u, v)[0]

    def grad_density(self, u, v):
        if isinstance(u, float) or isinstance(v, float):
            return tuple(self.chart_jet(float(u), float(v))[1])
        return self._exact_density_jet(u, v)[1:]

    def _exact_density_jet(self, u, v):
        """(density, d/du, d/dv) at an exact point, in the curve's ring at z = u + e v.

        |P'|^2 has partials 2 Re(P'' conj P') and 2 s Im(P'' conj P'), as
        d/du P' = P'' and d/dv P' = e P''.
        """
        s = self.curve.unit_sq
        jets = []
        for P in (self.curve.F, self.curve.G):
            dP = P.derivative()
            w = dP((u, v))
            # a constant P' has int zero partials, as the zero BiPoly gives
            t = dP.derivative()((u, v)) * w.conjugate() if dP.degree > 0 else P.SCALAR(0, 0)
            jets.append((w.modulus(), 2 * t.re, 2 * s * t.im))
        return tuple(s * (f - g) for f, g in zip(*jets))

    # -- jets --------------------------------------------------------------

    def position_jet(self, u, v) -> Jet2:
        return _position_jet(self.field_jets(float(u), float(v)))

    def conormal_jet(self, u, v) -> Jet2:
        return _conormal_jet(self.field_jets(float(u), float(v)))

    def normal_jet(self, u, v) -> Jet2:
        """Unit normal (n1, n2, 1)/sqrt(n1^2 + n2^2 + 1) and its partials."""
        return _unit_normal_jet(self.conormal_jet(u, v))

    # -- samples and grids ------------------------------------------------------

    def sample(self, u, v) -> SurfaceSample:
        """The values of position_jet, conormal_jet and normal_jet, from one field_jets call."""
        j = self.field_jets(float(u), float(v))
        con = _conormal_jet(j)
        return SurfaceSample((u, v), _position_jet(j).value, con.value, _unit_normal_jet(con).value)

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
        tables = {name: _planar_tables(c, s) for name, c in self._polys.items()}
        ring = {name: _ring_coords(*tables[name], s) for name in ("F", "G", "dF", "dG")}
        density = s * _mod_diff(ring["dF"], ring["dG"], s, _mul2d)
        mod_diff = _mod_diff(ring["G"], ring["F"], s, _mul2d)
        phi = _combine((0.5, mod_diff), (-s, tables["K"][0]))
        phi[0, 0] = 0.0
        x1, x2, n1, n2 = _representation(*tables["F"], *tables["G"], s)
        return {"x1": x1, "x2": x2, "phi": phi, "n1": n1, "n2": n2, "density": density}


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


def _representation(f1, f2, g1, g2, s):
    """(x1, x2, n1, n2) from the components of F and G: numbers, arrays or BiPolys."""
    return f1 - s * g1, s * f2 + g2, f1 + s * g1, s * g2 - f2


def _re_im(w, s):
    """(re, im) of a ring value given in ring coordinates."""
    if s < 0:
        return w
    return 0.5 * (w[0] + w[1]), 0.5 * (w[0] - w[1])


def _horner(cs, u, v, s):
    """P(u + e v) in ring coordinates, Horner's rule in the ring e**2 = s.

    cs: the two ring-coordinate columns of the coefficients, highest degree
    first.  For s = +1, alpha and beta: two real Horner passes (`_horner_real`)
    in the null coordinates u + v and u - v; for s = -1, complex Horner on
    (re, im).  Floats and broadcasting arrays run the same IEEE operations, so
    an array entry equals the scalar value at that node bit for bit.  cs may
    also be a stacked table (`Surface._stacked`) holding several polynomials,
    zero-padded at the top: at a finite point a padded step gives
    0.0 + 0.0 * a = +0.0 (for s = -1, a sum of signed zeros plus 0.0 = +0.0),
    the value Horner starts from, so each polynomial's entries still equal its
    own pass; a non-finite point gives NaN at the first step either way.
    """
    if s > 0:
        return _horner_real(cs[0], u + v), _horner_real(cs[1], u - v)
    x = y = 0.0
    for p, q in zip(*cs):
        x, y = x * u - y * v + p, x * v + y * u + q
    return x, y


def _horner_real(cs, a):
    """Real Horner of the coefficients cs, highest degree first, at a: numpy polyval's
    steps, c + a * 0 and then out * a + c per coefficient.  In place on an array
    (no temporary of its size); on a Python float the operators rebind to floats."""
    out = cs[0] + 0.0 * a
    for c in cs[1:]:
        out *= a
        out += c
    return out


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


def _rows3(*fields):
    """Jet2 whose vectors stack the jets of three scalar fields on the last axis."""
    return Jet2(*(np.stack(np.broadcast_arrays(*t), axis=-1) for t in zip(*fields)))


def _position_jet(j: FieldJets) -> Jet2:
    return _rows3(j.x1, j.x2, j.phi)


def _conormal_jet(j: FieldJets) -> Jet2:
    return _rows3(j.n1, j.n2, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def _dot(a, b):
    """Row-wise dot products over the last axis.

    matmul of (1, k) by (k, 1) runs the BLAS dot that a 1-D `a @ b` runs, so
    each row equals the dot of that row alone bit for bit; an elementwise sum
    of products does not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _unit_normal_jet(nj: Jet2) -> Jet2:
    """Unit normal (n1, n2, 1)/sqrt(delta), delta = n1^2 + n2^2 + 1, from the
    conormal jet nj by the quotient rule, at one point ((3,) vectors) or at the
    rows of (n, 3) ones.  Dots go through `_dot` and powers through float_power,
    the C pow of Python floats, so each row equals its one-row result bit for bit.
    """
    n, n_u, n_v = nj.value, nj.du, nj.dv
    d = _dot(n, n)[..., None]  # a length-1 last axis scales the rows
    du, dv = 2 * _dot(n, n_u)[..., None], 2 * _dot(n, n_v)[..., None]
    duu = 2 * (_dot(n_u, n_u) + _dot(n, nj.duu))[..., None]
    duv = 2 * (_dot(n_u, n_v) + _dot(n, nj.duv))[..., None]
    dvv = 2 * (_dot(n_v, n_v) + _dot(n, nj.dvv))[..., None]
    w, p3, p5 = (np.float_power(d, e) for e in (-0.5, -1.5, -2.5))
    w_u, w_v = -0.5 * du * p3, -0.5 * dv * p3
    w_uu = -0.5 * duu * p3 + 0.75 * du * du * p5
    w_uv = -0.5 * duv * p3 + 0.75 * du * dv * p5
    w_vv = -0.5 * dvv * p3 + 0.75 * dv * dv * p5
    return Jet2(
        value=n * w,
        du=n_u * w + n * w_u,
        dv=n_v * w + n * w_v,
        duu=nj.duu * w + 2 * n_u * w_u + n * w_uu,
        duv=nj.duv * w + n_u * w_v + n_v * w_u + n * w_uv,
        dvv=nj.dvv * w + 2 * n_v * w_v + n * w_vv,
    )


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
    """(fields, extras) as BiPolys: the module docstring's closed forms on the
    expansions of F, G, F', G' and K, with four bivariate products at any degree.
    Fraction(1, 2) keeps exact coefficients exact and halves float ones as 0.5 c.
    """
    s = curve.unit_sq
    dF, dG = curve.F.derivative(), curve.G.derivative()
    (f1, f2), (g1, g2), (f1u, f2u), (g1u, g2u) = (
        expand_planar_poly(P) for P in (curve.F, curve.G, dF, dG))
    k1, _ = expand_planar_poly((curve.G * dF - curve.F * dG).antiderivative())
    x1, x2, n1, n2 = _representation(f1, f2, g1, g2, s)
    phi = Fraction(1, 2) * _mod_diff(_ring_coords(g1, g2, s), _ring_coords(f1, f2, s), s)
    phi = phi - s * k1
    phi = phi - phi.coeff(0, 0)
    density = s * _mod_diff(_ring_coords(f1u, f2u, s), _ring_coords(g1u, g2u, s), s)
    fields = {"x1": x1, "x2": x2, "phi": phi, "n1": n1, "n2": n2, "density": density}
    extras = {"f1u": f1u, "f2u": f2u, "g1u": g1u, "g2u": g2u}
    return fields, extras


@lru_cache(maxsize=128)
def _compiled(curve) -> Surface:
    return Surface(curve)


def compile_surface(curve) -> Surface:
    """Shared compiled Surface for a curve (cached; curves are immutable)."""
    return _compiled(curve)


def graph_potential(curve) -> BiPoly:
    """The exact potential (third coordinate) polynomial, gauge phi(0,0) = 0.

    phi = -Int <n, dx> in both signatures, taken from its closed form
    1/2 (|G|^2 - |F|^2) - s Re K; built on the first request.
    """
    return compile_surface(curve).fields["phi"]


def sample_grid(curve, domain: Domain, res) -> SurfaceGrid:
    """Evaluate the surface fields on a res[0] x res[1] grid over the domain."""
    nu, nv = int(res[0]), int(res[1])
    u_axis, v_axis = domain.axes(nu, nv)
    # Tensor Horner over dense (u, v) tables, along u and then along v, each
    # stage numpy polyval's steps in place (_horner_real): polygrid2d's bits.
    # The fields run concurrently, longest v-stage first, each with a serial
    # run's steps and so its bits.  density_grid stays on the point kernel,
    # as the trace needs its signs to match the point density bit for bit.
    tables = compile_surface(curve).grid_tables
    names = sorted(tables, key=lambda name: -tables[name].shape[1])
    def field(name):
        return _horner_real(_horner_real(tables[name][::-1, :, None], u_axis)[::-1, :, None], v_axis)
    values = dict(zip(names, _fan_out(field, names)))
    return SurfaceGrid(curve=curve, domain=domain, u_axis=u_axis, v_axis=v_axis, **values)


def _fan_out(fn, items):
    """[fn(item) for item in items] on the caller and up to one thread per other usable CPU
    (the affinity mask where the OS has one), taking indices from one iterator (each next()
    is atomic under the GIL) under the caller's numpy error state.  All threads are joined
    before the first exception raised in any of them is re-raised."""
    results, errors, todo = [None] * len(items), [], iter(range(len(items)))
    errstate = dict(np.geterr(), call=np.geterrcall())  # new threads start at numpy's defaults
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    def work():
        try:
            with np.errstate(**errstate):
                for i in todo:
                    results[i] = fn(items[i])
        except BaseException as exc:  # re-raised by the caller after the join
            errors.append(exc)
    helpers = [threading.Thread(target=work) for _ in range(min(len(items), cpus) - 1)]
    try:
        for thread in helpers:
            thread.start()
        work()
    finally:
        for thread in filter(threading.Thread.is_alive, helpers):
            thread.join()
    if errors:
        raise errors[0]
    return results
