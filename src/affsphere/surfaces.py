r"""Surface synthesis from polynomial curve pairs.

A curve pair F = f1 + e f2, G = g1 + e g2 over the planar ring with unit e,
e**2 = s, gives

    x = (f1 - s g1, s f2 + g2),   n = (f1 + s g1, s g2 - f2),   phi = -Int <n, dx>.

A para-holomorphic pair (s = +1) gives the indefinite surface x = F - conj(G),
n = conj(F) + G; a holomorphic pair (s = -1) gives the locally strongly convex
one x = conj(F) + G, n = conj(F) - G.  In both signatures the conormal
(n1, n2, 1) annihilates the tangent plane, so the same closed one-form
-<n, dx> integrates to the potential.

Every derived field (position, conormal, potential, area density) is a
bivariate polynomial in (u, v); a Surface compiles them once, so jets are
coefficient-derived and exact whenever the curve is exact.  The potential is
normalized to vanish at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

    def contains(self, p, pad=0.0):
        return (self.u0 - pad <= p[0] <= self.u1 + pad) and (
            self.v0 - pad <= p[1] <= self.v1 + pad
        )


def _check_degree(poly, name):
    if poly.degree > MAX_CURVE_DEGREE:
        raise ValueError(
            f"{name} has degree {poly.degree}; curve components are capped "
            f"at {MAX_CURVE_DEGREE}"
        )


class ParaCurve:
    """Pair (F, G) of para-holomorphic polynomials driving an indefinite surface."""

    signature = "indefinite"

    def __init__(self, F: ParaPoly, G: ParaPoly):
        if not isinstance(F, ParaPoly) or not isinstance(G, ParaPoly):
            raise TypeError("ParaCurve needs two ParaPoly components")
        _check_degree(F, "F")
        _check_degree(G, "G")
        self.F = F
        self.G = G

    @property
    def coeff_scale(self):
        mags = [1.0]
        for poly in (self.F, self.G):
            for c in poly.coeffs:
                mags.append(abs(float(c.re)))
                mags.append(abs(float(c.im)))
        return max(mags)

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
        return hash((type(self).__name__, self.F, self.G))

    def __repr__(self):
        return f"{type(self).__name__}(F={self.F!r}, G={self.G!r})"


class HoloCurve(ParaCurve):
    """Pair (F, G) of holomorphic polynomials driving a convex surface."""

    signature = "lsc"

    def __init__(self, F: ComplexPoly, G: ComplexPoly):
        if not isinstance(F, ComplexPoly) or not isinstance(G, ComplexPoly):
            raise TypeError("HoloCurve needs two ComplexPoly components")
        _check_degree(F, "F")
        _check_degree(G, "G")
        self.F = F
        self.G = G


@dataclass(frozen=True)
class Jet2:
    """Value and exact first/second partials of a vector field at a point."""

    value: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray


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


class Surface:
    """Compiled polynomial fields of the surface of a curve pair.

    Fields (BiPoly): x1, x2, phi, n1, n2, density (signed area density),
    delta = n1^2 + n2^2 + 1.  Component derivative polynomials of F and G
    (f1u, f2u, g1u, g2u) are kept for the algebraic singularity conditions.
    """

    def __init__(self, curve, _fields=None, _extras=None):
        self.curve = curve
        self.signature = curve.signature
        if _fields is None:
            _fields, _extras = self._build(curve)
        self.fields = _fields
        self.extras = _extras
        self._jets = {}

    # -- construction ---------------------------------------------------

    @staticmethod
    def _build(curve):
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

    # -- verification fixtures -------------------------------------------

    def with_patched_fields(self, **patches):
        """Copy with named fields replaced (verification fixtures only).

        Accepted keys: any field name mapped to a BiPoly, or the shorthands
        negate_n1 / negate_n2 / scale_phi set to True.
        """
        fields = dict(self.fields)
        for key, val in patches.items():
            if key == "negate_n1" and val:
                fields["n1"] = -fields["n1"]
            elif key == "negate_n2" and val:
                fields["n2"] = -fields["n2"]
            elif key == "scale_phi" and val:
                fields["phi"] = 2 * fields["phi"]
            elif key in fields and isinstance(val, BiPoly):
                fields[key] = val
            else:
                raise ValueError(f"unknown field patch {key!r}")
        return Surface(self.curve, _fields=fields, _extras=self.extras)

    # -- scalar fields ----------------------------------------------------

    @property
    def delta(self):
        if "delta" not in self._jets:
            n1, n2 = self.fields["n1"], self.fields["n2"]
            self._jets["delta"] = n1 * n1 + n2 * n2 + 1
        return self._jets["delta"]

    def area_density(self, u, v):
        return self.fields["density"](u, v)

    def grad_density(self, u, v):
        _, du, dv, _, _, _ = self._jet_polys("density")
        return (du(u, v), dv(u, v))

    # -- jets --------------------------------------------------------------

    def _jet_polys(self, name):
        key = ("jet", name)
        if key not in self._jets:
            p = self.fields[name] if name != "delta" else self.delta
            pu, pv = p.partial_u(), p.partial_v()
            self._jets[key] = (p, pu, pv, pu.partial_u(), pu.partial_v(), pv.partial_v())
        return self._jets[key]

    def _eval_jet_stack(self, names, u, v, pad_one=False):
        cols = [self._jet_polys(n) for n in names]
        out = []
        for slot in range(6):
            vec = [float(col[slot](u, v)) for col in cols]
            if pad_one:
                vec.append(1.0 if slot == 0 else 0.0)
            out.append(np.array(vec))
        return Jet2(*out)

    def position_jet(self, u, v) -> Jet2:
        return self._eval_jet_stack(("x1", "x2", "phi"), u, v)

    def conormal_jet(self, u, v) -> Jet2:
        return self._eval_jet_stack(("n1", "n2"), u, v, pad_one=True)

    def normal_jet(self, u, v) -> Jet2:
        """Unit normal (n1, n2, 1)/sqrt(delta) with quotient-rule derivatives."""
        nj = self.conormal_jet(u, v)
        d, du, dv, duu, duv, dvv = (float(p(u, v)) for p in self._jet_polys("delta"))
        w = d ** -0.5
        w_u = -0.5 * du * d**-1.5
        w_v = -0.5 * dv * d**-1.5
        w_uu = -0.5 * duu * d**-1.5 + 0.75 * du * du * d**-2.5
        w_uv = -0.5 * duv * d**-1.5 + 0.75 * du * dv * d**-2.5
        w_vv = -0.5 * dvv * d**-1.5 + 0.75 * dv * dv * d**-2.5
        return Jet2(
            value=nj.value * w,
            du=nj.du * w + nj.value * w_u,
            dv=nj.dv * w + nj.value * w_v,
            duu=nj.duu * w + 2 * nj.du * w_u + nj.value * w_uu,
            duv=nj.duv * w + nj.du * w_v + nj.dv * w_u + nj.value * w_uv,
            dvv=nj.dvv * w + 2 * nj.dv * w_v + nj.value * w_vv,
        )

    def jet(self, p, which) -> Jet2:
        u, v = p
        if which == "position":
            return self.position_jet(u, v)
        if which == "conormal":
            return self.conormal_jet(u, v)
        if which == "unit_normal":
            return self.normal_jet(u, v)
        raise ValueError(f"unknown jet selector {which!r}")

    # -- samples -------------------------------------------------------------

    def sample(self, u, v) -> SurfaceSample:
        f = self.fields
        pos = np.array([float(f["x1"](u, v)), float(f["x2"](u, v)), float(f["phi"](u, v))])
        con = np.array([float(f["n1"](u, v)), float(f["n2"](u, v)), 1.0])
        return SurfaceSample(
            domain_point=(u, v),
            position=pos,
            conormal=con,
            unit_normal=con / np.sqrt(con @ con),
        )


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
    """The potential (third coordinate) polynomial, gauge phi(0,0) = 0.

    phi = -Int <n, dx> in both signatures, integrated after an exact
    closedness check of the one-form.
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
    f = compile_surface(curve).fields
    return SurfaceGrid(
        curve=curve,
        domain=domain,
        u_axis=u_axis,
        v_axis=v_axis,
        x1=f["x1"].grid(u_axis, v_axis),
        x2=f["x2"].grid(u_axis, v_axis),
        phi=f["phi"].grid(u_axis, v_axis),
        n1=f["n1"].grid(u_axis, v_axis),
        n2=f["n2"].grid(u_axis, v_axis),
        density=f["density"].grid(u_axis, v_axis),
    )
