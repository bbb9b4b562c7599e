r"""Split-complex (para-complex) scalars and polynomials.

The scalar ring is R[j] with j**2 = +1.  It is commutative but has zero
divisors on the null cone u = +-v, so there is deliberately no division.
The sibling ring with unit**2 = -1 (ordinary complex numbers held as exact
coefficient pairs) shares the implementation; it backs the locally strongly
convex surface family.

Coefficients may be exact (int / Fraction) or float; arithmetic preserves
exactness whenever both operands are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def scalar_from_text(text):
    """Parse a JSON-level scalar: numbers stay float-ish, "p/q" strings are exact.

    JSON NaN and Infinity load as floats; they are refused here.
    """
    if isinstance(text, str):
        return Fraction(text)
    if isinstance(text, bool):
        raise ValueError("boolean is not a polynomial coefficient")
    if isinstance(text, int):
        return text
    if isinstance(text, float):
        if not math.isfinite(text):
            raise ValueError(f"coefficient {text!r} is not finite")
        return text
    raise ValueError(f"cannot read scalar from {text!r}")


def scalar_to_text(x):
    """Inverse of scalar_from_text: exact scalars become strings, floats stay numbers."""
    if isinstance(x, Fraction):
        return str(x)
    return x


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class PlanarScalar:
    """Number a + unit*b over R with unit**2 = UNIT_SQ (+1 or -1)."""

    __slots__ = ("re", "im")
    UNIT_SQ = None  # set by subclasses

    def __init__(self, re=0, im=0):
        self.re = re
        self.im = im

    def _make(self, re, im):
        return type(self)(re, im)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._make(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        s = self.UNIT_SQ
        return self._make(
            self.re * other.re + s * self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = self._make(1, 0)
        for _ in range(n):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, PlanarScalar):
            if type(other) is not type(self):
                return NotImplemented
            return other
        if isinstance(other, (int, float, Fraction)) and not isinstance(other, bool):
            return self._make(other, 0)
        return NotImplemented

    def conjugate(self):
        return self._make(self.re, -self.im)

    def modulus(self):
        """z * conj(z) as a real scalar: re**2 - UNIT_SQ * im**2."""
        return self.re * self.re - self.UNIT_SQ * self.im * self.im

    def is_exact(self) -> bool:
        return is_exact(self.re) and is_exact(self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((type(self).__name__, self.re, self.im))

    def __repr__(self):
        return f"{type(self).__name__}({self.re!r}, {self.im!r})"


class ParaComplex(PlanarScalar):
    """Split-complex number u + j v, j**2 = +1.  modulus = u**2 - v**2."""

    __slots__ = ()
    UNIT_SQ = 1


class ComplexScalar(PlanarScalar):
    """Ordinary complex number held as an exact (re, im) pair, i**2 = -1."""

    __slots__ = ()
    UNIT_SQ = -1


class PlanarPoly:
    """Dense polynomial over a PlanarScalar subclass, coefficient of z**k at index k."""

    __slots__ = ("coeffs",)
    SCALAR = None  # set by subclasses

    def __init__(self, coeffs=()):
        cleaned = []
        for c in coeffs:
            if isinstance(c, PlanarScalar):
                if type(c) is not self.SCALAR:
                    raise TypeError(f"expected {self.SCALAR.__name__} coefficients")
                cleaned.append(c)
            elif isinstance(c, (int, float, Fraction)) and not isinstance(c, bool):
                cleaned.append(self.SCALAR(c, 0))
            elif isinstance(c, (tuple, list)) and len(c) == 2:
                cleaned.append(self.SCALAR(c[0], c[1]))
            else:
                raise TypeError(f"bad coefficient {c!r}")
        while cleaned and cleaned[-1] == self.SCALAR(0, 0):
            cleaned.pop()
        self.coeffs = tuple(cleaned)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def monomial(cls, k, coeff=1):
        return cls([0] * k + [coeff])

    @property
    def degree(self):
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return all(c.is_exact() for c in self.coeffs)

    def __call__(self, z):
        if isinstance(z, PlanarScalar):
            if type(z) is not self.SCALAR:
                raise TypeError(f"expected {self.SCALAR.__name__} argument")
        elif isinstance(z, (tuple, list)) and len(z) == 2:
            z = self.SCALAR(z[0], z[1])
        else:
            z = self.SCALAR(z, 0)
        acc = self.SCALAR(0, 0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self):
        return type(self)([k * c for k, c in enumerate(self.coeffs)][1:])

    def antiderivative(self):
        """Antiderivative vanishing at 0.  Exact coefficients stay exact."""
        out = [self.SCALAR(0, 0)]
        for k, c in enumerate(self.coeffs):
            if c.is_exact():
                out.append(self.SCALAR(Fraction(c.re, k + 1), Fraction(c.im, k + 1)))
            else:
                out.append(self.SCALAR(c.re / (k + 1), c.im / (k + 1)))
        return type(self)(out)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return type(self)(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)) and not isinstance(other, bool):
            return type(self)([c * other for c in self.coeffs])
        if isinstance(other, PlanarScalar) and type(other) is self.SCALAR:
            return type(self)([c * other for c in self.coeffs])
        if type(other) is not type(self):
            return NotImplemented
        out = [self.SCALAR(0, 0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for k, b in enumerate(other.coeffs):
                out[i + k] = out[i + k] + a * b
        return type(self)(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"


class ParaPoly(PlanarPoly):
    """Polynomial in z = u + jv.  Evaluation satisfies the para-CR equations exactly."""

    __slots__ = ()
    SCALAR = ParaComplex


class ComplexPoly(PlanarPoly):
    """Polynomial in z = u + iv with exact coefficient pairs."""

    __slots__ = ()
    SCALAR = ComplexScalar


class Poly1:
    """Univariate real polynomial (exact or float coefficients), lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cleaned = list(coeffs)
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self.coeffs = tuple(cleaned)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self):
        return Poly1([k * c for k, c in enumerate(self.coeffs)][1:])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly1(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly1([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)) and not isinstance(other, bool):
            return Poly1([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Poly1):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly1({list(self.coeffs)!r})"

    def real_roots(self):
        """Real roots (float), via the numpy companion matrix."""
        import numpy as np

        cs = [float(c) for c in self.coeffs]
        if len(cs) <= 1:
            return []
        rts = np.roots(cs[::-1])
        return sorted(float(r.real) for r in rts if abs(r.imag) <= 1e-9 * (1 + abs(r)))


@dataclass(frozen=True)
class DAlembertPair:
    """Pair (rho, sigma) with F(u+jv) = rho(u+v)+sigma(u-v) + j(rho(u+v)-sigma(u-v))."""

    rho: Poly1
    sigma: Poly1

    def as_map(self):
        """The bivariate map (u,v) -> (f1, f2) realized by this pair."""
        rho, sigma = self.rho, self.sigma

        def component_map(u, v):
            r, s = rho(u + v), sigma(u - v)
            return (r + s, r - s)

        return component_map

    def to_poly(self) -> ParaPoly:
        """Exact coefficient reconstruction of the polynomial in z."""
        n = max(len(self.rho.coeffs), len(self.sigma.coeffs))
        out = []
        for k in range(n):
            r = self.rho.coeffs[k] if k < len(self.rho.coeffs) else 0
            s = self.sigma.coeffs[k] if k < len(self.sigma.coeffs) else 0
            out.append(ParaComplex(r + s, r - s))
        return ParaPoly(out)


def para_to_dalembert(F: ParaPoly) -> DAlembertPair:
    """Split F into its d'Alembert pair.

    z**k restricted to the characteristic lines gives rho_k = (a_k+b_k)/2 and
    sigma_k = (a_k-b_k)/2 for the coefficient a_k + j b_k, because
    z**k = (u+v)**k e+ + (u-v)**k e- in the idempotent basis e+- = (1 +- j)/2.
    """
    rho, sigma = [], []
    for c in F.coeffs:
        if c.is_exact():
            rho.append(Fraction(c.re + c.im, 2))
            sigma.append(Fraction(c.re - c.im, 2))
        else:
            rho.append((c.re + c.im) / 2)
            sigma.append((c.re - c.im) / 2)
    return DAlembertPair(Poly1(rho), Poly1(sigma))


def para_cr_residual(component_map, p, h=1e-5):
    """Central-difference residuals of the para-CR equations for a black-box map.

    Parameters
    ----------
    component_map : callable (u, v) -> (f1, f2)
    p : pair of floats
    h : step, default 1e-5

    Returns
    -------
    (r1, r2) : floats, r1 = f1_u - f2_v and r2 = f1_v - f2_u; both O(h**2)
    for a para-holomorphic map.
    """
    u, v = float(p[0]), float(p[1])
    f_up = component_map(u + h, v)
    f_um = component_map(u - h, v)
    f_vp = component_map(u, v + h)
    f_vm = component_map(u, v - h)
    f1_u = (f_up[0] - f_um[0]) / (2 * h)
    f2_u = (f_up[1] - f_um[1]) / (2 * h)
    f1_v = (f_vp[0] - f_vm[0]) / (2 * h)
    f2_v = (f_vp[1] - f_vm[1]) / (2 * h)
    return (f1_u - f2_v, f1_v - f2_u)
