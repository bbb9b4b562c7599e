r"""Split-complex (para-complex) scalars and polynomials.

The scalar ring is R[j] with j**2 = +1.  It is commutative but has zero
divisors on the null cone u = +-v, so there is deliberately no division.
The sibling ring with unit**2 = -1 (ordinary complex numbers held as exact
coefficient pairs) shares the implementation; it backs the locally strongly
convex surface family.

Coefficients may be exact (int / Fraction) or float; arithmetic preserves
exactness whenever both operands are exact.  The planar-ring polynomials
(PlanarPoly) and their real null-coordinate halves (Poly1, from
para_to_dalembert) share one dense-polynomial core, _DensePoly.
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
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {text!r} has a zero denominator") from None
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


def is_real(x) -> bool:
    return isinstance(x, (int, float, Fraction)) and not isinstance(x, bool)


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
        if is_real(other):
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


class _DensePoly:
    """Dense polynomial, coefficient of t**k at index k, trailing zeros dropped.

    The operations shared by Poly1 (real coefficients) and PlanarPoly
    (planar-ring coefficients).  A subclass reads coefficients and points
    through _ring; Horner starts from _ring(0), the ring's zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cleaned = [self._ring(c) for c in coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self.coeffs = tuple(cleaned)

    def _ring(self, x):
        """x, a coefficient or a point, as an element of the coefficient ring."""
        return x

    @property
    def degree(self):
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t):
        t = self._ring(t)
        acc = self._ring(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self):
        return type(self)([k * c for k, c in enumerate(self.coeffs)][1:])

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
        if is_real(other):
            return type(self)([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"


class PlanarPoly(_DensePoly):
    """Dense polynomial over a PlanarScalar subclass, coefficient of z**k at index k.

    Coefficients and points may be given as SCALAR values, real numbers or
    (re, im) pairs.
    """

    __slots__ = ()
    SCALAR = None  # set by subclasses

    def _ring(self, x):
        if isinstance(x, PlanarScalar):
            if type(x) is not self.SCALAR:
                raise TypeError(f"expected {self.SCALAR.__name__} values")
            return x
        if is_real(x):
            return self.SCALAR(x, 0)
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return self.SCALAR(x[0], x[1])
        raise TypeError(f"cannot read {x!r} as a {self.SCALAR.__name__}")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def monomial(cls, k, coeff=1):
        return cls([0] * k + [coeff])

    def is_exact(self) -> bool:
        return all(c.is_exact() for c in self.coeffs)

    def antiderivative(self):
        """Antiderivative vanishing at 0.  Exact coefficients stay exact."""
        out = [self.SCALAR(0, 0)]
        for k, c in enumerate(self.coeffs):
            if c.is_exact():
                out.append(self.SCALAR(Fraction(c.re, k + 1), Fraction(c.im, k + 1)))
            else:
                out.append(self.SCALAR(c.re / (k + 1), c.im / (k + 1)))
        return type(self)(out)

    def __mul__(self, other):
        """Product with a real number, a SCALAR value or a polynomial of the same type."""
        if type(other) is self.SCALAR:
            return type(self)([c * other for c in self.coeffs])
        if type(other) is not type(self):
            return super().__mul__(other)
        out = [self.SCALAR(0, 0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for k, b in enumerate(other.coeffs):
                out[i + k] = out[i + k] + a * b
        return type(self)(out)

    __rmul__ = __mul__


class ParaPoly(PlanarPoly):
    """Polynomial in z = u + jv.  Evaluation satisfies the para-CR equations exactly."""

    __slots__ = ()
    SCALAR = ParaComplex


class ComplexPoly(PlanarPoly):
    """Polynomial in z = u + iv with exact coefficient pairs."""

    __slots__ = ()
    SCALAR = ComplexScalar


class Poly1(_DensePoly):
    """Univariate real polynomial (exact or float coefficients), lowest degree first."""

    __slots__ = ()

    def real_roots(self):
        """Real roots (float), via the numpy companion matrix.

        The companion matrix splits a multiple root into a cluster, whose
        members may leave the real axis.  So when the coefficients are exact
        and gcd(P, P') is non-trivial modulo 2^61 - 1, the roots are those of
        the square-free part P / gcd(P, P') over the rationals, each root once.
        """
        import numpy as np

        if len(self.coeffs) <= 1:
            return []
        coeffs = self.coeffs
        if all(map(is_exact, coeffs)) and _may_repeat_root(coeffs):
            coeffs = _squarefree(coeffs)
        rts = np.roots([float(c) for c in reversed(coeffs)])
        return sorted(float(r.real) for r in rts if abs(r.imag) <= 1e-9 * (1 + abs(r)))


def _divmod_exact(num, den):
    """(quotient, remainder) of exact coefficient lists, lowest degree first,
    den without trailing zeros; the remainder without trailing zeros."""
    rem, quot = [Fraction(c) for c in num], []
    while len(rem) >= len(den):
        f = rem[-1] / den[-1]
        quot.append(f)
        for i, d in enumerate(den, len(rem) - len(den)):
            rem[i] -= f * d
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quot[::-1], rem


def _may_repeat_root(coeffs):
    """Whether gcd(P, P') is non-trivial modulo the prime 2^61 - 1, for exact P
    of degree >= 1.  A trivial gcd there makes P square-free over the
    rationals; a denominator or leading coefficient divisible by the prime
    answers True, so that the exact gcd decides."""
    p = (1 << 61) - 1
    fracs = [Fraction(c) for c in coeffs]
    if fracs[-1].numerator % p == 0 or any(f.denominator % p == 0 for f in fracs):
        return True
    a = [f.numerator * pow(f.denominator, -1, p) % p for f in fracs]
    b = [k * c % p for k, c in enumerate(a)][1:]
    while b:  # Euclid: a, b = b, a mod b
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            for i, d in enumerate(b, len(a) - len(b)):
                a[i] = (a[i] - f * d) % p
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) > 1


def _squarefree(coeffs):
    """Coefficients of P / gcd(P, P') for exact P of degree >= 1, the gcd by
    Euclid's algorithm over Fraction with monic remainders."""
    a, b = list(coeffs), [k * c for k, c in enumerate(coeffs)][1:]
    while b:
        b = [c / Fraction(b[-1]) for c in b]
        a, b = b, _divmod_exact(a, b)[1]
    return _divmod_exact(coeffs, a)[0]


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
    half = Fraction(1, 2)  # exact on exact coefficients, 0.5 x on float ones
    rho = [half * (c.re + c.im) for c in F.coeffs]
    sigma = [half * (c.re - c.im) for c in F.coeffs]
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
