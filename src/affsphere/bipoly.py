"""Bivariate polynomials over exact (int/Fraction) or float coefficients.

The exact output of a surface: ``Surface.fields``, ``Surface.extras`` and
``graph_potential`` are BiPolys in (u, v), built on request by the surfaces
module's closed forms from ``expand_planar_poly`` of F, G, F', G' and K.
Exactness is preserved whenever the inputs are exact.  Float evaluation of a
surface does not go through this module but for its grid tables, which read
the one z**k -> u**(k-j) v**j expansion table (``_basis``), as
``expand_planar_poly`` does.  A BiPoly evaluates float points and arrays alike
with numpy's polyval2d on one dense float table, and exact points exactly.

Exact products convolve integer numerators over a common denominator and
divide once per output term, rather than multiplying Fractions term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .paracomplex import is_exact, is_real


class BiPoly:
    """Polynomial sum of c[i,j] * u**i * v**j, held as a zero-free dict."""

    __slots__ = ("c", "_dense")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for (i, j), val in coeffs.items():
                if val != 0:
                    c[(int(i), int(j))] = val
        self.c = c
        self._dense = None

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, a):
        return cls({(0, 0): a})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.c)
        for k, val in other.c.items():
            out[k] = out.get(k, 0) + val
        return BiPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return BiPoly({k: -v for k, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            if self.is_exact() and other.is_exact():
                return self._exact_mul(other)
            out = {}
            for (i1, j1), a in self.c.items():
                for (i2, j2), b in other.c.items():
                    k = (i1 + i2, j1 + j2)
                    out[k] = out.get(k, 0) + a * b
            return BiPoly(out)
        if is_real(other):
            return BiPoly({k: v * other for k, v in self.c.items()})
        return NotImplemented

    __rmul__ = __mul__

    def _exact_mul(self, other):
        """Exact product: convolve integer numerators, then divide once per term.

        A coefficient is int where every pair of factors that meets in it is
        int x int, and Fraction otherwise, as termwise multiplication gives.
        """
        la, na, fa = _numerators(self.c)
        lb, nb, fb = _numerators(other.c)
        out = {}
        for (i1, j1), a in na.items():
            for (i2, j2), b in nb.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + a * b
        if len(fa) == len(na) or len(fb) == len(nb):
            frac = out.keys()  # every pair has a Fraction factor
        else:
            frac = {(i1 + i2, j1 + j2) for (i1, j1) in fa for (i2, j2) in nb}
            frac.update((i1 + i2, j1 + j2) for (i1, j1) in na for (i2, j2) in fb)
        den = la * lb
        return BiPoly(
            {k: Fraction(s, den) if k in frac else s // den for k, s in out.items()}
        )

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            return other
        if is_real(other):
            return BiPoly.constant(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    # -- calculus ------------------------------------------------------

    def partial_u(self):
        return BiPoly({(i - 1, j): i * v for (i, j), v in self.c.items() if i > 0})

    def partial_v(self):
        return BiPoly({(i, j - 1): j * v for (i, j), v in self.c.items() if j > 0})

    # -- evaluation ----------------------------------------------------

    def __call__(self, u, v):
        """Value at (u, v): numpy's polyval2d for arrays and for float points,
        the exact sum of terms otherwise."""
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            return np.polynomial.polynomial.polyval2d(
                np.asarray(u), np.asarray(v), self._dense_array()
            )
        if isinstance(u, float) or isinstance(v, float):
            # a Python float, silent on overflow and on inf/nan points as float arithmetic is
            with np.errstate(all="ignore"):
                value = np.polynomial.polynomial.polyval2d(float(u), float(v), self._dense_array())
            return float(value)
        acc = 0
        for (i, j), val in self.c.items():
            acc = acc + val * u**i * v**j
        return acc

    def _dense_array(self):
        if self._dense is None:
            if self.c:
                nu = 1 + max(i for (i, j) in self.c)
                nv = 1 + max(j for (i, j) in self.c)
            else:
                nu = nv = 1
            dense = np.zeros((nu, nv))
            for (i, j), val in self.c.items():
                dense[i, j] = float(val)
            self._dense = dense
        return self._dense

    # -- inspection ------------------------------------------------------

    def coeff(self, i, j):
        return self.c.get((i, j), 0)

    def is_zero(self) -> bool:
        return not self.c

    def is_exact(self) -> bool:
        return all(is_exact(v) for v in self.c.values())

    def terms(self):
        """Sorted ((i, j), coeff) pairs, graded lexicographic."""
        return sorted(self.c.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))

    def __repr__(self):
        if not self.c:
            return "BiPoly(0)"
        bits = []
        for (i, j), val in self.terms():
            mono = "".join(
                [f"u^{i}" if i > 1 else "u" if i == 1 else "",
                 f"v^{j}" if j > 1 else "v" if j == 1 else ""])
            bits.append(f"{val}*{mono}" if mono else f"{val}")
        return "BiPoly(" + " + ".join(bits) + ")"


def _numerators(c):
    """(L, {key: coeff * L as int}, keys of Fraction coeffs), L the lcm of the denominators."""
    den = 1
    frac = []
    for k, val in c.items():
        if isinstance(val, Fraction):
            den = math.lcm(den, val.denominator)
            frac.append(k)
    nums = {
        k: val.numerator * (den // val.denominator) if isinstance(val, Fraction) else val * den
        for k, val in c.items()
    }
    return den, nums, frac


@lru_cache(maxsize=None)
def _basis(n, s):
    """Change of basis from z**k to u**(k-j) v**j for k < n, with e**j = s**(j//2) e**(j%2).

    Row and column indices of the table entries, the source index k, whether
    re (even j) or im (odd j) feeds the real part, and the int64 weights
    C(k, j) s**((j+1)//2) of the real part and C(k, j) s**(j//2) of the unit
    part, exact up to C(64, 32) (K's degree 64), whose float64 is float(int).
    """
    s = int(s)  # the weights stay int although 1 and 1.0 are one cache key
    k, j = np.tril_indices(n)
    binom = np.array([math.comb(a, b) for a, b in zip(k.tolist(), j.tolist())], dtype=np.int64)
    return k - j, j, k, j % 2 == 0, binom * s ** ((j + 1) // 2), binom * s ** (j // 2)


def expand_planar_poly(poly):
    """Expand a ParaPoly/ComplexPoly into its two real bivariate components.

    Returns (real_part, unit_part) as BiPoly in (u, v), written directly from
    the binomial terms C(k, j) u**(k-j) (e v)**j of z**k (``_basis``), where
    (a + e b) e = s b + e a.  Each coefficient is one product with an integer,
    so exact coefficients stay exact.
    """
    c = poly.coeffs
    re, im = {}, {}
    basis = (a.tolist() for a in _basis(len(c), poly.SCALAR.UNIT_SQ))
    for i, j, k, even, w_re, w_im in zip(*basis):
        a, b = (c[k].re, c[k].im) if even else (c[k].im, c[k].re)
        re[i, j], im[i, j] = a * w_re, b * w_im
    return BiPoly(re), BiPoly(im)
