"""Poly1 and PlanarPoly share one dense-polynomial core.  Every shared operation
must give what the two separate classes it replaced gave, bit for bit and
type for type; those classes are kept here as the reference."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from affsphere.paracomplex import (
    ComplexPoly,
    ComplexScalar,
    ParaComplex,
    ParaPoly,
    PlanarScalar,
    Poly1,
)

# -- reference: the separate classes, as they were --------------------------------


class RefPlanarPoly:
    __slots__ = ("coeffs",)
    SCALAR = None

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

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

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


class RefParaPoly(RefPlanarPoly):
    __slots__ = ()
    SCALAR = ParaComplex


class RefComplexPoly(RefPlanarPoly):
    __slots__ = ()
    SCALAR = ComplexScalar


class RefPoly1:
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
        return RefPoly1([k * c for k, c in enumerate(self.coeffs)][1:])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return RefPoly1(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RefPoly1([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)) and not isinstance(other, bool):
            return RefPoly1([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RefPoly1):
            return NotImplemented
        return self.coeffs == other.coeffs


# -- comparison ---------------------------------------------------------------------


def key(x):
    """Value and type, floats by repr so that signed zeros and bits count."""
    if isinstance(x, PlanarScalar):
        return (type(x).__name__, key(x.re), key(x.im))
    if isinstance(x, (RefPlanarPoly, RefPoly1, ParaPoly, ComplexPoly, Poly1)):
        return tuple(key(c) for c in x.coeffs)
    if isinstance(x, float):
        return ("float", repr(x))
    return (type(x).__name__, x)


def same(got, want):
    return key(got) == key(want) and got.degree == want.degree and got.is_zero() == want.is_zero()


reals = st.one_of(
    st.integers(-6, 6),
    st.fractions(-4, 4, max_denominator=6),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 0.0, -0.0, Fraction(0)]),
)
coeff_lists = st.lists(reals, max_size=6)
pair_lists = st.lists(st.tuples(reals, reals), max_size=6)
PLANAR = [(ParaPoly, RefParaPoly), (ComplexPoly, RefComplexPoly)]


@settings(max_examples=300, deadline=None)
@given(coeff_lists, coeff_lists, reals, reals)
def test_poly1_matches_reference(a, b, t, k):
    p, q, rp, rq = Poly1(a), Poly1(b), RefPoly1(a), RefPoly1(b)
    assert same(p, rp)
    assert key(p(t)) == key(rp(t))
    assert same(p.derivative(), rp.derivative())
    assert same(p + q, rp + rq)
    assert same(p - q, rp - rq)
    assert same(-p, -rp)
    assert same(p * k, rp * k) and same(k * p, k * rp)
    assert (p == q) == (rp == rq)
    if p == q:
        assert hash(p) == hash(q)
    assert repr(p) == f"Poly1({list(rp.coeffs)!r})"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PLANAR), pair_lists, pair_lists, st.tuples(reals, reals), reals)
def test_planar_poly_matches_reference(classes, a, b, z, k):
    cls, ref = classes
    p, q, rp, rq = cls(a), cls(b), ref(a), ref(b)
    assert same(p, rp)
    assert same(cls([x for x, _ in a]), ref([x for x, _ in a]))  # real coefficients
    assert key(p(z)) == key(rp(z))
    assert key(p(z[0])) == key(rp(z[0]))
    w = cls.SCALAR(*z)
    assert key(p(w)) == key(rp(w))
    assert same(p.derivative(), rp.derivative())
    assert same(p.antiderivative(), rp.antiderivative())
    assert same(p + q, rp + rq)
    assert same(p - q, rp - rq)
    assert same(-p, -rp)
    assert same(p * k, rp * k) and same(k * p, k * rp)
    assert same(p * w, rp * w) and same(w * p, w * rp)
    assert same(p * q, rp * rq)
    assert (p == q) == (rp == rq)
    assert hash(p) == hash((cls.__name__, rp.coeffs))
    assert repr(p) == f"{cls.__name__}({list(rp.coeffs)!r})"


def test_equal_polynomials_hash_equal_across_coefficient_types():
    assert Poly1([1, Fraction(1, 2), 0]) == Poly1([1.0, 0.5])
    assert hash(Poly1([1, Fraction(1, 2), 0])) == hash(Poly1([1.0, 0.5]))
    assert hash(ParaPoly([(1, 0), 2])) == hash(ParaPoly([1.0, (Fraction(2), 0.0)]))
