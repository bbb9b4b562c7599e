"""BiPoly at a point that mixes a float with an int or a Fraction: the float
route gives numpy polyval2d's bits as a Python float, and never warns."""

import math
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bipoly import _polyval2d_reference, bipolys

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([1e200, -1e200, -0.0])
exacts = st.integers(-5, 5) | st.fractions(-3, 3, max_denominator=10)


@settings(max_examples=200, deadline=None)
@given(bipolys(), floats, exacts, st.booleans(), st.sampled_from([float, np.float64]))
def test_mixed_point_is_bitwise_polyval2d_without_warning(p, x, e, float_first, kind):
    u, v = (kind(x), e) if float_first else (e, kind(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = p(u, v)
        want = _polyval2d_reference(p, float(u), float(v))
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert repr(got) == repr(want)


def test_overflowing_float_point_gives_inf_without_warning():
    from affsphere.bipoly import BiPoly

    p = BiPoly({(9, 0): Fraction(1, 3), (0, 2): 2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert p(1e200, Fraction(1, 2)) == math.inf
