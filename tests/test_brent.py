"""The in-tree Brent root finder against scipy.optimize.brentq, bit for bit.

scipy is a test-only dependency, imported inside the tests that compare.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affsphere.singularities import _bracket_root

# the edge-crossing tolerances, the swallowtail-search ones, and the defaults
TOLERANCES = [{"xtol": 1e-14, "rtol": 8.9e-16}, {"xtol": 1e-13}, {}]


def _bits(x):
    return np.array([x], dtype=np.float64).view(np.uint64)


def _step(x):
    return -1.0 if x < 1.0 else 1.0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=9),
    st.integers(-3, 3),
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.sampled_from(TOLERANCES),
)
def test_random_polynomial_brackets_match_brentq_bit_for_bit(coeffs, scale, a, b, tol):
    from scipy.optimize import brentq

    c = np.array(coeffs) * 10.0**scale
    args = []

    def f(x):
        args.append(x)
        return float(np.polyval(c, x))

    a, b = min(a, b), max(a, b)
    fa, fb = f(a), f(b)
    assume(fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0))
    want, info = brentq(f, a, b, full_output=True, disp=False, **tol)
    if not info.converged:  # a multiple root can outlast 100 iterations
        with pytest.raises(RuntimeError, match="100 iterations"):
            _bracket_root(f, a, b, fa, fb, **tol)
        return
    got = _bracket_root(f, a, b, fa, fb, **tol)
    assert type(got) is float
    assert all(type(x) is float for x in args)
    assert np.array_equal(_bits(got), _bits(want))


def test_zero_or_same_sign_endpoints_return_early_without_calling_f():
    from scipy.optimize import brentq

    def never(x):
        raise AssertionError(f"f called at {x}")

    assert _bracket_root(never, 0.25, 1.0, 0.0, 3.0) == 0.25
    assert _bracket_root(never, 0.25, 1.0, -3.0, 0.0) == 1.0
    assert _bracket_root(never, 0.25, 1.0, 2.0, 3.0) is None
    assert _bracket_root(never, 0.25, 1.0, -2.0, -3.0) is None
    assert brentq(lambda x: x - 0.25, 0.25, 1.0) == 0.25
    assert brentq(lambda x: x - 1.0, 0.25, 1.0) == 1.0


def test_nan_value_raises_value_error_like_brentq():
    from scipy.optimize import brentq

    def f(x):
        return -1.0 if x < 0.25 else (float("nan") if x < 0.75 else 1.0)

    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        _bracket_root(f, 0.0, 1.0, f(0.0), f(1.0))
    with pytest.raises(ValueError, match="NaN"):
        _bracket_root(f, 0.5, 1.0, float("nan"), -1.0)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_no_convergence_in_100_iterations_raises_runtime_error_like_brentq(tol):
    from scipy.optimize import brentq

    # a jump inside a bracket 600 decades wide: bisection alone needs about 1000 halvings
    a, b = -1e300, 1e300
    with pytest.raises(RuntimeError):
        brentq(_step, a, b, **tol)
    theirs, ours = [], []
    brentq(lambda x: theirs.append(x) or _step(x), a, b, full_output=True, disp=False, **tol)
    with pytest.raises(RuntimeError, match="100 iterations"):
        _bracket_root(lambda x: ours.append(x) or _step(x), a, b, _step(a), _step(b), **tol)
    # brentq also evaluates both ends; after them both take the same 100 steps
    assert len(ours) == 100
    assert theirs[2:] == ours
