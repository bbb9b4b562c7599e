"""The lockstep Brent solver: every lane against scipy.optimize.brentq, bit for bit.

`_brent` advances a batch of brackets together, one call of f per iteration
for the lanes still open; each lane must return the float brentq returns on
its own bracket, and the float of its one-lane `_bracket_root` call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsphere.singularities import _BRENT_MAXITER, _bracket_root, _brent

TOLERANCES = [{"xtol": 1e-14, "rtol": 8.9e-16}, {"xtol": 1e-13}, {}]

bracket = st.tuples(
    st.lists(st.floats(-10, 10), min_size=2, max_size=9),
    st.integers(-3, 3),
    st.floats(-2, 2),
    st.floats(-2, 2),
)


def _lane_functions(polys):
    """f(x, lanes) giving each lane's polynomial at its iterate, and the lane counts of its calls."""
    calls = []

    def f(x, lanes):
        calls.append(len(lanes))
        return [float(np.polyval(polys[k], xk)) for xk, k in zip(x.tolist(), lanes.tolist())]

    return f, calls


@settings(max_examples=150, deadline=None)
@given(st.lists(bracket, min_size=1, max_size=12), st.sampled_from(TOLERANCES), st.data())
def test_every_lane_matches_brentq_and_its_one_lane_call(brackets, tol, data):
    from scipy.optimize import brentq

    polys, a, b = [], [], []
    for coeffs, scale, x0, x1 in brackets:
        polys.append(np.array(coeffs) * 10.0**scale)
        a.append(min(x0, x1))
        b.append(max(x0, x1))
    fa = [float(np.polyval(c, x)) for c, x in zip(polys, a)]
    fb = [float(np.polyval(c, x)) for c, x in zip(polys, b)]
    # lanes with an end value of 0, beside the same-sign lanes the draw gives
    for k in data.draw(st.lists(st.integers(0, len(polys) - 1), max_size=2)):
        fa[k] = 0.0
    want = []
    for c, x0, x1, f0, f1 in zip(polys, a, b, fa, fb):
        if f0 == 0.0 or f1 == 0.0:
            want.append(x0 if f0 == 0.0 else x1)
            continue
        if (f0 < 0.0) == (f1 < 0.0):
            want.append(None)
            continue
        root, info = brentq(lambda x: float(np.polyval(c, x)), x0, x1,
                            full_output=True, disp=False, **tol)
        # a multiple root can outlast the iteration limit; such a lane would fail the batch
        want.append(root if info.converged else "drop")
    keep = [k for k, w in enumerate(want) if not isinstance(w, str)]
    polys, want = [polys[k] for k in keep], [want[k] for k in keep]
    a, b, fa, fb = (np.array([x[k] for k in keep]) for x in (a, b, fa, fb))
    f, calls = _lane_functions(polys)

    got = _brent(f, a, b, fa, fb, **tol)

    assert len(got) == len(want) and len(calls) <= _BRENT_MAXITER
    for k, w in enumerate(want):
        one = _bracket_root(lambda x: float(np.polyval(polys[k], x)), a[k], b[k], fa[k], fb[k], **tol)
        if w is None:
            assert np.isnan(got[k]) and one is None
        else:
            assert float(got[k]).hex() == float(w).hex() == one.hex()


def _step(x):
    return np.where(x < 1.0, -1.0, 1.0)


def test_a_nan_lane_raises_value_error():
    def f(x, lanes):
        return np.where((lanes == 1) & (x > 0.25) & (x < 0.75), np.nan, x - 0.3)

    with pytest.raises(ValueError, match="NaN"):
        _brent(f, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-0.3] * 3, [0.7] * 3)
    # a NaN end value of a lane that needs iterating
    with pytest.raises(ValueError, match="NaN"):
        _brent(f, [0.0, 0.5], [1.0, 1.0], [-0.3, np.nan], [0.7, -1.0])


def test_a_lane_that_does_not_converge_raises_runtime_error():
    calls = []

    def f(x, lanes):
        calls.append(lanes.tolist())
        return np.where(lanes == 0, x - 0.3, _step(x))

    # lane 1 brackets a jump 600 decades wide: bisection needs about 1000 halvings
    with pytest.raises(RuntimeError, match=f"{_BRENT_MAXITER} iterations"):
        _brent(f, [0.0, -1e300], [1.0, 1e300], [-0.3, -1.0], [0.7, 1.0])
    assert len(calls) == _BRENT_MAXITER
    assert calls[0] == [0, 1] and calls[-1] == [1]


def test_no_lane_to_iterate_makes_no_call():
    def never(x, lanes):
        raise AssertionError(f"f called at {x}")

    got = _brent(never, [0.25, 0.25, 0.25], [1.0, 1.0, 1.0], [0.0, -3.0, 2.0], [3.0, 0.0, 3.0])
    assert got[:2].tolist() == [0.25, 1.0] and np.isnan(got[2])
    assert _brent(never, [], [], [], []).shape == (0,)
