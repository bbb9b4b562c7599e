"""The stacked point kernel: one Horner pass per array call, bit for bit the per-point values.

On arrays, `density_jet`, `chart_derivatives` and `field_jets` run the
Horner lists they need as one table, shorter lists zero-padded at the top
(the first two are projections of `chart_jet` and take its lists);
a scalar point runs a pass per list.  Every entry must equal
the Python-float route at that point, signed zeros included, for curves of
any degree up to the cap, F and G of different lengths, exact or float
coefficients, and arrays of any shape.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsphere import surfaces
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import MAX_CURVE_DEGREE, HoloCurve, ParaCurve, Surface

SIGNATURES = [(ParaCurve, ParaPoly), (HoloCurve, ComplexPoly)]

exact_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=12)
float_coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
coords = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-2.0, max_value=2.0))


@st.composite
def curves(draw):
    curve_cls, poly_cls = draw(st.sampled_from(SIGNATURES))
    coeff = exact_coeff if draw(st.booleans()) else float_coeff

    def poly():
        n = draw(st.integers(min_value=1, max_value=MAX_CURVE_DEGREE + 1))
        return poly_cls(draw(st.lists(st.tuples(coeff, coeff), min_size=n, max_size=n)))

    return curve_cls(poly(), poly())


@st.composite
def point_arrays(draw):
    shape = draw(st.sampled_from([(0,), (draw(st.integers(1, 6)),), (draw(st.integers(1, 3)), 5)]))
    size = int(np.prod(shape))
    u = draw(st.lists(coords, min_size=size, max_size=size))
    v = draw(st.lists(coords, min_size=size, max_size=size))
    return np.array(u, dtype=float).reshape(shape), np.array(v, dtype=float).reshape(shape)


def _kernels(surf):
    """name -> (u, v) -> flat tuple of outputs, for the three stacked kernels."""
    return {
        "density_jet": surf.density_jet,
        "chart_derivatives": surf.chart_derivatives,
        "field_jets": lambda u, v: tuple(x for field in surf.field_jets(u, v) for x in field),
    }


@settings(max_examples=60, deadline=None)
@given(curve=curves(), pts=point_arrays(), scale_phi=st.booleans())
def test_array_kernels_equal_the_float_route_bit_for_bit(curve, pts, scale_phi):
    surf = Surface(curve)
    if scale_phi:
        surf = surf.with_patched_fields(scale_phi=True)
    u, v = pts
    for name, kernel in _kernels(surf).items():
        got = kernel(u, v)
        assert all(np.shape(x) == u.shape for x in got), name
        for idx in np.ndindex(u.shape):
            want = kernel(float(u[idx]), float(v[idx]))
            assert all(type(x) is float for x in want), name
            assert [float(x[idx]).hex() for x in got] == [x.hex() for x in want], (name, idx)


def _count_horner(monkeypatch):
    calls = []
    original = surfaces._horner

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(surfaces, "_horner", counted)
    return calls


# Horner lists of each kernel
LISTS = {"density_jet": 6, "chart_derivatives": 6, "field_jets": 9}


@pytest.mark.parametrize("curve_cls,poly_cls", SIGNATURES, ids=["indefinite", "lsc"])
def test_horner_passes_per_call(curve_cls, poly_cls, monkeypatch):
    """Every array call takes one pass, whatever its size; a scalar point takes
    one pass per list, with the same bits."""
    curve = curve_cls(poly_cls([(1, 2), (Fraction(1, 3), 0), (0, -1)]), poly_cls([(0, 1)] * 6))
    surf = Surface(curve)
    calls = _count_horner(monkeypatch)
    rng = np.random.default_rng(3)
    arrays = [rng.uniform(-1, 1, (2, n)) for n in (1, 40, 20000)] + [rng.uniform(-1, 1, (2, 3, 5))]
    for name, kernel in _kernels(surf).items():
        for u, v in arrays:
            calls.clear()
            got = kernel(u, v)
            assert len(calls) == 1, name
            for idx in (0, -1):
                want = kernel(float(u.flat[idx]), float(v.flat[idx]))
                assert [float(x.flat[idx]).hex() for x in got] == [x.hex() for x in want], name
        for point in ((0.25, -0.5), (np.float64(0.25), np.array(-0.5))):
            calls.clear()
            kernel(*point)
            assert len(calls) == LISTS[name], name


@pytest.mark.parametrize("curve_cls,poly_cls", SIGNATURES, ids=["indefinite", "lsc"])
def test_mixed_scalar_points_return_python_floats(curve_cls, poly_cls):
    curve = curve_cls(poly_cls([(1, 2), (Fraction(1, 3), 0), (0, -1)]), poly_cls([(0, 1)] * 4))
    for name, kernel in _kernels(Surface(curve)).items():
        for point in ((0.5, 0), (0, -0.25), (1, 2)):
            got = kernel(*point)
            assert all(type(x) is float for x in got), name
            assert [x.hex() for x in got] == [x.hex() for x in kernel(*map(float, point))], name


@pytest.mark.parametrize("curve_cls,poly_cls", SIGNATURES, ids=["indefinite", "lsc"])
def test_array_calls_write_only_their_own_outputs(curve_cls, poly_cls):
    """Array calls leave the cached stacked tables and earlier results
    bit-unchanged, and every returned column is memory of its own."""
    curve = curve_cls(poly_cls([(1, 2), (Fraction(1, 3), 0), (0, -1)]), poly_cls([(0.5, 1)] * 6))
    surf = Surface(curve)
    rng = np.random.default_rng(9)
    u, v = rng.uniform(-1, 1, (2, 3, 7))
    calls = {
        **_kernels(surf),
        "_density": lambda u, v: (surf._density(u, v),),
    }
    columns = [x for kernel in calls.values() for x in kernel(u, v)]
    tables = {ks: table.copy() for ks, table in surf._tables.items()}
    before = [x.copy() for x in columns]
    for kernel in calls.values():
        kernel(u, v)
    assert tables and surf._tables.keys() == tables.keys()
    for ks, table in surf._tables.items():
        assert np.array_equal(table.view(np.uint64), tables[ks].view(np.uint64)), ks
    for x, y in zip(columns, before):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    for i, x in enumerate(columns):
        assert not any(np.shares_memory(x, t) for t in surf._tables.values()), i
        assert not any(np.shares_memory(x, y) for y in columns[i + 1:]), i
