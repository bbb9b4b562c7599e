"""Grid evaluation: in-place tensor Horner over the dense tables, bit for bit numpy's polygrid2d.

`sample_grid` evaluates each `grid_tables` field along u and then along v
with the steps of numpy's polyval, in place.  Every field must equal
`np.polynomial.polynomial.polygrid2d` on the same table and axes as raw
bits, so signed zeros count, and the peak memory must stay near the six
output arrays.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import (
    MAX_CURVE_DEGREE,
    Domain,
    HoloCurve,
    ParaCurve,
    compile_surface,
    sample_grid,
)

SIGNATURES = {"indefinite": (ParaCurve, ParaPoly), "lsc": (HoloCurve, ComplexPoly)}
FIELDS = ("x1", "x2", "phi", "n1", "n2", "density")
DOMAINS = {
    "straddles-0": Domain(),
    "negative-u": Domain(-3.0, -0.5, -1.0, 1.25),
}


def random_curve(signature, degree, exact, seed):
    curve_cls, poly_cls = SIGNATURES[signature]
    rng = np.random.default_rng([degree, seed])

    def coeff():
        if exact:
            return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
        return float(rng.uniform(-1, 1))

    def poly():
        return poly_cls([(coeff(), coeff()) for _ in range(degree + 1)])

    return curve_cls(poly(), poly())


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("res", [(33, 29), (2, 2)], ids=["33x29", "2x2"])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("degree", [0, 1, 8, 32])
@pytest.mark.parametrize("signature", sorted(SIGNATURES))
def test_sample_grid_equals_polygrid2d_bit_for_bit(signature, degree, exact, domain, res):
    curve = random_curve(signature, degree, exact, seed=1)
    grid = sample_grid(curve, DOMAINS[domain], res)
    tables = compile_surface(curve).grid_tables
    assert sorted(tables) == sorted(FIELDS)
    if degree == 0:
        # 1x1 tables, where neither stage's Horner loop runs
        assert tables["x1"].shape == tables["density"].shape == (1, 1)
    for name in FIELDS:
        got = getattr(grid, name)
        want = np.polynomial.polynomial.polygrid2d(grid.u_axis, grid.v_axis, tables[name])
        assert got.shape == want.shape == res, name
        assert np.array_equal(bits(got), bits(want)), name


def test_signed_zero_nodes_match_polygrid2d():
    # (z, z) in the complex ring has -0.0 table entries; with the -0.0 of
    # u * 0 at negative u, polyval keeps -0.0 at some nodes, which a start
    # from +0.0 would turn into +0.0
    curve = HoloCurve(ComplexPoly([(0, 0), (1, 0)]), ComplexPoly([(0, 0), (1, 0)]))
    grid = sample_grid(curve, DOMAINS["negative-u"], (5, 4))
    tables = compile_surface(curve).grid_tables
    negative_zeros = 0
    for name in FIELDS:
        got = getattr(grid, name)
        want = np.polynomial.polynomial.polygrid2d(grid.u_axis, grid.v_axis, tables[name])
        assert np.array_equal(bits(got), bits(want)), name
        negative_zeros += int((np.signbit(got) & (got == 0)).sum())
    assert negative_zeros > 0


@pytest.mark.parametrize("signature", sorted(SIGNATURES))
def test_sample_grid_peak_memory_near_the_six_fields(signature):
    # six output fields of N^2 nodes and no temporary of that size: numpy's
    # polygrid2d, two fresh N^2 arrays a Horner step, peaked above 8 arrays
    curve = random_curve(signature, MAX_CURVE_DEGREE, False, seed=3)
    compile_surface(curve)
    n = 512
    tracemalloc.start()
    try:
        sample_grid(curve, Domain(), (n, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 8 * n * n
