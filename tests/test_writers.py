"""Mesh writers against per-node oracles, byte for byte, and their memory bound.

`io.write_obj` and `io.write_csv` stream one grid row at a time.  The
oracles below are the per-node loops they replaced, one f-string per value
(the OBJ one builds every line of the file before a single write).  Both
must give the same bytes on both signatures, on square and oblong grids,
and on values at the edges of float formatting (-0.0, magnitudes near
1e+-300, subnormals).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from affsphere import io
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import Domain, HoloCurve, ParaCurve, sample_grid

CURVES = {
    "indefinite": ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1])),
    "lsc": HoloCurve(ComplexPoly([0, 0, 1]), ComplexPoly([0, 0, 0, 1])),
}
FIELDS = ("x1", "x2", "phi", "n1", "n2", "density")


def oracle_obj(grid, path):
    nu, nv = grid.shape
    lines = []
    xs, ys, zs = grid.x1, grid.x2, grid.phi
    for i in range(nu):
        for j in range(nv):
            lines.append(f"v {xs[i, j]:.9g} {ys[i, j]:.9g} {zs[i, j]:.9g}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = a + nv
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def oracle_csv(grid, path):
    nu, nv = grid.shape
    with open(path, "w") as fh:
        fh.write("u,v,x1,x2,phi,n1,n2,lambda\n")
        for i in range(nu):
            u = grid.u_axis[i]
            for j in range(nv):
                row = (
                    u, grid.v_axis[j], grid.x1[i, j], grid.x2[i, j],
                    grid.phi[i, j], grid.n1[i, j], grid.n2[i, j],
                    grid.density[i, j],
                )
                fh.write(",".join(f"{val:.17g}" for val in row) + "\n")


WRITERS = {"obj": (io.write_obj, oracle_obj), "csv": (io.write_csv, oracle_csv)}


def _same_bytes(grid, fmt, tmp_path):
    write, oracle = WRITERS[fmt]
    got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
    write(grid, got)
    oracle(grid, want)
    return got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("fmt", sorted(WRITERS))
@pytest.mark.parametrize("signature", sorted(CURVES))
@pytest.mark.parametrize("shape", [(2, 2), (4, 5), (33, 29), (257, 257)], ids=str)
def test_writer_matches_oracle(fmt, signature, shape, tmp_path):
    grid = sample_grid(CURVES[signature], Domain(-1.2, 1.2, -1.3, 0.9), shape)
    assert _same_bytes(grid, fmt, tmp_path)


def _extreme_grid(shape):
    """A (z^2, z^3) grid whose fields and axes are overwritten with edge-case floats."""
    grid = sample_grid(CURVES["indefinite"], Domain(), shape)
    rng = np.random.default_rng(11)
    special = np.array([
        -0.0, 0.0, 1e300, -1e300, 1.7976931348623157e308, 1e-300, -1e-300,
        5e-324, -2.2250738585072014e-308, 0.1, 1 / 3, -2 / 3, 1e16, 123456789.0,
    ])
    n = shape[0] * shape[1]

    def field():
        vals = np.concatenate([special, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)])
        return rng.permutation(vals[:n]).reshape(shape)

    u_axis, v_axis = field()[:, 0], field()[0]
    u_axis[0] = v_axis[-1] = -0.0
    return dataclasses.replace(grid, u_axis=u_axis, v_axis=v_axis, **{k: field() for k in FIELDS})


@pytest.mark.parametrize("fmt", sorted(WRITERS))
@pytest.mark.parametrize("shape", [(4, 5), (33, 29)], ids=str)
def test_writer_matches_oracle_on_extreme_values(fmt, shape, tmp_path):
    grid = _extreme_grid(shape)
    assert (np.signbit(grid.x1) & (grid.x1 == 0)).any()  # -0.0 is in every field
    assert _same_bytes(grid, fmt, tmp_path)


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_writer_holds_a_few_rows(fmt, tmp_path):
    """At 256 x 256 the peak Python allocation of a write stays within eight
    rows of the file's text, against the whole file for a writer that builds
    every line first."""
    grid = sample_grid(CURVES["indefinite"], Domain(), (256, 256))
    write, _ = WRITERS[fmt]
    path = tmp_path / f"m.{fmt}"
    write(grid, path)  # warm-up: first-call allocations are not the writer's
    size = path.stat().st_size
    tracemalloc.start()
    try:
        write(grid, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == size
    row_text = size / 256
    assert peak < 8 * row_text, (peak, row_text)
