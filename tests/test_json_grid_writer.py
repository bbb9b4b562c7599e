"""The compact JSON grid writer against `json.dump`, byte for byte, and its memory bound.

`io.write_json_grid` streams one grid row at a time.  Its oracle is the
nested-list dict the grid was once copied into, written by
`json.dump(obj, fh, default=io._coerce_json)` plus a newline.  Both must
give the same bytes on both signatures, on square and oblong grids, on a
domain built from ints, on values at the edges of float formatting (NaN,
+-inf, -0.0, subnormals, magnitudes near 1e+-300), and on stdout as in a file.
"""

import dataclasses
import io as stdio
import json
import tracemalloc

import numpy as np
import pytest

from affsphere import io
from affsphere.cli import main
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import Domain, HoloCurve, ParaCurve, sample_grid

CURVES = {
    "indefinite": ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1])),
    "lsc": HoloCurve(ComplexPoly([0, 0, 1]), ComplexPoly([0, 0, 0, 1])),
}
FIELDS = ("x1", "x2", "phi", "n1", "n2", "density")


def oracle_json(grid):
    obj = {
        "signature": grid.curve.signature,
        "domain": [grid.domain.u0, grid.domain.u1, grid.domain.v0, grid.domain.v1],
        "shape": list(grid.shape),
        "u_axis": grid.u_axis.tolist(),
        "v_axis": grid.v_axis.tolist(),
        "fields": {
            "x1": grid.x1.tolist(),
            "x2": grid.x2.tolist(),
            "phi": grid.phi.tolist(),
            "n1": grid.n1.tolist(),
            "n2": grid.n2.tolist(),
            "lambda": grid.density.tolist(),
        },
    }
    fh = stdio.StringIO()
    json.dump(obj, fh, default=io._coerce_json)
    fh.write("\n")
    return fh.getvalue()


def _written(grid):
    fh = stdio.StringIO()
    io.write_grid(grid, fh, "json")
    return fh.getvalue()


@pytest.mark.parametrize("signature", sorted(CURVES))
@pytest.mark.parametrize("shape", [(2, 2), (4, 5), (33, 29), (257, 257)], ids=str)
def test_json_grid_matches_json_dump(signature, shape):
    grid = sample_grid(CURVES[signature], Domain(-1.2, 1.2, -1.3, 0.9), shape)
    assert _written(grid) == oracle_json(grid)


@pytest.mark.parametrize("signature", sorted(CURVES))
def test_json_grid_on_an_int_domain(signature):
    grid = sample_grid(CURVES[signature], Domain(-1, 2, 0, 1), (4, 5))
    text = _written(grid)
    assert text == oracle_json(grid)
    assert '"domain": [-1, 2, 0, 1]' in text


@pytest.mark.parametrize("signature", sorted(CURVES))
@pytest.mark.parametrize("shape", [(4, 5), (33, 29)], ids=str)
def test_json_grid_on_edge_values(signature, shape):
    grid = sample_grid(CURVES[signature], Domain(), shape)
    rng = np.random.default_rng(7)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
                        1.7976931348623157e308, 0.1, 1 / 3])
    n = shape[0] * shape[1]

    def field():
        vals = np.concatenate([special, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)])
        return rng.permutation(vals[:n]).reshape(shape)

    u_axis, v_axis = field()[:, 0], field()[0]
    u_axis[:3], v_axis[-3:] = [np.nan, -0.0, np.inf], [-np.inf, 5e-324, -1e300]
    grid = dataclasses.replace(grid, u_axis=u_axis, v_axis=v_axis, **{k: field() for k in FIELDS})
    text = _written(grid)
    assert text == oracle_json(grid)
    assert all(token in text for token in ("NaN", "-Infinity", "-0.0", "5e-324", "-1e+300"))


def test_json_grid_on_stdout_matches_out_file(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    io.save_curve(CURVES["lsc"], curve)
    out = tmp_path / "mesh.json"
    base = ["synth", "--curve", str(curve), "--res", "33,29", "--format", "json"]
    assert main(base) == 0
    streamed = capsys.readouterr().out
    assert main(base + ["--out", str(out)]) == 0
    assert streamed == out.read_text()
    assert streamed == oracle_json(sample_grid(CURVES["lsc"], Domain(), (33, 29)))


def test_json_grid_holds_a_few_rows(tmp_path):
    """At 256 x 256 the peak Python allocation of a write stays within eight
    rows of the file's text, as for the OBJ and CSV writers."""
    grid = sample_grid(CURVES["indefinite"], Domain(), (256, 256))
    path = tmp_path / "m.json"
    io.write_grid(grid, path, "json")  # warm-up: first-call allocations are not the writer's
    size = path.stat().st_size
    tracemalloc.start()
    try:
        io.write_grid(grid, path, "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == size
    row_text = size / 256
    assert peak < 8 * row_text, (peak, row_text)


def test_unknown_grid_format_raises():
    grid = sample_grid(CURVES["indefinite"], Domain(), (2, 2))
    with pytest.raises(ValueError, match="unknown grid format 'ply'"):
        io.write_grid(grid, stdio.StringIO(), "ply")
