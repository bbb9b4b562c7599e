"""The Newton projection keeps its bits, and classification runs no solver.

`_newton_project_rows`, which snaps a CLI probe onto {lam = 0}, iterates on
the undecided rows only; a batch equals its one-row calls, and a
gather-and-scatter loop over the full arrays (written out here as
`_reference_newton`), on every exit path.  Classification takes its front
criteria and its swallowtail roots from closed-form jets: neither the Newton
projection nor Brent's method runs in `_classify_points` or
`_swallowtail_roots`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from affsphere import io
from affsphere import singularities as sg
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import Domain, HoloCurve, ParaCurve, compile_surface

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "classify.json"
QUAD_CUBIC = ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3))
CUBIC_QUARTIC = ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4))
# lam = -(1 - 4|z|^2): zero on the circle |z| = 1/2, a critical point at 0
CIRCLE = HoloCurve(ComplexPoly([0, 1]), ComplexPoly([0, 0, 1]))


def _pool(pool_id):
    entry = next(e for e in json.loads(REFS.read_text())["pool"] if e["id"] == pool_id)
    return io.curve_from_json(entry["curve"])


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if np.asarray(w).dtype == bool:
            np.testing.assert_array_equal(g, w)
        else:
            np.testing.assert_array_equal(_bits(g), _bits(w))


def _reference_newton(density_jet, q, tol, max_travel):
    """(q, ok, jet, density_jet calls): the Newton projection gathering from
    and scattering into the full arrays at every step."""
    start, q = q, q.copy()
    ok, jet, calls = np.zeros(len(q), dtype=bool), np.zeros((3, len(q))), 0
    active = np.arange(len(q))
    for _ in range(60):
        if not active.size:
            return q, ok, jet, calls
        val, gu, gv = density_jet(q[active, 0], q[active, 1])
        calls += 1
        done = np.abs(val) <= tol[active]
        ok[active[done]] = True
        jet[:, active[done]] = val[done], gu[done], gv[done]
        g2 = gu * gu + gv * gv
        moving = ~done & (g2 != 0.0)
        active, val, gu, gv, g2 = (x[moving] for x in (active, val, gu, gv, g2))
        q[active, 0] -= val * gu / g2
        q[active, 1] -= val * gv / g2
        active = active[~(np.hypot(*(q[active] - start[active]).T) > max_travel[active])]
    if active.size:
        jet[:, active] = density_jet(q[active, 0], q[active, 1])
        calls += 1
        ok[active] = np.abs(jet[0, active]) <= 100 * tol[active]
    return q, ok, jet, calls


# (start, tol, max_travel) on CIRCLE, one row per exit path
NEWTON_ROWS = {
    "converged at the first step": ((0.5, 0.0), 1e-13, np.inf),
    "converged later": ((0.3, 0.45), 1e-13, np.inf),
    "zero gradient": ((0.0, 0.0), 1e-13, np.inf),
    "max_travel exceeded": ((0.6, 0.1), 1e-13, 1e-3),
    "60 steps, within 100 tol": ((0.6, 0.1), 1e-18, np.inf),
    "60 steps, beyond 100 tol": ((0.41, 0.29), 0.0, np.inf),
}


def _newton_inputs(names):
    q = np.array([NEWTON_ROWS[n][0] for n in names])
    tol, travel = (np.array([NEWTON_ROWS[n][k] for n in names]) for k in (1, 2))
    return q, tol, travel


def test_newton_rows_take_every_exit_path():
    surf = compile_surface(CIRCLE)
    names = list(NEWTON_ROWS)
    q, ok, jet, calls = _reference_newton(surf.density_jet, *_newton_inputs(names))
    assert calls == 61  # the fallback evaluation ran
    assert dict(zip(names, ok.tolist())) == {
        "converged at the first step": True, "converged later": True, "zero gradient": False,
        "max_travel exceeded": False, "60 steps, within 100 tol": True,
        "60 steps, beyond 100 tol": False,
    }
    # failed rows return the iterate they stopped at
    val, gu, gv = surf.density_jet(np.array([0.6]), np.array([0.1]))
    moved = [0.6 - (val * gu / (gu * gu + gv * gv))[0], 0.1 - (val * gv / (gu * gu + gv * gv))[0]]
    np.testing.assert_array_equal(_bits(q[names.index("max_travel exceeded")]), _bits(moved))
    np.testing.assert_array_equal(_bits(q[names.index("zero gradient")]), _bits([0.0, 0.0]))
    assert not np.array_equal(q[names.index("60 steps, beyond 100 tol")], [0.41, 0.29])


@pytest.mark.parametrize("order", [slice(None), slice(None, None, -1)])
def test_newton_batch_equals_one_row_calls_and_the_full_array_loop(order):
    surf = compile_surface(CIRCLE)
    names = list(NEWTON_ROWS)[order]
    batch = sg._newton_project_rows(surf, *_newton_inputs(names))
    _assert_same_bits(batch, _reference_newton(surf.density_jet, *_newton_inputs(names))[:3])
    for i, name in enumerate(names):
        one = sg._newton_project_rows(surf, *_newton_inputs([name]))
        row = [batch[0][i], batch[1][i:i + 1], batch[2][:, i]]
        _assert_same_bits(row, [one[0][0], one[1], one[2][:, 0]])


def test_newton_on_no_rows():
    q, ok, jet = sg._newton_project_rows(compile_surface(CIRCLE), np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    assert q.shape == (0, 2) and ok.shape == (0,) and jet.shape == (3, 0)


# -- classification without solvers ------------------------------------------------


@pytest.mark.parametrize("name", ["z2z3", "z3z4", "d3-lsc-26"])
def test_classification_reaches_no_solver(name, monkeypatch):
    curve = {"z2z3": QUAD_CUBIC, "z3z4": CUBIC_QUARTIC}.get(name) or _pool(name)
    surf = compile_surface(curve)
    traced = sg.trace_singular_curves(curve, Domain(), 64)
    nodes = np.concatenate([sc.points for sc in traced])

    def never(*args, **kwargs):
        raise AssertionError("a solver ran during classification")

    monkeypatch.setattr(sg, "_newton_project_rows", never)
    monkeypatch.setattr(sg, "_brent", never)
    classes = sg._classify_points(curve, nodes)
    roots = sg._swallowtail_roots(surf, traced)
    assert all(cls.tag is not None for cls in classes)
    assert len(roots) and {cls.tag for cls in sg._classify_points(curve, roots)} >= {sg.TAG_SWALLOWTAIL}
