"""The classification solvers repeat no work, and their results keep their bits.

`_newton_project_rows` iterates on the undecided rows only; a batch equals
its one-row calls, and the parent's gather-and-scatter loop (written out
here as `_reference_newton`), on every exit path.  `_march_windows` marches
both halves of every window in one set of rows, three Newton calls in all,
with the points, tangents and mask of the one-direction march written out
here as `_reference_march`.  The swallowtail search reuses the jets of its
projections and the projections of its `_brent` evaluations.
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


# -- window march ------------------------------------------------------------------


def _reference_march(surf, p, tols, h):
    """(points, dirs, ok) of the windows marched forward, then backward, one
    Newton call per step and direction."""
    tol, travel = sg._newton_tol(tols.sing), 10 * h
    points, dirs = np.zeros((len(p), 5, 2)), np.zeros((len(p), 5, 2))
    q0, ok, jet = sg._newton_project_rows(surf, p, tol, travel)
    rows = np.flatnonzero(ok)
    t0, norm = sg._level_tangent(jet[:, rows])
    smooth = ~(norm <= tols.deg[rows])
    rows, t0 = rows[smooth], t0[smooth]
    points[rows, 2], dirs[rows, 2] = q0[rows], t0
    alive = []
    for sign, slots in ((1.0, (3, 4)), (-1.0, (1, 0))):
        live, q, t = rows, q0[rows], sign * t0
        for k in slots:
            q, ok, jet = sg._newton_project_rows(surf, q + h[live, None] * t, tol[live], travel[live])
            live, q, t = live[ok], q[ok], t[ok]
            t_next, norm = sg._level_tangent(jet[:, ok])
            smooth = ~(norm <= tols.deg[live])
            live, q, t = live[smooth], q[smooth], sg._aligned(t_next[smooth], t[smooth])
            points[live, k], dirs[live, k] = q, sign * t
        alive.append(live)
    ok = np.zeros(len(p), dtype=bool)
    ok[np.intersect1d(*alive)] = True
    return points, dirs, ok, alive


# on (z^2, z^3), the null line u = -v marched from (x, -x) runs forward into
# the degenerate origin, and the null line u = v from (x, x) backward into it
_X = 0.01 / np.sqrt(2)
HALF_FAILS = np.array([[_X, -_X], [_X, _X]])


@pytest.mark.parametrize("name", ["z2z3", "z3z4", "d3-lsc-26"])
def test_march_windows_two_way(name, monkeypatch):
    curve = {"z2z3": QUAD_CUBIC, "z3z4": CUBIC_QUARTIC}.get(name) or _pool(name)
    surf = compile_surface(curve)
    nodes = np.concatenate([sc.points for sc in sg.trace_singular_curves(curve, Domain(), 64)])
    p = np.concatenate([nodes, HALF_FAILS]) if name == "z2z3" else nodes
    tols = sg._point_tols(curve, p)
    h = 0.01 * np.maximum(1.0, np.max(np.abs(p), axis=1))
    *want, (forward, backward) = _reference_march(surf, p, tols, h)
    if name == "z2z3":
        half = len(nodes) + np.arange(2)
        assert np.isin(half, backward).tolist() == [True, False]
        assert np.isin(half, forward).tolist() == [False, True]
    assert want[2].any()

    calls = []
    original = sg._newton_project_rows

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sg, "_newton_project_rows", counted)
    got = sg._march_windows(surf, p, tols, h)
    assert len(calls) == 3
    _assert_same_bits(got, want)


# -- swallowtail search ------------------------------------------------------------


def test_project_or_keep_returns_the_jet_at_its_rows():
    surf = compile_surface(CIRCLE)
    q = np.array([[0.6, 0.1], [0.0, 0.0], [0.3, 0.45]])  # the origin has no projection
    rows, jet = sg._project_or_keep(surf, CIRCLE, q)
    np.testing.assert_array_equal(_bits(rows[1]), _bits(q[1]))
    np.testing.assert_allclose(np.hypot(*rows[[0, 2]].T), 0.5, rtol=1e-12)  # on |z| = 1/2
    _assert_same_bits(jet, surf.density_jet(rows[:, 0], rows[:, 1]))


@pytest.mark.parametrize("name", ["z2z3", "z3z4", "d3-lsc-26"])
def test_swallowtail_search_makes_no_repeat_calls(name, monkeypatch):
    curve = {"z2z3": QUAD_CUBIC, "z3z4": CUBIC_QUARTIC}.get(name) or _pool(name)
    surf = compile_surface(curve)
    traced = sg.trace_singular_curves(curve, Domain(), 64)
    want = sg._swallowtail_roots(surf, curve, traced)
    assert len(want)

    events = []  # "jet", "newton", "brent returned"
    newtons = []  # (density_jet calls inside one Newton call, its reference count, ok)
    plain_jet = type(surf).density_jet
    newton, brent, project = sg._newton_project_rows, sg._brent, sg._project_or_keep

    def density_jet(u, v):
        return plain_jet(surf, u, v)

    def counted_jet(self, u, v):
        events.append("jet")
        return plain_jet(self, u, v)

    def counted_newton(surf_, q, tol, max_travel):
        events.append("newton")
        before = events.count("jet")
        out = newton(surf_, q, tol, max_travel)
        reference = _reference_newton(density_jet, q, tol, max_travel)[3]
        newtons.append((events.count("jet") - before, reference, out[1]))
        return out

    def counted_brent(*args, **kwargs):
        out = brent(*args, **kwargs)
        events.append("brent returned")
        return out

    callbacks = []  # (density_jet calls outside Newton, rows kept in place) of each projection

    def counted_project(surf_, curve_, q):
        before = events.count("jet")
        out = project(surf_, curve_, q)
        inside, _, ok = newtons[-1]
        callbacks.append((events.count("jet") - before - inside, int(np.sum(~ok))))
        return out

    monkeypatch.setattr(type(surf), "density_jet", counted_jet)
    monkeypatch.setattr(sg, "_newton_project_rows", counted_newton)
    monkeypatch.setattr(sg, "_brent", counted_brent)
    monkeypatch.setattr(sg, "_project_or_keep", counted_project)
    got = sg._swallowtail_roots(surf, curve, traced)

    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert events.count("brent returned") == 1
    assert events[-1] == "brent returned"  # no Newton and no jet after the root search
    assert all(n == ref for n, ref, _ in newtons)  # one jet call per Newton iteration
    assert len(callbacks) == len(newtons) >= 2
    # one more jet call, on the kept rows, only when some row is kept
    assert all(outside == (kept > 0) for outside, kept in callbacks)
