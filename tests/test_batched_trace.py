"""The trace's root finding runs as lockstep array calls.

Marching squares solves every crossed grid edge in one `_brent` call, and
the swallowtail search every bracket of every traced curve in one batched
Newton, so their kernel calls depend on the iteration counts, not on the
number of edges or brackets; and an empty singular set reaches no solver at
all.
"""

import numpy as np
import pytest

from affsphere import singularities as sg
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import Domain, ParaCurve, Surface, compile_surface

QUAD_CUBIC = ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3))
CUBIC_QUARTIC = ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4))
BOX = Domain(-1.2, 1.2, -1.2, 1.2)


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("res", [64, 256])
def test_edge_roots_take_at_most_one_density_call_per_iteration(res, monkeypatch):
    surf = compile_surface(QUAD_CUBIC)
    u_axis, v_axis = BOX.axes(res, res)
    lam = surf.density_grid(u_axis, v_axis)
    density = _counting(monkeypatch, Surface, "_density")
    segments, crossings = sg._marching_squares(surf, u_axis, v_axis, lam)
    # the saddle centres, then one call per Brent iteration
    assert len(crossings) > 100
    assert len(density) <= sg._BRENT_MAXITER + 1
    assert len(segments) >= len(crossings) // 2


@pytest.mark.parametrize("curve", [QUAD_CUBIC, CUBIC_QUARTIC], ids=["z2z3", "z3z4"])
def test_swallowtail_kernel_calls_do_not_grow_with_brackets(curve, monkeypatch):
    traced = sg.trace_singular_curves(curve, BOX, 64)
    newton = _counting(monkeypatch, sg, "_swallowtail_newton")
    kernel = _counting(monkeypatch, Surface, "_eval")
    counts = []
    for copies in (1, 4):
        kernel.clear()
        found = sg.locate_swallowtails(curve, traced * copies)
        counts.append(len(kernel))
    # the copies' roots coincide, so the found swallowtails do not change
    assert len(found) >= 1
    rows = [len(seeds) for _, seeds, _ in newton]
    assert rows[1] == 4 * rows[0] > 0
    assert counts[1] == counts[0]


def test_empty_singular_set_reaches_no_solver(monkeypatch):
    regular = ParaCurve(ParaPoly([0, 1]), ParaPoly.zero())

    def never(*args, **kwargs):
        raise AssertionError("solver called on an empty singular set")

    monkeypatch.setattr(sg, "_brent", never)
    monkeypatch.setattr(sg, "_swallowtail_newton", never)
    report = sg.classification_report(regular, BOX, grid_res=64)
    assert report["singular_curves"] == [] and report["points"] == []
    assert sg.locate_swallowtails(regular, []) == []


def test_swallowtails_of_all_curves_match_one_curve_at_a_time():
    """The search over all curves at once finds what a search over each curve alone finds."""
    traced = sg.trace_singular_curves(QUAD_CUBIC, BOX, 64)
    alone = [q for sc in traced for q, _ in sg.locate_swallowtails(QUAD_CUBIC, [sc])]
    together = [q for q, _ in sg.locate_swallowtails(QUAD_CUBIC, traced)]
    assert len(together) >= 1
    assert np.array_equal(np.array(together), np.array(alone))
