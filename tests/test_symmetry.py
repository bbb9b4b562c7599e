"""Symmetries of the construction: the singular set and its classes must not notice them."""

import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from affsphere.paracomplex import ParaPoly
from affsphere.singularities import classification_report
from affsphere.surfaces import Domain, ParaCurve, sample_grid

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
BOX = Domain(-1.2, 1.2, -1.2, 1.2)
PAIRS = {"z2z3": ([0, 0, 1], [0, 0, 0, 1]), "z3z4": ([0, 0, 0, 1], [0, 0, 0, 0, 1])}


def _curve(f, g):
    return ParaCurve(ParaPoly(f), ParaPoly(g))


def _classes(report):
    return [(p["u"], p["v"], p["class"]) for p in report["points"]]


@pytest.mark.parametrize("name", PAIRS)
def test_adding_constants_leaves_points_and_tags(name):
    # x moves by a translation and phi by an affine function; the density
    # and everything traced from it are unchanged
    f, g = PAIRS[name]
    base = classification_report(_curve(f, g), BOX, grid_res=64)
    moved = classification_report(
        _curve([(Fraction(3, 2), -2)] + f[1:], [(-1, Fraction(5, 7))] + g[1:]), BOX, grid_res=64
    )
    assert moved["singular_curves"] == base["singular_curves"]
    assert _classes(moved) == _classes(base)


@pytest.mark.parametrize("name", PAIRS)
def test_scaling_both_curves_scales_fields_and_keeps_tags(name):
    f, g = PAIRS[name]
    base_curve = _curve(f, g)
    scaled_curve = _curve([3 * c for c in f], [3 * c for c in g])
    base = sample_grid(base_curve, BOX, (33, 29))
    scaled = sample_grid(scaled_curve, BOX, (33, 29))
    for field, factor in (("x1", 3), ("x2", 3), ("n1", 3), ("n2", 3), ("phi", 9), ("density", 9)):
        want = factor * getattr(base, field)
        tol = 1e-13 * max(1.0, float(np.max(np.abs(want))))
        assert np.allclose(getattr(scaled, field), want, rtol=0, atol=tol), field
    base_report = classification_report(base_curve, BOX, grid_res=64)
    scaled_report = classification_report(scaled_curve, BOX, grid_res=64)
    assert [c for _, _, c in _classes(scaled_report)] == [c for _, _, c in _classes(base_report)]
    got = np.array([p[:2] for p in _classes(scaled_report)])
    want = np.array([p[:2] for p in _classes(base_report)])
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def _random_curve(*args, **kwargs):
    """The benchmark's random curve generator, perfbench/workloads.py loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    if not hasattr(module, "random_curve"):  # its dataclasses look the module up by name
        spec.loader.exec_module(module)
    return module.random_curve(*args, **kwargs)


@pytest.mark.parametrize("signature", ["indefinite", "lsc"])
@pytest.mark.parametrize("seed", [400, 401, 402])
def test_scaling_both_curves_by_any_factor_keeps_the_tags(signature, seed):
    # (kF, kG) scales x and n by k and the density by k^2; the front test
    # compares |dnu(eta)| with |dnu|, so no tag may depend on k
    curve = _random_curve(np.random.default_rng(seed), 4, signature, exact=True)
    want = Counter(p["class"] for p in classification_report(curve, Domain(), 64)["points"])
    assert want
    for k in (Fraction(1, 1000), 3, 1000):
        scaled = type(curve)(curve.F * k, curve.G * k)
        got = Counter(p["class"] for p in classification_report(scaled, Domain(), 64)["points"])
        assert got == want, k
