"""One rule per quantity: the one-point calls are rows of the batch kernel.

`null_vector` returns the `_null_direction` of its `_chart_matrix`, the rule
the classifier applies to arrays of points, and `Surface.sample` reads its
three vectors off the jets that `position_jet`, `conormal_jet` and
`normal_jet` return.  Both must agree with those as raw bits, so signed
zeros and last-bit differences count.
"""

import numpy as np
import pytest

from affsphere import singularities as sg
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import Domain, HoloCurve, ParaCurve, compile_surface

QUAD_CUBIC = ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3))
CUBIC_QUARTIC = ParaCurve(ParaPoly.monomial(3), ParaPoly.monomial(4))
BOX = Domain(-1.5, 1.5, -1.5, 1.5)
SIGNATURES = {"indefinite": (ParaCurve, ParaPoly), "lsc": (HoloCurve, ComplexPoly)}


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def random_curve(signature, degree, seed):
    curve_cls, poly_cls = SIGNATURES[signature]
    rng = np.random.default_rng([degree, seed])

    def poly():
        return poly_cls([tuple(rng.uniform(-1, 1, 2)) for _ in range(degree + 1)])

    return curve_cls(poly(), poly())


@pytest.mark.parametrize("curve", [QUAD_CUBIC, CUBIC_QUARTIC], ids=["z2z3", "z3z4"])
def test_null_vector_is_its_row_of_the_batch_null_direction(curve):
    surf = compile_surface(curve)
    nodes = np.concatenate([sc.points for sc in sg.trace_singular_curves(curve, BOX, 48)])
    batch, _ = sg._null_direction(sg._chart_matrix(surf, nodes[:, 0], nodes[:, 1]))
    checked = 0
    for q, row in zip(nodes, batch):
        try:
            eta = sg.null_vector(curve, q)
        except (sg.BranchPointError, sg.NotSingular):
            continue
        assert bits(eta).tolist() == bits(row).tolist(), q
        checked += 1
    assert checked >= len(nodes) // 2


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("signature", sorted(SIGNATURES))
def test_sample_vectors_are_the_jet_values(signature, seed):
    curve = random_curve(signature, 4, seed)
    surf = compile_surface(curve)
    for u, v in np.random.default_rng(seed).uniform(-1, 1, (100, 2)).tolist():
        s = surf.sample(u, v)
        assert s.domain_point == (u, v)
        assert bits(s.position).tolist() == bits(surf.position_jet(u, v).value).tolist()
        assert bits(s.conormal).tolist() == bits(surf.conormal_jet(u, v).value).tolist()
        assert bits(s.unit_normal).tolist() == bits(surf.normal_jet(u, v).value).tolist()
