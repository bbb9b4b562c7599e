"""Null lines that are multiple roots of the line polynomials.

F = (z - c)^m, G = (z - c)^(m+1) is (z^m, z^(m+1)) translated by c, so on the
translated domain it must have the same singular set: the null lines
u + v = c and u - v = c, and the same tags.  In null coordinates its density
carries the factor (a - c)^(m-1) (b - c)^(m-1), so the line constants are
(m-1)-fold roots, which the companion matrix splits into clusters.  For
exact coefficients gcd(P, P') decides that a root repeats, not the spread
of its cluster.  On those lines the cuspidal-cross-cap obstruction Psi'(0)
vanishes, as on the untranslated pair.  Near the branch crossing (c, 0) of
the two lines, `ccr_psi` gives the Psi of the classifier's row, and raises
where that row has none.
"""

from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from affsphere import residuals
from affsphere import singularities as sg
from affsphere.paracomplex import ParaPoly, Poly1
from affsphere.singularities import classification_report, trace_singular_curves
from affsphere.surfaces import Domain, ParaCurve

# (FrontalNotFront, CuspidalEdge, Swallowtail) of (z^m, z^(m+1)) on [-1, 1]^2 at res 64
TAGS = {3: (128, 116, 1), 4: (128, 104, 1), 5: (128, 92, 1)}


def _shifted_power(m, c):
    return ParaPoly([comb(m, k) * (-c) ** (m - k) for k in range(m + 1)])


@pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(3, 10), Fraction(-2, 5)], ids=str)
@pytest.mark.parametrize("m", [3, 4, 5])
def test_translated_power_pair_keeps_its_null_lines_and_tags(m, c):
    curve = ParaCurve(_shifted_power(m, c), _shifted_power(m + 1, c))
    domain = Domain(-1 + float(c), 1 + float(c), -1, 1)
    lines = [sc.line for sc in trace_singular_curves(curve, domain, 64) if sc.kind == "null-line"]
    assert sorted(kind for kind, _ in lines) == ["difference", "sum"]
    assert all(abs(value - c) <= 1e-12 for _, value in lines)
    tags = Counter(p["class"] for p in classification_report(curve, domain, 64)["points"])
    assert (tags["FrontalNotFront"], tags["CuspidalEdge"], tags["Swallowtail"]) == TAGS[m]
    assert sum(tags.values()) == sum(TAGS[m])


def test_real_roots_of_an_exact_multiple_root_once():
    # (t - 1/3)^2 (t + 2): the double root splits off the real axis in np.roots
    p = Poly1([Fraction(2, 9), Fraction(-11, 9), Fraction(4, 3), 1])
    roots = p.real_roots()
    assert len(roots) == 2
    assert abs(roots[0] + 2) <= 1e-12 and abs(roots[1] - 1 / 3) <= 1e-12


@pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(1, 7), Fraction(-2, 5)], ids=str)
@pytest.mark.parametrize("m", range(3, 13))
def test_high_multiplicity_null_lines_are_found_once_and_exactly(m, c):
    # the (m-1)-fold line constants spread over about eps^(1/(m-1)) in
    # np.roots, which no float cluster gate decides; gcd(P, P') does
    curve = ParaCurve(_shifted_power(m, c), _shifted_power(m + 1, c))
    domain = Domain(-1 + float(c), 1 + float(c), -1, 1)
    lines = [sc.line for sc in trace_singular_curves(curve, domain, 64) if sc.kind == "null-line"]
    assert sorted(kind for kind, _ in lines) == ["difference", "sum"]
    assert all(abs(value - c) <= 1e-12 for _, value in lines)


@pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(1, 7), Fraction(-2, 5)], ids=str)
@pytest.mark.parametrize("m", range(3, 13))
def test_translated_pairs_have_no_cuspidal_cross_caps(m, c):
    # the ccr suite reads |Psi'(0)| / scale at its samples of the null lines
    curve = ParaCurve(_shifted_power(m, c), _shifted_power(m + 1, c))
    ccr, _ = residuals.ccr_residual(curve, Domain(-1 + float(c), 1 + float(c), -1, 1))
    assert ccr.points_checked > 0
    assert ccr.max_abs <= 1e-12


def test_real_roots_of_a_square_free_exact_polynomial_with_close_roots():
    # (t - a)(t - b)(t + 1) with a = 1/1000, b = 2/1000: simple roots, each once
    a, b = Fraction(1, 1000), Fraction(2, 1000)
    p = Poly1([a * b, a * b - (a + b), 1 - (a + b), 1])
    assert [round(r, 12) for r in p.real_roots()] == [-1.0, 0.001, 0.002]


# offsets t of the probes (c + t, +-t) from the branch crossing; the last two
# are BranchPoint rows where a second frontal-not-front stage, which skipped
# the branch test, gave a Psi: (z^4, z^5) at t = 3.665e-4 and m = 3, c = 1/3
# at t = 1.343e-5
CROSSING_OFFSETS = [*np.geomspace(1e-6, 0.1, 11).tolist(), 0.0003665241237079626, 1.3433993325989015e-05]


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 3), Fraction(1, 7), Fraction(-2, 5)], ids=str)
def test_ccr_psi_is_the_classifier_row_near_the_branch_crossing(c):
    for m in range(2, 13):
        curve = ParaCurve(_shifted_power(m, c), _shifted_power(m + 1, c))
        for t in CROSSING_OFFSETS:
            for p in ((float(c) + t, t), (float(c) + t, -t)):
                row = sg._classify_points(curve, [p])[0]
                if row.evidence.psi0 is None:
                    error = sg.NotSingular if row.tag == sg.TAG_REGULAR else sg.TraceRequired
                    with pytest.raises(error):
                        sg.ccr_psi(curve, p)
                else:
                    assert sg.ccr_psi(curve, p) == (row.evidence.psi0, row.evidence.dpsi0)
