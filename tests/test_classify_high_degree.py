"""`affsphere classify` on a valid degree-32 float curve.

The front criteria are closed forms in the jets at each point, so every
traced node of this curve gets a tag, with no window along the singular
curve to fail at high degree, and the command writes its report and exits 0.
"""

import json

import numpy as np

from affsphere import singularities as sg
from affsphere.cli import main
from affsphere.io import save_curve
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import Domain, ParaCurve


def _uniform_curve(rng, degree):
    """(F, G) with coefficients uniform in [-3, 3], leading one nonzero."""

    def poly():
        coeffs = [(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))) for _ in range(degree + 1)]
        assert coeffs[-1] != (0.0, 0.0)
        return ParaPoly(coeffs)

    return ParaCurve(poly(), poly())


def test_degree_32_report_exits_0(tmp_path):
    curve_path, out = tmp_path / "curve.json", tmp_path / "report.json"
    save_curve(_uniform_curve(np.random.default_rng(32), 32), str(curve_path))
    code = main(["classify", "--curve", str(curve_path), "--res", "64", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["singular_curves"] and report["points"]


def test_every_traced_node_gets_a_tag():
    curve = _uniform_curve(np.random.default_rng(32), 32)
    nodes = np.concatenate([sc.points for sc in sg.trace_singular_curves(curve, Domain(), 64)])
    classes = sg._classify_points(curve, nodes)
    assert len(nodes) == len(classes) > 300
    assert all(cls.tag is not None for cls in classes)
    fronts = [cls.evidence for cls in classes if cls.evidence.det_ge is not None]
    assert fronts and all(np.isfinite([e.det_ge, e.ddet_ge]).all() for e in fronts)
