"""`affsphere classify` on a valid degree-32 float curve.

One zero of det(gamma', eta) on this curve, near (-0.04564, -0.96940), has
no five-point window along the singular curve.  The swallowtail search
drops such a root, as the report drops a traced node without a window, so
the command writes its report and exits 0.
"""

import json

import numpy as np

from affsphere.cli import main
from affsphere.io import save_curve
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import ParaCurve


def _uniform_curve(rng, degree):
    """(F, G) with coefficients uniform in [-3, 3], leading one nonzero."""

    def poly():
        coeffs = [(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))) for _ in range(degree + 1)]
        assert coeffs[-1] != (0.0, 0.0)
        return ParaPoly(coeffs)

    return ParaCurve(poly(), poly())


def test_root_without_window_is_dropped_and_classify_exits_0(tmp_path):
    curve_path, out = tmp_path / "curve.json", tmp_path / "report.json"
    save_curve(_uniform_curve(np.random.default_rng(32), 32), str(curve_path))
    code = main(["classify", "--curve", str(curve_path), "--res", "64", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["singular_curves"] and report["points"]
