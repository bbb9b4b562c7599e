"""`affsphere verify` output against recorded bytes.

The files under tests/data/verify/ hold the JSON that `verify` wrote for two
exact curves, (z^2, z^3) and a degree-3 lsc pair, with no corruption and with
each `--corrupt` mode.  The CLI must reproduce them byte for byte, with the
recorded exit code.  A suite whose input cannot be built reports a failure,
and the next suite that needs that input builds it again.
"""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

from affsphere import residuals
from affsphere.cli import CORRUPTIONS, SUITES, main
from affsphere.io import save_curve
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import ParaCurve

DATA = Path(__file__).parent / "data" / "verify"
CURVES = ("z2z3", "lsc3")
MODES = ("none",) + CORRUPTIONS


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("curve", CURVES)
def test_verify_reproduces_recorded_bytes(curve, mode, tmp_path, capsys):
    out = tmp_path / "verify.json"
    argv = ["verify", "--curve", str(DATA / f"{curve}.curve.json"), "--out", str(out)]
    if mode != "none":
        argv += ["--corrupt", mode]
    code = main(argv)
    capsys.readouterr()
    assert code == (0 if mode == "none" else 1)
    assert out.read_bytes() == (DATA / f"{curve}_{mode}.json").read_bytes()


def test_an_input_that_cannot_be_built_is_retried_by_each_suite(tmp_path, monkeypatch, capsys):
    # F = G: the density vanishes, so neither regular points nor a graph patch exist
    curve = tmp_path / "flat.json"
    save_curve(ParaCurve(ParaPoly([0, 1, 2]), ParaPoly([0, 1, 2])), str(curve))
    calls = Counter()
    for name in ("random_regular_points", "regular_graph_patch"):
        def counted(*args, _fn=getattr(residuals, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(residuals, name, counted)
    out = tmp_path / "verify.json"
    assert main(["verify", "--curve", str(curve), "--out", str(out)]) == 1
    assert calls == {"random_regular_points": 3, "regular_graph_patch": 2}
    reports = json.loads(out.read_text())
    assert [r["name"] for r in reports] == list(SUITES) + ["ccr_control"]
    assert [r["pass"] for r in reports] == [False] * 5 + [True, True]
    assert all(r["max_abs"] == math.inf for r in reports[:5])
    assert capsys.readouterr().err.count("suite ") == 12
