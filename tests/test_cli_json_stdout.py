"""JSON on stdout: `synth` prints the bytes its --out file holds, and `verify`
checks --res although its graph patch does not use it."""

import pytest

from affsphere.cli import main
from affsphere.io import save_curve
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import ParaCurve


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "curve.json"
    save_curve(ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1])), str(path))
    return str(path)


@pytest.mark.parametrize("fmt_args", [[], ["--format", "json"]], ids=["default", "json"])
def test_synth_json_to_stdout_matches_file(fmt_args, curve_file, tmp_path, capsys):
    out = tmp_path / "mesh.json"
    base = ["synth", "--curve", curve_file, "--res", "3"]
    assert main(base + fmt_args) == 0
    streamed = capsys.readouterr().out
    assert main(base + ["--out", str(out)]) == 0
    assert streamed == out.read_text()
    assert streamed.startswith('{"signature": "indefinite", "domain": ')


@pytest.mark.parametrize("res", ["banana", "16,16,16", "1.5"])
def test_verify_rejects_malformed_res(res, curve_file, capsys):
    assert main(["verify", "--curve", curve_file, "--suites", "duality", "--res", res]) == 3
    captured = capsys.readouterr()
    assert "invalid arguments: resolution must be" in captured.err
    assert captured.out == ""
