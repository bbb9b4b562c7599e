"""Where the CLI writes: an --out path it cannot open, and mesh formats on stdout."""

import subprocess
import sys
from pathlib import Path

import pytest

from affsphere.cli import main
from affsphere.io import save_curve
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import ParaCurve

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "curve.json"
    save_curve(ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1])), str(path))
    return str(path)


@pytest.fixture
def generator_file(tmp_path):
    path = tmp_path / "generator.json"
    path.write_text('{"signature": "indefinite", "poly": [[0, 0], [0, 0], [1, 0]]}')
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--res", "8"],
        ["synth", "--res", "8", "--format", "obj"],
        ["classify", "--res", "16"],
        ["verify", "--suites", "duality"],
        ["convert", "--mode", "cls"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-1:]),
)
def test_unwritable_out_exits_3_without_traceback(argv, curve_file, generator_file, tmp_path,
                                                  capsys):
    out = tmp_path / "missing" / "r.json"
    source = ["--in", generator_file] if argv[0] == "convert" else ["--curve", curve_file]
    assert main(argv + source + ["--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith(f"invalid arguments: cannot write {out}")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_synth_format_to_stdout_matches_file(fmt, curve_file, tmp_path):
    out = tmp_path / f"mesh.{fmt}"
    base = [sys.executable, "-m", "affsphere.cli", "synth", "--curve", curve_file, "--res", "7,5"]
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""}
    streamed = subprocess.run(base + ["--format", fmt], capture_output=True, env=env, check=True)
    subprocess.run(base + ["--out", str(out)], capture_output=True, env=env, check=True)
    assert streamed.stdout == out.read_bytes()
    assert streamed.stdout.startswith(b"v " if fmt == "obj" else b"u,v,")
