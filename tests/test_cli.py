"""End-to-end CLI contract: exit codes, file outputs, goldens."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

from affsphere import surfaces
from affsphere.cli import main
from affsphere.io import save_curve
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import HoloCurve, ParaCurve


@pytest.fixture
def curve_files(tmp_path):
    paths = {}
    curves = {
        "linear": ParaCurve(ParaPoly([0, 1]), ParaPoly.zero()),
        "quad_cubic": ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1])),
        "cubic_quartic": ParaCurve(ParaPoly([0, 0, 0, 1]), ParaPoly([0, 0, 0, 0, 1])),
        "lsc": HoloCurve(ComplexPoly.zero(), ComplexPoly([0, 1])),
    }
    for name, curve in curves.items():
        path = tmp_path / f"{name}.json"
        save_curve(curve, str(path))
        paths[name] = str(path)
    return paths


def test_synth_csv_golden_row(curve_files, tmp_path):
    out = tmp_path / "mesh.csv"
    code = main(
        ["synth", "--curve", curve_files["linear"], "--res", "3", "--out", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    center = [r for r in rows if float(r["u"]) == 0.0 and float(r["v"]) == 0.0]
    assert len(center) == 1
    row = center[0]
    for col in ("x1", "x2", "phi", "n1", "n2"):
        assert float(row[col]) == 0.0
    assert float(row["lambda"]) == 1.0


def test_synth_obj_vertex_count(curve_files, tmp_path):
    out = tmp_path / "mesh.obj"
    code = main(
        [
            "synth",
            "--curve",
            curve_files["quad_cubic"],
            "--domain",
            "-1.2,1.2,-1.2,1.2",
            "--res",
            "128",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    verts = [line for line in out.read_text().splitlines() if line.startswith("v ")]
    assert len(verts) == 128 * 128


def test_synth_json_to_stdout(curve_files, capsys):
    code = main(["synth", "--curve", curve_files["linear"], "--res", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["signature"] == "indefinite"
    assert payload["shape"] == [2, 2]
    assert len(payload["fields"]["x1"]) == 2


def test_synth_malformed_curve_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["synth", "--curve", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_synth_res_out_of_range_exits_3(curve_files, capsys):
    assert main(["synth", "--curve", curve_files["linear"], "--res", "1"]) == 3
    assert main(["synth", "--curve", curve_files["linear"], "--res", "5000"]) == 3
    assert "invalid arguments" in capsys.readouterr().err


def test_synth_bad_domain_exits_3(curve_files):
    assert main(["synth", "--curve", curve_files["linear"], "--domain", "1,-1,0,2"]) == 3
    assert main(["synth", "--curve", curve_files["linear"], "--domain", "a,b,c,d"]) == 3


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["synth", "classify", "verify"])
def test_non_finite_coefficient_exits_2_without_output(tmp_path, capsys, bad, command):
    curve = tmp_path / "curve.json"
    curve.write_text(
        '{"signature": "indefinite", "F": [[0, 0], [%s, 0]], "G": [[0, 0], [1, 0]]}' % bad
    )
    out = tmp_path / "out.json"
    assert main([command, "--curve", str(curve), "--res", "16", "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_wave_coefficient_exits_2_without_output(tmp_path, capsys, bad):
    waves = tmp_path / "waves.json"
    waves.write_text(json.dumps({"U1": ["1", bad], "V1": ["0"], "U2": ["0"], "V2": ["1"]}))
    out = tmp_path / "curve.json"
    argv = ["convert", "--mode", "blaschke-inverse", "--in", str(waves), "--out", str(out)]
    assert main(argv) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "classify", "verify"])
def test_exact_coefficient_beyond_float_range_exits_2_without_output(tmp_path, capsys, command):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(
        {"signature": "indefinite", "F": [["0", "0"], ["1" + "0" * 400, "0"]],
         "G": [["0", "0"], ["1", "0"]]}
    ))
    out = tmp_path / "out.json"
    assert main([command, "--curve", str(curve), "--res", "16", "--out", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


_BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("mode, payload", [
    ("cls", {"signature": "indefinite", "poly": [["1", "0"], [_BEYOND_FLOAT, "0"], ["1", "0"]]}),
    ("cortes", {"signature": "lsc", "poly": [["1", "0"], [_BEYOND_FLOAT, "0"], ["1", "0"]]}),
    ("blaschke-inverse", {"U1": ["1", _BEYOND_FLOAT], "V1": ["0"], "U2": ["0"], "V2": ["1"]}),
])
def test_convert_coefficient_beyond_float_range_exits_2_without_output(
    tmp_path, capsys, mode, payload
):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    assert main(["convert", "--mode", mode, "--in", str(src), "--out", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "classify", "verify"])
def test_curve_beyond_float_limit_exits_2_without_output(tmp_path, capsys, command):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(
        {"signature": "indefinite", "F": [[1e300, 0], [1e300, 0], [1e300, 0]],
         "G": [[0, 0], [0, 1]]}
    ))
    out = tmp_path / "out.csv"
    assert main([command, "--curve", str(curve), "--res", "16", "--out", str(out)]) == 2
    assert "too large for float evaluation" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "classify", "verify"])
def test_float_limit_depends_on_the_domain(curve_files, tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    argv = [command, "--curve", curve_files["quad_cubic"], "--res", "16", "--out", str(out)]
    assert main(argv + ["--domain", "-1e60,1e60,-1e60,1e60"]) == 2
    assert "too large for float evaluation" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--domain", "-1e3,1e3,-1e3,1e3"]) == 0
    assert out.exists()


def test_degree_cap_message_names_the_cap(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(
        {"signature": "indefinite", "F": [["0", "0"]] * 34, "G": [["1", "0"]]}
    ))
    assert main(["synth", "--curve", str(curve), "--res", "2"]) == 2
    assert "capped at 32" in capsys.readouterr().err


@pytest.mark.parametrize("probe", ["nan,0", "0,inf", "-inf,-inf"])
def test_classify_non_finite_probe_exits_3_without_output(curve_files, tmp_path, capsys, probe):
    out = tmp_path / "report.json"
    argv = ["classify", "--curve", curve_files["quad_cubic"], "--res", "16",
            "--probe", probe, "--out", str(out)]
    assert main(argv) == 3
    assert "invalid arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "classify", "verify"])
def test_non_finite_domain_exits_3_without_output(curve_files, tmp_path, capsys, command):
    out = tmp_path / "out.json"
    argv = [command, "--curve", curve_files["quad_cubic"], "--domain", "-inf,inf,-1,1",
            "--res", "16", "--out", str(out)]
    assert main(argv) == 3
    assert "invalid arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "error", [surfaces.ClosednessViolation("one-form not closed"), ValueError("no surface")]
)
@pytest.mark.parametrize("command", ["synth", "classify", "verify"])
def test_compile_error_exits_2_without_output(
    curve_files, tmp_path, capsys, monkeypatch, command, error
):
    def fail(curve):
        raise error

    surfaces._compiled.cache_clear()
    monkeypatch.setattr(surfaces.Surface, "_build", staticmethod(fail))
    out = tmp_path / "out.json"
    argv = [command, "--curve", curve_files["quad_cubic"], "--res", "16", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and str(error) in err
    assert not out.exists()


def test_classify_probe_snaps_to_swallowtail(curve_files, capsys):
    code = main(
        [
            "classify",
            "--curve",
            curve_files["quad_cubic"],
            "--domain",
            "-1.2,1.2,-1.2,1.2",
            "--res",
            "64",
            "--probe",
            "-0.6666667,0",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    swallow = [p for p in report["points"] if p["class"] == "Swallowtail"]
    assert any(abs(p["u"] + 2 / 3) < 1e-4 and abs(p["v"]) < 1e-6 for p in swallow)


def test_classify_probe_fnf_point(curve_files, capsys):
    code = main(
        [
            "classify",
            "--curve",
            curve_files["cubic_quartic"],
            "--domain",
            "-1.2,1.2,-1.2,1.2",
            "--res",
            "64",
            "--probe",
            "1,1",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    probe_hits = [
        p
        for p in report["points"]
        if p["class"] == "FrontalNotFront" and abs(p["u"] - 1) < 1e-9 and abs(p["v"] - 1) < 1e-9
    ]
    assert len(probe_hits) == 1
    assert probe_hits[0]["degenerate"] is True


def test_classify_regular_curve_empty(curve_files, capsys):
    code = main(["classify", "--curve", curve_files["linear"], "--res", "32"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["singular_curves"] == []
    assert report["points"] == []


def test_verify_all_suites_pass(curve_files, tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(
        [
            "verify",
            "--curve",
            curve_files["cubic_quartic"],
            "--domain",
            "-1.2,1.2,-1.2,1.2",
            "--out",
            str(out),
        ]
    )
    err = capsys.readouterr().err
    assert code == 0, err
    reports = json.loads(out.read_text())
    names = [r["name"] for r in reports]
    assert names == ["duality", "two_form", "conformal", "monge_ampere", "lift", "ccr", "ccr_control"]
    assert all(r["pass"] for r in reports)
    assert all(set(r) == {"name", "max_abs", "mean_abs", "points_checked", "pass", "tolerance"} for r in reports)


def test_verify_lsc_curve_passes(curve_files):
    assert main(["verify", "--curve", curve_files["lsc"], "--suites", "duality,two_form,conformal,monge_ampere,lift"]) == 0


def test_verify_corrupt_negate_n2_fails(curve_files, capsys):
    code = main(
        ["verify", "--curve", curve_files["quad_cubic"], "--corrupt", "negate-n2"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.err
    reports = json.loads(captured.out)
    failing = {r["name"] for r in reports if not r["pass"]}
    assert "two_form" in failing
    assert "duality" in failing


def test_verify_corrupt_flip_q_fails_only_lift(curve_files, capsys):
    code = main(
        ["verify", "--curve", curve_files["linear"], "--corrupt", "flip-q"]
    )
    captured = capsys.readouterr()
    assert code == 1
    reports = json.loads(captured.out)
    by_name = {r["name"]: r["pass"] for r in reports}
    assert by_name["lift"] is False
    assert by_name["duality"] is True
    assert by_name["monge_ampere"] is True


def test_verify_unknown_suite_exits_3(curve_files, capsys):
    assert main(["verify", "--curve", curve_files["linear"], "--suites", "duality,bogus"]) == 3
    assert "bogus" in capsys.readouterr().err


def test_verify_single_suite_subset(curve_files, capsys):
    code = main(["verify", "--curve", curve_files["linear"], "--suites", "conformal"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in reports] == ["conformal"]


def test_convert_cls_zero_generator(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"signature": "indefinite", "poly": []}))
    out = tmp_path / "curve.json"
    assert main(["convert", "--mode", "cls", "--in", str(gen), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["signature"] == "indefinite"
    assert obj["F"] == obj["G"]
    assert obj["F"][1] == ["1/2", "0"] or obj["F"][1] == ["1/2", 0]


def test_convert_cortes_quadratic(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(
        json.dumps({"signature": "lsc", "poly": [["0", "0"], ["0", "0"], ["1/2", "0"]]})
    )
    out = tmp_path / "curve.json"
    assert main(["convert", "--mode", "cortes", "--in", str(gen), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["signature"] == "lsc"
    assert obj["F"][1] == ["1/2", "-1/2"]
    assert obj["G"][1] == ["1/2", "1/2"]


def test_convert_mode_signature_mismatch_exits_2(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"signature": "lsc", "poly": [["1", "0"]]}))
    out = tmp_path / "curve.json"
    assert main(["convert", "--mode", "cls", "--in", str(gen), "--out", str(out)]) == 2


def test_convert_blaschke_round_trip_bytes(tmp_path):
    src = tmp_path / "curve.json"
    src.write_text(
        json.dumps(
            {
                "signature": "indefinite",
                "F": [["0", "0"], ["1/2", "-2/3"], ["3", "1/7"]],
                "G": [["1", "0"], ["0", "5/2"]],
            },
            indent=2,
        )
        + "\n"
    )
    waves = tmp_path / "waves.json"
    back = tmp_path / "back.json"
    assert main(["convert", "--mode", "blaschke", "--in", str(src), "--out", str(waves)]) == 0
    assert main(["convert", "--mode", "blaschke-inverse", "--in", str(waves), "--out", str(back)]) == 0
    assert json.loads(back.read_text()) == json.loads(src.read_text())
    wave_obj = json.loads(waves.read_text())
    assert set(wave_obj) == {"U1", "V1", "U2", "V2"}


def test_convert_unknown_mode_exits_3(tmp_path):
    assert main(["convert", "--mode", "nope", "--in", "x", "--out", "y"]) == 3


REPO_ROOT = Path(__file__).resolve().parent.parent


def _console_script(name, tmp_path):
    """Return (executable, env) for the console script ``name``.

    An installed script on PATH is used as it is. Otherwise the entry
    declared in ``[project.scripts]`` of the checkout's pyproject.toml is
    written out as the wrapper pip generates for it, and run against the
    checkout's ``src``.
    """
    exe = shutil.which(name)
    if exe:
        return exe, None
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, attr = entry.split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")] if p
    )
    return shutil.which(name, path=env["PATH"]), env


def test_console_script_installed(curve_files, tmp_path):
    exe, env = _console_script("affsphere", tmp_path)
    assert exe, "console script affsphere not on PATH"
    out = tmp_path / "mesh.csv"
    proc = subprocess.run(
        [exe, "synth", "--curve", curve_files["linear"], "--res", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_classify_and_verify_import_no_scipy(tmp_path):
    curve = tmp_path / "curve.json"
    save_curve(ParaCurve(ParaPoly.monomial(2), ParaPoly.monomial(3)), str(curve))
    commands = [
        ["classify", "--curve", str(curve), "--res", "64", "--out", str(tmp_path / "c.json")],
        ["verify", "--curve", str(curve), "--out", str(tmp_path / "v.json")],
    ]
    code = (
        "import sys, affsphere, affsphere.cli\n"
        f"print([affsphere.cli.main(argv) for argv in {commands!r}])\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.split("\n")[:2] == ["[0, 0]", "[]"]


@pytest.mark.parametrize("res", ["16,4096", "32,16", "64,65"])
def test_classify_non_square_resolution_exits_3(curve_files, tmp_path, res):
    out = tmp_path / "report.json"
    argv = ["classify", "--curve", curve_files["quad_cubic"], "--res", res, "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists()
