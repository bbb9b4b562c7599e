"""`affsphere verify --suites`: a list that names no suite is an invalid argument.

An empty selection would otherwise run nothing, print `[]` and exit 0, a
pass with nothing checked.  It exits 3 as an unknown suite name does, and
writes no output file.  A name given twice runs once, where it first appears,
so that reports keyed by suite name lose nothing.
"""

import json

import pytest

from affsphere.cli import main
from affsphere.io import save_curve
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import ParaCurve


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "quad_cubic.json"
    save_curve(ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1])), str(path))
    return str(path)


@pytest.mark.parametrize("suites", ["", ",", " , ,", " "])
def test_empty_suite_list_exits_3(curve_file, tmp_path, capsys, suites):
    out = tmp_path / "residuals.json"
    assert main(["verify", "--curve", curve_file, "--suites", suites, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "no suite selected" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_one_named_suite_still_runs(curve_file, capsys):
    assert main(["verify", "--curve", curve_file, "--suites", ",duality,"]) == 0
    assert '"duality"' in capsys.readouterr().out


def test_repeated_suite_names_run_once_in_first_order(curve_file, tmp_path, capsys):
    out = tmp_path / "residuals.json"
    argv = ["verify", "--curve", curve_file, "--suites", "two_form,duality,two_form, duality",
            "--out", str(out)]
    assert main(argv) == 0
    assert [suite["name"] for suite in json.loads(out.read_text())] == ["two_form", "duality"]
    err = capsys.readouterr().err
    assert err.count("suite two_form:") == 1
    assert err.count("suite duality:") == 1
