"""`affsphere verify` evaluates each input once and shares it between suites.

The regular points are evaluated with one `Surface.field_jets` call that
duality, two_form and conformal all read; the graph patch with one call and
one chart solve that monge_ampere and lift both read.  Sharing changes no
byte: each suite's report is the one its public function gives alone on the
same points.  A suite whose input cannot be built still reports one failure,
under the suite's own tolerance, and the next suite that needs the input
builds it again.
"""

import io as _stdio
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from affsphere import io, residuals
from affsphere.cli import main
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import Domain, ParaCurve, Surface, compile_surface

DATA = Path(__file__).parent / "data" / "verify"
DOMAIN = Domain()
POINT_SUITES = {
    "duality": residuals.duality_residual,
    "two_form": residuals.two_form_residual,
    "conformal": residuals.metric_conformality,
}
PATCH_SUITES = {"monge_ampere": residuals.monge_ampere_residual, "lift": residuals.lift_residual}


def _curve_file(name):
    return str(DATA / f"{name}.curve.json")


@pytest.fixture
def field_jets_sizes(monkeypatch):
    """Row counts of the Surface.field_jets calls made while the test runs."""
    sizes = []
    original = Surface.field_jets

    def counted(self, u, v):
        sizes.append(np.size(u))
        return original(self, u, v)

    monkeypatch.setattr(Surface, "field_jets", counted)
    return sizes


@pytest.fixture
def calls(monkeypatch):
    """Calls of the input builders and of the chart solve, by name."""
    counts = Counter()
    for name in ("random_regular_points", "regular_graph_patch", "_chart_solve"):
        def counted(*args, _fn=getattr(residuals, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(residuals, name, counted)
    return counts


def _verify(tmp_path, curve, suites=None, corrupt=None):
    out = tmp_path / "verify.json"
    argv = ["verify", "--curve", _curve_file(curve), "--out", str(out)]
    if suites is not None:
        argv += ["--suites", suites]
    if corrupt:
        argv += ["--corrupt", corrupt]
    code = main(argv)
    return code, out.read_text()


@pytest.mark.parametrize("curve", ["z2z3", "lsc3"])
def test_full_run_evaluates_each_input_once(curve, tmp_path, capsys, field_jets_sizes, calls):
    patch_rows = len(residuals.regular_graph_patch(io.load_curve(_curve_file(curve)), DOMAIN, 20))
    assert patch_rows != 100
    field_jets_sizes.clear()
    calls.clear()
    assert _verify(tmp_path, curve)[0] == 0
    capsys.readouterr()
    sizes = Counter(field_jets_sizes)
    assert (sizes[100], sizes[patch_rows]) == (1, 1)
    assert calls == {"random_regular_points": 1, "regular_graph_patch": 1, "_chart_solve": 1}


def test_point_suites_share_one_call(tmp_path, capsys, field_jets_sizes, calls):
    assert _verify(tmp_path, "z2z3", "two_form,duality")[0] == 0
    capsys.readouterr()
    assert field_jets_sizes == [100]
    assert calls == {"random_regular_points": 1}


def test_ccr_alone_builds_neither_input(tmp_path, capsys, field_jets_sizes, calls):
    assert _verify(tmp_path, "z2z3", "ccr")[0] == 0
    capsys.readouterr()
    assert 100 not in field_jets_sizes
    assert calls == {}


def _alone(curve, names, corrupt):
    """The JSON text of the named suites' public functions, each called alone."""
    surf = compile_surface(curve)
    if corrupt in ("negate-n1", "negate-n2", "scale-phi"):
        surf = surf.with_patched_fields(**{corrupt.replace("-", "_"): True})
    reports = []
    for name in names:
        if name in POINT_SUITES:
            points = residuals.random_regular_points(curve, 100, np.random.default_rng(12345))
            reports.append(POINT_SUITES[name](surf, points))
        elif name in PATCH_SUITES:
            patch = residuals.regular_graph_patch(curve, DOMAIN, res=20)
            kwargs = {"flip_q": corrupt == "flip-q"} if name == "lift" else {}
            reports.append(PATCH_SUITES[name](surf, patch, **kwargs))
        else:
            reports.extend(residuals.ccr_residual(curve, DOMAIN))
    buf = _stdio.StringIO()
    io.write_json_report([rep.as_dict() for rep in reports], buf)
    return buf.getvalue()


@pytest.mark.parametrize("corrupt", [None, "negate-n2", "flip-q"])
@pytest.mark.parametrize("suites", [
    "lift,duality",
    "conformal,monge_ampere,two_form",
    "ccr,lift,conformal,monge_ampere,duality,two_form",
    "monge_ampere",
])
@pytest.mark.parametrize("curve", ["z2z3", "lsc3"])
def test_any_suite_order_gives_each_suite_alone(curve, suites, corrupt, tmp_path, capsys):
    _, text = _verify(tmp_path, curve, suites, corrupt)
    capsys.readouterr()
    assert text == _alone(io.load_curve(_curve_file(curve)), suites.split(","), corrupt)


def test_degenerate_chart_fails_each_patch_suite_once(tmp_path, monkeypatch, capsys, calls):
    # (z^2, z^3): the chart Jacobian vanishes where u^2 = v^2
    def patch(*args, **kwargs):
        return np.array([[0.5, 0.1], [0.25, 0.25], [0.9, -0.3]])

    monkeypatch.setattr(residuals, "regular_graph_patch", patch)
    code, text = _verify(tmp_path, "z2z3", "duality,monge_ampere,lift")
    assert code == 1
    reports = json.loads(text)
    assert [(r["name"], r["pass"]) for r in reports] == [
        ("duality", True), ("monge_ampere", False), ("lift", False)]
    assert all(r["max_abs"] == math.inf for r in reports[1:])
    assert [r["tolerance"] for r in reports[1:]] == [1e-5, 1e-5]
    assert calls["_chart_solve"] == 2
    err = capsys.readouterr().err
    for name in ("monge_ampere", "lift"):
        assert err.count(f"suite {name}: chart Jacobian degenerate at (0.25, 0.25)\n") == 1


def test_failed_suite_reports_its_own_tolerance(tmp_path, capsys):
    # F = G: the density vanishes, so neither regular points nor a graph patch exist
    curve = tmp_path / "flat.json"
    io.save_curve(ParaCurve(ParaPoly([0, 1, 2]), ParaPoly([0, 1, 2])), str(curve))
    out = tmp_path / "verify.json"
    assert main(["verify", "--curve", str(curve), "--out", str(out)]) == 1
    capsys.readouterr()
    tolerances = {r["name"]: r["tolerance"] for r in json.loads(out.read_text()) if not r["pass"]}
    assert tolerances == {
        "duality": 1e-8, "two_form": 1e-8, "conformal": 1e-8, "monge_ampere": 1e-5, "lift": 1e-5,
    }


def test_failed_suite_tolerance_on_a_tiny_domain(tmp_path, capsys):
    out = tmp_path / "verify.json"
    argv = ["verify", "--curve", _curve_file("z2z3"), "--suites", "duality",
            "--domain", "0,1e-9,0,1e-9", "--out", str(out)]
    assert main(argv) == 1
    assert "could not find enough regular points" in capsys.readouterr().err
    (report,) = json.loads(out.read_text())
    assert (report["pass"], report["tolerance"]) == (False, 1e-8)


def test_an_evaluated_point_set_gives_every_suite_its_report(field_jets_sizes):
    curve = io.load_curve(_curve_file("lsc3"))
    patch = residuals.regular_graph_patch(curve, DOMAIN, res=12)
    want = [fn(curve, patch) for fn in {**POINT_SUITES, **PATCH_SUITES}.values()]
    field_jets_sizes.clear()
    # evaluated without its chart: the patch suites solve it from the shared jets
    pts = residuals.evaluate(curve, patch)
    assert [fn(curve, pts) for fn in {**POINT_SUITES, **PATCH_SUITES}.values()] == want
    assert field_jets_sizes == [len(patch)]
