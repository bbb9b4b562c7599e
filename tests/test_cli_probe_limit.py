"""The float limit of `classify` covers its probes.

The field bound B = 2c(d+1)d²r^d takes r over the domain and the probes.  A
finite probe that breaks the limit exits 3 with one `invalid arguments` line
and no output file; a probe within it gives the report it gives without the limit.
"""

import hashlib
import math

import pytest

from affsphere import cli
from affsphere.io import save_curve
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import ParaCurve

QUAD_CUBIC = ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1]))
# sha256 of `classify --curve (z², z³) --res 32 --probe 5,5`, the bytes of
# the report without the float limit; taken again when ddet_ge became the
# closed-form dD/dt, the only field that changed
PROBE_5_5_SHA256 = "c46228a838562f5074a54e267b6ce2998d27b8200b25bb781e23ae84396d5b25"


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "z2z3.json"
    save_curve(QUAD_CUBIC, str(path))
    return str(path)


@pytest.mark.parametrize("probe", ["1e200,0", "0,-1e200", "1e30,1e30"])
def test_probe_beyond_float_limit_exits_3_without_output(curve_file, tmp_path, capsys, probe):
    out = tmp_path / "report.json"
    argv = ["classify", "--curve", curve_file, "--res", "32", "--probe", probe, "--out", str(out)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments: probe ") and "exceeds 1e75" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_probe_within_float_limit_keeps_report_bytes(curve_file, tmp_path):
    out = tmp_path / "report.json"
    argv = ["classify", "--curve", curve_file, "--res", "32", "--probe", "5,5", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PROBE_5_5_SHA256


def test_bound_takes_the_largest_of_domain_and_probes():
    domain = [(u, v) for u in (-1.0, 1.0) for v in (-1.0, 1.0)]
    on_domain = cli._log_bound(QUAD_CUBIC, domain)
    assert cli._log_bound(QUAD_CUBIC, domain + [(0.5, -0.5)]) == on_domain
    # degree 3: r goes from |1| + |1| to |3| + |-4|
    assert cli._log_bound(QUAD_CUBIC, domain + [(3.0, -4.0)]) == pytest.approx(on_domain + 3 * math.log10(7 / 2))
