"""The float-limit messages print a field bound that reads above the limit.

B = 2c(d+1)d²r^d is printed with a three-digit mantissa rounded up, so a
bound just above 1e75 never prints as 1e75 itself; a mantissa that rounds up
to 10 carries into the exponent, and a bound whose |u| + |v| overflows prints
as inf, with the exit code of any other bound beyond the limit.
"""

import math
import re

import pytest

from affsphere import cli
from affsphere.io import save_curve
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import ParaCurve

QUAD_CUBIC = ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1]))
BOUND = re.compile(r"field bound (\S+) exceeds 1e75\n")


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "z2z3.json"
    save_curve(QUAD_CUBIC, str(path))
    return str(path)


def _printed_bound(capsys):
    (text,) = BOUND.findall(capsys.readouterr().err)
    return float(text)


def test_probe_message_bound_reads_above_the_limit(curve_file, capsys):
    # log10 B = log10(72) + 3 log10(3e24) = 75.29
    argv = ["classify", "--curve", curve_file, "--res", "32", "--probe=-3e24,0"]
    assert cli.main(argv) == 3
    bound = _printed_bound(capsys)
    assert bound > 1e75
    assert bound == pytest.approx(10 ** cli._log_bound(QUAD_CUBIC, [(-3e24, 0.0)]), rel=1e-2)


def test_domain_message_bound_reads_above_the_limit(curve_file, capsys):
    argv = ["verify", "--curve", curve_file, "--domain", "-3e24,0,0,1"]
    assert cli.main(argv) == 2
    assert _printed_bound(capsys) > 1e75


@pytest.mark.parametrize("excess", [1e-12, 0.004, 0.5, 0.9999, 1.0, 20.0])
def test_bound_text_never_reads_at_or_below_the_bound(excess):
    log_bound = 75 + excess
    printed = float(cli._bound_text(log_bound))
    assert printed > 1e75
    assert math.log10(printed) >= log_bound
    assert math.log10(printed) - log_bound < 0.005


@pytest.mark.parametrize("log_bound", [75.99999, 75.999999999, 76 - 1e-13, 99.9999])
def test_bound_text_mantissa_that_rounds_up_to_ten_carries(log_bound):
    text = cli._bound_text(log_bound)
    mantissa, exponent = text.split("e")
    assert mantissa == "1.00" and int(exponent) == math.floor(log_bound) + 1
    assert float(text) > 1e75 and math.log10(float(text)) >= log_bound


def test_bound_text_of_an_infinite_bound_reads_above_the_limit():
    assert float(cli._bound_text(math.inf)) > 1e75


OVERFLOWING = [
    (["synth", "--domain=-1e308,1e308,-1e308,1e308"], 2),
    (["classify", "--domain=-1e308,1e308,-1e308,1e308"], 2),
    (["verify", "--domain=-1e308,1e308,-1e308,1e308"], 2),
    (["classify", "--probe=1e308,1e308"], 3),
    (["classify", "--probe=-1e308,-1e308"], 3),
]


@pytest.mark.parametrize("args, code", OVERFLOWING, ids=lambda x: x if isinstance(x, int) else " ".join(x))
def test_overflowing_domain_or_probe_exits_with_one_line(args, code, curve_file, tmp_path, capsys):
    # |u| + |v| overflows to inf, so log10 B is infinite
    out = tmp_path / "out.json"
    assert cli.main([args[0], "--curve", curve_file, "--out", str(out), *args[1:]]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert float(BOUND.findall(err)[0]) > 1e75
    assert not out.exists()
