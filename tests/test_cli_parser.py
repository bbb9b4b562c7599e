"""The CLI builds its argument parser once per process and still runs the
command function that the module holds at call time."""

from affsphere import cli
from affsphere.io import save_curve
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import ParaCurve


def _curve_file(tmp_path):
    path = tmp_path / "curve.json"
    save_curve(ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1])), path)
    return str(path)


def test_parser_is_built_once(tmp_path, capsys):
    argv = ["synth", "--curve", _curve_file(tmp_path), "--res", "2", "--format", "csv"]
    assert cli.main(argv) == 0
    hits = cli.build_parser.cache_info().hits
    assert cli.main(argv) == 0
    assert cli.main(["synth", "--bogus"]) == 3
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, hits + 2)
    assert cli.build_parser() is cli.build_parser()


def test_wrapped_command_is_called(tmp_path, monkeypatch, capsys):
    """A wrapper installed over a command after the parser was built (as the
    benchmark's span recorder does) is the function main runs."""
    argv = ["synth", "--curve", _curve_file(tmp_path), "--res", "2"]
    assert cli.main(argv) == 0
    seen = []
    original = cli.cmd_synth

    def wrapper(args):
        seen.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "cmd_synth", wrapper)
    assert cli.main(argv) == 0
    assert seen == ["synth"]
