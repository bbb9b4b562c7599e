"""The names the benchmark in perfbench/ reaches into must keep existing.

perfbench/run.py empties the compile cache through surfaces._compiled and
skips that silently when the attribute is gone, and perfbench/spans.py wraps
the public functions named in its TRACED table.  A rename would let the
benchmark time warm compiles or lose spans without any error, so the names
are checked here.  spans.py is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

from affsphere import surfaces

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compile_cache_can_be_cleared():
    assert callable(surfaces._compiled.cache_clear)


def test_traced_functions_exist():
    traced = _load_spans().TRACED
    assert traced
    for layer, (module, names) in traced.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
