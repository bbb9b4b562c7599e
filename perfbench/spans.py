"""Spans around calls into affsphere's layers, recorded from outside the package.

While a traced job runs, a Recorder swaps each traced public function for a
wrapper in every affsphere module namespace that holds it, so calls between
modules (cli -> singularities -> surfaces) are seen as well as the
benchmark's own calls.  Spans stay in memory; the caller writes them out when
the run ends.  `bipoly` and `paracomplex` are reached only through
`compile_surface` and `sample_grid` and are measured there; `conversions` is
left out (a convert job takes about 2 ms).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from affsphere import cli, io, residuals, singularities, surfaces

TRACED = {
    "cli": (cli, ("main", "cmd_classify", "cmd_verify")),
    "io": (io, ("load_curve", "write_json_report")),
    "surfaces": (surfaces, ("compile_surface", "sample_grid")),
    "singularities": (singularities, ("classification_report", "trace_singular_curves",
                                      "classify_point", "locate_swallowtails")),
    "residuals": (residuals, ("duality_residual", "two_form_residual", "metric_conformality",
                              "monge_ampere_residual", "lift_residual", "ccr_residual",
                              "random_regular_points", "regular_graph_patch")),
}
JOB = "bench.job"

# span fields
NAME, START, END, PARENT, JOB_ID, ERROR = range(6)


class Recorder:
    """Collects [name, start, end, parent index, job id, error] lists.

    `capture` names spans whose latest return value is kept in `captured`,
    so the benchmark can reuse a job's own points after the job.
    """

    def __init__(self, capture=()):
        self.spans = []
        self.captured = {}
        self._capture = frozenset(capture)
        self._stack = []
        self._job_id = None
        self._patches = []
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "affsphere"]
        for layer, (module, names) in TRACED.items():
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for ns in namespaces:
                    for attr, val in vars(ns).items():
                        if val is original:
                            self._patches.append((ns, attr, original, wrapper))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self._job_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if name in self._capture:
                self.captured[name] = result
            return result

        return wrapper

    def job(self, job_id, call):
        """Run call() as the root span of one job, with the wrappers in place."""
        self._job_id = job_id
        self.captured = {}
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        try:
            return self._wrap(JOB, call)()
        finally:
            for ns, attr, original, _ in self._patches:
                setattr(ns, attr, original)


def self_times(spans):
    """Per span name: (total self seconds, calls, calls that raised)."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    out = defaultdict(lambda: [0.0, 0, 0])
    for idx, span in enumerate(spans):
        entry = out[span[NAME]]
        entry[0] += span[END] - span[START] - child_time[idx]
        entry[1] += 1
        entry[2] += span[ERROR] is not None
    return dict(out)
