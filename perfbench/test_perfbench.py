"""Smoke tests of the benchmark itself (one job per run).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402
from run import CAL_REF_S, scaled, whole_cycles  # noqa: E402
from workloads import DOMAIN, GRID_RES, WORKLOADS, check_fields, random_curve  # noqa: E402

from affsphere.surfaces import sample_grid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_RUNS = {}


def run_bench(workload, seed, trace, tmp_path_factory, seconds=0):
    """(last stdout line, full result) of one run; cached across tests."""
    key = (workload, seed, trace, seconds)
    if key not in _RUNS:
        out = tmp_path_factory.mktemp("bench") / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        _RUNS[key] = (last, json.loads(out.read_text()))
    return _RUNS[key]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, tmp_path_factory):
    last, _ = run_bench(workload, 1, trace, tmp_path_factory)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in last["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])


def test_seed_changes_inputs_not_metric_set(tmp_path_factory):
    last1, full1 = run_bench("verify", 1, 0, tmp_path_factory)
    last2, full2 = run_bench("verify", 2, 0, tmp_path_factory)
    assert full1["jobs"][0]["digest"] != full2["jobs"][0]["digest"]
    assert set(last1["metrics"]) == set(last2["metrics"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_runs_do_identical_jobs(workload, tmp_path_factory):
    _, plain = run_bench(workload, 1, 0, tmp_path_factory)
    _, traced = run_bench(workload, 1, 1, tmp_path_factory)
    n = min(len(plain["jobs"]), len(traced["jobs"]))
    assert n >= 1
    assert [j["digest"] for j in plain["jobs"][:n]] == [j["digest"] for j in traced["jobs"][:n]]


def test_field_check_catches_a_wrong_potential():
    curve = random_curve(np.random.default_rng(5), 4, "lsc")
    grid = sample_grid(curve, DOMAIN, (GRID_RES, GRID_RES))
    fields = {name: getattr(grid, name) for name in ("x1", "x2", "phi", "n1", "n2", "density")}
    assert check_fields(curve, grid.u_axis, grid.v_axis, fields) == []
    fields["phi"] = 2 * fields["phi"]
    assert any(p.startswith("phi") for p in check_fields(curve, grid.u_axis, grid.v_axis, fields))


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_timing_statistics_use_whole_cycles_only():
    classify = WORKLOADS["classify"]()
    records = list(range(classify.lead + 2 * classify.cycle + 3))
    assert whole_cycles(records, classify) == records[:classify.lead + 2 * classify.cycle]
    assert whole_cycles(records[:4], classify) == records[:4]
    assert whole_cycles(records[:1], classify) == records[:1]


def test_scaling_divides_out_the_host_speed():
    assert scaled(1.5, CAL_REF_S) == 1.5
    assert scaled(3.0, 2 * CAL_REF_S) == pytest.approx(1.5)


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    faster = [v * 0.8 for v in base]
    pairs = list(zip(base, faster))
    assert verdict(base, faster, pairs, 0.1, "lower") == "better"
    assert verdict(faster, base, [(b, a) for a, b in pairs], 0.1, "lower") == "worse"
    assert verdict(base, base, list(zip(base, base)), 0.1, "lower") == "unchanged"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(noisy, noisy, list(zip(noisy, noisy)), 0.1, "lower") == "unresolved"
