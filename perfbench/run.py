#!/usr/bin/env python3
"""affsphere benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

One client, one process, one thread: the next job starts when the previous
one has finished and been checked.  Jobs start until --seconds have passed.
--trace 0 prints the end-to-end metrics; --trace 1 runs every job twice, once
plain and once inside spans (each from a cold compile), and prints the
per-layer metrics.  The last stdout line is one JSON object; the full result
(environment, per-job times and input digests) goes to --out, default
perfbench/out/<workload>-seed<seed>-trace<trace>.json, with the spans of a
traced run next to it as *.spans.json.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads; the value is recorded in results.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASH_SEED = "0"
SETUP_REPS = 4
# Host-speed calibration: a fixed pure-Python loop, timed next to every timed
# job and import.  CAL_REF_S is its median time on the host the baseline was
# taken on (2-vCPU Xeon, KVM guest); see scaled().
CAL_LOOPS = 30_000
CAL_REPS = 3
CAL_REF_S = 0.002
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import affsphere; "
    "print(repr(time.perf_counter() - t0))"
)
SUITE_SPANS = {
    "duality": "duality_residual", "two_form": "two_form_residual",
    "conformal": "metric_conformality", "monge_ampere": "monge_ampere_residual",
    "lift": "lift_residual", "ccr": "ccr_residual",
}
LAYERS = ("cli", "io", "surfaces", "singularities", "residuals", "bench")
CAPTURE = "residuals.random_regular_points"


def pin_hash_seed():
    """Re-execute this process with PYTHONHASHSEED=0 unless it already has it.

    affsphere's singularity trace starts each closed singular curve at the
    first edge a set yields, and that set is keyed by strings, whose hashes
    change per process; the start point can change the swallowtail count.
    A fixed hash seed keeps the classify output checks repeatable.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def calibrate():
    """Median time of CAL_REPS runs of a fixed loop: the host's speed just now."""
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        x = 0
        for i in range(CAL_LOOPS):
            x += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds, cal_s):
    """Wall seconds brought to the reference host speed.

    A shared host's speed here drifts by up to 1.7x over tens of seconds,
    for the program and the calibration loop alike, so run-to-run spread of
    raw times is mostly the host's.  Scaling by CAL_REF_S / cal_s, with cal_s
    read next to the measurement, removes most of it; the loop is the
    benchmark's own code, so a change to affsphere moves the scaled times in
    full.
    """
    return seconds * CAL_REF_S / cal_s


def measure_setup(reps):
    """[wall seconds, calibration seconds] of `import affsphere` in `reps` fresh processes.

    The benchmark process has imported affsphere before, so its bytecode is
    compiled and its files are in the page cache, as for a returning CLI user.
    """
    runs = []
    for _ in range(reps):
        before = calibrate()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(proc.stdout.strip().splitlines()[-1])
        runs.append([seconds, (before + calibrate()) / 2])
    return runs


def environment(workload, seed, seconds, trace):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(idx / "level"), read(idx / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(idx / "size")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "affsphere").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())

    import numpy
    import scipy

    from workloads import CLASSIFY_RES, GRID_RES

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": {"grid_res": GRID_RES, "classify_res": CLASSIFY_RES,
                   "setup_reps": SETUP_REPS,
                   "cal_loops": CAL_LOOPS, "cal_reps": CAL_REPS, "cal_ref_s": CAL_REF_S,
                   "clients": 1, "loop": "closed",
                   "pythonhashseed": os.environ.get("PYTHONHASHSEED")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "blas": blas.get("name"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def _clear_compile_cache():
    """Forget compiled surfaces, as a fresh CLI process would start without them."""
    from affsphere import surfaces

    cached = getattr(surfaces, "_compiled", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def _attempt(workload, job, workdir, call_wrapper):
    """Run one job from a cold compile; return (seconds, problems).  Outputs are removed."""
    _clear_compile_cache()
    call = workload.prepare(job, workdir)
    t0 = time.perf_counter()
    try:
        outcome = call_wrapper(call)
    except Exception as exc:  # a failed job is counted, the loop goes on
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return seconds, [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    try:
        problems = workload.check(job, outcome, workdir)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    finally:
        for path in workdir.iterdir():
            path.unlink()
    return seconds, problems


def run_loop(workload, seed, seconds, workdir, recorder=None):
    """Closed loop: jobs start until `seconds` have passed; at least one runs.

    The first job of the stream runs once untimed before the loop, so that
    lazy imports and first-call set-up inside the process are done.
    """
    _attempt(workload, next(workload.jobs(seed)), workdir, lambda c: c())
    records, extras = [], []
    stream = workload.jobs(seed)
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        job = next(stream)
        rec = {"i": job.index, "digest": job.digest(), "params": job.params}
        if recorder is None:
            before = calibrate()
            rec["s"], problems = _attempt(workload, job, workdir, lambda c: c())
            rec["cal_s"] = (before + calibrate()) / 2
        else:
            problems = []
            order = ("plain", "traced") if job.index % 2 == 0 else ("traced", "plain")
            for mode in order:
                if mode == "plain":
                    rec["s_plain"], probs = _attempt(workload, job, workdir, lambda c: c())
                else:
                    rec["s"], probs = _attempt(
                        workload, job, workdir, lambda c, i=job.index: recorder.job(i, c)
                    )
                    if not probs:
                        extras.append(layer_extras(workload, job, recorder))
                problems += probs
        rec["ok"] = not problems
        if problems:
            rec["problems"] = problems
            sys.stderr.write(f"job {job.index} failed: {'; '.join(problems)}\n")
        if "points_checked" in job.facts:
            rec["points_checked"] = job.facts["points_checked"]
        records.append(rec)
    return records, extras


def layer_extras(workload, job, recorder):
    """Counts and side measurements of one traced job, taken outside its spans."""
    from affsphere import surfaces

    from workloads import DOMAIN, GRID_RES

    surf = surfaces.compile_surface(job.curve)
    fields = getattr(surf, "fields", {})
    extra = {"field_terms": sum(len(getattr(f, "c", ())) for f in fields.values())}
    if "trace_nodes" in job.facts:
        extra["trace_nodes"] = job.facts["trace_nodes"]
    points = job.facts.get("points") or recorder.captured.get(CAPTURE, [])
    if points:
        t0 = time.perf_counter()
        for u, v in points:
            surf.position_jet(u, v)
            surf.normal_jet(u, v)
        extra["jets"] = 2 * len(points)
        extra["jets_s"] = time.perf_counter() - t0
    if workload.name == "field-eval":
        tracemalloc.start()
        try:
            grid = surfaces.sample_grid(job.curve, DOMAIN, (GRID_RES, GRID_RES))
            extra["grid_peak_b"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra["grid_bytes"] = sum(
            getattr(grid, name).nbytes
            for name in ("u_axis", "v_axis", "x1", "x2", "phi", "n1", "n2", "density")
        )
        extra["grid_nodes"] = GRID_RES * GRID_RES
    return extra


def tail(times):
    """90th percentile, interpolated between jobs (the only job's time for one job).

    A fixed percentile rather than "ten jobs from the top": in field-eval the
    two degree-16 exact kinds are the ten slowest jobs of five whole cycles
    and the twelve slowest of six, so a rank counted from the top would jump
    between kinds with the number of cycles a run completes.
    """
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def whole_cycles(records, workload):
    """The records of the lead jobs and of every whole cycle of job kinds.

    Kinds differ in size, so a statistic over a cut cycle would depend on
    where the deadline fell; the jobs after the last whole cycle still ran and
    were checked.  A run too short for one whole cycle keeps every record.
    """
    cycles = (len(records) - workload.lead) // workload.cycle
    return records[:workload.lead + cycles * workload.cycle] if cycles > 0 else records


def end_to_end(records, workload, setup_runs):
    """End-to-end metrics, times scaled to the reference host speed; raw ones in notes."""
    timed = whole_cycles(records, workload)
    times = [scaled(r["s"], r["cal_s"]) for r in timed]
    raw = [r["s"] for r in timed]
    setup = statistics.median(scaled(s, c) for s, c in setup_runs)
    raw_setup = statistics.median(s for s, _ in setup_runs)
    failed = sum(not r["ok"] for r in records)
    tail_s = tail(times)
    metrics = {
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / len(records), "fraction"),
    }
    cal = statistics.median(r["cal_s"] for r in timed)
    return metrics, {
        "job_s_p50": f"raw {statistics.median(raw):.4g} s; calibration loop median "
                     f"{cal * 1e3:.3f} ms, reference {CAL_REF_S * 1e3:g} ms",
        "job_s_tail": f"p90 of {len(times)} jobs; raw {tail(raw):.4g} s",
        "setup_s": f"raw {raw_setup:.4g} s",
    }


def per_layer(records, extras, recorder):
    import spans

    stats = spans.self_times(recorder.spans)
    n = len(records)

    def self_s(name):
        return stats.get(name, (0.0, 0, 0))[0]

    def per_job(total):
        return total / n

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def total(key):
        return sum(e.get(key, 0) for e in extras)

    cp_s, cp_calls, cp_raised = stats.get("singularities.classify_point", (0.0, 0, 0))
    grid_s = self_s("surfaces.sample_grid")
    checked = sum(r.get("points_checked", 0) for r in records)
    plain = sum(r["s_plain"] for r in records)
    traced = sum(r["s"] for r in records)
    metrics = {
        "surfaces.compile_surface.s": (per_job(self_s("surfaces.compile_surface")), "s"),
        "surfaces.field_terms": (per_job(total("field_terms")), "count"),
        "surfaces.sample_grid.s": (per_job(grid_s), "s"),
        "surfaces.grid_nodes_per_s": (rate(total("grid_nodes"), grid_s), "1/s"),
        "surfaces.grid_bytes": (per_job(total("grid_bytes")), "B"),
        "surfaces.sample_grid.peak_mb": (
            max((e.get("grid_peak_b", 0) for e in extras), default=0) / 2**20, "MB"),
        "surfaces.jets_per_s": (rate(total("jets"), total("jets_s")), "1/s"),
        "singularities.trace_singular_curves.s": (
            per_job(self_s("singularities.trace_singular_curves")), "s"),
        "singularities.trace_nodes": (per_job(total("trace_nodes")), "count"),
        "singularities.classify_point.s": (per_job(cp_s), "s"),
        "singularities.classify_point.calls": (per_job(cp_calls), "count"),
        "singularities.points_per_s": (rate(cp_calls - cp_raised, cp_s), "1/s"),
        "singularities.classified_ratio": (
            (cp_calls - cp_raised) / cp_calls if cp_calls else 0.0, "ratio"),
        "singularities.locate_swallowtails.s": (
            per_job(self_s("singularities.locate_swallowtails")), "s"),
        "singularities.classification_report.s": (
            per_job(self_s("singularities.classification_report")), "s"),
    }
    for suite, fn in SUITE_SPANS.items():
        metrics[f"residuals.{suite}.s"] = (per_job(self_s(f"residuals.{fn}")), "s")
    metrics.update({
        "residuals.random_regular_points.s": (
            per_job(self_s("residuals.random_regular_points")), "s"),
        "residuals.regular_graph_patch.s": (
            per_job(self_s("residuals.regular_graph_patch")), "s"),
        "residuals.points_checked": (per_job(checked), "count"),
        "io.load_curve.s": (per_job(self_s("io.load_curve")), "s"),
        "io.write_json_report.s": (per_job(self_s("io.write_json_report")), "s"),
    })
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (secs, _, _) in stats.items():
        layer_self[name.split(".")[0]] += secs
    for layer in LAYERS:
        metrics[f"{layer}.self.s"] = (per_job(layer_self[layer]), "s")
    metrics["trace.job.s"] = (per_job(traced), "s")
    metrics["trace.overhead_frac"] = ((traced - plain) / plain, "fraction")
    return metrics


def print_metrics(metrics, notes):
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<42} {value:.6g} {unit}{note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="result JSON path")
    args = parser.parse_args(argv)

    if not (SRC / "affsphere" / "__init__.py").is_file():
        sys.stderr.write(f"no affsphere sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import affsphere

    if Path(affsphere.__file__).resolve().parent != SRC / "affsphere":
        sys.stderr.write(f"imported affsphere from {affsphere.__file__}, not {SRC}\n")
        return 2
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    result = {"env": environment(args.workload, args.seed, args.seconds, args.trace)}

    # Half the set-up timings come before the loop and half after it, so a
    # slow stretch of a shared host reaches fewer of them.
    setup_runs = [] if args.trace else measure_setup(SETUP_REPS // 2)
    recorder = spans.Recorder(capture=(CAPTURE,)) if args.trace else None
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        records, extras = run_loop(workload, args.seed, args.seconds, Path(tmp), recorder)

    failed = sum(not r["ok"] for r in records)
    if args.trace:
        metrics, notes = per_layer(records, extras, recorder), {}
    else:
        setup_runs += measure_setup(SETUP_REPS - SETUP_REPS // 2)
        result["setup_runs_s"] = setup_runs
        metrics, notes = end_to_end(records, workload, setup_runs)
    result.update(jobs=records, notes=notes,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    out = args.out or HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    if recorder is not None:
        out.with_suffix(".spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job", "error"],
             "spans": recorder.spans}) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {len(records)} jobs in a closed "
          f"loop of {args.seconds:g} s, {failed} failed; result in {out}")
    if not args.trace:
        notes["fail_frac"] = f"{failed} of {len(records)} jobs"
        metrics = dict(metrics, fail_frac=(failed / len(records), "fraction"))
    print_metrics(metrics, notes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
