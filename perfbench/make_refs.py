"""Regenerate the stored references under perfbench/refs/.

    python3 perfbench/make_refs.py

classify.json holds the two fixed curves and a pool of random exact curves of
degree 3 and 4, each with a probe point on its singular set and the tag
multiset that `affsphere classify` reports for it, under the benchmark's
fixed PYTHONHASHSEED (see run.pin_hash_seed).

verify.json holds the exit code and per-suite pass flags of `affsphere
verify` for each corruption mode, which must agree across every curve run.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from affsphere import cli, io  # noqa: E402
from affsphere.paracomplex import ParaPoly  # noqa: E402
from affsphere.surfaces import ParaCurve  # noqa: E402
from run import pin_hash_seed  # noqa: E402
from workloads import CLASSIFY_RES, CORRUPTIONS, REFS, random_curve  # noqa: E402

POOL_SEED = 20261017
POOL_SIZES = {3: 16, 4: 8}  # curves per signature
FIXED = {
    "z2z3": ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1])),
    "z3z4": ParaCurve(ParaPoly([0, 0, 0, 1]), ParaPoly([0, 0, 0, 0, 1])),
}


def _cli(argv):
    with contextlib.redirect_stderr(_stdio.StringIO()):
        return cli.main(argv)


def classify(curve, workdir, probe=None):
    path = workdir / "curve.json"
    out = workdir / "report.json"
    io.save_curve(curve, path)
    argv = ["classify", "--curve", str(path), "--res", str(CLASSIFY_RES), "--out", str(out)]
    if probe is not None:
        argv += ["--probe", ",".join(repr(float(c)) for c in probe)]
    code = _cli(argv)
    if code != 0:
        raise SystemExit(f"classify exited {code} on {io.curve_to_json(curve)}")
    return json.loads(out.read_text())


def classify_entry(entry_id, curve, workdir):
    """Reference entry: probe at the middle node of the longest singular curve."""
    first = classify(curve, workdir)
    longest = max(first["singular_curves"], key=len)
    probe = [float(c) for c in longest[len(longest) // 2]]
    report = classify(curve, workdir, probe)
    tags = dict(Counter(p["class"] for p in report["points"]))
    print(f"{entry_id}: {tags}", flush=True)
    return {"id": entry_id, "curve": io.curve_to_json(curve), "probe": probe, "tags": tags}


def verify_table(workdir):
    rng = np.random.default_rng(POOL_SEED)
    curves = [random_curve(rng, d, s) for d in (3, 5) for s in ("indefinite", "lsc")]
    table = {}
    for mode in (None, *CORRUPTIONS):
        key = mode or "none"
        for curve in curves:
            io.save_curve(curve, workdir / "curve.json")
            argv = ["verify", "--curve", str(workdir / "curve.json"),
                    "--out", str(workdir / "verify.json")]
            if mode:
                argv += ["--corrupt", mode]
            code = _cli(argv)
            suites = json.loads((workdir / "verify.json").read_text())
            row = {"exit": code, "pass": {s["name"]: s["pass"] for s in suites}}
            if table.setdefault(key, row) != row:
                raise SystemExit(f"verify outcome for {key} differs between curves")
        print(f"verify {key}: {table[key]}", flush=True)
    return table


def main():
    rng = np.random.default_rng(POOL_SEED)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        workdir = Path(tmp)
        fixed = []
        for name, curve in FIXED.items():
            entry = classify_entry(name, curve, workdir)
            entry["name"] = name
            fixed.append(entry)
        pool = []
        for degree, count in POOL_SIZES.items():
            for sig in ("indefinite", "lsc"):
                for _ in range(count):
                    curve = random_curve(rng, degree, sig)
                    entry = classify_entry(f"d{degree}-{sig}-{len(pool):02d}", curve, workdir)
                    entry.update(degree=degree, signature=sig)
                    pool.append(entry)
        verify = verify_table(workdir)
    REFS.mkdir(exist_ok=True)
    (REFS / "classify.json").write_text(
        json.dumps({"pool_seed": POOL_SEED, "fixed": fixed, "pool": pool}, indent=1) + "\n"
    )
    (REFS / "verify.json").write_text(json.dumps(verify, indent=1) + "\n")


if __name__ == "__main__":
    pin_hash_seed()
    main()
