#!/usr/bin/env python3
"""Compare two sets of benchmark results, end-to-end metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result JSON files written by run.py with --trace 0.
Runs of the two sets are paired by workload and seed.  For every workload and
every end-to-end metric in BENCHMARK.json the verdict is:

  better      the new side wins at least 9 of 10 pairs (ties count for
              neither; at least ten pairs) and the medians differ by more
              than the base side's interquartile distance
  worse       the new median is worse than the base median by more than the
              metric's bound (a share of the base median)
  unresolved  the base side's own spread (IQR / median) exceeds the bound,
              and not every new run reads better than every base run
  unchanged   otherwise

Exits 1 on any `worse` verdict or when a workload's share of failed jobs is
higher on the new side, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    """{workload: {seed: result}} for the untraced results in directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        result = json.loads(path.read_text())
        env = result["env"]
        if env["trace"]:
            continue
        runs.setdefault(env["workload"], {})[env["seed"]] = result
    return runs


def fail_share(runs):
    jobs = [job for result in runs.values() for job in result["jobs"]]
    return sum(not job["ok"] for job in jobs) / len(jobs)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(base, new, pairs, bound, better):
    """Verdict for one metric; base/new are value lists, pairs (base, new) by seed."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - n) > 0: new is better
    q1, mb, q3 = quartiles(base)
    mn = statistics.median(new)
    wins = sum(sign * (b - n) > 0 for b, n in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and sign * (mb - mn) > q3 - q1:
        return "better"
    if sign * (mn - mb) > bound * abs(mb):
        return "worse"
    all_better = max(new) < min(base) if better == "lower" else min(new) > max(base)
    if (q3 - q1) > bound * abs(mb) and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_runs, new_runs = load(args.base), load(args.new)
    regressions = []
    print(f"{'workload':<13} {'metric':<12} {'base p50 [q1, q3]':<30} "
          f"{'new p50 [q1, q3]':<30} {'change':>7} {'wins':>6}  verdict")
    for workload in sorted(set(base_runs) | set(new_runs)):
        base, new = base_runs.get(workload, {}), new_runs.get(workload, {})
        if not base or not new:
            print(f"{workload:<13} present on one side only")
            continue
        seeds = sorted(set(base) & set(new))
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def values(side):
                return [r["metrics"][name]["value"] for r in side.values()]

            pairs = [(base[s]["metrics"][name]["value"], new[s]["metrics"][name]["value"])
                     for s in seeds]
            b, n = values(base), values(new)
            word = verdict(b, n, pairs, metric["bound"], metric["better"])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * (pb - pn) > 0 for pb, pn in pairs)
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
            print(f"{workload:<13} {name:<12} {_fmt(bq):<30} {_fmt(nq):<30} "
                  f"{change:>+7.1%} {wins:>3}/{len(pairs):<2}  {word}")
            if word == "worse":
                regressions.append(f"{workload} {name}")
        fail = [fail_share(base), fail_share(new)]
        print(f"{workload:<13} {'fail_frac':<12} {fail[0]:<30.4g} {fail[1]:<30.4g}")
        if fail[1] > fail[0]:
            regressions.append(f"{workload} fail_frac")
    if regressions:
        print("regressions: " + ", ".join(regressions))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
