"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds one record per line, as ``sweep.py --out`` writes them.
Per workload and end-to-end metric it prints each side's median and
quartiles and the fraction of pairs the change wins (pairs match by seed,
or by run order when the seeds differ; ties count for neither side).

Verdicts follow the benchmark's bounds:

* ``better``: the change wins at least 9/10 of the pairs and the medians
  differ by more than the spread (q3 - q1) of the base runs;
* ``worse``: the change's median is worse than the base's by more than
  the bound;
* ``unresolved``: either side's spread, as a share of its median, exceeds
  the bound, unless every change run beats every base run;
* ``same``: otherwise.

More failed jobs than the base counts as worse on that workload.

Per-layer counts (``--trace 1`` records) that differ are listed as counts,
never as speed-ups.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
# Record-only metrics compared next to the contract's end-to-end ones.
# Wall time drifts too much between sets of runs to be a contract metric
# (see README.md); a claim on it rests on alternating pairs.
RECORD_ONLY = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """(q3 - q1) / median, as the acceptance rule measures it."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def series(records, workload, metric, trace=0):
    rows = [r for r in records if r["workload"] == workload and r["trace"] == trace]
    return [(r["seed"], r["metrics"][metric]["value"]) for r in rows if metric in r["metrics"]]


def pairs(base, change):
    base_seeds = [s for s, _ in base]
    if len(set(base_seeds)) == len(base_seeds) and set(base_seeds) == {s for s, _ in change}:
        by_seed = dict(change)
        return [(v, by_seed[s]) for s, v in base]
    return [(b, c) for (_, b), (_, c) in zip(base, change)]


def verdict(base, change, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    b = [v for _, v in base]
    c = [v for _, v in change]
    pr = pairs(base, change)
    wins = sum(sign * (cv - bv) < 0 for bv, cv in pr)
    share = wins / len(pr) if pr else 0.0
    bq1, bmed, bq3 = quartiles(b)
    _, cmed, _ = quartiles(c)
    rel = sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
    all_better = max(sign * x for x in c) < min(sign * x for x in b)
    if share >= WIN_SHARE and abs(cmed - bmed) > bq3 - bq1 and rel < 0:
        result = "better"
    elif rel > bound:
        result = "worse"
    elif max(spread(b), spread(c)) > bound and not all_better:
        result = "unresolved"
    else:
        result = "same"
    return share, rel, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two benchmark result sets")
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)
    worse = 0
    head = f"{'workload':<10} {'metric':<18} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} {'won':>5} {'diff':>7}  verdict"
    print(head)
    for w in (w["name"] for w in spec["workloads"]):
        for m in RECORD_ONLY + spec["end_to_end"]:
            b = series(base, w, m["name"])
            c = series(change, w, m["name"])
            if not b or not c:
                continue
            share, rel, result = verdict(b, c, m["bound"], m["better"] == "lower")
            worse += result == "worse"
            fmt = lambda vals: "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles([v for _, v in vals]))  # noqa: E731
            print(
                f"{w:<10} {m['name']:<18} {fmt(b):>32} {fmt(c):>32} {share:>5.2f} {rel:>+7.1%}  {result}"
            )
        b = sum(r["failed"] for r in base if r["workload"] == w)
        c = sum(r["failed"] for r in change if r["workload"] == w)
        if c > b:
            worse += 1
            print(f"{w:<10} failed jobs: {b} -> {c}  worse")
        traced = [r for r in base if r["workload"] == w and r["trace"] == 1]
        for name, m in (traced[0]["metrics"] if traced else {}).items():
            if m["unit"] not in ("count", "B"):
                continue
            b = {v for _, v in series(base, w, name, trace=1)}
            c = {v for _, v in series(change, w, name, trace=1)}
            if b and c and b != c:
                print(f"{w:<10} count {name}: {sorted(b)} -> {sorted(c)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
