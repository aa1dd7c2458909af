"""Run every workload over a range of seeds and summarize the spread.

    python3 perfbench/sweep.py --seeds 1-10 --out results.jsonl
    python3 perfbench/sweep.py --seeds 1-10 --against ../parent --out change.jsonl
    python3 perfbench/sweep.py --trace 1 --seeds 7,7 --out traced.jsonl

Each run is ``run.py`` in a fresh process.  The summary gives, per
workload and end-to-end metric, the median, quartiles and spread
((q3 - q1) / median) with the metric's bound, plus ``fail_frac``.  With
``--trace 1`` it prints the per-layer medians and whether the per-layer
counts of runs at one seed are identical.

``--against DIR`` also runs the benchmark of the checkout at DIR, with the
same seeds, alternating which side runs first; its records go to
``<out>.against.jsonl``.  Compare the two files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import RECORD_ONLY, quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(root: Path, workload: str, seed: int, seconds, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {root} failed:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} failed: {record['errors'][:3]}")
    return record


def summarize(records, spec) -> None:
    print(f"{'workload':<10} {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  unit")
    for w in (w["name"] for w in spec["workloads"]):
        rows = [r for r in records if r["workload"] == w and r["trace"] == 0]
        if not rows:
            continue
        extra = [{"name": "fail_frac", "unit": "ratio", "bound": None}]
        for m in RECORD_ONLY + spec["end_to_end"] + extra:
            vals = [r["metrics"][m["name"]]["value"] for r in rows]
            q1, med, q3 = quartiles(vals)
            sp = spread(vals) if med else 0.0
            bound = "" if m["bound"] is None else f"{m['bound']:.2f}"
            flag = "  > bound/3" if m["bound"] and sp > m["bound"] / 3 else ""
            print(f"{w:<10} {m['name']:<18} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {sp:>7.3f} {bound:>6}  {m['unit']}{flag}")
        print(f"{w:<10} {'runs':<18} {len(rows):>11}")


def summarize_traces(records, spec) -> None:
    """Per-layer medians, and whether the contract's counts repeat exactly
    per seed."""
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    for w in (w["name"] for w in spec["workloads"]):
        rows = [r for r in records if r["workload"] == w and r["trace"] == 1]
        if not rows:
            continue
        by_seed = {}
        for r in rows:
            by_seed.setdefault(r["seed"], []).append(r)
        for seed, runs in sorted(by_seed.items()):
            differ = [
                c for c in counts if len({r["metrics"][c]["value"] for r in runs}) > 1
            ]
            state = f"differ: {differ}" if differ else "identical"
            print(f"{w:<10} seed {seed}: per-layer counts over {len(runs)} traced runs {state}")
        # Every metric the record holds, including self times of layers the
        # contract leaves out because they read 0 on some workloads.
        for name, m in rows[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in rows]
            print(f"{w:<10} {name:<40} {quartiles(vals)[1]:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="run the benchmark over workloads and seeds")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--against", type=Path, help="another checkout to run alternately")
    p.add_argument("--out", type=Path, help="append records to this JSONL file")
    args = p.parse_args(argv)

    sides = [(ROOT, args.out)]
    if args.against:
        other = args.out.with_suffix(".against.jsonl") if args.out else None
        sides.append((args.against.resolve(), other))
    records = {root: [] for root, _ in sides}
    for w in args.workloads.split(","):
        for n, seed in enumerate(seed_list(args.seeds)):
            for root, out in sides[:: 1 if n % 2 == 0 else -1]:
                rec = run_one(root, w, seed, args.seconds, args.trace)
                records[root].append(rec)
                if out:
                    with open(out, "a") as fh:
                        fh.write(json.dumps(rec) + "\n")
                print(f"  {w} seed {seed} {root.name}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in rec["metrics"].items() if k in
                    {m["name"] for m in RECORD_ONLY + spec["end_to_end"]}), flush=True)
    for root, _ in sides:
        print(f"\n== {root}")
        summarize(records[root], spec)
        summarize_traces(records[root], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
