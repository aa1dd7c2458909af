"""Seeded benchmark of the nmk package.

    python3 perfbench/run.py --workload nmf --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process, one job at a
time, on inputs drawn from ``--seed``.  Set-up (importing numpy and
``nmk`` from ``src/``, drawing the inputs, one warm-up job) is timed here
and in a few fresh child processes, each scaled by that process's own
numpy import time (see ``NUMPY_IMPORT_REF_S``); then whole passes over the
workload's panel run until ``--seconds`` have gone by.  Every result is
checked.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace
1`` runs the untraced passes as well (for the overhead), then one traced
pass whose spans give the per-layer metrics; the spans are written to
``.perfbench/``.  Metric names and units come from ``BENCHMARK.json``.

Stdout ends with two JSON lines: a full record (every metric computed,
the environment fingerprint, pass times) and the result line
``{"correct", "attempted", "failed", "metrics"}``.  A readable summary
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# One BLAS thread: every workload is a single closed-loop client, and a
# second thread only adds run-to-run noise on a shared machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILDREN = 6  # set-ups in fresh processes, besides this process's own
# setup_s is given in seconds of a machine on which ``import numpy`` takes
# this long: a fixed scale, about what a fresh interpreter took on the
# baseline machine of README.md.  Importing nmk is import work of the same
# kind, so scaling each set-up by the numpy import timed just before it
# cancels the machine's speed drift.
NUMPY_IMPORT_REF_S = 0.065
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name: str, seed: int, workdir: Path):
    """Import numpy and nmk, draw the inputs and warm up.

    Returns the workload, the set-up time and the part of it spent
    importing numpy, both in seconds.  Must run before anything else in
    the process imports numpy.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    numpy_s = time.perf_counter() - t0
    import nmk

    origin = Path(nmk.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: imported nmk from {origin}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, workdir)
    wl.warm_up()
    return wl, time.perf_counter() - t0, numpy_s


def child_setups(args) -> list[tuple[float, float]]:
    """(set-up seconds, numpy import seconds) of fresh processes."""
    times = []
    for _ in range(SETUP_CHILDREN):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
        cmd += ["--workload", args.workload, "--seed", str(args.seed)]
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((out["setup_s"], out["numpy_import_s"]))
    return times


def run_pass(wl, rec=None):
    """One job at a time; a job that raises is recorded, not fatal.

    Returns the results and the pass time.
    """
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(wl.jobs):
        try:
            if rec is None:
                results.append((True, job()))
            else:
                rec.job_id = i + 1
                results.append((True, rec.span("bench.job", job)))
        except Exception as exc:  # counted in `failed`, reported below
            results.append((False, f"{type(exc).__name__}: {exc}"))
    return results, time.perf_counter() - t0


def timed_passes(wl, seconds: float):
    passes, times = [], []
    start = time.perf_counter()
    while True:
        results, elapsed = run_pass(wl)
        passes.append(results)
        times.append(elapsed)
        if len(times) >= MIN_PASSES and time.perf_counter() - start >= seconds:
            return passes, times


def check_passes(wl, passes):
    """Check every job of every pass; results must also repeat exactly."""
    from nmk.errors import NmkError
    from workloads import CheckFailed

    failed, errors, first = 0, [], {}
    for results in passes:
        for i, (ok, res) in enumerate(results):
            try:
                if not ok:
                    raise CheckFailed(res)
                wl.check(i, res)
                key = wl.key(res)
                if first.setdefault(i, (key, res))[0] != key:
                    raise CheckFailed("result differs from its first pass")
            # ValueError, KeyError, TypeError: output that does not parse as promised
            except (CheckFailed, NmkError, ValueError, KeyError, TypeError) as exc:
                failed += 1
                errors.append(f"job {i}: {type(exc).__name__}: {exc}")
    ratios = wl.ratios({i: res for i, (_, res) in first.items()})
    return failed, errors, ratios


def fingerprint(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def contract_metrics(computed: dict, kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    missing = [m["name"] for m in spec if m["name"] not in computed]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": computed[m["name"]][0], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "nmk" / "__init__.py").is_file():
        print(f"error: no nmk package under {SRC}", file=sys.stderr)
        return 2
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, own_setup, own_numpy = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup, "numpy_import_s": own_numpy}))
            return 0
        setups = [(own_setup, own_numpy)] + (child_setups(args) if not args.trace else [])
        scaled = [t * NUMPY_IMPORT_REF_S / numpy_s for t, numpy_s in setups]
        passes, pass_times = timed_passes(wl, args.seconds)
        wall = statistics.median(pass_times)
        computed = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(scaled), "s"),
            "setup_raw_s": (statistics.median(t for t, _ in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        if args.trace:
            from layers import layer_metrics
            from spans import Recorder

            rec = Recorder()
            rec.calibrate()
            rec.install()
            try:
                results, traced_wall = run_pass(wl, rec)
                passes.append(results)
            finally:
                rec.uninstall()
            computed.update(layer_metrics(rec, wall, traced_wall))
            rec.save(OUT / f"spans-{args.workload}-{args.seed}")
        failed, errors, ratios = check_passes(wl, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    computed["bits_ratio"] = (statistics.fmean(ratios) if ratios else 0.0, "ratio")
    computed["fail_frac"] = (failed / attempted, "ratio")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(args.seed),
        "jobs_per_pass": len(wl.jobs),
        "pass_times_s": pass_times,
        "setup_times_s": [t for t, _ in setups],
        "numpy_import_times_s": [n for _, n in setups],
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in computed.items()},
    }
    for err in errors[:20]:
        print(f"FAIL {err}", file=sys.stderr)
    for name, (value, unit) in computed.items():
        print(f"{args.workload:>9} {name:<40} {value:>14.6g} {unit}", file=sys.stderr)
    metrics = contract_metrics(computed, "per_layer" if args.trace else "end_to_end")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
