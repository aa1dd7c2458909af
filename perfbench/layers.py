"""Per-layer metrics of one traced pass.

Layers are ``nmk`` modules plus ``linalg`` (the numpy kernels wrapped at
the numpy boundary).  Each metric is a count or a self time.  Optimizer
counts are derived from the ``RestartRecord``s the estimators return:
evals = sum(iterations + 1) per restart.
"""

from __future__ import annotations

import numpy as np

import nmk
from spans import Recorder, SpanTable

TINY_N = 4  # eigensolves of order <= 4: the member marginals of the estimators
LARGE_N = 64  # eigensolves of order > 64: whole states in scripts

# Public functions whose calls and self time are reported as ``<name>.calls``
# and ``<name>.self_s``.
FUNCTIONS = (
    "states.partial_trace",
    "states.apply_channel",
    "states.purify",
    "entropy.entropy",
    "entropy.cqmi",
    "entropy.entropy_report",
    "steps.apply_step",
    "markov.build_markov",
    "rand.sample",
    "witness.objective",
    "witness.witness_from_isometry",
    "nmf.estimate",
    "csquashed.estimate_esqc",
    "cli.main",
    "serialize.state_from_json",
    "serialize.script_from_json",
)
FUZZ_SUITES = {
    "ssa": "fuzz.fuzz_ssa",
    "monotonicity": "fuzz.fuzz_monotonicity",
    "markov_closure": "fuzz.fuzz_markov_closure",
    "witness": "fuzz.fuzz_witness",
}
BEAT_TOL = 1e-12


def _optimizer(put, table: SpanTable, layer: str, span: str, estimates) -> None:
    records = [r for est in estimates for r in est.trace]
    iters = sum(r.iterations for r in records)
    evals = sum(r.iterations + 1 for r in records)
    accepted = sum(r.accepted for r in records)
    put(f"{layer}.restarts", len(records), "count")
    put(f"{layer}.iterations", iters, "count")
    put(f"{layer}.evals", evals, "count")
    put(f"{layer}.s_per_eval", table.total_s(span) / evals if evals else 0.0, "s")
    put(f"{layer}.accept_ratio", accepted / iters if iters else 0.0, "ratio")


def _beating_baseline(captured) -> int:
    """Restarts whose objective ends below the best purification baseline.

    Runs after the wrappers are removed, so it adds nothing to the trace.
    """
    count = 0
    for name, args, kwargs, est in captured:
        if name != "nmf.estimate":
            continue
        rho = args[0] if args else kwargs["rho"]
        base = min(nmk.objective(w) for w in nmk.baseline_witnesses(rho))
        count += sum(r.objective < base - BEAT_TOL for r in est.trace)
    return count


def layer_metrics(rec: Recorder, untraced_wall: float, traced_wall: float) -> dict:
    """Return {name: (value, unit)} for the traced pass held in ``rec``."""
    table = SpanTable(rec)
    size, batch = table.cols["size"], table.cols["batch"]
    out: dict = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    eig = table.mask("linalg.eigvalsh")
    put("linalg.eigvalsh.calls", table.calls("linalg.eigvalsh"), "count")
    put("linalg.eigvalsh.self_s", table.self_s("linalg.eigvalsh"), "s")
    for label, where in (("tiny", size <= TINY_N), ("large", size > LARGE_N)):
        put(f"linalg.eigvalsh.{label}.calls", table.calls("linalg.eigvalsh", where), "count")
        put(f"linalg.eigvalsh.{label}.self_s", table.self_s("linalg.eigvalsh", where), "s")
    put("linalg.eigvalsh.n3_sum", int(np.sum(batch[eig] * size[eig] ** 3)), "count")
    for kernel in ("cholesky", "eigh"):
        put(f"linalg.{kernel}.calls", table.calls(f"linalg.{kernel}"), "count")
        put(f"linalg.{kernel}.self_s", table.self_s(f"linalg.{kernel}"), "s")

    ds = table.mask("states.DensityState")
    put("states.DensityState.calls", table.calls("states.DensityState"), "count")
    put("states.DensityState.self_s", table.self_s("states.DensityState"), "s")
    put("states.DensityState.max_dim", int(size[ds].max()) if ds.any() else 0, "count")
    put("states.DensityState.bytes_computed", int(np.sum(16 * size[ds] ** 2)), "B")

    for name in FUNCTIONS:
        put(f"{name}.calls", table.calls(name), "count")
        put(f"{name}.self_s", table.self_s(name), "s")
    for suite, span in FUZZ_SUITES.items():
        put(f"fuzz.{suite}.self_s", table.self_s(span), "s")
    put(
        "fuzz.trials",
        sum(r.trials for name, _, _, r in rec.captured if name.startswith("fuzz.")),
        "count",
    )

    by_name = lambda span: [r for n, _, _, r in rec.captured if n == span]  # noqa: E731
    _optimizer(put, table, "nmf", "nmf.estimate", by_name("nmf.estimate"))
    _optimizer(put, table, "csquashed", "csquashed.estimate_esqc", by_name("csquashed.estimate_esqc"))
    put("nmf.restarts_beating_baseline", _beating_baseline(rec.captured), "count")
    put("nmf.estimate.share", table.total_s("nmf.estimate") / traced_wall, "ratio")

    put("trace.spans", len(table.cols["name"]), "count")
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_frac", traced_wall / untraced_wall - 1.0, "ratio")
    put("trace.wrapper_s", table.wrapper_s(), "s")
    # Share of the traced pass that is self time of a named layer: the rest
    # is the wrappers' calibrated cost and the benchmark's own job code.
    put("trace.accounted_frac", table.all_self_s(exclude="bench.job") / traced_wall, "ratio")
    return out
