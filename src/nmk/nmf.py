"""Bracketed estimation of the non-Markovianity of formation.

The lower bound is the half-CQMI measure; the upper bound is the smallest
witness objective found.  The two purification baselines are always
included, so the upper bound is guaranteed to stay below min(S(A), S(B));
optimized witnesses come from a derivative-free local search over the
isometry steering the purifying reference (random Hermitian-generator
perturbations, accept if better, geometric step decay).  Estimates are
bracket pairs, never point claims.

Restarts run in one place, ``_run_restarts``, which ``csquashed`` shares.
Each restart reports the member-marginal objective at its final isometry;
restarts are ranked by that value, and only a restart that beats every
earlier candidate is turned into a witness.  Everything is deterministic
per seed: per-restart generators are derived from the master seed by
counter, and the reduction over restarts is a deterministic min, so
results do not depend on the worker count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .entropy import entropies_from_eigs, entropy, nonmarkovianity, party_partition
from .errors import BadRange, BudgetExceeded, DimensionTooSmall
from .rand import as_rng, map_indexed, random_isometry
from .registers import Register, RegisterLayout
from .states import DensityState, dim_budget, member_spectra, purify, steered_members, tensor
from .witness import (
    Witness,
    baseline_witnesses,
    check_witness,
    objective,
    witness_from_isometry,
)


@dataclass(frozen=True)
class EstimateConfig:
    """Knobs for the bracket search.

    ``k`` defaults to the target state's rank; extension dims default to
    (1, 1, 1) with one escalation round to (2, 2, 2) under the dimension
    budget when the bracket gap stays above ``tol``.
    """

    k: int | None = None
    ext: tuple[int, int, int] = (1, 1, 1)
    restarts: int = 16
    max_iters: int = 600
    seed: int = 0
    tol: float = 1e-3
    escalate: bool = True
    jobs: int = 1

    def __post_init__(self):
        if len(self.ext) != 3 or not all(
            isinstance(x, numbers.Integral) and x >= 1 for x in self.ext
        ):
            raise BadRange(f"ext must be three positive integers, got {self.ext!r}")
        _check_search_config(self, {"restarts": 0, "max_iters": 0, "jobs": 1})

    def to_dict(self) -> dict:
        return asdict(self)


def _check_search_config(config, minima: dict) -> None:
    """Raise BadRange unless every integer field named in ``minima`` is at
    least its minimum, ``seed`` is nonnegative, ``k`` is None or positive,
    and ``tol`` is finite and nonnegative."""
    minima = {"seed": 0, **minima}
    if config.k is not None:
        minima = {"k": 1, **minima}
    for name, low in minima.items():
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or value < low:
            raise BadRange(f"{name} must be an integer >= {low}, got {value!r}")
    if not (math.isfinite(config.tol) and config.tol >= 0):
        raise BadRange(f"tol must be finite and >= 0, got {config.tol!r}")


@dataclass(frozen=True)
class RestartRecord:
    restart_id: int
    round_id: int
    objective: float
    iterations: int
    accepted: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NmfEstimate:
    """Bracket [lower_bits, upper_bits] with the best witness found."""

    lower_bits: float
    upper_bits: float
    best: Witness
    trace: tuple[RestartRecord, ...]
    config: dict
    notes: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return self.upper_bits - self.lower_bits

    @property
    def certified(self) -> bool:
        return self.gap <= self.config.get("tol", 0.0) + 1e-9


def _expm_unitary(sigma: float, h: np.ndarray) -> np.ndarray:
    """exp(i sigma H / ||H||) for Hermitian H, via its eigenbasis."""
    vals, vecs = np.linalg.eigh(h)
    scale = max(float(np.max(np.abs(vals))), 1e-30)
    phases = np.exp(1j * sigma * vals / scale)
    return (vecs * phases) @ vecs.conj().T


def _fast_objective(rho: DensityState, psi_arr: np.ndarray, ext_dims, k: int):
    """Member-marginal form of the witness objective, as a function of the
    steering isometry.  Mathematically identical to the realized-state form
    (their agreement is itself a tested identity)."""
    a, b, e = party_partition(rho)
    lay = rho.layout
    n_abe = len(lay.dims)
    full_dims = lay.dims + tuple(ext_dims)
    a_axes = sorted(lay.index(lbl) for lbl in a)
    b_axes = sorted(lay.index(lbl) for lbl in b)
    groups = (a_axes + [n_abe], b_axes + [n_abe + 1], [n_abe, n_abe + 1])
    s_ab_e = entropy(rho, a + b + e) - (entropy(rho, e) if e else 0.0)

    def f(w_matrix: np.ndarray) -> float:
        weights, members = steered_members(psi_arr, w_matrix, full_dims, k)
        s_aa, s_bb, s_pp = map(entropies_from_eigs, member_spectra(members, full_dims, groups))
        return 0.5 * (s_ab_e + float(weights @ (s_aa + s_bb - s_pp)))

    return f


def _optimize_restart(fast_f, rank, out_dim, rng, max_iters, stop_at):
    """Accept-if-better random walk on the isometry manifold."""
    w = random_isometry(rank, out_dim, rng)
    obj = fast_f(w)
    sigma = 0.3
    accepted = 0
    iters = 0
    while iters < max_iters:
        iters += 1
        g = rng.standard_normal((out_dim, out_dim)) + 1j * rng.standard_normal(
            (out_dim, out_dim)
        )
        h = 0.5 * (g + g.conj().T)
        candidate = _expm_unitary(sigma, h) @ w
        val = fast_f(candidate)
        if val < obj - 1e-15:
            w, obj = candidate, val
            accepted += 1
            sigma = min(sigma * 1.3, 1.0)
        else:
            sigma *= 0.8
        if obj <= stop_at or sigma < 1e-8:
            break
    return w, obj, iters, accepted


def _run_restarts(fast_f, rank, out_dim, config, stop_at, round_id, seed_key):
    """Run ``config.restarts`` restarts of the isometry search, restart
    ``rid`` on the generator ``as_rng([*seed_key, rid])``.  Returns their
    records and final isometries, both in restart order."""

    def one(rid):
        rng = as_rng([*seed_key, rid])
        return _optimize_restart(fast_f, rank, out_dim, rng, config.max_iters, stop_at)

    results = map_indexed(one, config.restarts, config.jobs)
    records = [
        RestartRecord(rid, round_id, obj, iters, accepted)
        for rid, (_, obj, iters, accepted) in enumerate(results)
    ]
    return records, [w for w, *_ in results]


BEAT_MARGIN = 1e-12


def _search_notes(trace, baseline: float) -> dict:
    """Evaluations spent (each restart's iterations plus its start) and how
    many restarts ended below ``baseline`` by more than ``BEAT_MARGIN``."""
    return {
        "evals": sum(r.iterations + 1 for r in trace),
        "restarts_beating_baseline": sum(r.objective < baseline - BEAT_MARGIN for r in trace),
    }


def estimate(rho: DensityState, config: EstimateConfig | None = None, seeds=()) -> NmfEstimate:
    """Bracket the formation measure of a party-tagged tripartite state.

    ``seeds`` may carry known witnesses (for example the exact construction
    for a block-built Markov state); they join the candidate pool alongside
    the baselines and the optimized restarts.  ``notes["best_source"]``
    names the winner: ``baseline:B'``, ``baseline:A'``, ``seed:<i>`` or
    ``restart:<rid>/<round>``; ``notes["evals"]`` counts objective
    evaluations and ``notes["restarts_beating_baseline"]`` the restarts that
    ended below the better purification baseline.
    """
    config = config or EstimateConfig()
    lower = nonmarkovianity(rho)
    candidates = []
    for w in baseline_witnesses(rho):
        ref = (w.groups.b_prime + w.groups.a_prime)[0]
        candidates.append((objective(w), f"baseline:{ref}", w))
    baseline = min(c[0] for c in candidates)
    for i, w in enumerate(seeds):
        check_witness(w, rho, tol=1e-7)
        candidates.append((objective(w), f"seed:{i}", w))
    best_obj, best_source, best_w = min(candidates, key=lambda c: c[0])
    trace: list[RestartRecord] = []
    notes = {
        "single_copy": True,
        "rounds": [],
        "asymptotic": "the regularized measure (and the generation cost per copy "
        "it equals) is not computed; this is a single-copy bracket",
    }

    psi = purify(rho, "__ref__")
    rank = psi.layout.register("__ref__").dim
    psi_arr = psi.amplitudes.reshape(rho.dim, rank)

    schedule = [tuple(int(x) for x in config.ext)]
    if config.escalate and schedule[0] == (1, 1, 1):
        schedule.append((2, 2, 2))

    for round_id, ext_dims in enumerate(schedule):
        if best_obj - lower <= config.tol:
            break
        ap, bp, ep = ext_dims
        k = int(config.k) if config.k else rank
        capacity = ap * bp * ep * k
        realized_dim = rho.dim * capacity
        if capacity < rank or realized_dim > dim_budget():
            problem = (
                f"extension capacity {capacity} below rank {rank}"
                if capacity < rank
                else f"realized dimension {realized_dim} over budget {dim_budget()}"
            )
            if round_id == 0:
                if capacity < rank:
                    raise DimensionTooSmall(problem)
                raise BudgetExceeded(problem)
            notes["rounds"].append({"round": round_id, "ext": ext_dims, "skipped": problem})
            continue
        fast_f = _fast_objective(rho, psi_arr, ext_dims, k)
        stop_at = lower + 0.5 * config.tol
        records, isometries = _run_restarts(
            fast_f, rank, capacity, config, stop_at, round_id, [config.seed, round_id]
        )
        trace.extend(records)
        top = min(records, key=lambda r: r.objective, default=None)
        if top is not None and top.objective < best_obj:
            w_mat = isometries[top.restart_id]
            best_w = witness_from_isometry(rho, w_mat, ext_dims, k, validate=False)
            best_obj, best_source = objective(best_w), f"restart:{top.restart_id}/{round_id}"
        notes["rounds"].append({"round": round_id, "ext": ext_dims, "best": best_obj})

    upper = float(best_obj)
    notes["uncertified"] = bool(upper - lower > config.tol)
    notes["best_source"] = best_source
    notes.update(_search_notes(trace, baseline))
    return NmfEstimate(
        lower_bits=float(lower),
        upper_bits=upper,
        best=best_w,
        trace=tuple(trace),
        config=config.to_dict(),
        notes=notes,
    )


def relabeled(rho: DensityState, suffix: str) -> DensityState:
    lay = RegisterLayout(
        tuple(Register(f"{r.label}{suffix}", r.dim, r.party) for r in rho.layout.registers)
    )
    return rho.with_layout(lay)


def two_copy_bracket(rho: DensityState, config: EstimateConfig | None = None) -> dict:
    """n = 2 tensor-power bracket, for tiny states only.

    The regularized measure itself is not computable here; this reports the
    per-copy bracket of the two-copy state next to the single-copy one.
    """
    config = config or EstimateConfig()
    pair = tensor(relabeled(rho, "1"), relabeled(rho, "2"))
    single = estimate(rho, config)
    # The rank squares under tensoring; scale the flag dimension with it.
    double = estimate(pair, replace(config, k=config.k**2 if config.k else None))
    return {
        "single": [single.lower_bits, single.upper_bits],
        "two_copy_per_copy": [double.lower_bits / 2.0, double.upper_bits / 2.0],
        "note": "per-copy bracket of the two-copy state; regularized value not computed",
    }
