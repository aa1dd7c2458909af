"""Bracketed estimation of the non-Markovianity of formation.

The lower bound is the half-CQMI measure; the upper bound is the smallest
witness objective found.  The two purification baselines are always
included, so the upper bound is guaranteed to stay below min(S(A), S(B));
optimized witnesses come from a Riemannian quasi-Newton descent over the
isometry steering the purifying reference, on the Stiefel manifold
(projected gradient, polar retraction, a limited-memory BFGS direction
over the last ``MEMORY`` = 5 curvature pairs with the standard initial
scaling <s,y>/<y,y> of the newest pair, tried at its full length, and
accepted against a nonmonotone Armijo reference).  Every evaluation,
line-search trials included, is one call of the kernel
``states.member_value_and_grad``, which gives the value and its analytic
gradient together.  Estimates are bracket pairs, never point claims.

Both estimators share one front end: the knobs of ``SearchConfig`` and
the round loop ``_run_rounds``.  An estimator states only its schedule,
one ``_Round`` per steering objective.  The loop admits each round
(``_admission``) when it reaches it, runs the schedule until the bracket
gap is within ``tol`` (``_within_tol``, also the one test behind
``certified``) and records the rounds in ``notes["rounds"]``.  Each
restart reports the member-marginal objective at its best isometry;
restarts are ranked by that value, and only a restart that beats every
earlier candidate is turned into a witness.  Everything is deterministic
per seed: each restart starts from an isometry drawn from a generator
derived from the master seed by counter, restarts run in order in the
calling thread, and the reduction over restarts is a deterministic min.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .entropy import entropy, nonmarkovianity
from .errors import BadRange, BudgetExceeded, DimensionTooSmall
from .rand import as_rng, random_isometry
from .registers import Register, RegisterLayout, require_integer, require_real
from .states import DensityState, _purified, _require_budget, member_value_and_grad
from .witness import (
    Witness,
    _member_terms,
    _party_groups,
    _require_capacity,
    _steered_layout,
    baseline_witnesses,
    check_witness,
    objective,
    witness_from_isometry,
    witness_relabeled,
    witness_tensor,
)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the restart search both estimators run.

    ``k`` is the flag dimension (default: the target state's rank).
    ``restarts`` gradient descents run from random isometries, each of at
    most ``max_iters`` gradient steps; a restart stops early once it is
    within ``tol / 2`` of the lower bound.  Each integer field named in
    ``MINIMA`` (and ``k`` unless None) must be an integer, not a bool, of at
    least its minimum, and ``tol`` a finite real >= 0.  ``jobs`` is accepted
    and refused below 1, but has no effect: restarts run in order, in the
    calling thread.
    """

    MINIMA = {"seed": 0, "restarts": 0, "max_iters": 0, "jobs": 1}

    k: int | None = None
    restarts: int = 4
    max_iters: int = 600
    seed: int = 0
    tol: float = 1e-3
    jobs: int = field(default=1, metadata={"help": "has no effect: restarts run in order"})

    def __post_init__(self):
        minima = self.MINIMA if self.k is None else {"k": 1, **self.MINIMA}
        for name, low in minima.items():
            value = require_integer(name, getattr(self, name), low, BadRange)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "tol", require_real("tol", self.tol, 0, BadRange))


@dataclass(frozen=True)
class EstimateConfig(SearchConfig):
    """Knobs for the bracket search.

    ``ext`` gives the extension dims (a', b', e') of the one round to run.
    By default (None) a round at (1, 1, 1) runs first and, when the bracket
    gap stays above ``tol``, a round at (2, 2, 2) under the dimension
    budget.
    """

    ext: tuple[int, int, int] | None = field(
        default=None,
        metadata={"help": "extension dims a',b',e' of the one round to run (default: 1,1,1 then 2,2,2)"},
    )

    def __post_init__(self):
        super().__post_init__()
        if self.ext is None:
            return
        if not isinstance(self.ext, (tuple, list)) or len(self.ext) != 3:
            raise BadRange(f"ext must be three integers, got {self.ext!r}")
        ext = tuple(require_integer("ext", x, 1, BadRange) for x in self.ext)
        object.__setattr__(self, "ext", ext)


@dataclass(frozen=True)
class RestartRecord:
    """One descent: its best objective, the gradient steps it tried
    (``iterations``) and took (``accepted``), its evaluations, each one
    ``member_value_and_grad`` call, line-search trials included
    (``evals``), and the Riemannian gradient norm at its best iterate
    (``grad_norm``)."""

    restart_id: int
    round_id: int
    objective: float
    iterations: int
    accepted: int
    evals: int
    grad_norm: float


class Bracket:
    """The gap of an estimate's [lower_bits, upper_bits], and whether it is
    within the config's ``tol`` by ``_within_tol``."""

    @property
    def gap(self) -> float:
        return self.upper_bits - self.lower_bits

    @property
    def certified(self) -> bool:
        return _within_tol(self.gap, self.config["tol"])


@dataclass(frozen=True)
class NmfEstimate(Bracket):
    """Bracket [lower_bits, upper_bits] with the best witness found."""

    lower_bits: float
    upper_bits: float
    best: Witness
    trace: tuple[RestartRecord, ...]
    config: dict
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class _MemberObjective:
    """The objective 0.5 * (const + F(W)) of a steering isometry W, with F
    the signed member-entropy sum of ``states.member_value_and_grad`` over
    ``signed_groups``.  Its one evaluation gives the value and the gradient
    together, from one batched ``eigh`` per group."""

    psi_arr: np.ndarray
    dims: tuple[int, ...]
    k: int
    signed_groups: tuple
    const: float = 0.0

    def value_and_grad(self, w_matrix: np.ndarray):
        """The value and dObjective/d conj(W)."""
        value, grad = member_value_and_grad(
            self.psi_arr, w_matrix, self.dims, self.k, self.signed_groups
        )
        return 0.5 * (self.const + value), 0.5 * grad


def _state_term(rho: DensityState) -> float:
    """S(AB|E) = S(ABE) - S(E) of ``rho`` over its party groups: the part of
    the witness objective that no steering isometry changes."""
    a, b, e = _party_groups(rho)
    return entropy(rho, a + b + e) - (entropy(rho, e) if e else 0.0)


def _fast_objective(
    rho: DensityState, psi_arr: np.ndarray, ext_dims, k: int, state_term: float
):
    """The witness objective as a function of the steering isometry, on the
    layout and with the signed ``MEMBER_TERMS`` axes that
    ``witness_from_isometry`` uses, so a restart's value is the objective of
    the witness built from its isometry:
    1/2 [S(AB|E) + sum_i p_i (S(AA') + S(BB') - S(A'B'))], with
    ``state_term`` the S(AB|E) of ``_state_term(rho)``."""
    lay, g = _steered_layout(rho, ext_dims)
    return _MemberObjective(psi_arr, lay.dims, k, _member_terms(lay, g), state_term)


ARMIJO = 1e-4
NONMONOTONE = 0.85
FIRST_STEP = 1e-2
BB_CLIP = (1e-10, 1e10)
MIN_STEP = 1e-12
GRAD_TOL = 1e-9
MEMORY = 5


def _polar(m: np.ndarray) -> np.ndarray:
    """The isometry nearest to ``m``: its polar factor, from an SVD."""
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh


def _riemannian(w: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient projected onto the tangent space at ``w``:
    R = G - W herm(W^dagger G)."""
    wg = w.conj().T @ grad
    return grad - w @ (0.5 * (wg + wg.conj().T))


def _flat(m: np.ndarray) -> np.ndarray:
    """The real vector of a complex matrix's entries: its real dot product
    is the real part of ``np.vdot`` of the matrices."""
    return np.ascontiguousarray(m).reshape(-1).view(np.float64)


def _direction(w: np.ndarray, rgrad: np.ndarray, step: float, pairs) -> np.ndarray:
    """The first trial step of a descent at ``w``: d = -H rgrad, with H the
    two-loop L-BFGS operator (Nocedal & Wright, Alg. 7.4) over ``pairs``,
    oldest first, and H0 = gamma I with gamma = <s,y>/<y,y> of the newest
    pair (their eq. 7.20).  A pair is the flat change s of the isometry,
    the flat change y of the Riemannian gradient and 1/<s,y>; pairs are
    neither transported nor re-projected, but d is projected onto the
    tangent space at ``w``.  If d is then no descent direction, ``pairs``
    is cleared and the Barzilai-Borwein gradient step -step * rgrad is
    returned (exactly that, too, when there are no pairs)."""
    if pairs:
        q = _flat(rgrad).copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alpha = rho * (s @ q)
            q -= alpha * y
            alphas.append(alpha)
        _, y, rho = pairs[-1]
        q /= rho * (y @ y)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * (y @ q)) * s
        d = _riemannian(w, -q.view(np.complex128).reshape(w.shape))
        if float(np.vdot(d, rgrad).real) < 0:
            return d
        pairs.clear()
    return -step * rgrad


def _descend(fast_f: _MemberObjective, w, max_iters: int, stop_at: float):
    """Riemannian quasi-Newton descent from the isometry ``w`` on the
    Stiefel manifold: the projected gradient, a polar retraction, and a
    first trial step along the limited-memory BFGS direction of
    ``_direction`` over the last ``MEMORY`` pairs (s, y) with <s,y> > 0,
    for s the change of the isometry and y of the Riemannian gradient
    (Huang, Gallivan & Absil, SIAM J. Optim. 25, 2015), scaled by
    <s,y>/<y,y> of the newest pair and tried at its full length.  The
    Barzilai-Borwein step ``step``, alternately <s,s>/|<s,y>| and
    |<s,y>|/<y,y> for the last step, clipped to ``BB_CLIP`` (``FIRST_STEP``
    on the first step), is the gradient step taken when there is no pair or
    the quasi-Newton direction does not descend, and scales the line
    search's floor t * step >= ``MIN_STEP``.  The trial is halved until the
    value falls below the Zhang-Hager nonmonotone reference C, a running
    average of the values weighted by ``NONMONOTONE`` (Wen & Yin, Math.
    Program. 142, 2013).  Every line-search trial is one ``value_and_grad``
    evaluation, and an accepted trial's gradient is the next step's.  Stops
    after ``max_iters`` steps, at ``stop_at``, at a gradient norm below
    ``GRAD_TOL``, or when the line search halves t * step below
    ``MIN_STEP`` without a pass.  A nonmonotone run can end above its best
    iterate, so it returns the best iterate, its value, the steps tried and
    taken, the evaluations and the best iterate's Riemannian gradient
    norm."""
    value, grad = fast_f.value_and_grad(w)
    rgrad = _riemannian(w, grad)
    slope = float(np.vdot(rgrad, rgrad).real)
    best = (w, value, slope)
    ref, weight = value, 1.0
    evals, iters, accepted, step = 1, 0, 0, FIRST_STEP
    pairs = deque(maxlen=MEMORY)
    while iters < max_iters and value > stop_at and slope > GRAD_TOL**2:
        iters += 1
        d = _direction(w, rgrad, step, pairs)
        decrease = ARMIJO * float(np.vdot(d, rgrad).real)
        t = 1.0
        while t * step >= MIN_STEP:
            trial = _polar(w + t * d)
            trial_value, trial_grad = fast_f.value_and_grad(trial)
            evals += 1
            if trial_value <= ref + t * decrease:
                break
            t *= 0.5
        else:
            break
        accepted += 1
        trial_rgrad = _riemannian(trial, trial_grad)
        s, y = _flat(trial - w), _flat(trial_rgrad - rgrad)
        sy = float(s @ y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        sy = abs(sy)
        if sy > 0:
            bb = float(s @ s) / sy if accepted % 2 else sy / float(y @ y)
        else:
            bb = BB_CLIP[1]
        step = min(max(bb, BB_CLIP[0]), BB_CLIP[1])
        w, value, rgrad = trial, trial_value, trial_rgrad
        slope = float(np.vdot(rgrad, rgrad).real)
        next_weight = NONMONOTONE * weight + 1.0
        ref = (NONMONOTONE * weight * ref + value) / next_weight
        weight = next_weight
        if value < best[1]:
            best = (w, value, slope)
    w, value, slope = best
    return w, value, iters, accepted, evals, math.sqrt(slope)


BEAT_MARGIN = 1e-12


def _beats(value: float, best: float) -> bool:
    """Whether a restart's ``value`` improves on ``best`` by more than
    rounding: only such a restart takes the lead or counts as beating a
    baseline."""
    return value < best - BEAT_MARGIN


@dataclass(frozen=True)
class _Round:
    """One round of the restart search: ``objective``, the steering
    objective its restarts descend, and ``restarts`` descents, restart
    ``rid`` from a random isometry drawn from ``as_rng([*seed_key, rid])``.
    ``params`` set it apart from the other rounds (its ``ext`` or its
    ``k``) and are what ``notes["rounds"]`` records of it."""

    params: dict
    objective: _MemberObjective
    seed_key: tuple
    restarts: int


def _admission(objective: _MemberObjective) -> tuple[int, int]:
    """The rank and capacity (steering-isometry output dimension) of a round
    descending ``objective``, read off its (system, reference) matrix and
    member dims.  A capacity below the rank is refused by
    ``_require_capacity``, and a realized dimension system_dim * capacity
    over the budget is refused."""
    system_dim, rank = objective.psi_arr.shape
    capacity = math.prod(objective.dims) // system_dim * objective.k
    _require_capacity(capacity, rank)
    _require_budget(system_dim * capacity, "realized dimension")
    return rank, capacity


#: Rounding a bracket gap may show above ``tol`` and still be certified.
CERTIFY_SLACK = 1e-9


def _within_tol(gap: float, tol: float) -> bool:
    """Whether a bracket ``gap`` is within ``tol``, up to ``CERTIFY_SLACK``
    of rounding: the one test of certification, and the one that ends the
    round loop."""
    return gap <= tol + CERTIFY_SLACK


def _run_rounds(rounds, config: SearchConfig, lower, start, baseline, build):
    """The round loop both estimators run, and the one place that admits a
    round and certifies a bracket.  Rounds run in order until the gap
    between the best candidate and ``lower`` is ``_within_tol`` (none runs
    if ``start`` is already that close).  A round is admitted by
    ``_admission`` when the loop reaches it: a refused round raises as
    round 0 and is recorded as skipped later.  An admitted round runs its
    restarts as ``_Round`` says, each a descent of its objective stopping
    at ``lower + tol / 2``, and ranks them by the value each reports.
    ``start`` is the (value, source, candidate) to beat; only a restart
    that beats it takes the lead, and ``build(params, w)`` turns its best
    isometry ``w`` into the (value, candidate) that replaces it.

    Returns the best value and candidate, the restart records and the
    search notes: ``rounds`` (one entry per round reached: its params and
    its ``best`` value or what ``skipped`` it), ``uncertified`` (the gap
    is not within tol), ``best_source`` (the start's source or
    ``restart:<rid>/<round>``), ``evals`` (each one ``member_value_and_grad``
    call, line-search trials included), ``restarts_beating_baseline`` (the
    restarts that ended below ``baseline``) and ``grad_norm`` (the winning
    restart's final Riemannian gradient norm, None when no restart won)."""
    value, source, candidate = start
    stop_at = lower + 0.5 * config.tol
    trace: list[RestartRecord] = []
    winner, round_notes = None, []
    for round_id, rnd in enumerate(rounds):
        if _within_tol(value - lower, config.tol):
            break
        try:
            rank, capacity = _admission(rnd.objective)
        except (DimensionTooSmall, BudgetExceeded) as err:
            if round_id == 0:
                raise
            round_notes.append({"round": round_id, **rnd.params, "skipped": str(err)})
            continue

        def one(rid):
            start_w = random_isometry(rank, capacity, as_rng([*rnd.seed_key, rid]))
            return _descend(rnd.objective, start_w, config.max_iters, stop_at)

        results = [one(rid) for rid in range(rnd.restarts)]
        records = [
            RestartRecord(rid, round_id, obj, iters, accepted, evals, grad_norm)
            for rid, (_, obj, iters, accepted, evals, grad_norm) in enumerate(results)
        ]
        trace.extend(records)
        top = min(records, key=lambda r: r.objective, default=None)
        if top is not None and _beats(top.objective, value):
            winner = top
            value, candidate = build(rnd.params, results[top.restart_id][0])
            source = f"restart:{top.restart_id}/{round_id}"
        round_notes.append({"round": round_id, **rnd.params, "best": value})
    notes = {
        "rounds": round_notes,
        "uncertified": not _within_tol(float(value) - lower, config.tol),
        "best_source": source,
        "evals": sum(r.evals for r in trace),
        "restarts_beating_baseline": sum(_beats(r.objective, baseline) for r in trace),
        "grad_norm": None if winner is None else winner.grad_norm,
    }
    return value, candidate, trace, notes


#: Trace distance within which a seed witness's target must equal the state.
SEED_TOL = 1e-7


def estimate(rho: DensityState, config: EstimateConfig | None = None, seeds=()) -> NmfEstimate:
    """Bracket the formation measure of a party-tagged tripartite state.

    ``seeds`` may carry known witnesses (for example the exact construction
    for a block-built Markov state), each checked to reduce to ``rho``
    within ``SEED_TOL``; they join the candidate pool alongside
    the baselines and the optimized restarts.  ``notes["best_source"]``
    names the winner: ``baseline:B'``, ``baseline:A'``, ``seed:<i>`` or
    ``restart:<rid>/<round>``; ``notes["evals"]`` counts evaluations, each
    one ``member_value_and_grad`` call (line-search trials included),
    ``notes["restarts_beating_baseline"]`` the restarts that ended below the
    better purification baseline, and ``notes["grad_norm"]`` is the winning
    restart's final Riemannian gradient norm (None when no restart won).
    """
    config = config or EstimateConfig()
    # SSA makes the half-CQMI nonnegative; a rounding below zero is no bound.
    lower = max(0.0, nonmarkovianity(rho))
    candidates = []
    for w in baseline_witnesses(rho):
        ref = (w.groups.b_prime + w.groups.a_prime)[0]
        candidates.append((objective(w), f"baseline:{ref}", w))
    baseline = min(c[0] for c in candidates)
    for i, w in enumerate(seeds):
        check_witness(w, rho, tol=SEED_TOL)
        candidates.append((objective(w), f"seed:{i}", w))
    psi_arr, rank = _purified(rho)
    k = config.k or rank
    state_term = _state_term(rho)
    if config.ext is None:
        schedule = [(1, 1, 1), (2, 2, 2)]
    else:
        schedule = [config.ext]
    rounds = [
        _Round(
            {"ext": ext},
            _fast_objective(rho, psi_arr, ext, k, state_term),
            (config.seed, round_id),
            config.restarts,
        )
        for round_id, ext in enumerate(schedule)
    ]

    def build(params, w_mat):
        w = witness_from_isometry(rho, w_mat, params["ext"], k)
        return objective(w), w

    upper, best_w, trace, search_notes = _run_rounds(
        rounds, config, lower, min(candidates, key=lambda c: c[0]), baseline, build
    )
    notes = {
        "single_copy": True,
        "asymptotic": "the regularized measure (and the generation cost per copy "
        "it equals) is not computed; this is a single-copy bracket",
        **search_notes,
    }
    return NmfEstimate(
        lower_bits=float(lower),
        upper_bits=float(upper),
        best=best_w,
        trace=tuple(trace),
        config=asdict(config),
        notes=notes,
    )


def two_copy_bracket(rho: DensityState, config: EstimateConfig | None = None) -> dict:
    """n = 2 tensor-power bracket, for tiny states only.

    The regularized measure itself is not computable here; this reports the
    per-copy bracket of the two-copy state next to the single-copy one.  The
    two-copy search is seeded with two copies of the single-copy winner, so
    its per-copy upper bound is at most the single-copy one.
    """
    config = config or EstimateConfig()
    pair_layout = RegisterLayout(
        tuple(Register(f"{r.label}{n}", r.dim, r.party) for n in "12" for r in rho.layout.registers)
    )
    _require_budget(pair_layout.dim)
    pair = DensityState(pair_layout, np.kron(rho.matrix, rho.matrix))
    single = estimate(rho, config)
    seed = witness_tensor(witness_relabeled(single.best, "1"), witness_relabeled(single.best, "2"))
    # The rank squares under tensoring; scale the flag dimension with it.
    double = estimate(pair, replace(config, k=config.k**2 if config.k else None), seeds=[seed])
    return {
        "single": [single.lower_bits, single.upper_bits],
        "two_copy_per_copy": [double.lower_bits / 2.0, double.upper_bits / 2.0],
        "note": "per-copy bracket of the two-copy state; regularized value not computed",
    }
