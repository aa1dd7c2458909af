"""Ensemble-based (classically squashed) entanglement of bipartite states.

The measure is half the ensemble-averaged mutual information, minimized
over decompositions of the state; its operational meaning is the
communication cost the paper derives from it, so it is estimated as a
bracket.  The upper bound is the best decomposition found; the singleton
ensemble is always included, so it never exceeds half the state's own
mutual information.  The lower bound is the hashing bound
L = max(0, S(A) - S(AB), S(B) - S(AB)), the coherent information of
either direction: distillable entanglement is at least it (Devetak &
Winter, Proc. R. Soc. A 461, 2005), squashed entanglement is at least
distillable entanglement (Christandl & Winter, J. Math. Phys. 45, 2004),
and the c-squashed entanglement, an infimum over a subset of the
extensions, is at least the squashed one.  L is 0 on every state whose
coherent information is negative, and reaches the value on pure states,
where no search runs.

Decompositions are parametrized by steering the purifying reference
through an isometry into (purifier extension E') x (flag of k values),
and searched by the formation estimator's round loop, which admits each
round and certifies the bracket: gradient descents on the isometry from
random starts, each stopping within ``tol / 2`` of L.  This module states
only the schedule, one round per flag dimension, and the flag dimension
climbs a ladder while the gap stays above ``tol``:
``restarts`` descents at k = rank, then one at k = 2 rank.  Near
separability a decomposition needs more members than the rank (a
separable one may need up to (d_A d_B)^2, P. Horodecki, Phys. Lett. A
232, 1997), while away from it the extra members add flat directions that
keep restarts stepping, so the larger flag is tried only when the first
round leaves the gap open.  Restarts are ranked by their own ensemble
objective, and only a restart that beats the best candidate so far is
turned into an ensemble, kept as its pure members and reduced to AB
states on access.

``extension_crosscheck`` compares this estimate against the smallest
formation bracket over a configured family of tripartite extensions
(product, purification, classical flag from the best found ensemble: the
constructions used in the equivalence proof).  Both are upper bounds of the
same value, so only the gap is reported, never a pass/fail.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .entropy import entropy, mutual_info, party_partition
from .errors import BadEnsemble, BadRange
from .nmf import (
    Bracket,
    EstimateConfig,
    RestartRecord,
    SearchConfig,
    _MemberObjective,
    _Round,
    _run_rounds,
    estimate,
)
from .registers import Party, Register, RegisterLayout, require_distribution, require_real
from .states import (
    PRUNE_TOL,
    DensityState,
    _freeze,
    _pure_reduced_matrix,
    _purified,
    partial_trace,
    purify,
    steered_members,
    tensor,
    trace_distance,
)
from .witness import REDUCTION_TOL, STEERED_TOL, witness_from_ab_ensemble


@dataclass(frozen=True)
class EsqcConfig(SearchConfig):
    """Knobs for the ensemble search.

    Members are steered into a purifier extension E' of dimension
    ``e_prime`` times a flag of ``k`` values (default: the ladder k = rank,
    then k = 2 rank); with ``e_prime`` 1 every member is a pure AB state.
    A restart stops early within ``tol / 2`` of the lower bound.
    """

    MINIMA = {**SearchConfig.MINIMA, "e_prime": 1}

    tol: float = 1e-4
    e_prime: int = 2


class PureMemberEnsemble(Sequence):
    """The AB states of a read-only stack of normalized pure members on
    AB (x) E' (one row each), each reduced to AB when it is read.  It holds
    k x d_AB e' amplitudes instead of k dense d_AB x d_AB matrices."""

    def __init__(self, layout: RegisterLayout, members: np.ndarray):
        self.layout = layout
        self.members = _freeze(members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> DensityState:
        dims = self.layout.dims + (self.members.shape[1] // self.layout.dim,)
        reduced = _pure_reduced_matrix(self.members[i], dims, range(len(self.layout)))
        return DensityState(self.layout, reduced)


@dataclass(frozen=True)
class EsqcEstimate(Bracket):
    """Bracket [lower_bits, upper_bits] with the ensemble realizing the
    upper bound.

    ``ensemble`` keeps the winner's pure members and reduces them to AB
    states on access.
    """

    lower_bits: float
    upper_bits: float
    weights: tuple[float, ...]
    ensemble: PureMemberEnsemble
    trace: tuple[RestartRecord, ...]
    config: dict
    notes: dict = field(default_factory=dict)


def esqc_objective(weights, states) -> float:
    """Half the weighted average of I(A:B) over the ensemble."""
    weights = tuple(weights)
    states = tuple(states)
    if not states or len(weights) != len(states):
        raise BadEnsemble("weights and states must pair up nonempty")
    weights = require_distribution("weights", weights, BadEnsemble)
    lay = states[0].layout
    a, b, _ = party_partition(states[0])
    if not a or not b:
        raise BadEnsemble("ensemble states need alice- and bob-tagged registers")
    total = 0.0
    for p, s in zip(weights, states):
        if s.layout != lay:
            raise BadEnsemble("ensemble states must share one layout")
        if p <= PRUNE_TOL:
            continue
        total += p * mutual_info(s, a, b)
    return 0.5 * total


def check_ensemble(weights, states, omega: DensityState, tol: float = REDUCTION_TOL) -> float:
    """Trace distance between the ensemble average and ``omega`` (must be <= tol)."""
    tol = require_real("tol", tol, 0, BadRange)
    weights = require_distribution("weights", weights, BadEnsemble)
    if len(weights) != len(states):
        raise BadEnsemble("weights and states must pair up")
    avg = sum(p * s.matrix for p, s in zip(weights, states))
    dist = trace_distance(DensityState(states[0].layout, avg), omega)
    if not dist <= tol:
        raise BadEnsemble(f"ensemble average deviates from the state by {dist:.3e}")
    return dist


def _fast_esqc_objective(omega: DensityState, psi_arr, e_prime: int, k: int):
    """The ensemble objective 1/2 sum_i p_i (S(A) + S(B) - S(E')) of a
    steering isometry, for ``omega`` on Alice's and Bob's registers only:
    a member is pure on AB E', so S(AB) = S(E'), the smaller side."""
    lay = omega.layout
    a, b, _ = party_partition(omega)
    signed_groups = ((lay.positions(a), 1.0), (lay.positions(b), 1.0), ([len(lay)], -1.0))
    return _MemberObjective(psi_arr, lay.dims + (e_prime,), k, signed_groups)


def _members_from_matrix(omega, psi_arr, w_matrix, e_prime, k):
    """Weights and ensemble of the decomposition ``w_matrix`` steers out."""
    weights, members = steered_members(psi_arr, w_matrix, omega.layout.dims + (e_prime,), k)
    return tuple((weights / weights.sum()).tolist()), PureMemberEnsemble(omega.layout, members)


def _hashing_bound(omega: DensityState) -> float:
    """The lower bound max(0, S(A) - S(AB), S(B) - S(AB)) of the c-squashed
    entanglement of ``omega``, a state on Alice's and Bob's registers only."""
    a, b, _ = party_partition(omega)
    s_ab = entropy(omega)
    return max(0.0, entropy(omega, a) - s_ab, entropy(omega, b) - s_ab)


def _ab_marginal(omega: DensityState) -> DensityState:
    """``omega`` on Alice's and Bob's registers, Eve's traced out: the state
    both ensemble routines measure.  Refused unless both have a register."""
    a, b, _ = party_partition(omega)
    if not a or not b:
        raise BadEnsemble("the state needs alice- and bob-tagged registers")
    return omega if len(a) + len(b) == len(omega.layout) else partial_trace(omega, a + b)


def estimate_esqc(omega: DensityState, config: EsqcConfig | None = None) -> EsqcEstimate:
    """Bracket the ensemble measure: ``_hashing_bound`` below, and above the
    smallest ensemble objective over reference-steering isometries.

    The singleton decomposition is always a candidate, so the upper bound
    never exceeds half of I(A:B); when it is within ``tol`` of the lower
    bound, no search runs.  By default a round at k = rank runs
    ``restarts`` descents and, while the gap stays above ``tol``, a round
    at k = 2 rank runs one; an explicit ``k`` runs that round only.  A
    round whose realized dimension d_AB e' k exceeds the budget is refused:
    round 0 raises ``BudgetExceeded``, a later round is recorded as
    ``skipped`` in ``notes["rounds"]``.  The notes are ``nmf.estimate``'s:
    ``best_source`` (``singleton`` or ``restart:<rid>/<round>``),
    ``rounds``, ``uncertified``, ``evals``, ``restarts_beating_baseline``
    (restarts that ended below the singleton) and ``grad_norm``.
    """
    config = config or EsqcConfig()
    omega = _ab_marginal(omega)
    psi_arr, rank = _purified(omega)
    # The singleton, as the one member its purification is.
    singleton_ens = ((1.0,), PureMemberEnsemble(omega.layout, psi_arr.reshape(1, -1)))
    singleton = esqc_objective(*singleton_ens)
    # S(A) - S(AB) <= S(B) (Araki-Lieb), so the bound is at most the
    # singleton's value; the min only drops rounding on pure states.
    lower = min(_hashing_bound(omega), singleton)
    e_prime = config.e_prime
    if config.k:
        ladder = [(config.k, (config.seed,), config.restarts)]
    else:
        ladder = [
            (rank, (config.seed,), config.restarts),
            (2 * rank, (config.seed, 1), min(config.restarts, 1)),
        ]
    rounds = [
        _Round({"k": k}, _fast_esqc_objective(omega, psi_arr, e_prime, k), seed_key, restarts)
        for k, seed_key, restarts in ladder
    ]

    def build(params, w_mat):
        ens = _members_from_matrix(omega, psi_arr, w_mat, e_prime, params["k"])
        return esqc_objective(*ens), ens

    upper, best_ens, trace, search_notes = _run_rounds(
        rounds, config, lower, (singleton, "singleton", singleton_ens), singleton, build
    )
    check_ensemble(*best_ens, omega, tol=STEERED_TOL)
    return EsqcEstimate(
        lower_bits=float(lower),
        upper_bits=float(upper),
        weights=best_ens[0],
        ensemble=best_ens[1],
        trace=tuple(trace),
        config=asdict(config),
        notes={
            "single_copy": True,
            "dilution_cdown_single_copy_bits": 2.0 * float(upper),
            "dilution_note": "single-copy bound on the dilution cost (twice the estimate)",
            **search_notes,
        },
    )


@dataclass(frozen=True)
class CrosscheckReport:
    esqc_ub: float
    msq_ub: float
    gap: float
    per_extension: dict
    notes: dict = field(default_factory=dict)


def extension_crosscheck(
    omega: DensityState, esqc_config: EsqcConfig | None = None
) -> CrosscheckReport:
    """Compare the ensemble estimate with formation brackets of a finite
    extension family (both sides upper-bound the same quantity), each found
    by an ``nmf`` search at 8 restarts of 400 iterations with the ensemble
    search's seed and tolerance."""
    esqc_config = esqc_config or EsqcConfig()
    nmf_config = EstimateConfig(
        restarts=8, max_iters=400, seed=esqc_config.seed, tol=esqc_config.tol
    )
    omega = _ab_marginal(omega)
    ens_est = estimate_esqc(omega, esqc_config)

    e_label = "E"
    while e_label in omega.layout:
        e_label += "x"
    extensions = {}
    product = tensor(
        omega,
        DensityState(
            RegisterLayout((Register(e_label, 1, Party.EVE),)), np.eye(1, dtype=complex)
        ),
    )
    extensions["product"] = (product, ())
    pur = purify(omega, e_label, ref_party=Party.EVE).to_density()
    extensions["purification"] = (pur, ())
    flag_witness = witness_from_ab_ensemble(ens_est.weights, ens_est.ensemble)
    extensions["classical_flag"] = (flag_witness.target(), (flag_witness,))

    per_extension = {}
    msq_ub = math.inf
    for name, (ext_state, seeds) in extensions.items():
        est = estimate(ext_state, nmf_config, seeds=seeds)
        per_extension[name] = {"lower": est.lower_bits, "upper": est.upper_bits}
        msq_ub = min(msq_ub, est.upper_bits)
    return CrosscheckReport(
        esqc_ub=ens_est.upper_bits,
        msq_ub=float(msq_ub),
        gap=abs(ens_est.upper_bits - float(msq_ub)),
        per_extension=per_extension,
        notes={
            "comparison": "both values upper-bound the same quantity; the gap is informational",
            "extension_family": sorted(extensions),
        },
    )
