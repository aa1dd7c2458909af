"""Ensemble-based (classically squashed) entanglement of bipartite states.

The measure is half the ensemble-averaged mutual information, minimized
over decompositions of the state; the singleton ensemble is always
included, so the estimate never exceeds half the state's own mutual
information.  Decompositions are parametrized by steering the purifying
reference through an isometry into (purifier extension E') x (flag), and
searched by the formation estimator's restart loop: gradient descents on
the isometry from random starts.  Restarts are ranked by their own
ensemble objective, and only a restart that beats the singleton is turned
into an ensemble, kept as its pure members and reduced to AB states on
access.

``extension_crosscheck`` compares this estimate against the smallest
formation bracket over a configured family of tripartite extensions
(product, purification, classical flag from the best found ensemble: the
constructions used in the equivalence proof).  Both are upper bounds of the
same value, so only the gap is reported, never a pass/fail.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .entropy import mutual_info
from .errors import BadEnsemble, BudgetExceeded, DimensionTooSmall
from .nmf import (
    EstimateConfig,
    RestartRecord,
    SearchConfig,
    _MemberObjective,
    _purified,
    _search,
    _search_notes,
    estimate,
)
from .registers import Party, Register, RegisterLayout
from .states import (
    PRUNE_TOL,
    DensityState,
    _freeze,
    _pure_reduced_matrix,
    partial_trace,
    purify,
    steered_members,
    tensor,
    trace_distance,
)
from .witness import witness_from_ab_ensemble


@dataclass(frozen=True)
class EsqcConfig(SearchConfig):
    """Knobs for the ensemble search.

    Members are steered into a purifier extension E' of dimension
    ``e_prime`` times a flag of ``k`` values (default: the state's rank);
    with ``e_prime`` 1 every member is a pure AB state.  A restart stops
    early below ``tol / 2``.
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
class EsqcEstimate:
    """Upper bound with the realizing ensemble.

    ``ensemble`` keeps the winner's pure members and reduces them to AB
    states on access.
    """

    upper_bits: float
    weights: tuple[float, ...]
    ensemble: PureMemberEnsemble
    trace: tuple[RestartRecord, ...]
    config: dict
    notes: dict = field(default_factory=dict)


def esqc_objective(weights, states) -> float:
    """Half the weighted average of I(A:B) over the ensemble."""
    weights = tuple(float(p) for p in weights)
    states = tuple(states)
    if not states or len(weights) != len(states):
        raise BadEnsemble("weights and states must pair up nonempty")
    if not (all(p >= -1e-10 for p in weights) and abs(sum(weights) - 1.0) <= 1e-10):
        raise BadEnsemble(f"weights must be nonnegative and sum to 1, got {sum(weights)}")
    lay = states[0].layout
    a = lay.party_labels(Party.ALICE)
    b = lay.party_labels(Party.BOB)
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


def check_ensemble(weights, states, omega: DensityState, tol: float = 1e-9) -> float:
    """Trace distance between the ensemble average and ``omega``."""
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
    a_axes = sorted(lay.index(lbl) for lbl in lay.party_labels(Party.ALICE))
    b_axes = sorted(lay.index(lbl) for lbl in lay.party_labels(Party.BOB))
    signed_groups = ((a_axes, 1.0), (b_axes, 1.0), ([len(lay)], -1.0))
    return _MemberObjective(psi_arr, lay.dims + (e_prime,), k, signed_groups)


def _members_from_matrix(omega, psi_arr, w_matrix, e_prime, k):
    """Weights and ensemble of the decomposition ``w_matrix`` steers out."""
    weights, members = steered_members(psi_arr, w_matrix, omega.layout.dims + (e_prime,), k)
    return tuple((weights / weights.sum()).tolist()), PureMemberEnsemble(omega.layout, members)


def estimate_esqc(omega: DensityState, config: EsqcConfig | None = None) -> EsqcEstimate:
    """Minimize the ensemble objective over reference-steering isometries.

    The singleton decomposition is always a candidate, so the result never
    exceeds half of I(A:B).  ``notes["best_source"]`` names the winner:
    ``singleton`` or ``restart:<rid>``; ``notes["evals"]`` counts objective
    evaluations (line-search trials included),
    ``notes["restarts_beating_baseline"]`` the restarts that ended below the
    singleton, and ``notes["grad_norm"]`` is the winning restart's final
    gradient norm (None for the singleton).
    """
    config = config or EsqcConfig()
    a = omega.layout.party_labels(Party.ALICE)
    b = omega.layout.party_labels(Party.BOB)
    if not a or not b:
        raise BadEnsemble("the state needs alice- and bob-tagged registers")
    if len(a) + len(b) != len(omega.layout):
        # The measure is of the AB marginal; drop Eve's side.
        omega = partial_trace(omega, a + b)
    if omega.dim > 64:
        raise BudgetExceeded(f"ensemble search is limited to total dimension 64, got {omega.dim}")
    psi_arr, rank = _purified(omega)
    # The singleton, as the one member its purification is.
    best_ens = ((1.0,), PureMemberEnsemble(omega.layout, psi_arr.reshape(1, -1)))
    singleton = best_val = esqc_objective(*best_ens)
    best_source = "singleton"
    k = int(config.k) if config.k else rank
    e_prime = int(config.e_prime)
    if e_prime * k < rank:
        raise DimensionTooSmall(f"extension capacity {e_prime * k} below rank {rank}")
    fast_f = _fast_esqc_objective(omega, psi_arr, e_prime, k)
    trace, won = _search(
        fast_f, rank, e_prime * k, config, config.tol * 0.5, best_val, 0, [config.seed]
    )
    winner = None
    if won is not None:
        winner, w_mat = won
        best_ens = _members_from_matrix(omega, psi_arr, w_mat, e_prime, k)
        best_val, best_source = esqc_objective(*best_ens), f"restart:{winner.restart_id}"
    check_ensemble(*best_ens, omega, tol=1e-8)
    return EsqcEstimate(
        upper_bits=float(best_val),
        weights=best_ens[0],
        ensemble=best_ens[1],
        trace=tuple(trace),
        config=config.to_dict(),
        notes={
            "single_copy": True,
            "dilution_cdown_single_copy_bits": 2.0 * float(best_val),
            "dilution_note": "single-copy bound on the dilution cost (twice the estimate)",
            "best_source": best_source,
            **_search_notes(trace, singleton, winner),
        },
    )


@dataclass(frozen=True)
class CrosscheckReport:
    esqc_ub: float
    msq_ub: float
    gap: float
    per_extension: dict
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "esqc_ub": self.esqc_ub,
            "msq_ub": self.msq_ub,
            "gap": self.gap,
            "per_extension": self.per_extension,
            "notes": self.notes,
        }


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
    a = omega.layout.party_labels(Party.ALICE)
    b = omega.layout.party_labels(Party.BOB)
    if len(a) + len(b) != len(omega.layout):
        omega = partial_trace(omega, a + b)
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
