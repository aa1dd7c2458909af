"""Randomized property suites behind the CLI ``fuzz`` subcommand.

Each suite draws seeded random instances, checks an inequality that is a
theorem for exact arithmetic, and reports violations beyond tolerance as
counterexamples carrying the serialized instance.  Each check is written
so that a NaN fails it.  Every trial owns a generator derived from
``(seed, trial index)`` and trials run in order, in the calling thread;
``jobs`` is accepted and refused below 1, but has no effect.

Suites:

``ssa``            strong subadditivity (CQMI nonnegative) on random states
``monotonicity``   the half-CQMI measure never increases under any free
                   class, and is invariant under Eve's reversible channels
``markov_closure`` random free scripts keep built block states Markov
``witness``        witness-level identities: the objective against its
                   definition 1/2 [I(AA':BB'|K) + I(AB:E'K|E)] on the
                   realized state, block by block over K (the dual
                   route), the lower bound, tensor additivity, mix
                   linearity, regroup and local-channel monotonicity, and
                   transport invariance

The random steps of ``monotonicity`` and ``markov_closure`` read the acting
party and the receivers of each kind of step from the one table that
``apply_step`` reads, ``steps.ACTOR`` and ``steps.RECEIVERS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import cqmi, nonmarkovianity, party_partition
from .errors import BadRange
from .markov import build_markov
from .nmf import EstimateConfig, estimate
from .rand import as_rng, random_isometry, random_unitary, sample
from .registers import Party, Register, layout, require_integer
from .serialize import state_to_json, step_to_json
from .states import Block, BlockState, ChannelMap, ClassicalVar, DensityState
from .steps import ACTOR, RECEIVERS, Scenario, Step, StepKind, apply_step
from .witness import (
    objective,
    witness_from_isometry,
    witness_local_channel,
    witness_mix,
    witness_regroup,
    witness_relabeled,
    witness_tensor,
    witness_transport_e,
)
from .zoo import zoo

SSA_TOL = 1e-9
MONO_TOL = 1e-9
CLOSURE_TOL = 1e-8
SCRIPT_LENGTH = 3
IDENTITY_TOL = 1e-9
DUAL_ROUTE_TOL = 1e-8


@dataclass
class FuzzReport:
    suite: str
    trials: int
    passes: int
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_trials(worker, count: int):
    """Failures of trials ``0..count-1``, run in order in the calling
    thread (each trial derives its own generator)."""
    return [f for i in range(count) for f in worker(i)]


def _require_counts(**counts) -> None:
    """Refuse, naming it, a count that is not an integer (a bool is not
    one) of at least 1, or of at least 0 for the optional ones."""
    for name, value in counts.items():
        require_integer(name, value, 0 if name in ("trials_224", "mixture_probes") else 1, BadRange)


# ---------------------------------------------------------------------------
# strong subadditivity


def fuzz_ssa(trials_222: int = 1000, trials_224: int = 200, seed=0, jobs: int = 1) -> FuzzReport:
    _require_counts(trials_222=trials_222, trials_224=trials_224, jobs=jobs)
    total = trials_222 + trials_224

    def worker(i):
        dims = (2, 2, 2) if i < trials_222 else (2, 2, 4)
        rho = sample("density_hs", dims, as_rng([seed, i]))
        value = cqmi(rho, ("A",), ("B",), ("E",))
        if not value >= -SSA_TOL:
            return [{"dims": list(dims), "cqmi": value, "state": state_to_json(rho)}]
        return []

    failures = _run_trials(worker, total)
    return FuzzReport("ssa", total, total - len(failures), failures)


# ---------------------------------------------------------------------------
# monotonicity of the half-CQMI measure under the free classes

FREE_CLASS_NAMES = (
    "local_a",
    "local_b",
    "reversible_e",
    "quantum_a_to_e",
    "quantum_b_to_e",
    "broadcast_a",
    "broadcast_b",
    "classical_a_to_e",
    "classical_b_to_e",
    "classical_e_to_a",
    "classical_e_to_b",
)


def _random_measurement(dim: int, rng):
    """The two operators of a random two-outcome measurement; forgetting
    the outcome makes them the Kraus operators of a random channel."""
    iso = random_isometry(dim, 2 * dim, rng)
    return iso[:dim], iso[dim:]


def _flagged_state(parts, flag: str) -> DensityState:
    """The dense state sum_m r_m rho_m (x) |m><m| of the parts (r_m, rho_m),
    the flag register ``flag`` Eve's and last."""
    lay = parts[0][1].layout.extended((Register(flag, len(parts), Party.EVE),))
    blocks = [Block((m,), r * rho.matrix) for m, (r, rho) in enumerate(parts)]
    return BlockState(lay, (ClassicalVar(len(parts), (flag,)),), blocks).to_density()


def _random_step(kind: StepKind, register: str, dim: int, rng, label: str) -> Step:
    """A random step of the free ``kind`` on ``register`` (of ``dim``
    levels): a two-outcome measurement whose message is ``label`` for a
    kind that sends one, else a random unitary for Eve and a random channel
    for Alice or Bob."""
    if kind in RECEIVERS:
        return Step(kind, operators=_random_measurement(dim, rng), on=(register,), msg_label=label)
    if ACTOR[kind] is Party.EVE:
        return Step(kind, channel=ChannelMap.unitary(random_unitary(dim, rng)), on=(register,))
    return Step(kind, channel=ChannelMap(_random_measurement(dim, rng)), on=(register,))


def _mono_scenario(cls: str, rng) -> Scenario:
    if cls in ("quantum_a_to_e", "quantum_b_to_e"):
        party = "alice" if cls == "quantum_a_to_e" else "bob"
        lay = layout(("A", 2, "alice"), ("Q", 2, party), ("B", 2, "bob"), ("E", 2, "eve"))
        return Scenario(sample("density_hs", (2, 2, 2, 2), rng, layout=lay))
    if cls in ("classical_e_to_a", "classical_e_to_b"):
        # Classical message register at Eve, given dense so that the
        # copy-down checks it is diagonal.
        weights = rng.dirichlet(np.ones(2))
        blocks = [sample("density_hs", (2, 2, 2), rng) for _ in range(2)]
        return Scenario(_flagged_state(list(zip(weights, blocks)), "ME"))
    return Scenario(sample("density_hs", (2, 2, 2), rng))


def _mono_step(cls: str, rng) -> Step:
    if cls in ("quantum_a_to_e", "quantum_b_to_e"):
        return Step.quantum_to_e("Q")
    if cls in ("classical_e_to_a", "classical_e_to_b"):
        return Step(StepKind(cls), register="ME")
    if cls not in OMEGA_SCRIPT_CLASSES:
        raise ValueError(cls)
    kind = StepKind(cls)
    if kind is StepKind.REVERSIBLE_E and rng.integers(2) == 1:
        iso = ChannelMap.isometry(random_isometry(2, 4, rng))
        return Step.reversible_e(iso, ("E",), out=(Register("Ex", 4, Party.EVE),))
    # Each party's register in the scenario is named by its initial.
    return _random_step(kind, ACTOR[kind].value[0].upper(), 2, rng, "J")


def fuzz_monotonicity(trials_per_class: int = 300, seed=0, jobs: int = 1) -> FuzzReport:
    _require_counts(trials_per_class=trials_per_class, jobs=jobs)
    total = trials_per_class * len(FREE_CLASS_NAMES)

    def worker(i):
        cls = FREE_CLASS_NAMES[i // trials_per_class]
        rng = as_rng([seed, i])
        sc = _mono_scenario(cls, rng)
        step = _mono_step(cls, rng)
        before = nonmarkovianity(sc.block_state)
        after = nonmarkovianity(apply_step(sc, step).block_state)
        bad = not after <= before + MONO_TOL
        if cls == "reversible_e":
            bad = not abs(after - before) <= MONO_TOL
        if bad:
            return [
                {
                    "class": cls,
                    "before": before,
                    "after": after,
                    "state": state_to_json(sc.state),
                    "step": step_to_json(step),
                }
            ]
        return []

    failures = _run_trials(worker, total)
    return FuzzReport("monotonicity", total, total - len(failures), failures)


# ---------------------------------------------------------------------------
# free scripts keep block states Markov

OMEGA_SCRIPT_CLASSES = tuple(kind.value for kind in ACTOR)


def _random_omega_step(sc: Scenario, rng, msg_counter: int) -> Step:
    kind = tuple(ACTOR)[int(rng.integers(len(ACTOR)))]
    lay = sc.block_state.layout
    register = lay.party_labels(ACTOR[kind])[0]
    return _random_step(kind, register, lay.register(register).dim, rng, f"J{msg_counter}")


def fuzz_markov_closure(trials: int = 200, seed=0, jobs: int = 1) -> FuzzReport:
    _require_counts(trials=trials, jobs=jobs)

    def worker(t):
        rng = as_rng([seed, t])
        sc = Scenario(build_markov(zoo("markov_random", {"entries": 2}, seed=rng)))
        steps = []
        current = sc
        for i in range(SCRIPT_LENGTH):
            step = _random_omega_step(current, rng, i)
            steps.append(step)
            current = apply_step(current, step)
        a, b, e = party_partition(current.block_state)
        value = cqmi(current.block_state, a, b, e)
        if not value <= CLOSURE_TOL:
            return [
                {
                    "trial": t,
                    "cqmi": value,
                    "steps": [step_to_json(s) for s in steps],
                    "state": state_to_json(sc.state),
                }
            ]
        return []

    failures = _run_trials(worker, trials)
    return FuzzReport("markov_closure", trials, trials - len(failures), failures)


# ---------------------------------------------------------------------------
# witness identities


def _random_witness(rng, dims=(2, 2, 2), rank=3, ext=(1, 1, 1), k=None, lay=None):
    rho = sample("density_hs", dims, rng, rank=rank, layout=lay)
    k = k if k is not None else rank
    cap = ext[0] * ext[1] * ext[2] * k
    w_mat = random_isometry(rank, cap, rng)
    return rho, witness_from_isometry(rho, w_mat, ext, k)


CHECKS_PER_TRIAL = 7


def _witness_trial(seed, t):
    rng = as_rng([seed, t])
    failures = []
    rho, w = _random_witness(rng, ext=(2, 2, 1), k=3)
    obj = objective(w)

    def fail(kind, **payload):
        failures.append({"trial": t, "check": kind, **payload})

    # The definition, on the blocks of the realized state over its flag K.
    g, joint, k = w.groups, w.realized(), (w.k_label,)
    realized = 0.5 * (
        cqmi(joint, g.a + g.a_prime, g.b + g.b_prime, k)
        + cqmi(joint, g.a + g.b, g.e_prime + k, g.e)
    )
    if not abs(obj - realized) <= DUAL_ROUTE_TOL:
        fail("dual_route", objective=obj, recomputed=realized)
    lower = nonmarkovianity(rho)
    if not obj >= lower - IDENTITY_TOL:
        fail("lower_sandwich", objective=obj, lower=lower)
    other_lay = layout(("A2", 2, "alice"), ("B2", 2, "bob"), ("E2", 2, "eve"))
    _, w2 = _random_witness(rng, lay=other_lay)
    w2 = witness_relabeled(w2, "x")
    pair = witness_tensor(w, w2)
    if not abs(objective(pair) - obj - objective(w2)) <= IDENTITY_TOL:
        fail("tensor_additivity", pair=objective(pair), parts=obj + objective(w2))
    mixed = witness_mix([(0.25, w), (0.75, w)])
    if not abs(objective(mixed) - obj) <= IDENTITY_TOL:
        fail("mix_linearity", mixed=objective(mixed), part=obj)
    regrouped = witness_regroup(w, w.groups.a[0], to="e")
    if not objective(regrouped) <= obj + IDENTITY_TOL:
        fail("regroup_monotone", regrouped=objective(regrouped), objective=obj)
    iso = random_isometry(2, 4, rng)
    moved = witness_transport_e(w, iso, (w.groups.e[0],), (Register("F", 4, Party.EVE),))
    if not abs(objective(moved) - obj) <= IDENTITY_TOL:
        fail("transport_invariance", transported=objective(moved), objective=obj)
    chan = ChannelMap(_random_measurement(2, rng))
    local = witness_local_channel(w, "b", chan.kraus, (w.groups.b[0],), "Benv")
    if not objective(local) <= obj + IDENTITY_TOL:
        fail("local_channel_monotone", transported=objective(local), objective=obj)
    return failures


def fuzz_witness(trials: int = 100, seed=0, mixture_probes: int = 0, jobs: int = 1) -> FuzzReport:
    _require_counts(trials=trials, mixture_probes=mixture_probes, jobs=jobs)
    notes = {
        "mixture_probes": [],
        "transport_coverage": "explicit mappings only (local channels, reversible "
        "isometries, regrouping); broadcast/classical transports have no explicit "
        "witness mapping and are not checked",
    }
    failures = _run_trials(lambda t: _witness_trial(seed, t), trials)
    # Informational only: does the optimized bracket of a flagged mixture
    # track the weighted part brackets?  Recorded, never failed.
    if mixture_probes:
        rng = as_rng([seed, trials])
        cfg = EstimateConfig(restarts=4, max_iters=200, seed=int(rng.integers(2**31)))
        for _ in range(mixture_probes):
            r = float(rng.uniform(0.2, 0.8))
            parts = [sample("density_hs", (2, 2, 2), rng, rank=2) for _ in range(2)]
            part_ests = [estimate(p, cfg) for p in parts]
            mix_est = estimate(_flagged_state([(r, parts[0]), (1 - r, parts[1])], "M"), cfg)
            weighted = r * part_ests[0].upper_bits + (1 - r) * part_ests[1].upper_bits
            notes["mixture_probes"].append(
                {
                    "weight": r,
                    "mixture_upper": mix_est.upper_bits,
                    "weighted_part_upper": weighted,
                    "difference": mix_est.upper_bits - weighted,
                }
            )
    total = trials * CHECKS_PER_TRIAL
    return FuzzReport("witness", total, total - len(failures), failures, notes)


SUITES = {
    "ssa": lambda trials, seed, jobs=1: fuzz_ssa(trials, max(trials // 5, 1), seed, jobs),
    "monotonicity": lambda trials, seed, jobs=1: fuzz_monotonicity(trials, seed, jobs=jobs),
    "markov_closure": lambda trials, seed, jobs=1: fuzz_markov_closure(trials, seed, jobs=jobs),
    "witness": lambda trials, seed, jobs=1: fuzz_witness(trials, seed, mixture_probes=2, jobs=jobs),
}
