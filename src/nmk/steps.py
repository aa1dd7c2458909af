"""Party operations on tripartite scenarios, with classification and cost
ledgers.

The free classes are: local operations by Alice and Bob, local *reversible*
operations by Eve, quantum sends from Alice/Bob to Eve, classical broadcasts
by Alice/Bob (Eve cannot refuse to receive, so every broadcast appends a
copy for all three parties), and pairwise classical messages.  Classical
communication downward from Eve copies an existing classical (diagonal)
register of Eve's to the receiver; creating the message by measurement
would be irreversible for Eve and is therefore not available.  Non-free
steps (quantum sends from Eve, secret or quantum communication between
Alice and Bob, irreversible Eve channels via the bypass flag) are simulated
too, with quantum cost ``qc_bits`` accrued as log2 of the moved dimension
and classical downward cost ``cdown_bits`` as log2 of the message size.

A scenario holds its state in block form (:class:`~nmk.states.BlockState`):
a measurement adds one classical variable whose copies are the message
registers, so a broadcast adds labels, not dimension.  Later steps may act
on a message register like any other register: a channel that names a copy
first turns it into a quantum register |x><x| in every block, and
discarding the last copy of a variable merges the blocks it separated.
``Scenario.state`` builds the dense state on demand.  The budget caps what
a step stores, its blocks' entries (see :mod:`nmk.states`), and is checked
before a step computes anything; only the dense state is capped at its
total (layout) dimension.

One table gives the acting party and the receivers for each kind of step:
``ACTOR`` names the party whose registers a free step acts on, and
``RECEIVERS`` the parties that get a copy of a step's message.
``apply_step`` and the fuzz step generators read both.  A step is built as
``Step(kind, field=...)``, from Python as from JSON.  ``PAYLOAD`` lists the
fields a step of each kind needs; a :class:`Step` checks them when it is
built, with the party rule of its kind (its ``to`` and ``sender`` name Alice
or Bob), and raises ``BadParams`` naming the field.

Scenarios are immutable; ``apply_step`` returns a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (
    BadMu,
    BadParams,
    DimensionMismatch,
    InvariantViolation,
    IrreversibleEveOp,
    UnknownLabel,
)
from .registers import Party, Register, RegisterLayout, require_integer
from .states import BlockState, ChannelMap, DensityState


@dataclass(frozen=True)
class CostLedger:
    """Communication bits spent so far; never decreases."""

    qc_bits: float = 0.0
    cdown_bits: float = 0.0

    def __post_init__(self):
        if not (self.qc_bits >= 0 and self.cdown_bits >= 0):
            raise BadMu(
                f"ledger entries must be nonnegative, got {self.qc_bits} and {self.cdown_bits}"
            )

    def add(self, qc=0.0, cdown=0.0) -> "CostLedger":
        return CostLedger(self.qc_bits + qc, self.cdown_bits + cdown)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A party-tagged state plus its accumulated communication costs.

    A :class:`DensityState` given as ``block_state`` is taken in its
    one-block form.
    """

    block_state: BlockState
    ledger: CostLedger = field(default_factory=CostLedger)

    def __post_init__(self):
        if isinstance(self.block_state, DensityState):
            object.__setattr__(self, "block_state", BlockState.from_density(self.block_state))
        for reg in self.block_state.layout.registers:
            if reg.party is Party.REFERENCE:
                raise DimensionMismatch(
                    f"scenario registers need a party; {reg.label!r} is a reference register"
                )

    @property
    def state(self) -> DensityState:
        """The dense state, validated; built on each access, within the
        dimension budget."""
        return self.block_state.to_density()


class StepKind(Enum):
    LOCAL_A = "local_a"
    LOCAL_B = "local_b"
    REVERSIBLE_E = "reversible_e"
    QUANTUM_TO_E = "quantum_to_e"
    QUANTUM_FROM_E = "quantum_from_e"
    BROADCAST_A = "broadcast_a"
    BROADCAST_B = "broadcast_b"
    CLASSICAL_A_TO_E = "classical_a_to_e"
    CLASSICAL_E_TO_A = "classical_e_to_a"
    CLASSICAL_B_TO_E = "classical_b_to_e"
    CLASSICAL_E_TO_B = "classical_e_to_b"
    SECRET_AB = "secret_ab"
    QUANTUM_AB = "quantum_ab"


#: The party whose registers each kind of free (Omega) step acts on.
ACTOR = {
    StepKind.LOCAL_A: Party.ALICE,
    StepKind.LOCAL_B: Party.BOB,
    StepKind.REVERSIBLE_E: Party.EVE,
    StepKind.BROADCAST_A: Party.ALICE,
    StepKind.BROADCAST_B: Party.BOB,
    StepKind.CLASSICAL_A_TO_E: Party.ALICE,
    StepKind.CLASSICAL_B_TO_E: Party.BOB,
}

#: The parties that get a copy of the message of each kind of step that
#: hands one out.  A copy-down's sender is Eve; a secret message names its
#: own ``sender``.
RECEIVERS = {
    StepKind.BROADCAST_A: (Party.ALICE, Party.BOB, Party.EVE),
    StepKind.BROADCAST_B: (Party.ALICE, Party.BOB, Party.EVE),
    StepKind.CLASSICAL_A_TO_E: (Party.ALICE, Party.EVE),
    StepKind.CLASSICAL_B_TO_E: (Party.BOB, Party.EVE),
    StepKind.SECRET_AB: (Party.ALICE, Party.BOB),
    StepKind.CLASSICAL_E_TO_A: (Party.ALICE,),
    StepKind.CLASSICAL_E_TO_B: (Party.BOB,),
}

_MEASURED = ("operators", "msg_label")

#: The payload fields a step of each kind needs.  A local step needs a
#: ``channel`` or a ``discard`` list instead, which no single field says;
#: a ``discard`` is allowed on a local step without a channel only.
PAYLOAD = {
    StepKind.LOCAL_A: (),
    StepKind.LOCAL_B: (),
    StepKind.REVERSIBLE_E: ("channel",),
    StepKind.QUANTUM_TO_E: ("register",),
    StepKind.QUANTUM_FROM_E: ("register", "to"),
    StepKind.QUANTUM_AB: ("register", "to"),
    StepKind.BROADCAST_A: _MEASURED,
    StepKind.BROADCAST_B: _MEASURED,
    StepKind.CLASSICAL_A_TO_E: _MEASURED,
    StepKind.CLASSICAL_B_TO_E: _MEASURED,
    StepKind.SECRET_AB: _MEASURED + ("sender",),
    StepKind.CLASSICAL_E_TO_A: ("register",),
    StepKind.CLASSICAL_E_TO_B: ("register",),
}

NON_FREE_KINDS = {StepKind.SECRET_AB, StepKind.QUANTUM_AB}
CDOWN_KINDS = {StepKind.CLASSICAL_E_TO_A, StepKind.CLASSICAL_E_TO_B}


class ScriptClass(Enum):
    OMEGA = "omega"
    OMEGA_STAR = "omega_star"
    OMEGA_Q = "omega_q"
    NON_FREE = "non_free"


#: The parties a step's ``to`` (a quantum send from Eve or between Alice and
#: Bob) or ``sender`` (a secret message) may name, and the holders of a
#: register sent to Eve.
_AB_PARTIES = (Party.ALICE, Party.BOB)


def _member(key: str, enum, value, allowed):
    """``value`` as a member of ``enum`` that is in ``allowed``, else
    ``BadParams`` naming the field ``key``."""
    try:
        member = enum(value)
    except ValueError:
        member = None
    if member not in allowed:
        names = [m.value for m in allowed]
        got = getattr(member, "value", value)
        raise BadParams(f"step field {key!r} must be one of {names}, got {got!r}")
    return member


@dataclass(frozen=True, eq=False)
class Step:
    """One operation, built as ``Step(kind, field=...)``; which payload
    fields apply depends on ``kind`` (``PAYLOAD`` lists the ones each kind
    needs).  The payload is checked, and its sequences and parties coerced,
    when the step is built.  The party rule belongs to the step: its
    ``to`` and ``sender`` name Alice or Bob (``_AB_PARTIES``), and an
    unknown kind or party raises ``BadParams`` naming the field."""

    kind: StepKind
    channel: ChannelMap | None = None
    on: tuple[str, ...] = ()
    out: tuple[Register, ...] | None = None
    discard: tuple[str, ...] = ()
    register: str | None = None
    to: Party | None = None
    operators: tuple[np.ndarray, ...] = ()
    msg_label: str | None = None
    sender: Party | None = None
    bypass: bool = False

    def __post_init__(self):
        kind = _member("kind", StepKind, self.kind, tuple(StepKind))
        coerced = {
            "kind": kind,
            "on": tuple(self.on),
            "out": None if self.out is None else tuple(self.out),
            "discard": tuple(self.discard),
            "operators": tuple(np.asarray(op, dtype=complex) for op in self.operators),
            "to": None if self.to is None else _member("to", Party, self.to, _AB_PARTIES),
            "sender": None
            if self.sender is None
            else _member("sender", Party, self.sender, _AB_PARTIES),
        }
        for key, value in coerced.items():
            object.__setattr__(self, key, value)
        local = kind in (StepKind.LOCAL_A, StepKind.LOCAL_B)
        if local and self.channel is None and not self.discard:
            raise BadParams(f"a {kind.value} step needs a 'channel' or a 'discard' list")
        for key in PAYLOAD[kind]:
            if not getattr(self, key):
                raise BadParams(f"a {kind.value} step needs a {key!r} field")
        if self.discard and not (local and self.channel is None):
            raise BadParams(
                f"'discard' applies only to a local_a or local_b step without a channel, "
                f"not to this {kind.value} step"
            )

    @classmethod
    def broadcast_a(cls, operators, on, msg_label):
        """``Step(StepKind.BROADCAST_A, ...)``, kept only because perfbench's
        broadcast workload calls it; write the kind form instead."""
        return cls(StepKind.BROADCAST_A, operators=operators, on=on, msg_label=msg_label)

    @classmethod
    def broadcast_b(cls, operators, on, msg_label):
        """``Step(StepKind.BROADCAST_B, ...)``, kept only because perfbench's
        broadcast workload calls it; write the kind form instead."""
        return cls(StepKind.BROADCAST_B, operators=operators, on=on, msg_label=msg_label)


# ---------------------------------------------------------------------------
# step application


def _require_party(lay: RegisterLayout, labels, party: Party):
    for lbl in labels:
        reg = lay.register(lbl)
        if reg.party is not party:
            raise UnknownLabel(f"register {lbl!r} belongs to {reg.party.value}, not {party.value}")


def _channel_step(sc: Scenario, step: Step, party: Party) -> Scenario:
    """``party``'s channel or discard on its own registers.  Eve's channel
    must carry a declared inverse unless the step bypasses the check."""
    bs = sc.block_state
    if step.discard:
        _require_party(bs.layout, step.discard, party)
        return replace(sc, block_state=bs.discarded(step.discard))
    _require_party(bs.layout, step.on, party)
    # ChannelMap verified its declared inverse when it was built.
    if party is Party.EVE and not step.bypass and step.channel.declared_inverse is None:
        raise IrreversibleEveOp("Eve's local operations must carry a declared inverse")
    if step.out is not None:
        for reg in step.out:
            if reg.party is not party:
                raise DimensionMismatch(
                    f"output register {reg.label!r} must stay with {party.value}"
                )
    return replace(sc, block_state=bs.channel(step.channel, step.on, step.out))


def _retag(sc: Scenario, register: str, source_parties, target: Party, qc=0.0) -> Scenario:
    reg = sc.block_state.layout.register(register)
    if reg.party not in source_parties:
        raise UnknownLabel(
            f"register {register!r} belongs to {reg.party.value}; expected one of "
            f"{[p.value for p in source_parties]}"
        )
    return Scenario(sc.block_state.retagged(register, target), sc.ledger.add(qc=qc))


def _copy_label(msg_label: str, party: Party) -> str:
    """The register that holds ``party``'s copy of the message ``msg_label``."""
    return f"{msg_label}_{party.value[0].upper()}"


def _measure_and_copy(sc: Scenario, step: Step, sender: Party, receivers) -> Scenario:
    """Measure the sender's block and append one classical copy per receiver."""
    bs = sc.block_state
    _require_party(bs.layout, step.on, sender)
    n_out = len(step.operators)
    block_dim = bs.layout.dim_of(step.on)
    for op in step.operators:
        if op.shape != (block_dim, block_dim):
            raise DimensionMismatch(
                f"measurement operators must be square of dim {block_dim}, got {op.shape}"
            )
    copies = tuple(Register(_copy_label(step.msg_label, p), n_out, p) for p in receivers)
    return replace(sc, block_state=bs.measured(step.operators, step.on, copies))


def _copy_down(sc: Scenario, step: Step, receiver: Party) -> Scenario:
    bs = sc.block_state
    reg = bs.layout.register(step.register)
    if reg.party is not Party.EVE:
        raise UnknownLabel(f"register {step.register!r} is not Eve's")
    base = step.msg_label or f"{step.register}_c"
    copy_reg = Register(_copy_label(base, receiver), reg.dim, receiver)
    state = bs.copied(step.register, copy_reg)
    return Scenario(state, sc.ledger.add(cdown=math.log2(reg.dim)))


def apply_step(sc: Scenario, step: Step) -> Scenario:
    kind = step.kind
    if kind in CDOWN_KINDS:
        return _copy_down(sc, step, *RECEIVERS[kind])
    if kind in RECEIVERS:
        sender = step.sender if kind is StepKind.SECRET_AB else ACTOR[kind]
        return _measure_and_copy(sc, step, sender, RECEIVERS[kind])
    if kind in ACTOR:
        return _channel_step(sc, step, ACTOR[kind])
    if kind is StepKind.QUANTUM_TO_E:
        return _retag(sc, step.register, _AB_PARTIES, Party.EVE)
    if kind is StepKind.QUANTUM_FROM_E:
        reg = sc.block_state.layout.register(step.register)
        return _retag(
            sc, step.register, (Party.EVE,), step.to, qc=math.log2(reg.dim)
        )
    if kind is StepKind.QUANTUM_AB:
        # Only the other of Alice and Bob can send the receiver a register.
        (source,) = (p for p in _AB_PARTIES if p is not step.to)
        return _retag(sc, step.register, (source,), step.to)
    raise DimensionMismatch(f"unhandled step kind {kind}")


# ---------------------------------------------------------------------------
# scripts


def classify_script(steps) -> ScriptClass:
    steps = tuple(steps)
    non_free = any(
        s.kind in NON_FREE_KINDS or (s.kind is StepKind.REVERSIBLE_E and s.bypass) for s in steps
    )
    has_qdown = any(s.kind is StepKind.QUANTUM_FROM_E for s in steps)
    has_cdown = any(s.kind in CDOWN_KINDS for s in steps)
    if non_free or (has_qdown and has_cdown):
        return ScriptClass.NON_FREE
    if has_qdown:
        return ScriptClass.OMEGA_Q
    if has_cdown:
        return ScriptClass.OMEGA_STAR
    return ScriptClass.OMEGA


@dataclass(frozen=True)
class ScriptRun:
    final: Scenario
    classification: ScriptClass
    step_ledgers: tuple[CostLedger, ...]


def run_script(sc: Scenario, steps) -> ScriptRun:
    """Apply steps in order; ledger totals are the sums over steps."""
    steps = tuple(steps)
    snapshots = []
    current = sc
    for step in steps:
        current = apply_step(current, step)
        snapshots.append(current.ledger)
    return ScriptRun(current, classify_script(steps), tuple(snapshots))


# ---------------------------------------------------------------------------
# cost-conversion arithmetic


@dataclass(frozen=True)
class DilutionConversion:
    """Per-round quantum cost of simulating classical downward messages
    coherently across ``l`` protocol copies, with the guaranteed bound."""

    per_step_bits: tuple[float, ...]
    total_bits: float
    conversion_bound: float


#: Rounding the summed per-round bits may show above their bound.
DILUTION_SLACK = 1e-12


def dilution_conversion_cost(mu, l: int) -> DilutionConversion:
    """Quantum bits per message round: log2(ceil(sqrt(mu^l))).

    ``mu`` lists the classical message sizes per round (each >= 2 so every
    round costs at least one classical bit); the total never exceeds
    (l/2 + 1) times the classical downward cost sum(log2 mu).
    """
    mu = [require_integer("message size", m, 2, BadMu) for m in mu]
    if not mu:
        raise BadMu("need at least one message size")
    l = require_integer("copy count l", l, 1, BadMu)
    per = []
    for m in mu:
        n = m**l
        s = math.isqrt(n)
        if s * s < n:
            s += 1
        per.append(math.log2(s))
    total = float(sum(per))
    bound = (l / 2 + 1) * float(sum(math.log2(m) for m in mu))
    if not total <= bound + DILUTION_SLACK:
        raise InvariantViolation(
            "dilution_bound", f"total {total:.12g} bits exceeds the bound {bound:.12g}"
        )
    return DilutionConversion(tuple(per), total, bound)
