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

One table, ``KINDS``, has a row for each kind of step: the function that
applies it, the payload fields it needs and the others it may carry, the
parties it acts on or moves a register from, its receivers, and the least
:class:`ScriptClass` of a script that holds it.  :class:`Step`'s check,
``apply_step`` (one lookup), ``classify_script`` and the fuzz step
generators read only this table.  A step is built as
``Step(kind, field=...)``, from Python as from JSON, and refuses, with
``BadParams`` naming the field, a field outside its row or a party outside
it.

Scenarios are immutable; ``apply_step`` returns a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BadMu,
    BadParams,
    DimensionMismatch,
    InvariantViolation,
    IrreversibleEveOp,
    UnknownLabel,
)
from .registers import Party, Register, RegisterLayout, _label_group
from .registers import require_integer, require_member
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


class ScriptClass(Enum):
    OMEGA = "omega"
    OMEGA_STAR = "omega_star"
    OMEGA_Q = "omega_q"
    NON_FREE = "non_free"


@dataclass(frozen=True, eq=False)
class Step:
    """One operation, built as ``Step(kind, field=...)``.  Its row of
    ``KINDS`` says which payload fields it needs and which others it may
    carry; a field outside the row that is not at its default is refused,
    and a local step with a ``discard`` list carries nothing else.  The
    payload is checked, and its sequences coerced, when the step is built:
    ``on`` and ``discard`` are label groups (a string is one label) of
    non-empty strings, ``out`` a sequence of :class:`Register`,
    ``operators`` 2-D numeric arrays, ``channel`` a :class:`ChannelMap`,
    ``register`` and ``msg_label`` non-empty strings, ``bypass`` a bool,
    and ``kind``, ``to`` (a receiver of the row) and ``sender`` (a party of
    the row) pass ``require_member``.  A field that fails raises
    ``BadParams`` naming it."""

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
        kind = require_member("step field 'kind'", StepKind, self.kind)
        object.__setattr__(self, "kind", kind)
        for key, (coerce, what) in _PAYLOAD_TYPES.items():
            value = getattr(self, key)
            if value is None and key in _NONE_DEFAULTS:
                continue
            try:
                coerced = coerce(value)
            except (TypeError, ValueError):
                coerced = None
            if coerced is None:
                raise BadParams(f"step field {key!r} must be {what}, got {value!r}")
            object.__setattr__(self, key, coerced)
        row = KINDS[kind]
        needs, allowed, form = row.needs, row.needs + row.may, ""
        if self.discard and "discard" in allowed:  # a local step's discard form
            needs, allowed, form = (), ("discard",), "with a 'discard' list "
        for key in _FIELD_NAMES:
            if key not in allowed and getattr(self, key) not in (None, (), False):
                raise BadParams(f"a {kind.value} step {form}carries no {key!r} field")
        for key in needs:
            if not getattr(self, key):
                alternative = " or a 'discard' list" if "discard" in allowed else " field"
                raise BadParams(f"a {kind.value} step needs a {key!r}{alternative}")
        for key, parties in (("to", row.receivers), ("sender", row.parties)):
            if getattr(self, key) is not None:
                member = require_member(f"step field {key!r}", Party, getattr(self, key), parties)
                object.__setattr__(self, key, member)

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


#: The payload fields of a step: every field but its kind.
_FIELD_NAMES = tuple(f.name for f in fields(Step))[1:]
#: The payload fields that default to None, which they may keep.
_NONE_DEFAULTS = {f.name for f in fields(Step) if f.default is None}


def _all_or_none(items, test):
    """``items`` as a tuple if ``test`` holds for each item, else None."""
    items = tuple(items)
    return items if all(test(x) for x in items) else None


def _is_label(x) -> bool:
    return isinstance(x, str) and x != ""


def _matrices(ops):
    """``ops`` as complex arrays if each is 2-D, else None."""
    return _all_or_none((np.asarray(op, dtype=complex) for op in ops), lambda m: m.ndim == 2)


#: For each payload field whose type ``Step`` checks: the function that
#: coerces a value (returning None, or raising TypeError or ValueError, for
#: a wrong one) and what the field must be.
_PAYLOAD_TYPES = {
    "channel": (lambda c: c if isinstance(c, ChannelMap) else None, "a ChannelMap"),
    "on": (lambda ls: _all_or_none(_label_group(ls), _is_label), "register labels"),
    "out": (lambda rs: _all_or_none(rs, lambda r: isinstance(r, Register)), "Registers"),
    "discard": (lambda ls: _all_or_none(_label_group(ls), _is_label), "register labels"),
    "register": (lambda s: s if _is_label(s) else None, "a register label"),
    "operators": (_matrices, "2-D numeric arrays"),
    "msg_label": (lambda s: s if _is_label(s) else None, "a non-empty string"),
    "bypass": (lambda b: b if isinstance(b, bool) else None, "True or False"),
}


# ---------------------------------------------------------------------------
# step application: each function takes the step's row of KINDS


def _require_party(lay: RegisterLayout, labels, party: Party):
    for lbl in labels:
        reg = lay.register(lbl)
        if reg.party is not party:
            raise UnknownLabel(f"register {lbl!r} belongs to {reg.party.value}, not {party.value}")


def _channel_step(sc: Scenario, step: Step, row) -> Scenario:
    """The acting party's channel or discard on its own registers.  Eve's
    channel must be ``reversible`` unless the step bypasses the check."""
    (party,) = row.parties
    bs = sc.block_state
    if step.discard:
        _require_party(bs.layout, step.discard, party)
        return replace(sc, block_state=bs.discarded(step.discard))
    _require_party(bs.layout, step.on, party)
    if party is Party.EVE and not step.bypass and not step.channel.reversible:
        raise IrreversibleEveOp("Eve's local operations must be reversible")
    for reg in step.out or ():
        if reg.party is not party:
            raise DimensionMismatch(f"output register {reg.label!r} must stay with {party.value}")
    return replace(sc, block_state=bs.channel(step.channel, step.on, step.out))


def _send(sc: Scenario, step: Step, row) -> Scenario:
    """Move ``step.register`` to its receiver (``step.to``, or the row's one
    receiver) from one of the row's other parties.  A register that Eve
    sends costs log2 of its dimension in ``qc_bits``."""
    target = step.to or row.receivers[0]
    sources = tuple(p for p in row.parties if p is not target)
    reg = sc.block_state.layout.register(step.register)
    if reg.party not in sources:
        raise UnknownLabel(
            f"register {step.register!r} belongs to {reg.party.value}; expected one of "
            f"{[p.value for p in sources]}"
        )
    qc = math.log2(reg.dim) if reg.party is Party.EVE else 0.0
    return Scenario(sc.block_state.retagged(step.register, target), sc.ledger.add(qc=qc))


def _copy_label(msg_label: str, party: Party) -> str:
    """The register that holds ``party``'s copy of the message ``msg_label``."""
    return f"{msg_label}_{party.value[0].upper()}"


def _measure(sc: Scenario, step: Step, row) -> Scenario:
    """Measure the sender's block (the row's one party, or ``step.sender``)
    and append one classical copy per receiver."""
    sender = step.sender or row.parties[0]
    bs = sc.block_state
    _require_party(bs.layout, step.on, sender)
    n_out = len(step.operators)
    block_dim = bs.layout.dim_of(step.on)
    for op in step.operators:
        if op.shape != (block_dim, block_dim):
            raise DimensionMismatch(
                f"measurement operators must be square of dim {block_dim}, got {op.shape}"
            )
    copies = tuple(Register(_copy_label(step.msg_label, p), n_out, p) for p in row.receivers)
    return replace(sc, block_state=bs.measured(step.operators, step.on, copies))


def _copy_down(sc: Scenario, step: Step, row) -> Scenario:
    """Copy Eve's classical register to the row's one receiver, at log2 of
    its dimension in ``cdown_bits``."""
    (receiver,) = row.receivers
    bs = sc.block_state
    reg = bs.layout.register(step.register)
    if reg.party is not Party.EVE:
        raise UnknownLabel(f"register {step.register!r} is not Eve's")
    base = step.msg_label or f"{step.register}_c"
    copy_reg = Register(_copy_label(base, receiver), reg.dim, receiver)
    state = bs.copied(step.register, copy_reg)
    return Scenario(state, sc.ledger.add(cdown=math.log2(reg.dim)))


class _Row(NamedTuple):
    """One kind of step: how it is applied, the payload fields it needs and
    the others it may carry, the parties it acts on or moves a register
    from, the parties that get its message or register, and the least class
    of a script that holds it."""

    apply: Callable
    needs: tuple[str, ...]
    may: tuple[str, ...]
    parties: tuple[Party, ...]
    receivers: tuple[Party, ...]
    least: ScriptClass = ScriptClass.OMEGA


_A, _B, _E = Party.ALICE, Party.BOB, Party.EVE
_AB = (_A, _B)
_LOCAL = (_channel_step, ("channel",), ("on", "out", "discard"))
_MEASURED = (_measure, ("operators", "msg_label"), ("on",))
_COPY_DOWN = (_copy_down, ("register",), ("msg_label",), (_E,))
_NON_FREE = ScriptClass.NON_FREE

#: One row per kind of step, the one table behind ``Step``'s check,
#: ``apply_step``, ``classify_script`` and the fuzz step generators.
KINDS = {
    StepKind.LOCAL_A: _Row(*_LOCAL, (_A,), ()),
    StepKind.LOCAL_B: _Row(*_LOCAL, (_B,), ()),
    StepKind.REVERSIBLE_E: _Row(_channel_step, ("channel",), ("on", "out", "bypass"), (_E,), ()),
    StepKind.QUANTUM_TO_E: _Row(_send, ("register",), (), _AB, (_E,)),
    StepKind.QUANTUM_FROM_E: _Row(_send, ("register", "to"), (), (_E,), _AB, ScriptClass.OMEGA_Q),
    StepKind.BROADCAST_A: _Row(*_MEASURED, (_A,), (_A, _B, _E)),
    StepKind.BROADCAST_B: _Row(*_MEASURED, (_B,), (_A, _B, _E)),
    StepKind.CLASSICAL_A_TO_E: _Row(*_MEASURED, (_A,), (_A, _E)),
    StepKind.CLASSICAL_E_TO_A: _Row(*_COPY_DOWN, (_A,), ScriptClass.OMEGA_STAR),
    StepKind.CLASSICAL_B_TO_E: _Row(*_MEASURED, (_B,), (_B, _E)),
    StepKind.CLASSICAL_E_TO_B: _Row(*_COPY_DOWN, (_B,), ScriptClass.OMEGA_STAR),
    StepKind.SECRET_AB: _Row(
        _measure, ("operators", "msg_label", "sender"), ("on",), _AB, _AB, _NON_FREE
    ),
    StepKind.QUANTUM_AB: _Row(_send, ("register", "to"), (), _AB, _AB, _NON_FREE),
}


def apply_step(sc: Scenario, step: Step) -> Scenario:
    row = KINDS[step.kind]
    return row.apply(sc, step, row)


# ---------------------------------------------------------------------------
# scripts


def classify_script(steps) -> ScriptClass:
    """The least class that holds every step: the join of the steps' own
    classes (a bypassed Eve channel is non-free), where omega_star and
    omega_q join to non_free."""
    found = {_NON_FREE if s.bypass else KINDS[s.kind].least for s in steps}
    found.discard(ScriptClass.OMEGA)
    if len(found) > 1:
        return _NON_FREE
    return found.pop() if found else ScriptClass.OMEGA


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
