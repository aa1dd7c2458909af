"""Register bookkeeping: labeled, party-tagged subsystems with dimensions.

A :class:`RegisterLayout` is an ordered list of registers.  Order is
significant everywhere: matrices are stored row-major in the big-endian
register order of the layout (first register is the most significant
index), which pins down one unambiguous convention for tensor products,
partial traces and permutations.

Every number the package takes in passes the one rule for its kind where
it enters, which refuses anything else, a bool included, with an error
naming it: an integer (a dimension, a size, a count) :func:`require_integer`,
never truncated; a real (a tolerance) :func:`require_real`; and the weights
of an ensemble, a mixture or a block decomposition :func:`require_distribution`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import BadDims, BadParams, BadProbabilities, BadRange, DuplicateLabel, UnknownLabel

WEIGHT_TOL = 1e-10


class Party(str, Enum):
    ALICE = "alice"
    BOB = "bob"
    EVE = "eve"
    REFERENCE = "reference"


def is_integer(value) -> bool:
    """Whether ``value`` is an integer (a numpy integer included) and not a
    bool, which Python counts as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_integer(name: str, value, low: int, error=BadDims) -> int:
    """``value`` as an int, when it is an integer (``is_integer``) of at
    least ``low``; anything else (a float, a string, a bool, infinity)
    raises ``error`` naming ``name`` instead of being truncated."""
    if not (is_integer(value) and value >= low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def require_real(name: str, value, low: float, error=BadRange) -> float:
    """``value`` as a float when it is a finite real (not a bool) >= ``low``, else ``error``."""
    finite = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = finite and math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        finite = False
    if not (finite and value >= low):
        raise error(f"{name} must be a finite real >= {low}, got {value!r}")
    return float(value)


def require_distribution(name: str, weights, error=BadProbabilities) -> tuple[float, ...]:
    """``weights`` as floats: reals of at least ``-WEIGHT_TOL`` whose sum is 1 within it."""
    rule = f"{name} must be nonnegative and sum to 1"
    weights = tuple(
        require_real(f"{rule}: weight {i}", p, -WEIGHT_TOL, error) for i, p in enumerate(weights)
    )
    if not abs(sum(weights) - 1.0) <= WEIGHT_TOL:
        raise error(f"{rule}: they sum to {sum(weights)}")
    return weights


def _coerce_party(party) -> Party:
    if isinstance(party, Party):
        return party
    return Party(str(party).lower())


@dataclass(frozen=True)
class Register:
    """One labeled subsystem with a dimension and an owning party."""

    label: str
    dim: int
    party: Party

    def __post_init__(self):
        if not (isinstance(self.label, str) and self.label):
            raise BadParams(f"register label must be a non-empty string, got {self.label!r}")
        object.__setattr__(self, "party", _coerce_party(self.party))
        # A numpy integer is stored as an int, so layouts and JSON see one type.
        dim = require_integer(f"register {self.label!r} dim", self.dim, 1)
        object.__setattr__(self, "dim", dim)


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered collection of registers; the index space of a state matrix."""

    registers: tuple[Register, ...]

    def __post_init__(self):
        regs = tuple(self.registers)
        object.__setattr__(self, "registers", regs)
        labels = self.labels
        if len(self._where) != len(labels):
            dupes = sorted({lbl for lbl in labels if labels.count(lbl) > 1})
            raise DuplicateLabel(f"duplicate register labels: {dupes}")

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.registers)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def _where(self) -> dict:
        """Label -> position: the one lookup behind ``index`` and ``in``."""
        return {lbl: i for i, lbl in enumerate(self.labels)}

    def __len__(self):
        return len(self.registers)

    def __contains__(self, label):
        return isinstance(label, str) and label in self._where

    def index(self, label: str) -> int:
        try:
            return self._where[label]
        except (KeyError, TypeError):
            raise UnknownLabel(f"no register labeled {label!r} (have {list(self.labels)})") from None

    def register(self, label: str) -> Register:
        return self.registers[self.index(label)]

    def positions(self, labels) -> tuple[int, ...]:
        """Positions of ``labels`` (read once) in layout order; input order is ignored."""
        labels = tuple(labels)
        idx = sorted(self.index(lbl) for lbl in labels)
        if len(set(idx)) != len(idx):
            dupes = sorted({lbl for lbl in labels if labels.count(lbl) > 1})
            raise DuplicateLabel(f"repeated labels: {dupes}")
        return tuple(idx)

    def dim_of(self, labels) -> int:
        return math.prod(self.registers[i].dim for i in self.positions(labels))

    def subset(self, labels) -> "RegisterLayout":
        """The sub-layout of ``labels``, kept in original order."""
        return RegisterLayout(tuple(self.registers[i] for i in self.positions(labels)))

    def party_labels(self, party) -> tuple[str, ...]:
        party = _coerce_party(party)
        return tuple(r.label for r in self.registers if r.party is party)

    def retagged(self, label: str, party) -> "RegisterLayout":
        """Same layout with one register assigned to a different party."""
        i = self.index(label)
        regs = list(self.registers)
        regs[i] = Register(label, regs[i].dim, _coerce_party(party))
        return RegisterLayout(tuple(regs))

    def extended(self, new_registers) -> "RegisterLayout":
        return RegisterLayout(self.registers + tuple(new_registers))

    def without(self, labels) -> "RegisterLayout":
        drop = set(labels)
        for lbl in drop:
            self.index(lbl)
        return RegisterLayout(tuple(r for r in self.registers if r.label not in drop))

    def reordered(self, labels) -> "RegisterLayout":
        labels = tuple(labels)
        if sorted(labels) != sorted(self.labels):
            raise UnknownLabel(f"reorder labels {labels!r} do not match layout {self.labels!r}")
        return RegisterLayout(tuple(self.registers[self.index(lbl)] for lbl in labels))


def layout(*specs) -> RegisterLayout:
    """Build a layout from ``(label, dim, party)`` triples."""
    return RegisterLayout(tuple(Register(lbl, dim, party) for lbl, dim, party in specs))
