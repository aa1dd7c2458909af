"""Entropic functionals in bits: von Neumann entropy, conditional entropy,
mutual information, conditional quantum mutual information (CQMI), and the
half-CQMI non-Markovianity measure.

Base-2 logarithms throughout.  Eigenvalues of at most ``states.SUPPORT_TOL``
count as 0 before the log, with 0 log 0 = 0.

Every functional takes a :class:`~nmk.states.DensityState` or a
:class:`~nmk.states.BlockState`.  A block state's marginal is the direct sum
of one matrix per group of blocks that agree on the classical values the
subset sees, so its entropy is the sum of one eigensolve per group; a dense
state is the one-group case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import OverlappingPartition
from .states import (
    BlockState,
    DensityState,
    _clamped_eigvalsh,
    _clamped_logs,
    _marginal_matrix,
)


def entropy_of_matrix(matrix: np.ndarray) -> float:
    """Entropy in bits of a matrix's spectrum (values at most ``SUPPORT_TOL`` count as 0)."""
    vals = _clamped_eigvalsh(matrix)
    # + 0.0 turns the -0.0 of a spectrum with no value above the clamp into 0.0.
    return float(-np.sum(vals * _clamped_logs(vals))) + 0.0


def _marginals(state, subset) -> list[np.ndarray]:
    """Matrices whose direct sum is the marginal on ``subset`` (the whole
    state if None): one per group of blocks, or the one dense marginal."""
    if isinstance(state, BlockState):
        return state.group_marginals(subset)
    if subset is None:
        return [state.matrix]
    keep_axes = state.layout.positions(subset)
    return [_marginal_matrix(state.matrix, state.layout.dims, keep_axes)]


def entropy(state: DensityState | BlockState, subset=None) -> float:
    """Von Neumann entropy of the reduced state on ``subset``, in bits."""
    if subset is not None:
        subset = tuple(subset)
        if not subset:
            raise OverlappingPartition("entropy needs a nonempty register subset")
    return sum(entropy_of_matrix(m) for m in _marginals(state, subset))


def conditional_entropy(state: DensityState | BlockState, x, given) -> float:
    """S(X|Y) = S(XY) - S(Y)."""
    x, given = tuple(x), tuple(given)
    if set(x) & set(given):
        raise OverlappingPartition("conditioning registers overlap the target")
    if not given:
        return entropy(state, x)
    return entropy(state, x + given) - entropy(state, given)


def mutual_info(state: DensityState | BlockState, x, y) -> float:
    """I(X:Y) = S(X) + S(Y) - S(XY); zero when either group is empty."""
    x, y = tuple(x), tuple(y)
    if set(x) & set(y):
        raise OverlappingPartition("mutual information needs disjoint groups")
    if not x or not y:
        return 0.0
    return entropy(state, x) + entropy(state, y) - entropy(state, x + y)


def _as_groups(state, a, b, e):
    """The groups ``a``, ``b``, ``e`` as label tuples (a string is one
    label), refused when they overlap; the state's ``party_partition`` when
    none is given."""
    if a is None and b is None and e is None:
        return party_partition(state)
    a, b, e = ((g,) if isinstance(g, str) else tuple(g) for g in (a, b, e))
    if (set(a) & set(b)) or (set(a) & set(e)) or (set(b) & set(e)):
        raise OverlappingPartition(f"partition groups overlap: {a}, {b}, {e}")
    return a, b, e


def cqmi(state: DensityState | BlockState, a, b, e) -> float:
    """I(A:B|E) = S(AE) + S(BE) - S(ABE) - S(E); registers outside the
    partition are traced out.  E may be empty."""
    a, b, e = _as_groups(state, a, b, e)
    if not a or not b:
        return 0.0
    s_abe = entropy(state, a + b + e)
    s_ae = entropy(state, a + e)
    s_be = entropy(state, b + e)
    s_e = entropy(state, e) if e else 0.0
    return s_ae + s_be - s_abe - s_e


def nonmarkovianity(state: DensityState | BlockState, a=None, b=None, e=None) -> float:
    """Half the conditional quantum mutual information, in bits.

    With no explicit partition, the register party tags define the groups.
    """
    return 0.5 * cqmi(state, a, b, e)


def party_partition(state: DensityState | BlockState):
    """(alice, bob, eve) label groups from the layout's party tags: the one
    reader of a state's party groups (``witness._party_groups`` is its
    checked form)."""
    return tuple(state.layout.party_labels(p) for p in ("alice", "bob", "eve"))


@dataclass(frozen=True)
class EntropyReport:
    """Entropic summary of a named tripartite partition, all in bits."""

    a: tuple[str, ...]
    b: tuple[str, ...]
    e: tuple[str, ...]
    s_a: float
    s_b: float
    s_e: float
    s_abe: float
    s_ab_given_e: float
    i_a_b: float
    cqmi_bits: float
    m_i_bits: float


def entropy_report(state: DensityState | BlockState, a=None, b=None, e=None) -> EntropyReport:
    """Entropies of the partition's marginals; each distinct one is
    diagonalized once, and registers outside the partition are traced out."""
    a, b, e = _as_groups(state, a, b, e)
    if not a + b + e:
        raise OverlappingPartition("the partition selects no registers")
    solved = functools.cache(lambda labels: entropy(state, labels) if labels else 0.0)

    def s(*groups) -> float:
        return solved(frozenset().union(*groups))

    s_abe = s(a, b, e)
    value = s(a, e) + s(b, e) - s_abe - s(e) if a and b else 0.0
    return EntropyReport(
        a=a,
        b=b,
        e=e,
        s_a=s(a),
        s_b=s(b),
        s_e=s(e),
        s_abe=s_abe,
        s_ab_given_e=s_abe - s(e),
        i_a_b=s(a) + s(b) - s(a, b) if a and b else 0.0,
        cqmi_bits=value,
        m_i_bits=0.5 * value,
    )
