"""Quantum Markov chains: construction from block data, Petz recovery and
Markovianity scoring.

A tripartite state is a quantum Markov chain when I(A:B|E) = 0,
equivalently when an isometry on E decomposes it into a classically indexed
direct sum of products across the A and B sides.  ``build_markov`` realizes
the constructive direction; the inverse structure-finding problem is out of
scope.  Verdicts are decided by a CQMI threshold (default ``MARKOV_TOL``
bits, an artifact convention reported alongside the score); recovery
fidelity is advisory diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import _as_groups, cqmi
from .errors import BadProbabilities, BadRange, InconsistentDims
from .registers import Party, Register, RegisterLayout, layout, require_distribution, require_real
from .states import (
    SUPPORT_TOL,
    Block,
    BlockState,
    ChannelMap,
    ClassicalVar,
    DensityState,
    _apply_kraus_block,
    _fidelity_matrix,
    _marginal_matrix,
    _permuted_matrix,
    _require_budget,
)
from .steps import Scenario, Step, StepKind, _copy_label

#: CQMI in bits at or below which ``markov_score`` calls a state a Markov
#: chain, the free states of the resource theory.
MARKOV_TOL = 1e-8


@dataclass(frozen=True)
class MarkovEntry:
    """One block: weight p, an Alice-side state and a Bob-side state.

    ``sigma`` lives on Alice-tagged registers plus Eve-tagged memory
    registers; ``tau`` on Bob-tagged plus Eve-tagged ones.
    """

    p: float
    sigma: DensityState
    tau: DensityState


@dataclass(frozen=True)
class MarkovComponents:
    """The data of a block decomposition: {p_j, sigma_j, tau_j}."""

    entries: tuple[MarkovEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise InconsistentDims("need at least one block entry")
        require_distribution("weights", (e.p for e in entries), BadProbabilities)
        first = entries[0]
        for e in entries[1:]:
            if e.sigma.layout != first.sigma.layout or e.tau.layout != first.tau.layout:
                raise InconsistentDims("all entries must share the sigma/tau layouts")
        sig, tau = first.sigma.layout, first.tau.layout
        if set(sig.labels) & set(tau.labels):
            raise InconsistentDims("sigma and tau layouts must use disjoint labels")
        if not sig.party_labels(Party.ALICE) or not tau.party_labels(Party.BOB):
            raise InconsistentDims("sigma needs alice-tagged and tau bob-tagged registers")

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(e.p for e in self.entries)


INDEX_LABEL = "E0"


def _block_layouts(components: MarkovComponents) -> tuple[RegisterLayout, RegisterLayout]:
    """The registers of the built block state: first as they are assembled
    (sigma's, tau's, then the block index ``INDEX_LABEL``), then in the
    state's order (alice..., bob..., index, eve memories...)."""
    sig_lay = components.entries[0].sigma.layout
    tau_lay = components.entries[0].tau.layout
    if INDEX_LABEL in sig_lay or INDEX_LABEL in tau_lay:
        raise InconsistentDims(f"index label {INDEX_LABEL!r} clashes with component registers")
    index = Register(INDEX_LABEL, len(components.entries), Party.EVE)
    raw = RegisterLayout(sig_lay.registers + tau_lay.registers + (index,))
    order = (
        sig_lay.party_labels(Party.ALICE)
        + tau_lay.party_labels(Party.BOB)
        + (INDEX_LABEL,)
        + sig_lay.party_labels(Party.EVE)
        + tau_lay.party_labels(Party.EVE)
    )
    if len(order) != len(raw):
        raise InconsistentDims("component registers must be tagged alice/bob/eve only")
    return raw, raw.reordered(order)


def build_markov(components: MarkovComponents) -> DensityState:
    """Assemble sum_j p_j sigma_j (x) tau_j (x) |j><j|, ordered as
    (alice..., bob..., index, eve memories...): the block state of one
    block p_j sigma_j (x) tau_j per index value j, densified by its
    ``to_density`` once the budget is checked."""
    raw, lay = _block_layouts(components)
    _require_budget(raw.dim)
    index = ClassicalVar(len(components.entries), (INDEX_LABEL,))
    # sigma (x) tau holds the registers of ``raw`` but the last, the index.
    axes = [raw.index(lbl) for lbl in lay.without(index.labels).labels]
    blocks = []
    for j, e in enumerate(components.entries):
        product = np.kron(e.sigma.matrix, e.tau.matrix)
        blocks.append(Block((j,), e.p * _permuted_matrix(product, raw.dims[:-1], axes)))
    return BlockState(lay, (index,), tuple(blocks)).to_density()


class PetzResult(NamedTuple):
    state: DensityState
    pre_trace: float


def _matrix_power_psd(matrix: np.ndarray, power: float) -> np.ndarray:
    """Hermitian matrix power with pseudo-inversion on the support."""
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.clip(vals, 0.0, None)
    out = np.zeros_like(vals)
    support = vals > SUPPORT_TOL
    out[support] = vals[support] ** power
    return (vecs * out) @ vecs.conj().T


def petz_recover(state: DensityState, a, b, e) -> PetzResult:
    """Reconstruct the state from its AE marginal through E.

    Applies rho_BE^{1/2} (rho_E^{-1/2} rho_AE rho_E^{-1/2} (x) I_B)
    rho_BE^{1/2} with pseudo-inverses on supports, renormalizes to unit
    trace and reports the pre-normalization trace.  Output registers are in
    (a..., b..., e...) order.  One call of the kernel that applies every
    channel: K = rho_BE^{1/2} (I_B (x) rho_E^{-1/2}) sandwiches rho_AE (x) I_B.
    """
    a, b, e = tuple(a), tuple(b), tuple(e)
    lay = state.layout.subset(a + b + e).reordered(a + b + e)
    axes = [state.layout.index(lbl) for lbl in lay.labels]
    rho = _marginal_matrix(state.matrix, state.layout.dims, axes)
    rho_e = _marginal_matrix(rho, lay.dims, lay.positions(e)) if e else np.eye(1, dtype=complex)
    rho_be = _marginal_matrix(rho, lay.dims, lay.positions(b + e))
    rho_ae = _marginal_matrix(rho, lay.dims, lay.positions(a + e))
    e_inv_half = _matrix_power_psd(rho_e, -0.5)
    be_half = _matrix_power_psd(rho_be, 0.5)

    # rho_AE (x) I_B is held in (a..., e..., b...) order; K acts on b + e,
    # so the kernel returns (a..., b..., e...), the order of ``lay``.
    aeb = lay.reordered(a + e + b)
    eye_b = np.eye(lay.dim_of(b))
    k = be_half @ np.kron(eye_b, e_inv_half)
    on = [aeb.index(lbl) for lbl in b + e]
    y = _apply_kraus_block(np.kron(rho_ae, eye_b), aeb.dims, on, (k,), len(k))
    t = float(np.trace(y).real)
    y = y / t
    y = 0.5 * (y + y.conj().T)
    return PetzResult(DensityState(lay, y), t)


@dataclass(frozen=True)
class MarkovScore:
    """CQMI-threshold verdict with advisory recovery fidelity."""

    cqmi_bits: float
    recovery_fidelity: float
    verdict: bool
    tol: float


def markov_score(
    state: DensityState, a=None, b=None, e=None, tol: float = MARKOV_TOL
) -> MarkovScore:
    tol = require_real("tol", tol, 0, BadRange)
    a, b, e = _as_groups(state, a, b, e)
    value = cqmi(state, a, b, e)
    recovered, _ = petz_recover(state, a, b, e)
    axes = [state.layout.index(lbl) for lbl in a + b + e]
    target = _marginal_matrix(state.matrix, state.layout.dims, axes)
    fid = _fidelity_matrix(recovered.matrix, target)
    return MarkovScore(value, fid, bool(value <= tol), tol)


def _preparation_kraus(entries, side: str, n: int):
    """Controlled-preparation Kraus operators: conditioned on the shared
    index j, prepare the j-th block state from a trivial input."""
    spectra = [np.linalg.eigh(getattr(e, side).matrix) for e in entries]
    d = spectra[0][0].shape[0]
    ops = []
    for i in range(d):
        k = np.zeros((n * d, n), dtype=complex)
        for j, (vals, vecs) in enumerate(spectra):
            if vals[i] > 0.0:
                k[j * d : (j + 1) * d, j] = math.sqrt(vals[i]) * vecs[:, i]
        ops.append(k)
    return ops


def preparation_script(components: MarkovComponents):
    """The constructive protocol generating the block state by free steps.

    Alice draws and broadcasts the block index, each side prepares its
    component conditioned on the index and forwards the memory half to Eve,
    and the local index copies are discarded.  Returns the trivial starting
    scenario and the step list; the run costs nothing and classifies as the
    fully free class.
    """
    entries = components.entries
    n = len(entries)
    sig_lay = entries[0].sigma.layout
    tau_lay = entries[0].tau.layout
    start = Scenario(
        DensityState(
            layout(("A0", 1, "alice"), ("B0", 1, "bob"), ("E0q", 1, "eve")),
            np.eye(1, dtype=complex),
        )
    )
    coin = tuple(np.array([[math.sqrt(e.p)]], dtype=complex) for e in entries)
    ja, jb = _copy_label("J", Party.ALICE), _copy_label("J", Party.BOB)
    sig_regs = tuple(Register(r.label, r.dim, Party.ALICE) for r in sig_lay.registers)
    tau_regs = tuple(Register(r.label, r.dim, Party.BOB) for r in tau_lay.registers)
    steps = [
        Step(StepKind.BROADCAST_A, operators=coin, on=("A0",), msg_label="J"),
        Step(
            StepKind.LOCAL_A,
            channel=ChannelMap(_preparation_kraus(entries, "sigma", n)),
            on=(ja, "A0"),
            out=(Register(ja, n, Party.ALICE),) + sig_regs,
        ),
        Step(
            StepKind.LOCAL_B,
            channel=ChannelMap(_preparation_kraus(entries, "tau", n)),
            on=(jb, "B0"),
            out=(Register(jb, n, Party.BOB),) + tau_regs,
        ),
    ]
    for lbl in sig_lay.party_labels(Party.EVE) + tau_lay.party_labels(Party.EVE):
        steps.append(Step(StepKind.QUANTUM_TO_E, register=lbl))
    steps.append(Step(StepKind.LOCAL_A, discard=(ja,)))
    steps.append(Step(StepKind.LOCAL_B, discard=(jb,)))
    return start, tuple(steps)

