"""Multipartite quantum states and the structural operations on them.

States are plain complex numpy matrices tagged with a
:class:`~nmk.registers.RegisterLayout`.  Everything here is immutable after
construction (arrays are held read-only; a caller's writeable array is
copied, never frozen in place), so values can be shared freely across
concurrent workers.

A :class:`DensityState` is validated when it is built, and it is built only
where a state is handed to a caller: public constructors, readers and the
result of a structural operation or channel, once, in its final register
order.  Code that only needs numbers (entropies, marginals, interim
register orders) works on raw matrices through ``_marginal_matrix`` and
``_permuted_matrix`` and builds no state.

A :class:`BlockState` is the classical-quantum form the step simulator
keeps, rho = sum_x p_x |x><x|^(copies) (x) rho_x: classical variables, each
held in one or more copy registers, times one weighted block p_x rho_x (its
share of the dense matrix) on the quantum registers per value.  A copy of a
classical value adds a label, not dimension.  Its operations act block by
block through the same raw-matrix kernels.  One check, ``_checked_blocks``,
checks the blocks when a block state is built, once, at the tolerances of
:class:`DensityState`, drops those of trace <= ``PRUNE_TOL`` and requires
the kept blocks' traces to sum to 1.

Conventions
-----------
* Matrices are stored row-major in the big-endian register order of the
  layout: the first register is the most significant index.
* Eigenvalues in ``[EIG_FLOOR, 0]`` are clamped to zero before entropies
  and purifications; anything below ``EIG_FLOOR`` fails validation.  An
  eigenvalue of at most ``SUPPORT_TOL`` lies outside the support:
  entropies drop it (0 log 0 = 0), and so do purifications, ranks and
  pseudo-inverses.
* One size rule, the budget B (default 4096, override with the
  ``NMK_DIM_BUDGET`` environment variable), caps what is allocated: a dense
  state's dimension is at most B, and a block state of n blocks of quantum
  dimension q holds n q^2 <= B^2 entries (the dense case is n = 1).
  Channel application, tensor products, block-state steps and densifying a
  block state check it before allocating.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BadDims,
    BadParams,
    BudgetExceeded,
    DimensionMismatch,
    DuplicateLabel,
    InvariantViolation,
    LayoutMismatch,
    NotClassicalRegister,
)
from .registers import Party, Register, RegisterLayout, is_integer, require_integer
from .registers import require_distribution

#: Max-abs |m - m^dagger| of a state's matrix (and of each block).
HERMITIAN_TOL = 1e-10
#: |trace - 1| of a state, a block state's summed kept blocks, and ||psi||^2
#: of a pure state or of each witness member.
TRACE_TOL = 1e-10
#: The least eigenvalue a state may have; values in [EIG_FLOOR, 0) count as 0.
EIG_FLOOR = -1e-9
#: Shift above |EIG_FLOOR| in the positivity check's Cholesky, so that a
#: matrix whose least eigenvalue is EIG_FLOOR still factors.
CHOLESKY_SLACK = 1e-12
#: Max-abs deviation of a trace-preserving map's sum K^dagger K from I.
KRAUS_TOL = 1e-9
#: Max-abs deviation of a declared inverse's composition from the identity.
INVERSE_TOL = 1e-8
#: A block, member or slice of trace (weight) at most this is dropped.
PRUNE_TOL = 1e-14
#: An eigenvalue at most this lies outside the support.
SUPPORT_TOL = 1e-12
#: An amplitude of magnitude at most this is zero when the first nonzero
#: amplitude of an eigenvector fixes a purification's phase.
PHASE_TOL = 1e-12
#: Max-abs off-diagonal entry of a register read as classical.
CLASSICAL_TOL = 1e-8
DEFAULT_DIM_BUDGET = 4096


def dim_budget() -> int:
    """Hard cap on the total dimension of a dense state: ``NMK_DIM_BUDGET``,
    which must be a positive integer."""
    raw = os.environ.get("NMK_DIM_BUDGET", str(DEFAULT_DIM_BUDGET))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise BadParams(f"NMK_DIM_BUDGET must be a positive integer, got {raw!r}")
    return int(raw)


def _require_budget(size: int, what: str = "total dimension", power: int = 1) -> None:
    """Refuse a ``size`` above the budget to the ``power`` (2 for a count
    of matrix entries)."""
    budget = dim_budget() ** power
    if size > budget:
        raise BudgetExceeded(f"{what} {size} exceeds the budget of {budget}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only C-contiguous complex array.  A read-only input
    of that form is shared; anything else is copied, so the caller's array
    stays writeable and no later write to it reaches the holder."""
    if isinstance(arr, np.ndarray) and not arr.flags.writeable:
        arr = np.ascontiguousarray(arr, dtype=complex)
    else:
        arr = np.array(arr, dtype=complex, order="C")
    arr.flags.writeable = False
    return arr


def _sealed(arr: np.ndarray) -> np.ndarray:
    """``arr``, a fresh array no caller holds, as a read-only C-contiguous
    complex array: frozen in place when it has that form already, so that
    :func:`_freeze` shares it instead of copying it."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.flags.writeable = False
    return arr


def _floored(vals: np.ndarray) -> np.ndarray:
    """``vals``, clamped in place: values in ``[EIG_FLOOR, 0)`` become 0."""
    vals[(vals < 0.0) & (vals >= EIG_FLOOR)] = 0.0
    return vals


def _clamped_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues with the small-negative floor applied."""
    return _floored(np.linalg.eigvalsh(matrix))


def _check_hermitian(m: np.ndarray) -> None:
    """Finite entries and hermiticity within ``HERMITIAN_TOL`` max-abs."""
    if not np.isfinite(m).all():
        raise InvariantViolation("finite", "matrix entries must be finite")
    herm_err = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if not herm_err <= HERMITIAN_TOL:
        raise InvariantViolation("hermitian", f"max |m - m^dagger| = {herm_err:.3e}")


def _check_positive(m: np.ndarray) -> None:
    """Minimum eigenvalue at least ``EIG_FLOOR``."""
    # Cheap positive check first; fall back to eigenvalues for the diagnostic.
    shifted = np.asarray(m) + (abs(EIG_FLOOR) + CHOLESKY_SLACK) * np.eye(m.shape[0])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lo = float(np.min(np.linalg.eigvalsh(m)))
        if not lo >= EIG_FLOOR:
            raise InvariantViolation(
                "positive_semidefinite", f"minimum eigenvalue {lo:.3e} < {EIG_FLOOR}"
            ) from None


@dataclass(frozen=True, eq=False)
class DensityState:
    """A density matrix on a register layout.

    Validates hermiticity (``HERMITIAN_TOL`` max-abs), unit trace
    (``TRACE_TOL``) and positivity (min eigenvalue >= ``EIG_FLOOR``) on
    construction.
    """

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        d = self.layout.dim
        _require_budget(d)
        m = self.matrix
        if m.shape != (d, d):
            raise InvariantViolation(
                "shape", f"matrix shape {m.shape} does not match layout dimension {d}"
            )
        _check_hermitian(m)
        tr_err = abs(np.trace(m) - 1.0)
        if not tr_err <= TRACE_TOL:
            raise InvariantViolation("unit_trace", f"|trace - 1| = {tr_err:.3e}")
        _check_positive(m)

    @property
    def dim(self) -> int:
        return self.layout.dim

    def permuted(self, labels) -> "DensityState":
        """Reorder registers to ``labels`` (any iterable, read once); the
        matrix is permuted to match."""
        labels = tuple(labels)
        axes = [self.layout.index(lbl) for lbl in labels]
        matrix = _permuted_matrix(self.matrix, self.layout.dims, axes)
        return DensityState(self.layout.reordered(labels), _sealed(matrix))


@dataclass(frozen=True, eq=False)
class PureState:
    """A state vector on a register layout, with | ||psi||^2 - 1 | <=
    ``TRACE_TOL``: the unit-trace tolerance of its :class:`DensityState`."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _freeze(self.amplitudes).reshape(-1))
        if self.amplitudes.shape != (self.layout.dim,):
            raise InvariantViolation(
                "shape",
                f"amplitude length {self.amplitudes.shape} does not match layout dimension {self.layout.dim}",
            )
        if not np.isfinite(self.amplitudes).all():
            raise InvariantViolation("finite", "amplitudes must be finite")
        # The sum np.trace takes over |psi><psi|: an accepted vector densifies.
        err = abs(np.sum(self.amplitudes * self.amplitudes.conj()) - 1.0)
        if not err <= TRACE_TOL:
            raise InvariantViolation("unit_norm", f"| ||psi||^2 - 1 | = {err:.3e}")

    @property
    def dim(self) -> int:
        return self.layout.dim

    def to_density(self) -> DensityState:
        _require_budget(self.dim)
        return DensityState(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class ChannelMap:
    """A completely positive map given by Kraus operators.

    ``declared_inverse`` names a map whose composition with this one is the
    identity; reversibility is checked operationally when the map is built,
    not syntactically: the Choi matrix of the composition must match the
    identity's entrywise within ``INVERSE_TOL``, the test on every matrix unit
    (see ``_inverse_deviation``).  Kraus operators must be finite, and the
    completeness sum ``sum K^dagger K = I`` is enforced unless
    ``trace_preserving`` is False (needed for declared inverses of proper
    isometries, which are only trace-preserving on the range).
    """

    kraus: tuple[np.ndarray, ...]
    declared_inverse: "ChannelMap | None" = None
    trace_preserving: bool = True

    def __post_init__(self):
        ops = tuple(_freeze(k) for k in self.kraus)
        if not ops:
            raise BadDims("a channel needs at least one Kraus operator")
        s, r = ops[0].shape
        for k in ops:
            if k.shape != (s, r):
                raise DimensionMismatch("Kraus operators must share one shape")
            if not np.isfinite(k).all():
                raise InvariantViolation("finite", "Kraus operators must be finite")
        object.__setattr__(self, "kraus", ops)
        if self.trace_preserving:
            comp = sum(k.conj().T @ k for k in ops)
            err = np.max(np.abs(comp - np.eye(r)))
            if not err <= KRAUS_TOL:
                raise InvariantViolation(
                    "kraus_completeness", f"max |sum K^dagger K - I| = {err:.3e}"
                )
        if self.declared_inverse is not None:
            self.verify_inverse()

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def verify_inverse(self):
        """Check that the Choi matrix of inverse o channel is the identity's."""
        inv = self.declared_inverse
        if inv is None:
            raise InvariantViolation("inverse_composition", "no declared inverse")
        if inv.in_dim != self.out_dim or inv.out_dim != self.in_dim:
            raise DimensionMismatch("declared inverse dimensions do not match the channel")
        err = _inverse_deviation(self.kraus, inv.kraus)
        if not err <= INVERSE_TOL:
            raise InvariantViolation(
                "inverse_composition", f"max |Choi(inverse o channel) - Choi(id)| = {err:.3e}"
            )

    @classmethod
    def unitary(cls, u: np.ndarray) -> "ChannelMap":
        u = np.asarray(u, dtype=complex)
        return cls((u,), declared_inverse=cls((u.conj().T,)))

    @classmethod
    def isometry(cls, v: np.ndarray) -> "ChannelMap":
        """Channel rho -> V rho V^dagger with the co-isometry as inverse."""
        v = np.asarray(v, dtype=complex)
        if v.shape[0] < v.shape[1]:
            raise BadDims("an isometry needs output dim >= input dim")
        inv = cls((v.conj().T,), trace_preserving=False)
        return cls((v,), declared_inverse=inv)

    @classmethod
    def dephasing(cls, dim: int) -> "ChannelMap":
        dim = require_integer("dim", dim, 1)
        _require_budget(dim**3, "dephasing Kraus entries", power=2)
        ops = []
        for i in range(dim):
            p = np.zeros((dim, dim), dtype=complex)
            p[i, i] = 1.0
            ops.append(p)
        return cls(tuple(ops))

    @classmethod
    def mixing(cls, unitaries, probs) -> "ChannelMap":
        """Random-unitary channel sum_i p_i U_i rho U_i^dagger."""
        probs = require_distribution("probs", probs)
        ops = tuple(np.asarray(u, dtype=complex) for u in unitaries)
        if len(ops) != len(probs):
            raise DimensionMismatch(f"probs and unitaries must pair up: {len(probs)} != {len(ops)}")
        return cls(tuple(math.sqrt(max(p, 0.0)) * u for u, p in zip(ops, probs)))


def _inverse_deviation(kraus, inverse_kraus) -> float:
    """max |C - vec(I) vec(I)^dagger| for C = sum_jk vec(L_j K_k) vec(L_j K_k)^dagger,
    the Choi matrix of the map with Kraus operators L_j K_k (row-major vec).
    Entry ((a, i), (b, j)) of C is entry (a, b) of the map applied to the
    matrix unit |i><j|, so this is the largest deviation from the identity
    over all matrix units.  The Choi dimension is checked against the
    budget first."""
    r = kraus[0].shape[1]
    _require_budget(r * r, "inverse check dimension")
    vecs = np.array([l @ k for l in inverse_kraus for k in kraus]).reshape(-1, r * r)
    ident = np.eye(r).reshape(-1)
    return float(np.max(np.abs(vecs.T @ vecs.conj() - np.outer(ident, ident))))


# ---------------------------------------------------------------------------
# structural operations


def tensor(a: DensityState, b: DensityState) -> DensityState:
    """Kronecker product in register order; label sets must be disjoint."""
    clash = set(a.layout.labels) & set(b.layout.labels)
    if clash:
        raise DuplicateLabel(f"labels present on both factors: {sorted(clash)}")
    _require_budget(a.dim * b.dim)
    return DensityState(
        RegisterLayout(a.layout.registers + b.layout.registers),
        _sealed(np.kron(a.matrix, b.matrix)),
    )


def _permuted_matrix(matrix: np.ndarray, dims, axes) -> np.ndarray:
    """``matrix`` on registers of ``dims`` with its registers reordered so
    that register ``axes[i]`` comes i-th, on rows and columns alike."""
    n = len(dims)
    axes = list(axes)
    t = matrix.reshape(tuple(dims) * 2).transpose(axes + [n + a for a in axes])
    return t.reshape(matrix.shape)


def _marginal_matrix(matrix: np.ndarray, dims, keep_axes) -> np.ndarray:
    """Reduced matrix on ``keep_axes``, kept registers in the order listed."""
    keep_axes = list(keep_axes)
    drop_axes = [i for i in range(len(dims)) if i not in keep_axes]
    dk = math.prod(dims[i] for i in keep_axes)
    dt = matrix.shape[0] // dk
    t = _permuted_matrix(matrix, dims, keep_axes + drop_axes).reshape(dk, dt, dk, dt)
    return np.einsum("ixjx->ij", t)


def partial_trace(state: DensityState, keep) -> DensityState:
    """Trace out every register not in ``keep`` (kept in original order)."""
    keep = tuple(keep)
    keep_axes = state.layout.positions(keep)
    reduced = _marginal_matrix(state.matrix, state.layout.dims, keep_axes)
    return DensityState(state.layout.subset(keep), _sealed(reduced))


def _split_rows(vec: np.ndarray, dims, keep_axes):
    """A vector on ``dims``, or every row of a ``(k, D)`` stack of them, as
    a ``(d_keep, d_rest)`` matrix with the kept registers first, in the
    order listed.  Returns the matrices and the register order used."""
    lead = vec.shape[:-1]
    m = len(lead)
    keep_axes = list(keep_axes)
    order = keep_axes + [i for i in range(len(dims)) if i not in keep_axes]
    dk = math.prod(dims[i] for i in keep_axes)
    arr = vec.reshape(lead + tuple(dims)).transpose(list(range(m)) + [m + i for i in order])
    return arr.reshape(lead + (dk, -1)), order


def _joined_rows(arr: np.ndarray, dims, order) -> np.ndarray:
    """The inverse of ``_split_rows``: matrices back to vectors on ``dims``."""
    lead = arr.shape[:-2]
    m = len(lead)
    t = arr.reshape(lead + tuple(dims[i] for i in order))
    back = list(range(m)) + [m + i for i in np.argsort(order)]
    return t.transpose(back).reshape(lead + (-1,))


def _pure_reduced_matrix(vec: np.ndarray, dims, keep_axes) -> np.ndarray:
    """Reduced matrix on ``keep_axes`` of a vector on ``dims``, or of every
    row of a ``(k, D)`` stack of such vectors."""
    arr, _ = _split_rows(vec, dims, keep_axes)
    return arr @ arr.conj().swapaxes(-1, -2)


def _steered_slices(psi_arr: np.ndarray, w_matrix: np.ndarray, dims, k: int):
    """The ``(k, D)`` unnormalized slices that ``w_matrix`` steers out, their
    weights, and the mask of slices heavier than ``PRUNE_TOL``."""
    slices = (psi_arr @ w_matrix.T).reshape(math.prod(dims), k).T
    # A batched np.vdot per slice: the same sums, so the weights (and every
    # objective built on them) do not depend on how members are batched.
    weights = (slices.conj()[:, None, :] @ slices[:, :, None]).real.reshape(-1)
    return slices, weights, weights > PRUNE_TOL


def steered_members(psi_arr: np.ndarray, w_matrix: np.ndarray, dims, k: int):
    """Weights and normalized ``(k', D)`` member stack of the ensemble that
    ``w_matrix``, an isometry from the reference of the (system, reference)
    purification ``psi_arr`` into (extension) x K, steers out: member i is
    the slice at flag K = i (the fastest index), a vector on ``dims``.
    Slices of weight at most ``PRUNE_TOL`` are dropped."""
    slices, weights, live = _steered_slices(psi_arr, w_matrix, dims, k)
    weights = weights[live]
    return weights, slices[live] / np.sqrt(weights)[:, None]


def _clamped_logs(vals: np.ndarray) -> np.ndarray:
    """log2 of a spectrum, with 0 where a value is at most ``SUPPORT_TOL``
    (so that ``-sum(vals * logs)`` is the entropy, with 0 log 0 = 0)."""
    return np.log2(np.where(vals > SUPPORT_TOL, vals, 1.0))


def member_value_and_grad(psi_arr: np.ndarray, w_matrix: np.ndarray, dims, k: int, signed_groups):
    """The signed member-entropy sum of the ensemble ``w_matrix`` steers out
    (see ``steered_members``), and its gradient in ``w_matrix``.

    With u_i the unnormalized slice, p_i = |u_i|^2, sigma_i^X its marginal on
    axis group X and h(sigma) = -Tr sigma log2 sigma, the value is

        F = sum_i p_i sum_X s_X S(sigma_i^X / p_i)
          = sum_i [sum_X s_X h(sigma_i^X) + p_i log2 p_i]

    for the ``(axes, sign)`` pairs of ``signed_groups``, whose signs must sum
    to 1.  Its member gradient is dF/d conj(u_i) =
    [log2 p_i - sum_X s_X (log2 sigma_i^X (x) 1)] u_i (the 1/ln 2 terms
    cancel because the signs sum to 1), and the returned gradient is
    dF/d conj(W) = G_U^T conj(psi_arr), G_U the member gradients as a
    (system, out) matrix; dF = 2 Re Tr[grad^dagger dW].

    The value comes from the normalized members' spectra, clamped at
    ``EIG_FLOOR`` and ``SUPPORT_TOL``, with one batched ``eigh`` per group.
    ``witness.objective`` reads its member sum here too: its weighted
    stack sqrt(p_i) m_i, as ``psi_arr`` with K the reference, steered by
    the identity.
    """
    slices, weights, live = _steered_slices(psi_arr, w_matrix, dims, k)
    p = weights[live]
    u = slices[live]
    root_p = np.sqrt(p)[:, None]
    members = u / root_p
    log_p = np.log2(p)
    signed = np.zeros(p.size)
    grad_u = log_p[:, None] * u
    for axes, sign in signed_groups:
        arr, order = _split_rows(members, dims, axes)
        vals, vecs = np.linalg.eigh(arr @ arr.conj().swapaxes(-1, -2))
        vals = _floored(vals)
        logs = _clamped_logs(vals)
        signed = signed + sign * -np.sum(vals * logs, axis=-1)
        # log2 sigma = log2 p + log2 (sigma / p) on the member's support.
        log_sigma = (vecs * (logs + log_p[:, None])[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        grad_u -= sign * root_p * _joined_rows(log_sigma @ arr, dims, order)
    full = np.zeros_like(slices)
    full[live] = grad_u
    grad = full.T.reshape(psi_arr.shape[0], -1).T @ psi_arr.conj()
    return float(p @ signed), grad


def purify(
    state: DensityState,
    ref_label: str,
    *,
    ref_dim: int | None = None,
    ref_party=Party.REFERENCE,
) -> PureState:
    """Purify with a reference register of dimension rank(state).

    Deterministic: eigenvalues sorted descending, and each eigenvector is
    rotated so its first nonzero amplitude is real positive.  Eigenvalues
    of at most ``SUPPORT_TOL`` are dropped; when that moves the kept sum off 1 by more
    than ``TRACE_TOL`` (a spectrum reaching down to ``EIG_FLOOR``), the kept
    eigenvalues are divided by their sum.  ``ref_dim`` may pad the reference
    beyond the rank (extra amplitudes are zero).
    """
    if ref_label in state.layout:
        raise DuplicateLabel(f"reference label {ref_label!r} already in layout")
    vals, vecs = np.linalg.eigh(state.matrix)
    vals = _floored(vals)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    kept = vals > SUPPORT_TOL
    vals, vecs = vals[kept], vecs[:, kept]
    total = float(np.sum(vals))
    if not abs(total - 1.0) <= TRACE_TOL:
        vals = vals / total
    rank = int(vals.size)
    ref_dim = rank if ref_dim is None else require_integer("ref_dim", ref_dim, rank)
    _require_budget(state.dim * ref_dim, "purification entries", power=2)
    arr = np.zeros((state.dim, ref_dim), dtype=complex)
    for i in range(rank):
        v = vecs[:, i]
        nz = np.flatnonzero(np.abs(v) > PHASE_TOL)
        if nz.size:
            v = v * (v[nz[0]].conjugate() / abs(v[nz[0]]))
        arr[:, i] = math.sqrt(vals[i]) * v
    new_layout = state.layout.extended((Register(ref_label, ref_dim, ref_party),))
    return PureState(new_layout, arr.reshape(-1))


def _purified(state: DensityState):
    """The (system, reference) matrix of the purification of ``state`` and
    the reference dimension, its rank."""
    psi = purify(state, "__ref__")
    rank = psi.layout.register("__ref__").dim
    return psi.amplitudes.reshape(state.dim, rank), rank


def _apply_kraus_block(matrix, dims, on_axes, kraus_ops, out_block_dim):
    """Apply Kraus operators on a register block, identity elsewhere: the one
    kernel behind channels, script steps and the Petz map.

    Returns the matrix in (keep..., out-block) register order, the kept
    registers in layout order.
    """
    on_axes = list(on_axes)
    keep_axes = [i for i in range(len(dims)) if i not in on_axes]
    dk = math.prod(dims[i] for i in keep_axes)
    r = math.prod(dims[i] for i in on_axes)
    t = _permuted_matrix(matrix, dims, keep_axes + on_axes).reshape(dk, r, dk * r)
    s = out_block_dim
    out = np.zeros((dk * s * dk, s), dtype=complex)
    # Entries may overflow; every caller checks its result finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in kraus_ops:
            out += (k @ t).reshape(-1, r) @ k.conj().T
    return out.reshape(dk * s, dk * s)


def _channel_layout(lay: RegisterLayout, channel: "ChannelMap", on, out):
    """The output block of ``channel`` on the registers ``on`` of ``lay``,
    registers in the channel's output order, and the layout the channel
    leaves: ``lay`` when ``out`` is None (a square channel), else the
    untouched registers followed by ``out``.  Checks the dims, the labels;
    computes nothing."""
    on_axes = [lay.index(lbl) for lbl in on]
    if len(set(on)) != len(on):
        raise DuplicateLabel(f"repeated labels in channel target: {on}")
    in_dim = math.prod(lay.dims[i] for i in on_axes)
    if channel.in_dim != in_dim:
        raise DimensionMismatch(
            f"channel input dim {channel.in_dim} does not match block dim {in_dim}"
        )
    if out is None:
        if channel.out_dim != in_dim:
            raise DimensionMismatch("non-square channel needs an output block")
        return tuple(lay.registers[i] for i in on_axes), lay
    block = tuple(out)
    block_dim = math.prod(r.dim for r in block)
    if block_dim != channel.out_dim:
        raise DimensionMismatch(
            f"output block dim {block_dim} does not match channel output {channel.out_dim}"
        )
    return block, RegisterLayout(tuple(r for r in lay.registers if r.label not in on) + block)


def _channel_matrix(matrix, lay: RegisterLayout, on, kraus, block, out: RegisterLayout):
    """``sum_k K matrix K^dagger`` for ``kraus`` on the registers ``on`` of
    ``lay`` (identity elsewhere), the output block being the registers
    ``block``.  The result is in the order ``out`` lists the untouched
    registers and the block; labels of ``out`` outside both are skipped."""
    keep = tuple(r for r in lay.registers if r.label not in on)
    raw = RegisterLayout(keep + tuple(block))
    block_dim = math.prod(r.dim for r in block)
    mat = _apply_kraus_block(matrix, lay.dims, [lay.index(lbl) for lbl in on], kraus, block_dim)
    axes = [raw.index(lbl) for lbl in out.labels if lbl in raw]
    return _permuted_matrix(mat, raw.dims, axes)


def apply_channel(
    state: DensityState,
    channel: ChannelMap,
    on,
    out=None,
) -> DensityState:
    """Apply ``channel`` to the registers ``on``; identity on the rest.

    ``on`` is an ordered sequence of labels whose dimension product must
    match the channel input.  ``out``, a sequence of :class:`Register` in
    the channel's output order, replaces the block and is appended after the
    untouched registers; with ``out`` omitted the channel must be square and
    the layout is unchanged.  The output dimension is checked against the
    budget before anything is computed.  The channel itself, its declared
    inverse included, was checked when it was built and is not checked
    again; the result is validated once, as a :class:`DensityState`.
    """
    on = tuple(on)
    block, out_layout = _channel_layout(state.layout, channel, on, out)
    _require_budget(out_layout.dim, "channel output dimension")
    matrix = _channel_matrix(state.matrix, state.layout, on, channel.kraus, block, out_layout)
    return DensityState(out_layout, _sealed(matrix))


# ---------------------------------------------------------------------------
# block-classical states


class ClassicalVar(NamedTuple):
    """A classical value of ``dim`` levels, held in identical copies: the
    layout registers ``labels``."""

    dim: int
    labels: tuple[str, ...]


class Block(NamedTuple):
    """One joint value of the classical variables and the weighted state
    p_x rho_x of the quantum registers (layout order) given it: the block's
    share of the dense matrix, whose trace is the value's probability."""

    values: tuple[int, ...]
    matrix: np.ndarray


class _CheckedBlocks(tuple):
    """Blocks that passed ``_checked_blocks``, or the one block of a
    :class:`DensityState`, which passed the same checks.  A block state
    built on them shares them without checking them again."""


def _checked_blocks(blocks) -> _CheckedBlocks:
    """``blocks`` with read-only matrices, the one block check and pruning
    rule: each block, however light, has a finite trace and is hermitian and
    positive, so pruning hides no bad block; the blocks of trace <=
    ``PRUNE_TOL`` are dropped, and the traces of those kept sum to 1 within
    ``TRACE_TOL``, so the state they build has unit trace."""
    blocks = [Block(tuple(v), _freeze(m)) for v, m in blocks]
    kept, traces = [], []
    for block in blocks:
        trace = np.trace(block.matrix)
        if not np.isfinite(trace.real):
            raise InvariantViolation("finite", f"block trace must be finite, got {trace.real}")
        _check_hermitian(block.matrix)
        if trace.real > PRUNE_TOL:
            kept.append(block)
            traces.append(trace)
    tr_err = abs(sum(traces) - 1.0)
    if not tr_err <= TRACE_TOL:
        raise InvariantViolation("unit_trace", f"|trace - 1| = {tr_err:.3e}")
    for _, m in blocks:
        _check_positive(m)
    return _CheckedBlocks(kept)


@dataclass(frozen=True, eq=False)
class BlockState:
    """rho = sum_x p_x |x><x|^(copies) (x) rho_x on ``layout``.

    ``classical`` lists the classical variables; a block's ``values`` give
    one value per variable, in that order.  Every other register of the
    layout is quantum and is held in each block's matrix.

    A block's ``matrix`` is the weighted block p_x rho_x.  A block state
    checks itself when it is built: every copy register has its variable's
    dim, every value is in its variable's range, every matrix is square of
    the quantum dimension, and the blocks pass ``_checked_blocks``, which
    also drops the light ones.  Blocks taken from a state built earlier (by
    ``from_density``, ``retagged`` or a classical copy) were checked then.
    """

    layout: RegisterLayout
    classical: tuple[ClassicalVar, ...]
    blocks: tuple[Block, ...]

    def __post_init__(self):
        for var in self.classical:
            for lbl in var.labels:
                if self.layout.register(lbl).dim != var.dim:
                    raise InvariantViolation(
                        "copy_dim", f"copy register {lbl!r} does not have {var.dim} levels"
                    )
        q_dim = self.quantum.dim
        for values, matrix in self.blocks:
            if len(values) != len(self.classical) or not all(
                is_integer(v) and 0 <= v < var.dim
                for v, var in zip(values, self.classical)
            ):
                raise InvariantViolation(
                    "classical_value", f"block values {values!r} outside the variables' ranges"
                )
            if np.shape(matrix) != (q_dim, q_dim):
                raise InvariantViolation(
                    "shape", f"block shape {np.shape(matrix)} is not the quantum dimension {q_dim}"
                )
        if not isinstance(self.blocks, _CheckedBlocks):
            object.__setattr__(self, "blocks", _checked_blocks(self.blocks))

    @classmethod
    def from_density(cls, state: DensityState) -> "BlockState":
        """The one-block form of ``state``, sharing its checked matrix."""
        return cls(state.layout, (), _CheckedBlocks((Block((), state.matrix),)))

    @property
    def dim(self) -> int:
        """Total (layout) dimension: the dimension of the dense state."""
        return self.layout.dim

    @cached_property
    def quantum(self) -> RegisterLayout:
        """The quantum registers, in layout order."""
        return _quantum_layout(self.layout, self.classical)

    def to_density(self) -> DensityState:
        """The dense state, checked against the budget before it is built."""
        _require_budget(self.dim)
        q = self.quantum
        copies = [(lbl, i) for i, var in enumerate(self.classical) for lbl in var.labels]
        c_dims = [self.classical[i].dim for _, i in copies]
        c_size = math.prod(c_dims)
        # Built in (quantum..., copies...) order: block x sits where every
        # copy reads its value.
        full = np.zeros((q.dim * c_size,) * 2, dtype=complex)
        for values, matrix in self.blocks:
            c = _flat_index([values[i] for _, i in copies], c_dims)
            full[c::c_size, c::c_size] += matrix
        raw = q.labels + tuple(lbl for lbl, _ in copies)
        axes = [raw.index(lbl) for lbl in self.layout.labels]
        dense = _permuted_matrix(full, q.dims + tuple(c_dims), axes)
        return DensityState(self.layout, _sealed(dense))

    def group_marginals(self, labels=None) -> list[np.ndarray]:
        """The marginal on ``labels`` (all registers if None) as the list of
        matrices it is the direct sum of: the merged weighted blocks that
        ``_traced`` leaves once every other register is traced out."""
        labels = self.layout.labels if labels is None else tuple(labels)
        self.layout.positions(labels)
        drop = set(self.layout.labels) - set(labels)
        return [m for _, m in self._traced(drop)[1]]

    # -- operations ----------------------------------------------------------
    def retagged(self, label: str, party) -> "BlockState":
        """The same state with one register moved to ``party``; the blocks
        are shared, not recomputed or checked again."""
        return BlockState(self.layout.retagged(label, party), self.classical, self.blocks)

    def channel(self, channel: ChannelMap, on, out=None) -> "BlockState":
        """Apply ``channel`` to the registers ``on`` of every block, as
        :func:`apply_channel` would to the dense state: ``out`` is None (a
        square channel) or the registers appended after the untouched ones.
        A classical copy named in ``on`` first becomes a quantum register
        |x><x| in every block."""
        on = tuple(on)
        block, out_layout = _channel_layout(self.layout, channel, on, out)
        classical, parts = self._quantized(on)
        q = _quantum_layout(self.layout, classical)
        q_out = q.dim // channel.in_dim * channel.out_dim
        _require_budget(len(parts) * q_out**2, "block-state entries", power=2)
        parts = [
            (v, _channel_matrix(m, q, on, channel.kraus, block, out_layout)) for v, m in parts
        ]
        return _settled(out_layout, classical, parts)

    def measured(self, operators, on, copies) -> "BlockState":
        """Measure the registers ``on`` with the operators (acting in ``on``
        order) and keep the outcome as a new classical variable whose copies
        are the registers ``copies``, appended to the layout."""
        on = tuple(on)
        layout = self.layout.extended(copies)
        classical, parts = self._quantized(on)
        q = _quantum_layout(self.layout, classical)
        _require_budget(len(parts) * len(operators) * q.dim**2, "block-state entries", power=2)
        block = tuple(q.register(lbl) for lbl in on)
        parts = [
            (v + (k,), _channel_matrix(m, q, on, (op,), block, q))
            for v, m in parts
            for k, op in enumerate(operators)
        ]
        var = ClassicalVar(len(operators), tuple(r.label for r in copies))
        return _settled(layout, classical + (var,), parts)

    def discarded(self, labels) -> "BlockState":
        """Trace out the registers ``labels`` (any iterable, read once)
        through ``_traced``: a classical variable that loses its last copy
        stops separating blocks, and the blocks it separated are merged."""
        drop = set(labels)
        return _settled(self.layout.without(drop), *self._traced(drop))

    def _traced(self, drop):
        """Classical variables and merged weighted block marginals once the
        registers ``drop`` (a set) are traced out: the one block trace
        behind ``discarded`` and ``group_marginals``."""
        q = self.quantum
        keep = [i for i, lbl in enumerate(q.labels) if lbl not in drop]
        classical = _without_copies(self.classical, drop)
        parts = [(v, _marginal_matrix(m, q.dims, keep)) for v, m in self.blocks]
        return _merged(classical, parts)

    def copied(self, label: str, copy: Register) -> "BlockState":
        """Append the register ``copy``, a copy of the classical value in
        register ``label``.  A classical copy is relabeled with no scan; a
        quantum register must be diagonal within ``CLASSICAL_TOL`` in every
        (weighted) block and becomes a classical variable, splitting each
        block; a split adds no entries, so the budget needs no check."""
        layout = self.layout.extended((copy,))
        for i, var in enumerate(self.classical):
            if label in var.labels:
                classical = list(self.classical)
                classical[i] = ClassicalVar(var.dim, var.labels + (copy.label,))
                return BlockState(layout, tuple(classical), self.blocks)
        q = self.quantum
        axis = q.index(label)
        d = q.dims[axis]
        rest = q.dim // d
        order = [i for i in range(len(q)) if i != axis] + [axis]
        idx = np.arange(d)
        parts = []
        for values, matrix in self.blocks:
            t = _permuted_matrix(matrix, q.dims, order).reshape(rest, d, rest, d)
            off = t.copy()
            off[:, idx, :, idx] = 0.0
            if not float(np.max(np.abs(off))) <= CLASSICAL_TOL:
                raise NotClassicalRegister(
                    f"register {label!r} is not classical (diagonal) within {CLASSICAL_TOL}"
                )
            parts += [(values + (x,), t[:, x, :, x]) for x in range(d)]
        var = ClassicalVar(d, (label, copy.label))
        return _settled(layout, self.classical + (var,), parts)

    def _quantized(self, labels):
        """Classical variables and block matrices once every classical copy
        among ``labels`` is held as a quantum register |x><x| (in layout
        order) in each block."""
        owner = {lbl: i for i, var in enumerate(self.classical) for lbl in var.labels}
        moving = [lbl for lbl in self.layout.labels if lbl in owner and lbl in labels]
        if not moving:
            return self.classical, self.blocks
        q = self.quantum
        m_dims = [self.classical[owner[lbl]].dim for lbl in moving]
        size = math.prod(m_dims)
        raw = q.labels + tuple(moving)
        raw_dims = q.dims + tuple(m_dims)
        _require_budget(len(self.blocks) * (q.dim * size) ** 2, "block-state entries", power=2)
        axes = [raw.index(lbl) for lbl in self.layout.labels if lbl in raw]
        lifted = []
        for values, m in self.blocks:
            proj = np.zeros((size, size), dtype=complex)
            c = _flat_index([values[owner[lbl]] for lbl in moving], m_dims)
            proj[c, c] = 1.0
            lifted.append((values, _permuted_matrix(np.kron(m, proj), raw_dims, axes)))
        return _merged(_without_copies(self.classical, set(moving)), lifted)


def _quantum_layout(layout: RegisterLayout, classical) -> RegisterLayout:
    copies = {lbl for var in classical for lbl in var.labels}
    return RegisterLayout(tuple(r for r in layout.registers if r.label not in copies))


def _flat_index(values, dims) -> int:
    """Big-endian index of ``values`` in a register block of ``dims``."""
    c = 0
    for v, d in zip(values, dims):
        c = c * d + v
    return c


def _without_copies(classical, labels) -> tuple[ClassicalVar, ...]:
    return tuple(
        ClassicalVar(var.dim, tuple(lbl for lbl in var.labels if lbl not in labels))
        for var in classical
    )


def _merged(classical, parts):
    """Drop the classical variables left with no copy, and sum the weighted
    block matrices ``parts`` (``(values, matrix)`` pairs) that then agree on
    every value, keyed in order of first appearance."""
    live = [i for i, var in enumerate(classical) if var.labels]
    merged: dict = {}
    for values, m in parts:
        key = tuple(values[i] for i in live)
        merged[key] = merged[key] + m if key in merged else m
    return tuple(classical[i] for i in live), list(merged.items())


def _settled(layout, classical, parts) -> BlockState:
    """The block state of the weighted ``(values, matrix)`` pairs ``parts``,
    sealed in place; the block state checks and prunes them when built."""
    blocks = tuple(Block(values, _sealed(m)) for values, m in parts)
    return BlockState(layout, tuple(classical), blocks)


def trace_distance(a: DensityState, b: DensityState) -> float:
    """Half the trace norm of the difference, in [0, 1]."""
    if a.layout.labels != b.layout.labels or a.layout.dims != b.layout.dims:
        raise LayoutMismatch("trace distance needs identical layouts")
    vals = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(vals)))


def fidelity(a: DensityState, b: DensityState) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2."""
    if a.layout.labels != b.layout.labels or a.layout.dims != b.layout.dims:
        raise LayoutMismatch("fidelity needs identical layouts")
    return _fidelity_matrix(a.matrix, b.matrix)


def _fidelity_matrix(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity of two density matrices in one register order."""
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inner = np.linalg.eigvalsh(root @ b @ root)
    inner = np.clip(inner, 0.0, None)
    return float(np.sum(np.sqrt(inner)) ** 2)
