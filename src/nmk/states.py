"""Dense multipartite quantum states and the structural operations on them.

States are plain complex numpy matrices tagged with a
:class:`~nmk.registers.RegisterLayout`.  Everything here is immutable after
construction (arrays are marked read-only), so values can be shared freely
across concurrent workers.

A :class:`DensityState` is validated when it is built, and it is built only
where a state is handed to a caller: public constructors, readers and the
result of a structural operation or channel, once, in its final register
order.  Code that only needs numbers (entropies, marginals, interim
register orders) works on raw matrices through ``_marginal_matrix`` and
``_permuted_matrix`` and builds no state.  ``DensityState.with_layout``
renames registers or changes their parties without checking the unchanged
matrix again.

Conventions
-----------
* Matrices are stored row-major in the big-endian register order of the
  layout: the first register is the most significant index.
* Eigenvalues in ``[-1e-9, 0]`` are clamped to zero before entropies and
  purifications; anything below ``-1e-9`` fails validation.
* Total dimension is capped (default 4096, override with the
  ``NMK_DIM_BUDGET`` environment variable); dense matrices only.  Channel
  application and tensor products check the cap before allocating.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadDims,
    BudgetExceeded,
    DimensionMismatch,
    DuplicateLabel,
    InvariantViolation,
    LayoutMismatch,
)
from .registers import Party, Register, RegisterLayout

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
NORM_TOL = 1e-10
KRAUS_TOL = 1e-9
INVERSE_TOL = 1e-8
PRUNE_TOL = 1e-14
DEFAULT_DIM_BUDGET = 4096


def dim_budget() -> int:
    """Hard cap on the total dimension of a dense state."""
    return int(os.environ.get("NMK_DIM_BUDGET", DEFAULT_DIM_BUDGET))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.flags.writeable = False
    return arr


def _clamped_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues with the small-negative floor applied."""
    vals = np.linalg.eigvalsh(matrix)
    vals[(vals < 0.0) & (vals >= EIG_FLOOR)] = 0.0
    return vals


@dataclass(frozen=True)
class DensityState:
    """A density matrix on a register layout.

    Validates hermiticity (1e-10 max-abs), unit trace (1e-10) and
    positivity (min eigenvalue >= -1e-9) on construction.
    """

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        d = self.layout.dim
        if d > dim_budget():
            raise BudgetExceeded(f"total dimension {d} exceeds the budget of {dim_budget()}")
        m = self.matrix
        if m.shape != (d, d):
            raise InvariantViolation(
                "shape", f"matrix shape {m.shape} does not match layout dimension {d}"
            )
        if not np.isfinite(m).all():
            raise InvariantViolation("finite", "matrix entries must be finite")
        herm_err = np.max(np.abs(m - m.conj().T)) if d else 0.0
        if herm_err > HERMITIAN_TOL:
            raise InvariantViolation("hermitian", f"max |m - m^dagger| = {herm_err:.3e}")
        tr_err = abs(np.trace(m) - 1.0)
        if tr_err > TRACE_TOL:
            raise InvariantViolation("unit_trace", f"|trace - 1| = {tr_err:.3e}")
        # Cheap positive check first; fall back to eigenvalues for the diagnostic.
        shifted = np.asarray(m) + (abs(EIG_FLOOR) + 1e-12) * np.eye(d)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lo = float(np.min(np.linalg.eigvalsh(m)))
            if lo < EIG_FLOOR:
                raise InvariantViolation(
                    "positive_semidefinite", f"minimum eigenvalue {lo:.3e} < {EIG_FLOOR}"
                ) from None

    @property
    def dim(self) -> int:
        return self.layout.dim

    def eigenvalues(self) -> np.ndarray:
        return _clamped_eigvalsh(self.matrix)

    def reduced(self, keep) -> "DensityState":
        return partial_trace(self, keep)

    def permuted(self, labels) -> "DensityState":
        return permute_registers(self, labels)

    def with_layout(self, layout: RegisterLayout) -> "DensityState":
        """The same state on ``layout``, which may rename registers or change
        their parties but must keep their dims; the already-validated matrix
        is shared, not checked again."""
        if layout.dims != self.layout.dims:
            raise LayoutMismatch(
                f"relabeling needs the same register dims, got {layout.dims} for {self.layout.dims}"
            )
        state = object.__new__(DensityState)
        object.__setattr__(state, "layout", layout)
        object.__setattr__(state, "matrix", self.matrix)
        return state

    def allclose(self, other: "DensityState", atol=1e-10) -> bool:
        return self.layout.labels == other.layout.labels and bool(
            np.allclose(self.matrix, other.matrix, atol=atol)
        )


@dataclass(frozen=True)
class PureState:
    """A state vector on a register layout (unit norm within 1e-10)."""

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
        err = abs(np.linalg.norm(self.amplitudes) - 1.0)
        if err > NORM_TOL:
            raise InvariantViolation("unit_norm", f"| ||psi|| - 1 | = {err:.3e}")

    @property
    def dim(self) -> int:
        return self.layout.dim

    def to_density(self) -> DensityState:
        return DensityState(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class ChannelMap:
    """A completely positive map given by Kraus operators.

    ``declared_inverse`` names a map whose composition with this one is the
    identity; reversibility is checked operationally on the basis of matrix
    units (tolerance 1e-8), not syntactically.  The completeness sum
    ``sum K^dagger K = I`` is enforced unless ``trace_preserving`` is False
    (needed for declared inverses of proper isometries, which are only
    trace-preserving on the range).
    """

    kraus: tuple[np.ndarray, ...]
    declared_inverse: "ChannelMap | None" = None
    trace_preserving: bool = True
    _isometry_pair: bool = field(default=False, repr=False)

    def __post_init__(self):
        ops = tuple(_freeze(k) for k in self.kraus)
        if not ops:
            raise BadDims("a channel needs at least one Kraus operator")
        s, r = ops[0].shape
        for k in ops:
            if k.shape != (s, r):
                raise DimensionMismatch("Kraus operators must share one shape")
        object.__setattr__(self, "kraus", ops)
        if self.trace_preserving:
            comp = sum(k.conj().T @ k for k in ops)
            err = np.max(np.abs(comp - np.eye(r)))
            if err > KRAUS_TOL:
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

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        return sum(k @ m @ k.conj().T for k in self.kraus)

    def verify_inverse(self, tol=INVERSE_TOL):
        """Check inverse o channel = id on the matrix-unit basis."""
        inv = self.declared_inverse
        if inv is None:
            raise InvariantViolation("inverse_composition", "no declared inverse")
        if inv.in_dim != self.out_dim or inv.out_dim != self.in_dim:
            raise DimensionMismatch("declared inverse dimensions do not match the channel")
        if self._isometry_pair:
            v = self.kraus[0]
            err = np.max(np.abs(v.conj().T @ v - np.eye(self.in_dim)))
            if err > tol:
                raise InvariantViolation("inverse_composition", f"V^dagger V - I = {err:.3e}")
            return
        r = self.in_dim
        for i in range(r):
            for j in range(r):
                unit = np.zeros((r, r), dtype=complex)
                unit[i, j] = 1.0
                back = inv.apply_matrix(self.apply_matrix(unit))
                if np.max(np.abs(back - unit)) > tol:
                    raise InvariantViolation(
                        "inverse_composition",
                        f"inverse o channel deviates from identity on unit ({i},{j})",
                    )

    @classmethod
    def unitary(cls, u: np.ndarray) -> "ChannelMap":
        u = np.asarray(u, dtype=complex)
        inv = cls((u.conj().T,), trace_preserving=True)
        return cls((u,), declared_inverse=inv, _isometry_pair=True)

    @classmethod
    def isometry(cls, v: np.ndarray) -> "ChannelMap":
        """Channel rho -> V rho V^dagger with the co-isometry as inverse."""
        v = np.asarray(v, dtype=complex)
        if v.shape[0] < v.shape[1]:
            raise BadDims("an isometry needs output dim >= input dim")
        inv = cls((v.conj().T,), trace_preserving=False)
        return cls((v,), declared_inverse=inv, _isometry_pair=True)

    @classmethod
    def from_kraus(cls, ops, declared_inverse=None) -> "ChannelMap":
        return cls(tuple(np.asarray(k, dtype=complex) for k in ops), declared_inverse)

    @classmethod
    def dephasing(cls, dim: int) -> "ChannelMap":
        ops = []
        for i in range(dim):
            p = np.zeros((dim, dim), dtype=complex)
            p[i, i] = 1.0
            ops.append(p)
        return cls(tuple(ops))

    @classmethod
    def mixing(cls, unitaries, probs) -> "ChannelMap":
        """Random-unitary channel sum_i p_i U_i rho U_i^dagger."""
        ops = tuple(
            math.sqrt(p) * np.asarray(u, dtype=complex) for u, p in zip(unitaries, probs)
        )
        return cls(ops)


# ---------------------------------------------------------------------------
# structural operations


def tensor(a: DensityState, b: DensityState) -> DensityState:
    """Kronecker product in register order; label sets must be disjoint."""
    clash = set(a.layout.labels) & set(b.layout.labels)
    if clash:
        raise DuplicateLabel(f"labels present on both factors: {sorted(clash)}")
    if a.dim * b.dim > dim_budget():
        raise BudgetExceeded(
            f"total dimension {a.dim * b.dim} exceeds the budget of {dim_budget()}"
        )
    return DensityState(
        RegisterLayout(a.layout.registers + b.layout.registers),
        np.kron(a.matrix, b.matrix),
    )


def tensor_pure(a: PureState, b: PureState) -> PureState:
    clash = set(a.layout.labels) & set(b.layout.labels)
    if clash:
        raise DuplicateLabel(f"labels present on both factors: {sorted(clash)}")
    return PureState(
        RegisterLayout(a.layout.registers + b.layout.registers),
        np.kron(a.amplitudes, b.amplitudes),
    )


def _permuted_matrix(matrix: np.ndarray, dims, axes) -> np.ndarray:
    """``matrix`` on registers of ``dims`` with its registers reordered so
    that register ``axes[i]`` comes i-th, on rows and columns alike."""
    n = len(dims)
    axes = list(axes)
    t = matrix.reshape(tuple(dims) * 2).transpose(axes + [n + a for a in axes])
    return t.reshape(matrix.shape)


def permute_registers(state: DensityState, labels) -> DensityState:
    """Reorder registers; the matrix is permuted to match."""
    axes = [state.layout.index(lbl) for lbl in labels]
    matrix = _permuted_matrix(state.matrix, state.layout.dims, axes)
    return DensityState(state.layout.reordered(tuple(labels)), matrix)


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
    keep_axes = state.layout.positions(keep)
    reduced = _marginal_matrix(state.matrix, state.layout.dims, keep_axes)
    return DensityState(state.layout.subset(keep), reduced)


def _pure_reduced_matrix(vec: np.ndarray, dims, keep_axes) -> np.ndarray:
    """Reduced matrix on ``keep_axes`` of a vector on ``dims``, or of every
    row of a ``(k, D)`` stack of such vectors."""
    lead = vec.shape[:-1]
    m = len(lead)
    keep_axes = list(keep_axes)
    drop_axes = [i for i in range(len(dims)) if i not in keep_axes]
    dk = math.prod(dims[i] for i in keep_axes)
    order = list(range(m)) + [m + i for i in keep_axes + drop_axes]
    arr = vec.reshape(lead + tuple(dims)).transpose(order).reshape(lead + (dk, -1))
    return arr @ arr.conj().swapaxes(-1, -2)


def steered_members(psi_arr: np.ndarray, w_matrix: np.ndarray, dims, k: int):
    """Weights and normalized ``(k', D)`` member stack of the ensemble that
    ``w_matrix``, an isometry from the reference of the (system, reference)
    purification ``psi_arr`` into (extension) x K, steers out: member i is
    the slice at flag K = i (the fastest index), a vector on ``dims``.
    Slices of weight at most ``PRUNE_TOL`` are dropped."""
    slices = (psi_arr @ w_matrix.T).reshape(math.prod(dims), k).T
    # A batched np.vdot per slice: the same sums, so the weights (and every
    # objective built on them) do not depend on how members are batched.
    weights = (slices.conj()[:, None, :] @ slices[:, :, None]).real.reshape(-1)
    live = weights > PRUNE_TOL
    weights = weights[live]
    return weights, slices[live] / np.sqrt(weights)[:, None]


def member_spectra(members: np.ndarray, dims, keep_axes) -> list[np.ndarray]:
    """Clamped ``(k, d_group)`` spectra of the reductions of a ``(k, D)``
    member stack onto each axis group, one batched eigensolve per group."""
    return [_clamped_eigvalsh(_pure_reduced_matrix(members, dims, axes)) for axes in keep_axes]


def purify(
    state: DensityState,
    ref_label: str,
    *,
    ref_dim: int | None = None,
    ref_party=Party.REFERENCE,
) -> PureState:
    """Purify with a reference register of dimension rank(state).

    Deterministic: eigenvalues sorted descending, and each eigenvector is
    rotated so its first nonzero amplitude is real positive.  ``ref_dim``
    may pad the reference beyond the rank (extra amplitudes are zero).
    """
    if ref_label in state.layout:
        raise DuplicateLabel(f"reference label {ref_label!r} already in layout")
    vals, vecs = np.linalg.eigh(state.matrix)
    vals = vals.copy()
    vals[(vals < 0.0) & (vals >= EIG_FLOOR)] = 0.0
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    kept = vals > 1e-12
    vals, vecs = vals[kept], vecs[:, kept]
    rank = int(vals.size)
    if ref_dim is None:
        ref_dim = rank
    elif ref_dim < rank:
        raise BadDims(f"reference dim {ref_dim} below rank {rank}")
    arr = np.zeros((state.dim, ref_dim), dtype=complex)
    for i in range(rank):
        v = vecs[:, i]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size:
            v = v * (v[nz[0]].conjugate() / abs(v[nz[0]]))
        arr[:, i] = math.sqrt(vals[i]) * v
    new_layout = state.layout.extended((Register(ref_label, ref_dim, ref_party),))
    return PureState(new_layout, arr.reshape(-1))


def _apply_kraus_block(matrix, dims, on_axes, kraus_ops, out_block_dim):
    """Apply Kraus operators on a register block, identity elsewhere.

    Returns the matrix in (keep..., out-block) register order, the kept
    registers in layout order.
    """
    on_axes = list(on_axes)
    keep_axes = [i for i in range(len(dims)) if i not in on_axes]
    dk = math.prod(dims[i] for i in keep_axes)
    r = math.prod(dims[i] for i in on_axes)
    t = _permuted_matrix(matrix, dims, keep_axes + on_axes).reshape(dk, r, dk, r)
    s = out_block_dim
    out = np.zeros((dk, s, dk, s), dtype=complex)
    for k in kraus_ops:
        tmp = np.einsum("sb,ibjd->isjd", k, t)
        out += np.einsum("isjd,td->isjt", tmp, k.conj())
    return out.reshape(dk * s, dk * s)


def apply_channel(
    state: DensityState,
    channel: ChannelMap,
    on,
    out=None,
) -> DensityState:
    """Apply ``channel`` to the registers ``on``; identity on the rest.

    ``on`` is an ordered sequence of labels whose dimension product must
    match the channel input.  ``out`` replaces the block: either a sequence
    of :class:`Register` (appended after the untouched registers) or a full
    :class:`RegisterLayout` giving the exact output order.  A block that
    holds exactly the registers of ``on`` is read in ``on`` order, the
    order of the channel's output; any other block is read in the order
    ``out`` lists it.  With ``out``
    omitted the channel must be square and the layout is unchanged.  The
    output dimension is checked against the budget before anything is
    computed.
    """
    on = tuple(on)
    on_axes = [state.layout.index(lbl) for lbl in on]
    if len(set(on)) != len(on):
        raise DuplicateLabel(f"repeated labels in channel target: {on}")
    in_dim = math.prod(state.layout.dims[i] for i in on_axes)
    if channel.in_dim != in_dim:
        raise DimensionMismatch(
            f"channel input dim {channel.in_dim} does not match block dim {in_dim}"
        )
    keep_regs = tuple(r for r in state.layout.registers if r.label not in on)
    if out is None:
        if channel.out_dim != in_dim:
            raise DimensionMismatch("non-square channel needs an output block")
        block = tuple(state.layout.registers[i] for i in on_axes)
        labels = state.layout.labels
    elif isinstance(out, RegisterLayout):
        keep_labels = {r.label for r in keep_regs}
        block = tuple(r for r in out.registers if r.label not in keep_labels)
        if {r.label for r in block} == set(on):
            block = tuple(out.register(lbl) for lbl in on)
        labels = out.labels
    else:
        block = tuple(out)
        labels = tuple(r.label for r in keep_regs + block)
    block_dim = math.prod(r.dim for r in block)
    if block_dim != channel.out_dim:
        raise DimensionMismatch(
            f"output block dim {block_dim} does not match channel output {channel.out_dim}"
        )
    raw = RegisterLayout(keep_regs + block)
    if sorted(labels) != sorted(raw.labels):
        raise LayoutMismatch("output layout labels do not match the channel result")
    out_dim = state.dim // in_dim * channel.out_dim
    if out_dim > dim_budget():
        raise BudgetExceeded(
            f"channel output dimension {out_dim} exceeds the budget of {dim_budget()}"
        )
    mat = _apply_kraus_block(state.matrix, state.layout.dims, on_axes, channel.kraus, block_dim)
    axes = [raw.index(lbl) for lbl in labels]
    return DensityState(raw.reordered(labels), _permuted_matrix(mat, raw.dims, axes))


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


def embed_operator(layout: RegisterLayout, on, op: np.ndarray) -> np.ndarray:
    """Lift ``op`` acting on the ordered labels ``on`` to the full space."""
    on_axes = [layout.index(lbl) for lbl in on]
    keep_axes = [i for i in range(len(layout)) if i not in on_axes]
    dims = layout.dims
    full = np.kron(np.eye(math.prod(dims[i] for i in keep_axes)), np.asarray(op, dtype=complex))
    # full acts in (keep..., on...) order; conjugate back to layout order.
    order = keep_axes + on_axes
    return _permuted_matrix(full, [dims[i] for i in order], np.argsort(order))
