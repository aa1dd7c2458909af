"""Witnesses for the non-Markovianity of formation.

A witness is a feasible point of the formation infimum: an ensemble of pure
states on the target registers extended by ``A'``, ``B'``, ``E'``, together
with a classical flag register ``K`` recording which member occurred.  Its
realized state is block diagonal over ``K``, and the witness objective

    1/2 [ I(AA':BB'|K) + I(AB:E'K|E) ]

evaluated on that state upper-bounds the formation measure of the reduced
target state.  Because every member is pure, the flag terms cancel and the
objective is

    1/2 [ S(AB|E) + sum_i p_i (S(AA')_i + S(BB')_i - S(A'B')_i) ],

the member terms being the signed role groups of ``MEMBER_TERMS``.  The
objective and the search (``nmf``) both read that one table, and both take
the member sum from one kernel, ``states.member_value_and_grad``.  The
realized state is built only by ``Witness.realized``, as a ``BlockState``
with one block per member; tests and the fuzz suite take the definition's
entropies from it as the independent route, and ``.to_density()`` gives
the dense matrix.

Every constructor composes three primitives: the one-member purification
witness, ``witness_tensor`` and the flagged mixture behind ``witness_mix``,
the one place where a flag register joins a member stack.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, replace
from functools import partial
from typing import ClassVar

import numpy as np

from .entropy import entropy_of_matrix, party_partition
from .errors import (
    BadRange,
    DimensionMismatch,
    DimensionTooSmall,
    InvariantViolation,
    LayoutClash,
    UnknownLabel,
)
from .markov import INDEX_LABEL, MarkovComponents, _block_layouts
from .registers import Party, Register, RegisterLayout
from .registers import require_distribution, require_integer, require_real
from .states import (
    PRUNE_TOL,
    SUPPORT_TOL,
    TRACE_TOL,
    Block,
    BlockState,
    ClassicalVar,
    DensityState,
    _clamped_eigvalsh,
    _freeze,
    _pure_reduced_matrix,
    _purified,
    _split_rows,
    member_value_and_grad,
    purify,
    steered_members,
    trace_distance,
)

_weights_violation = partial(InvariantViolation, "weights")

#: Trace distance within which a witness's target must equal the state it
#: certifies (``check_witness``'s default), and an ensemble's average its
#: state (``csquashed.check_ensemble``'s).
REDUCTION_TOL = 1e-9
#: The same for a witness or an ensemble steered out of the state's
#: purification by a search's isometry, which adds its rounding.
STEERED_TOL = 1e-8
#: Max-abs deviation of W^dagger W from I for a steering isometry W.
ISOMETRY_TOL = 1e-8

#: The member terms of the objective: each row is a set of roles whose
#: joint member entropy enters the weighted sum with its sign.
MEMBER_TERMS = (
    (("a", "a_prime"), 1.0),
    (("b", "b_prime"), 1.0),
    (("a_prime", "b_prime"), -1.0),
)


@dataclass(frozen=True)
class WitnessGroups:
    """Role assignment of the member registers; the fields, in order, are
    the roles."""

    a: tuple[str, ...]
    a_prime: tuple[str, ...]
    b: tuple[str, ...]
    b_prime: tuple[str, ...]
    e: tuple[str, ...]
    e_prime: tuple[str, ...]

    def all_labels(self) -> tuple[str, ...]:
        return sum(astuple(self), ())

    def role_of(self, label: str) -> str:
        for role, group in asdict(self).items():
            if label in group:
                return role
        raise UnknownLabel(f"label {label!r} is in no witness group")


def _member_terms(lay: RegisterLayout, groups: WitnessGroups):
    """``MEMBER_TERMS`` on ``lay``: one (sorted axes, sign) pair per row."""
    return tuple(
        (sorted(lay.index(lbl) for role in roles for lbl in getattr(groups, role)), sign)
        for roles, sign in MEMBER_TERMS
    )


@dataclass(frozen=True, eq=False)
class Witness:
    """Ensemble of pure members with a role grouping and a classical flag.

    ``members`` is a read-only ``(k, D)`` stack, one member per row, D the
    layout dimension: the form ``states.steered_members`` returns.  Any
    sequence of k vectors of length D is accepted and stacked.  Each member
    has | ||m_i||^2 - 1 | <= ``TRACE_TOL``, and so has the trace
    sum_i p_i ||m_i||^2 of the realized state, over the members it keeps
    (weight above ``PRUNE_TOL``): a witness is built only when its realized
    state is."""

    layout: RegisterLayout
    groups: WitnessGroups
    weights: tuple[float, ...]
    members: np.ndarray
    #: The label of the classical flag register of the realized state.
    k_label: ClassVar[str] = "K"

    def __post_init__(self):
        d = self.layout.dim
        try:
            members = _freeze(self.members)
        except ValueError as exc:
            raise DimensionMismatch(f"witness members must form a (k, {d}) stack: {exc}") from None
        object.__setattr__(self, "members", members)
        if members.ndim != 2 or members.shape[1] != d:
            raise DimensionMismatch(f"members of shape {members.shape} are not a (k, {d}) stack")
        if len(self.weights) != len(members) or not len(members):
            raise DimensionMismatch("weights and members must pair up nonempty")
        if not np.isfinite(members).all():
            raise InvariantViolation("finite", "witness members must be finite")
        weights = require_distribution("weights", self.weights, _weights_violation)
        object.__setattr__(self, "weights", weights)
        # The traces the realized state's blocks hold: each p_i ||m_i||^2,
        # summed over the members it keeps, as ``_mix_reduced`` does.
        norms = (members * members.conj()).real.sum(axis=1)
        err = np.max(np.abs(norms - 1.0))
        if not err <= TRACE_TOL:
            raise InvariantViolation("unit_norm", f"max | ||m_i||^2 - 1 | = {err:.3e}")
        p = np.asarray(weights)
        live = p > PRUNE_TOL
        err = abs(np.dot(p[live], norms[live]) - 1.0)
        if not err <= TRACE_TOL:
            raise InvariantViolation("unit_trace", f"|sum_i p_i ||m_i||^2 - 1| = {err:.3e}")
        if sorted(self.groups.all_labels()) != sorted(self.layout.labels):
            raise LayoutClash("witness groups must partition the member layout")
        if self.k_label in self.layout:
            raise LayoutClash(f"flag label {self.k_label!r} clashes with a member register")

    # -- basic views -------------------------------------------------------
    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def ext_dims(self) -> dict:
        lay = self.layout
        return {
            "a_prime": lay.dim_of(self.groups.a_prime) if self.groups.a_prime else 1,
            "b_prime": lay.dim_of(self.groups.b_prime) if self.groups.b_prime else 1,
            "e_prime": lay.dim_of(self.groups.e_prime) if self.groups.e_prime else 1,
            "k": self.k,
        }

    def _mix_reduced(self, labels) -> np.ndarray:
        """sum_i p_i of the members' reductions onto ``labels``, as one
        matrix product: no stack of per-member reductions is built."""
        weights = np.asarray(self.weights)
        live = weights > PRUNE_TOL
        arr, _ = _split_rows(self.members[live], self.layout.dims, self.layout.positions(labels))
        return np.tensordot(weights[live, None, None] * arr, arr.conj(), axes=([0, 2], [0, 2]))

    def _entropy_mix(self, labels) -> float:
        if not labels:
            return 0.0
        return entropy_of_matrix(self._mix_reduced(labels))

    # -- derived states ----------------------------------------------------
    def target(self) -> DensityState:
        """The reduced state on the A, B, E groups this witness certifies."""
        g = self.groups
        keep = tuple(lbl for lbl in self.layout.labels if lbl in set(g.a + g.b + g.e))
        return DensityState(self.layout.subset(keep), self._mix_reduced(keep))

    def realized(self) -> BlockState:
        """The joint state with the K flag as the last register, one block
        p_i |m_i><m_i| per member; ``.to_density()`` gives the dense matrix."""
        lay = self.layout.extended((Register(self.k_label, self.k, Party.REFERENCE),))
        blocks = [
            Block((i,), p * np.outer(m, m.conj()))
            for i, (p, m) in enumerate(zip(self.weights, self.members))
        ]
        return BlockState(lay, (ClassicalVar(self.k, (self.k_label,)),), blocks)


def objective(w: Witness) -> float:
    """The witness objective 1/2 [I(AA':BB'|K) + I(AB:E'K|E)] of the
    realized state, in bits, from its member form
    1/2 [S(AB|E) + sum_i p_i (signed ``MEMBER_TERMS`` entropies of member i)],
    the member sum from the kernel of the search, with the weighted member
    stack sqrt(p_i) m_i steered by the identity.
    """
    g = w.groups
    stack = np.sqrt(np.maximum(w.weights, 0.0))[:, None] * w.members
    signed, _ = member_value_and_grad(
        stack.T, np.eye(w.k), w.layout.dims, w.k, _member_terms(w.layout, g)
    )
    s_ab_e = w._entropy_mix(g.a + g.b + g.e) - w._entropy_mix(g.e)
    return 0.5 * (s_ab_e + signed)


def check_witness(w: Witness, rho: DensityState, tol: float = REDUCTION_TOL) -> float:
    """Trace distance between the witness target and ``rho`` (must be <= tol)."""
    tol = require_real("tol", tol, 0, BadRange)
    target = w.target()
    rho_cmp = rho
    if rho_cmp.layout.labels != target.layout.labels:
        rho_cmp = rho_cmp.permuted(target.layout.labels)
    dist = trace_distance(target, rho_cmp)
    if not dist <= tol:
        raise InvariantViolation(
            "witness_reduction", f"witness target deviates from rho by {dist:.3e}"
        )
    return dist


def _party_groups(rho: DensityState):
    """``party_partition(rho)``, with every register Alice's, Bob's or Eve's
    and A and B nonempty."""
    a, b, e = party_partition(rho)
    if len(a) + len(b) + len(e) != len(rho.layout):
        raise UnknownLabel("every register must be tagged alice, bob or eve")
    if not a or not b:
        raise UnknownLabel("need at least one alice and one bob register")
    return a, b, e


# ---------------------------------------------------------------------------
# constructors


def _steered_layout(rho: DensityState, ext_dims) -> tuple[RegisterLayout, WitnessGroups]:
    """The member layout a steering isometry fills, ``rho``'s registers
    then A', B', E' of ``ext_dims``, and its role groups."""
    a, b, e = _party_groups(rho)
    ap, bp, ep = ext_dims
    lay = rho.layout.extended(
        (
            Register("A'", ap, Party.ALICE),
            Register("B'", bp, Party.BOB),
            Register("E'", ep, Party.EVE),
        )
    )
    return lay, WitnessGroups(a=a, a_prime=("A'",), b=b, b_prime=("B'",), e=e, e_prime=("E'",))


def _require_capacity(capacity: int, rank: int) -> None:
    """Refuse a steering isometry whose output dimension ``capacity`` is
    below the state's ``rank``: the one test of capacity against rank, for
    ``witness_from_isometry`` and the search's round admission alike."""
    if capacity < rank:
        raise DimensionTooSmall(f"extension capacity {capacity} below rank {rank}")


def witness_from_isometry(
    rho: DensityState,
    w_matrix: np.ndarray,
    ext_dims: tuple[int, int, int],
    k: int,
) -> Witness:
    """Build a witness by steering the purifying reference of ``rho``.

    ``w_matrix`` is an isometry from the reference (dim = rank of rho) into
    A' (x) B' (x) E' (x) K; slicing the K index after dephasing yields the
    ensemble members, checked to reduce to ``rho`` within ``STEERED_TOL``.
    """
    ap, bp, ep = (require_integer("ext_dims", x, 1, DimensionTooSmall) for x in ext_dims)
    k = require_integer("k", k, 1, DimensionTooSmall)
    lay, groups = _steered_layout(rho, (ap, bp, ep))
    psi_arr, rank = _purified(rho)
    _require_capacity(ap * bp * ep * k, rank)
    w_matrix = np.asarray(w_matrix, dtype=complex)
    if w_matrix.shape != (ap * bp * ep * k, rank):
        raise DimensionMismatch(
            f"isometry shape {w_matrix.shape} != ({ap * bp * ep * k}, {rank})"
        )
    if not np.max(np.abs(w_matrix.conj().T @ w_matrix - np.eye(rank))) <= ISOMETRY_TOL:
        raise InvariantViolation("isometry", "W^dagger W must be the identity")
    weights, members = steered_members(psi_arr, w_matrix, lay.dims, k)
    w = Witness(lay, groups, weights / weights.sum(), members)
    check_witness(w, rho, tol=STEERED_TOL)
    return w


def _purification_witness(state: DensityState, ref_label: str, role: str, ref_dim=None):
    """The one-member witness of the purification of ``state``: the
    reference ``ref_label`` (``ref_dim`` levels, default the rank) takes
    ``role`` (a_prime, b_prime or e) and that role's party, and every other
    register its party's role."""
    party = {"a_prime": Party.ALICE, "b_prime": Party.BOB, "e": Party.EVE}[role]
    psi = purify(state, ref_label, ref_dim=ref_dim, ref_party=party)
    a, b, e = party_partition(state)
    groups = WitnessGroups(a, (), b, (), e, ())
    groups = replace(groups, **{role: getattr(groups, role) + (ref_label,)})
    return Witness(psi.layout, groups, (1.0,), psi.amplitudes[None])


def baseline_witnesses(rho: DensityState) -> list[Witness]:
    """The two purification witnesses; their objectives are
    I(A:BB')/2 <= S(A) and I(B:AA')/2 <= S(B), so including them guarantees
    the upper bound never exceeds min(S(A), S(B))."""
    _party_groups(rho)  # every register Alice's, Bob's or Eve's; A and B nonempty
    return [_purification_witness(rho, "B'", "b_prime"), _purification_witness(rho, "A'", "a_prime")]


def markov_witness(components: MarkovComponents) -> Witness:
    """The exact zero-objective witness for a built block state.

    Members purify each block's two sides separately; the flag duplicates
    the block index already stored in the state, so both objective terms
    vanish.
    """
    entries = components.entries
    _, state_layout = _block_layouts(components)
    # Reference dims are padded to the largest block rank on each side so
    # all members share one layout.
    a_dim = max(_rank(e.sigma.matrix) for e in entries)
    b_dim = max(_rank(e.tau.matrix) for e in entries)
    a_sides = [_purification_witness(e.sigma, "A'", "a_prime", a_dim) for e in entries]
    b_sides = [_purification_witness(e.tau, "B'", "b_prime", b_dim) for e in entries]
    w = _flagged(zip(components.probs, map(witness_tensor, a_sides, b_sides)), INDEX_LABEL)
    # The flag is the block index: registers in the built state's order.
    lay = state_layout.extended((w.layout.register("A'"), w.layout.register("B'")))
    members, _ = _split_rows(w.members, w.layout.dims, [w.layout.index(lbl) for lbl in lay.labels])
    return Witness(lay, w.groups, w.weights, members.reshape(w.k, -1))


def _rank(matrix: np.ndarray) -> int:
    return int(np.sum(_clamped_eigvalsh(matrix) > SUPPORT_TOL))


# ---------------------------------------------------------------------------
# transformations


def witness_relabeled(w: Witness, suffix: str) -> Witness:
    """Append ``suffix`` to every register label (groups follow)."""
    mapping = {lbl: f"{lbl}{suffix}" for lbl in w.layout.labels}
    layout = RegisterLayout(
        tuple(Register(mapping[r.label], r.dim, r.party) for r in w.layout.registers)
    )
    groups = WitnessGroups(
        **{role: tuple(map(mapping.get, group)) for role, group in asdict(w.groups).items()}
    )
    return Witness(layout, groups, w.weights, w.members)


def witness_tensor(w1: Witness, w2: Witness) -> Witness:
    """Product witness for the product target; objectives add exactly."""
    clash = set(w1.layout.labels) & set(w2.layout.labels)
    if clash:
        raise LayoutClash(f"witness layouts share labels: {sorted(clash)}")
    layout = RegisterLayout(w1.layout.registers + w2.layout.registers)
    groups = WitnessGroups(*(x + y for x, y in zip(astuple(w1.groups), astuple(w2.groups))))
    weights = np.outer(w1.weights, w2.weights).ravel()
    return Witness(layout, groups, weights, np.kron(w1.members, w2.members))


def _flagged(parts, flag: str) -> Witness:
    """The witness sum_m r_m w_m (x) |m><m| of the parts (r_m, w_m), which
    share one layout and groups: each member of part m is extended by Eve's
    register ``flag`` set to m, which joins the E group, and its weight is
    scaled by r_m."""
    parts = [(r, w) for r, w in parts]
    if not parts:
        raise LayoutClash("need at least one part")
    first = parts[0][1]
    for _, w in parts[1:]:
        if w.layout != first.layout or w.groups != first.groups:
            raise LayoutClash("mixture parts must share layout and groups")
    if flag in first.layout:
        raise LayoutClash(f"mixture label {flag!r} clashes with member registers")
    rates = require_distribution("mixture weights", (r for r, _ in parts), _weights_violation)
    n = len(parts)
    layout = first.layout.extended((Register(flag, n, Party.EVE),))
    groups = replace(first.groups, e=first.groups.e + (flag,))
    weights = np.concatenate([r * np.asarray(w.weights) for r, (_, w) in zip(rates, parts)])
    flags = np.eye(n)
    members = np.concatenate([np.kron(w.members, flags[m]) for m, (_, w) in enumerate(parts)])
    return Witness(layout, groups, weights, members)


def witness_mix(parts) -> Witness:
    """Witness for the flagged mixture sum_m r_m rho_m (x) |m><m|.

    The flag register ``M`` joins the E group; the objective is the
    weighted sum of the part objectives, exactly.
    """
    return _flagged(parts, "M")


def witness_regroup(w: Witness, label: str, to: str = "e") -> Witness:
    """Move a register between the A (or B) group and the conditioning
    E group.  Moving into E never raises the objective; moving out of E
    raises it by at most log2 of the register dimension."""
    role = w.groups.role_of(label)
    g = w.groups
    if to == "e":
        if role not in ("a", "b"):
            raise UnknownLabel(f"register {label!r} is in group {role}, not a or b")
    elif to in ("a", "b"):
        if role != "e":
            raise UnknownLabel(f"register {label!r} is in group {role}, not e")
    else:
        raise UnknownLabel(f"unknown destination group {to!r}")
    left = tuple(lbl for lbl in getattr(g, role) if lbl != label)
    groups = replace(g, **{role: left, to: getattr(g, to) + (label,)})
    return Witness(w.layout, groups, w.weights, w.members)


def _apply_isometry_members(w: Witness, on, matrix: np.ndarray, out_regs):
    """Apply an isometry to a register block of every member; the block is
    replaced by ``out_regs`` appended at the end of the layout."""
    on_axes = [w.layout.index(lbl) for lbl in on]
    r = w.layout.dim_of(on)
    s = math.prod(reg.dim for reg in out_regs)
    if matrix.shape != (s, r):
        raise DimensionMismatch(f"isometry shape {matrix.shape} != ({s}, {r})")
    arr, order = _split_rows(w.members, w.layout.dims, on_axes)
    members = (matrix @ arr).swapaxes(-1, -2).reshape(w.k, -1)
    keep_regs = tuple(w.layout.registers[i] for i in order[len(on_axes) :])
    return members, RegisterLayout(keep_regs + tuple(out_regs))


def witness_transport_e(w: Witness, matrix: np.ndarray, on, out_regs) -> Witness:
    """Transport through a reversible (isometric) operation on E-group
    registers; the objective is invariant."""
    on = tuple(on)
    for lbl in on:
        if w.groups.role_of(lbl) != "e":
            raise UnknownLabel(f"register {lbl!r} is not in the E group")
    out_regs = tuple(out_regs)
    for reg in out_regs:
        if reg.label in w.layout and reg.label not in on:
            raise LayoutClash(f"output label {reg.label!r} clashes")
    members, layout = _apply_isometry_members(w, on, np.asarray(matrix, complex), out_regs)
    g = w.groups
    new_e = tuple(lbl for lbl in g.e if lbl not in on) + tuple(r.label for r in out_regs)
    groups = replace(g, e=new_e)
    return Witness(layout, groups, w.weights, members)


def witness_local_channel(w: Witness, side: str, kraus, on, env_label: str) -> Witness:
    """Transport through a local channel on the A (or B) group via its
    Stinespring dilation; the environment register joins the prime group,
    so the objective never increases."""
    if side not in ("a", "b"):
        raise UnknownLabel("side must be 'a' or 'b'")
    on = tuple(on)
    for lbl in on:
        if w.groups.role_of(lbl) != side:
            raise UnknownLabel(f"register {lbl!r} is not in the {side} group")
    if env_label in w.layout:
        raise LayoutClash(f"environment label {env_label!r} clashes")
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    s, r = kraus[0].shape
    if s != r:
        raise DimensionMismatch("witness transport supports square channels only")
    n_env = len(kraus)
    sting = np.stack(kraus, axis=1).reshape(s * n_env, r)
    party = Party.ALICE if side == "a" else Party.BOB
    out_regs = tuple(w.layout.register(lbl) for lbl in on) + (
        Register(env_label, n_env, party),
    )
    members, layout = _apply_isometry_members(w, on, sting, out_regs)
    g = w.groups
    if side == "a":
        groups = replace(g, a_prime=g.a_prime + (env_label,))
    else:
        groups = replace(g, b_prime=g.b_prime + (env_label,))
    return Witness(layout, groups, w.weights, members)


# ---------------------------------------------------------------------------
# bridges to bipartite ensembles


def witness_from_ab_ensemble(weights, states) -> Witness:
    """Witness for the classical-flag extension of a bipartite ensemble.

    Given {p_k, sigma_k} on AB, the extension is
    sum_k p_k sigma_k (x) |k><k| with E = (purifier, flag); its objective
    equals half the ensemble-averaged mutual information exactly.
    """
    weights = tuple(weights)
    states = tuple(states)
    if not states or len(weights) != len(states):
        raise LayoutClash("weights and states must pair up nonempty")
    rank = max(_rank(s.matrix) for s in states)
    return _flagged(
        [(p, _purification_witness(s, "Ee", "e", rank)) for p, s in zip(weights, states)], "Ke"
    )


def ab_ensemble_from_witness(w: Witness):
    """The bipartite ensemble read off a witness: member reductions onto
    the bare A and B groups.  Its averaged mutual information never exceeds
    twice the witness objective."""
    keep = tuple(lbl for lbl in w.layout.labels if lbl in set(w.groups.a + w.groups.b))
    reduced = _pure_reduced_matrix(w.members, w.layout.dims, w.layout.positions(keep))
    return w.weights, [DensityState(w.layout.subset(keep), m) for m in reduced]


# ---------------------------------------------------------------------------
# continuity


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def continuity_bound(eps: float, d_a: int, d_b: int) -> float:
    """Dimension-dependent bound on how much the formation measure can move
    under an eps trace-distance perturbation:
    4 sqrt(eps) log2(dA dB) + 3 (1 + sqrt(eps)) h(sqrt(eps)/(1 + sqrt(eps))).
    """
    if not require_real("eps", eps, 0, BadRange) <= 1.0:
        raise BadRange(f"eps must lie in [0, 1], got {eps}")
    d_a = require_integer("d_a", d_a, 1, BadRange)
    d_b = require_integer("d_b", d_b, 1, BadRange)
    root = math.sqrt(eps)
    return 4.0 * root * math.log2(d_a * d_b) + 3.0 * (1.0 + root) * binary_entropy(
        root / (1.0 + root)
    )
