"""The block form of scenarios against a dense reference.

``dense_step`` applies a step to a ``DensityState`` the dense way: the
measurement and copy-down Kraus operators are lifted to carry the classical
copies as registers, and every channel goes through ``nmk.apply_channel``.
Each block-form step must give the same densified state and the same M_I.
The register-block kernel behind ``apply_channel`` and ``petz_recover`` is
itself checked against ``lifted``, a full-space Kronecker lift that shares
no code with it.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from nmk import (
    BlockState,
    ChannelMap,
    DensityState,
    Scenario,
    Step,
    StepKind,
    apply_channel,
    apply_step,
    build_markov,
    dim_budget,
    entropy_report,
    nonmarkovianity,
    partial_trace,
    party_partition,
    preparation_script,
    run_script,
    sample,
    zoo,
)
from nmk.errors import InvariantViolation, NotClassicalRegister
from nmk.fuzz import (
    FREE_CLASS_NAMES,
    _mono_scenario,
    _mono_step,
    _random_omega_step,
)
from nmk.markov import petz_recover
from nmk.rand import as_rng
from nmk.registers import Party, Register, RegisterLayout
from nmk.states import Block, ClassicalVar

TOL = 1e-10

RECEIVERS = {
    StepKind.BROADCAST_A: (Party.ALICE, Party.BOB, Party.EVE),
    StepKind.BROADCAST_B: (Party.ALICE, Party.BOB, Party.EVE),
    StepKind.CLASSICAL_A_TO_E: (Party.ALICE, Party.EVE),
    StepKind.CLASSICAL_B_TO_E: (Party.BOB, Party.EVE),
}


def dense_measure(state, step, receivers):
    """Measure ``step.on`` and append one copy of the outcome per receiver,
    as one dense channel whose Kraus operators write the copies."""
    lay = state.layout
    n_out = len(step.operators)
    copies = tuple(
        Register(f"{step.msg_label}_{p.value[0].upper()}", n_out, p) for p in receivers
    )
    on = tuple(sorted(step.on, key=lay.index))
    dims = [lay.register(lbl).dim for lbl in step.on]
    axes = [step.on.index(lbl) for lbl in on]
    n = len(dims)
    lifted = []
    for m, op in enumerate(step.operators):
        op = op.reshape(dims * 2).transpose(axes + [n + a for a in axes]).reshape(op.shape)
        tail = np.zeros((n_out ** len(copies), 1), dtype=complex)
        tail[sum(m * n_out**i for i in range(len(copies))), 0] = 1.0
        lifted.append(np.kron(op, tail))
    out = RegisterLayout(lay.registers + copies)
    return apply_channel(state, ChannelMap(tuple(lifted)), on, out)


def dense_copy_down(state, step, receiver):
    reg = state.layout.register(step.register)
    d = reg.dim
    base = step.msg_label or f"{step.register}_c"
    copy = Register(f"{base}_{receiver.value[0].upper()}", d, receiver)
    kraus = []
    for m in range(d):
        k = np.zeros((d * d, d), dtype=complex)
        k[m * d + m, m] = 1.0
        kraus.append(k)
    out = RegisterLayout(state.layout.registers + (copy,))
    return apply_channel(state, ChannelMap(tuple(kraus)), (step.register,), out)


def dense_step(state, step):
    kind = step.kind
    if kind in (StepKind.LOCAL_A, StepKind.LOCAL_B, StepKind.REVERSIBLE_E):
        if step.discard:
            keep = [lbl for lbl in state.layout.labels if lbl not in step.discard]
            return partial_trace(state, keep)
        return apply_channel(state, step.channel, step.on, step.out)
    if kind in (StepKind.QUANTUM_TO_E, StepKind.QUANTUM_FROM_E, StepKind.QUANTUM_AB):
        to = Party.EVE if kind is StepKind.QUANTUM_TO_E else step.to
        return DensityState(state.layout.retagged(step.register, to), state.matrix)
    if kind in RECEIVERS:
        return dense_measure(state, step, RECEIVERS[kind])
    if kind is StepKind.SECRET_AB:
        return dense_measure(state, step, (Party.ALICE, Party.BOB))
    if kind is StepKind.CLASSICAL_E_TO_A:
        return dense_copy_down(state, step, Party.ALICE)
    return dense_copy_down(state, step, Party.BOB)


def assert_matches(sc, dense):
    got = sc.state
    assert got.layout == dense.layout
    np.testing.assert_allclose(got.matrix, dense.matrix, atol=TOL, rtol=0)
    assert abs(nonmarkovianity(sc.block_state) - nonmarkovianity(dense)) <= TOL


def run_both(sc, steps):
    dense = sc.state
    for step in steps:
        sc = apply_step(sc, step)
        dense = dense_step(dense, step)
        assert_matches(sc, dense)
    return sc


@pytest.mark.parametrize("cls", FREE_CLASS_NAMES)
def test_free_classes_match_dense(cls):
    for seed in range(20):
        rng = as_rng([seed, 99])
        sc = _mono_scenario(cls, rng)
        run_both(sc, [_mono_step(cls, rng)])


def oracle_entropy(bs, labels):
    """S of the marginal of ``bs`` on ``labels`` by the joint entropy theorem,
    S(sum_x p_x |x><x| (x) rho_x) = H(p) + sum_x p_x S(rho_x): the weighted
    quantum marginals of the blocks that agree on every classical variable
    with a copy among ``labels`` are summed into one term, and S is
    -sum lam log2 lam over the spectra of all the terms."""
    labels = set(labels)
    q = bs.quantum
    n = len(q)
    keep = [i for i, lbl in enumerate(q.labels) if lbl in labels]
    visible = [i for i, var in enumerate(bs.classical) if labels & set(var.labels)]
    dk = math.prod(q.dims[i] for i in keep)
    cols = [n + i if i in keep else i for i in range(n)]
    out = keep + [n + i for i in keep]
    terms = {}
    for values, weight, matrix in bs.blocks:
        t = np.einsum(matrix.reshape(q.dims * 2), list(range(n)) + cols, out)
        key = tuple(values[i] for i in visible)
        terms[key] = terms.get(key, 0) + weight * t.reshape(dk, dk)
    lam = np.concatenate([np.linalg.eigvalsh(t) for t in terms.values()])
    lam = lam[lam > 1e-12]
    return float(-lam @ np.log2(lam))


def assert_matches_oracle(bs):
    """The entropy report of ``bs`` against ``oracle_entropy``."""
    a, b, e = party_partition(bs)
    report = entropy_report(bs)

    def s(*groups):
        return oracle_entropy(bs, [lbl for g in groups for lbl in g])

    s_abe = s(a, b, e)
    assert abs(report.s_abe - s_abe) <= TOL
    for got, want in ((report.s_a, s(a)), (report.s_b, s(b)), (report.s_e, s(e))):
        assert abs(got - want) <= TOL
    m_i = 0.5 * (s(a, e) + s(b, e) - s(e) - s_abe)
    assert abs(report.m_i_bits - m_i) <= TOL
    assert abs(nonmarkovianity(bs) - m_i) <= TOL


def test_omega_scripts_on_markov_states_match_dense(monkeypatch):
    # Each step is compared with the dense route while the dense state fits
    # the budget, and with the joint-entropy oracle past it.  The budget is
    # lowered because one dense step at order 4096 takes seconds and GiB.
    monkeypatch.setenv("NMK_DIM_BUDGET", "512")
    checked = {"dense": 0, "oracle": 0}
    for seed in range(20):
        rng = as_rng([seed, 7])
        sc = Scenario(build_markov(zoo("markov_random", {"entries": 2}, seed=rng)))
        dense = sc.state
        for i in range(3):
            step = _random_omega_step(sc, rng, i)
            sc = apply_step(sc, step)
            if dense is not None and sc.block_state.dim <= dim_budget():
                dense = dense_step(dense, step)
                assert_matches(sc, dense)
                checked["dense"] += 1
            else:
                dense = None
                assert_matches_oracle(sc.block_state)
                checked["oracle"] += 1
    assert checked["dense"] >= 40 and checked["oracle"] >= 10, checked


def coin(n=2):
    return tuple(np.eye(2, dtype=complex) / math.sqrt(n) for _ in range(n))


def test_copies_named_moved_and_discarded_match_dense():
    # A channel on a classical copy makes it quantum; copying Eve's copy down
    # relabels it; discarding every copy merges the blocks.
    rng = np.random.default_rng(3)
    iso = sample("isometry", (2, 4), rng)
    cx = np.eye(4)[[0, 1, 3, 2]]
    steps = (
        Step.broadcast_a((iso[:2], iso[2:]), ("A",), "J"),
        Step.classical_e_to_b("J_E", "K"),
        Step.local_b(ChannelMap.unitary(cx), ("J_B", "B")),
        Step.quantum_to_e("K_B"),
        Step.discard_a(("J_A",)),
        Step.discard_b(("J_B",)),
    )
    sc = Scenario(sample("density_hs", (2, 2, 2), 4))
    out = run_both(sc, steps)
    assert [var.labels for var in out.block_state.classical] == [("J_E", "K_B")]
    out = run_both(out, (Step.reversible_e(ChannelMap.unitary(np.eye(4)), ("J_E", "K_B")),))
    assert out.block_state.classical == ()
    assert len(out.block_state.blocks) == 1


@pytest.mark.parametrize("which", ["preparation", "secret_ab"])
def test_protocols_match_dense(which):
    if which == "preparation":
        sc, steps = preparation_script(zoo("markov_random", {"entries": 3}, seed=5))
    else:
        zs = zoo("nonfree_script", {"cls": "secret_ab"})
        sc, steps = zs.scenario, zs.steps
    run_both(sc, steps)


class TestBlockState:
    def test_broadcast_adds_labels_not_dimension(self):
        sc = Scenario(sample("density_hs", (2, 2, 4), 1))
        for i, on in enumerate(("A", "B")):
            kind = Step.broadcast_a if on == "A" else Step.broadcast_b
            ops = sample("isometry", (2, 4), i)
            sc = apply_step(sc, kind((ops[:2], ops[2:]), (on,), f"J{i}"))
        bs = sc.block_state
        assert bs.dim == 1024
        assert bs.max_block_dim == 16
        assert [b.values for b in bs.blocks] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert sum(b.weight for b in bs.blocks) == pytest.approx(1.0, abs=1e-12)

    def test_copy_down_of_a_quantum_register_checks_each_block(self):
        rho = sample("density_hs", (2, 2, 2), 7)
        sc = Scenario(BlockState.from_density(rho))
        with pytest.raises(NotClassicalRegister):
            apply_step(sc, Step.classical_e_to_a("E"))

    def test_zero_weight_outcomes_are_dropped(self):
        ghz = Scenario(zoo("ghz_diag"))
        proj = tuple(np.diag(row).astype(complex) for row in ([1.0, 0.0], [0.0, 1.0]))
        flip = ChannelMap.unitary(np.array([[0, 1], [1, 0]], dtype=complex))
        sc = apply_step(ghz, Step.local_a(ChannelMap.dephasing(2), ("A",)))
        sc = apply_step(sc, Step.broadcast_a(proj, ("A",), "J"))
        sc = apply_step(sc, Step.reversible_e(flip, ("E",)))
        sc = apply_step(sc, Step.classical_e_to_b("E"))
        # (J, E) takes only the values (0, 1) and (1, 0).
        assert [b.values for b in sc.block_state.blocks] == [(0, 1), (1, 0)]

    def test_weights_must_sum_to_one(self):
        halving = ChannelMap((np.sqrt(0.5) * np.eye(2),), trace_preserving=False)
        sc = apply_step(Scenario(zoo("ghz_diag")), Step.broadcast_a(coin(), ("A",), "J"))
        with pytest.raises(InvariantViolation, match="unit_trace"):
            apply_step(sc, Step.local_b(halving, ("B",)))


def _direct(classical, blocks):
    """A block state on A, B, E and the copy register J, built directly."""
    regs = (("A", 2, "alice"), ("B", 2, "bob"), ("E", 2, "eve"), ("J", 2, "eve"))
    lay = RegisterLayout(tuple(Register(*r) for r in regs))
    if not classical:
        lay = lay.without({"J"})
    return BlockState(lay, classical, blocks)


class TestDirectConstruction:
    J = (ClassicalVar(2, ("J",)),)
    HALF = np.eye(8, dtype=complex) / 8

    @pytest.mark.parametrize(
        "classical, blocks, invariant",
        [
            ((), (Block((), 3.0, -np.eye(8)),), "unit_trace"),
            ((), (), "unit_trace"),
            ((), (Block((), 1.0, np.diag([1.5, -0.5] + [0] * 6)),), "positive_semidefinite"),
            ((), (Block((), 1.0, np.triu(np.ones((8, 8))) / 8),), "hermitian"),
            ((), (Block((), float("nan"), np.eye(8) / 8),), "finite"),
            (J, (Block((0,), 0.5, HALF), Block((2,), 0.5, HALF)), "classical_value"),
            (J, (Block((0, 1), 1.0, HALF),), "classical_value"),
            (J, (Block((0.5,), 1.0, HALF),), "classical_value"),
            (J, (Block((True,), 1.0, HALF),), "classical_value"),
            ((ClassicalVar(3, ("J",)),), (Block((0,), 1.0, HALF),), "copy_dim"),
            (J, (Block((0,), 1.0, np.eye(4) / 4),), "shape"),
        ],
    )
    def test_invalid_blocks_raise_and_name_the_invariant(self, classical, blocks, invariant):
        with pytest.raises(InvariantViolation, match=invariant):
            _direct(classical, blocks)

    def test_valid_blocks_are_held_read_only(self):
        given = self.HALF.copy()
        bs = _direct(self.J, (Block((0,), 0.25, given), Block((1,), 0.75, self.HALF)))
        assert not bs.blocks[0].matrix.flags.writeable and given.flags.writeable
        assert nonmarkovianity(bs) == pytest.approx(0.0, abs=1e-12)


class TestFourBroadcasts:
    """Four one-qubit coin broadcasts on hs_random 2,2,2: 16 blocks of dim
    8 at layout dimension 32768, past the default budget of 4096 for a
    dense state but within it for the blocks' entries (16 * 8^2 <= 4096^2)."""

    STEPS = tuple(Step.broadcast_a(coin(), ("A",), f"J{i}") for i in range(4))

    def test_runs_at_the_default_budget_and_matches_the_oracle(self):
        sc = Scenario(zoo("hs_random", {"dims": [2, 2, 2]}, seed=1))
        started = time.perf_counter()
        final = run_script(sc, self.STEPS).final.block_state
        report = entropy_report(final)
        assert time.perf_counter() - started < 1.0
        assert final.dim == 32768 and len(final.blocks) == 16 and final.max_block_dim == 8
        assert_matches_oracle(final)
        assert abs(report.m_i_bits - entropy_report(sc.block_state).m_i_bits) <= TOL

    def test_three_broadcasts_match_dense(self):
        # Compared entrywise at order 4096; the M_I of a state that size (an
        # eigensolve of order 4096) is left to the oracle test above.
        sc = Scenario(zoo("hs_random", {"dims": [2, 2, 2]}, seed=1))
        dense = sc.state
        for step in self.STEPS[:3]:
            sc, dense = apply_step(sc, step), dense_step(dense, step)
        assert dense.dim == dim_budget()
        assert sc.state.layout == dense.layout
        np.testing.assert_allclose(sc.state.matrix, dense.matrix, atol=TOL, rtol=0)


def test_broadcast_script_memory_stays_small():
    # The benchmark's script shape: hs_random 2,2,4, then broadcast_a and
    # broadcast_b with two outcomes each (dense: dim 16 -> 128 -> 1024).
    rho = zoo("hs_random", {"dims": [2, 2, 4]}, seed=1)
    ops_a, ops_b = sample("isometry", (2, 4), 2), sample("isometry", (2, 4), 3)
    steps = (
        Step.broadcast_a((ops_a[:2], ops_a[2:]), ("A",), "J0"),
        Step.broadcast_b((ops_b[:2], ops_b[2:]), ("B",), "J1"),
    )
    sc = Scenario(rho)
    tracemalloc.start()
    try:
        final = run_script(sc, steps).final
        report = entropy_report(final.block_state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert final.block_state.dim == 1024
    assert report.m_i_bits <= entropy_report(rho).m_i_bits + 1e-9
    assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# the register-block kernel against the full-space lift


def to_block_order(lay, on):
    """The permutation matrix taking a vector in ``lay``'s register order to
    (untouched..., on...) order, ``on`` in its given order."""
    on_axes = [lay.index(lbl) for lbl in on]
    order = [i for i in range(len(lay)) if i not in on_axes] + on_axes
    index = np.arange(lay.dim).reshape(lay.dims).transpose(order).reshape(-1)
    return np.eye(lay.dim)[index]


def lifted(lay, on, op):
    """``op`` on the ordered labels ``on`` of ``lay``, identity elsewhere, as
    a full-space matrix: columns in ``lay``'s order, rows in (untouched...,
    output block...) order."""
    keep = math.prod(r.dim for r in lay.registers if r.label not in on)
    return np.kron(np.eye(keep), op) @ to_block_order(lay, on)


def lifted_square(lay, on, op):
    """A square ``op`` on ``on``, lifted with rows and columns in ``lay``'s order."""
    return to_block_order(lay, on).T @ lifted(lay, on, op)


def psd_power(m, power):
    """``m ** power`` on the support of the hermitian ``m`` (eigenvalues above 1e-12)."""
    vals, vecs = np.linalg.eigh(m)
    vals = np.where(vals > 1e-12, np.abs(vals), 0.0)
    powered = np.zeros_like(vals)
    powered[vals > 0] = vals[vals > 0] ** power
    return (vecs * powered) @ vecs.conj().T


def random_labels(lay, rng, count):
    return tuple(lay.labels[i] for i in rng.permutation(len(lay))[:count])


@pytest.mark.parametrize("seed", range(24))
def test_channel_kernel_matches_the_lift(seed):
    # Random Kraus channels on random register subsets, in and out of
    # layout order; odd seeds write a differently sized output block.
    rng = as_rng([seed, 26])
    dims = tuple(int(d) for d in rng.integers(2, 4, size=rng.integers(2, 5)))
    state = sample("density_hs", dims, rng, rank=int(rng.integers(1, 4)))
    lay = state.layout
    on = random_labels(lay, rng, int(rng.integers(1, min(3, len(lay)) + 1)))
    in_dim = lay.dim_of(on)
    out_dim = int(rng.integers(2, 5)) if seed % 2 else in_dim
    count = max(int(rng.integers(1, 4)), -(-in_dim // out_dim))
    v = sample("isometry", (in_dim, out_dim * count), rng)
    kraus = [v[j * out_dim : (j + 1) * out_dim] for j in range(count)]
    if out_dim == in_dim:
        block = tuple(lay.register(lbl) for lbl in on)
        got = apply_channel(state, ChannelMap.from_kraus(kraus), on)
        ops = [lifted_square(lay, on, k) for k in kraus]
        want = sum(k @ state.matrix @ k.conj().T for k in ops)
        np.testing.assert_allclose(got.matrix, want, atol=1e-12, rtol=0)
    else:
        block = (Register("X", out_dim, Party.EVE),)
    got = apply_channel(state, ChannelMap.from_kraus(kraus), on, out=block)
    ops = [lifted(lay, on, k) for k in kraus]
    want = sum(k @ state.matrix @ k.conj().T for k in ops)
    kept = tuple(lbl for lbl in lay.labels if lbl not in on)
    assert got.layout.labels == kept + tuple(r.label for r in block)
    np.testing.assert_allclose(got.matrix, want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("seed", range(24))
def test_petz_map_matches_the_lift(seed):
    # rho_BE^{1/2} (rho_E^{-1/2} rho_AE rho_E^{-1/2} (x) I_B) rho_BE^{1/2} / Tr
    # on random groups of one or two registers in any order, rank-deficient
    # states among them; every fourth seed has an empty E.
    rng = as_rng([seed, 27])
    dims = tuple(int(d) for d in rng.integers(2, 4, size=4 if seed % 4 else 3))
    state = sample("density_hs", dims, rng, rank=int(rng.integers(1, 5)))
    labels = random_labels(state.layout, rng, len(dims))
    cut = 1 + seed % 2 if seed % 4 else len(dims) - 1
    a, b, e = labels[:1], labels[1 : 1 + cut], labels[1 + cut :]
    lay = state.layout.subset(a + b + e).reordered(a + b + e)

    def marginal(group):
        return partial_trace(state, group).permuted(group).matrix

    x_ae = marginal(a + e)
    if e:
        lay_ae = lay.subset(a + e).reordered(a + e)
        e_inv_half = lifted_square(lay_ae, e, psd_power(marginal(e), -0.5))
        x_ae = e_inv_half @ x_ae @ e_inv_half
    be_half = lifted_square(lay, b + e, psd_power(marginal(b + e), 0.5))
    want = be_half @ lifted_square(lay, a + e, x_ae) @ be_half
    got, pre_trace = petz_recover(state, a, b, e)
    assert got.layout == lay
    assert pre_trace == pytest.approx(np.trace(want).real, abs=1e-12)
    np.testing.assert_allclose(got.matrix, want / np.trace(want).real, atol=1e-12, rtol=0)
