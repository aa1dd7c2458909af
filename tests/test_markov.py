import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nmk import (
    ChannelMap,
    DensityState,
    MarkovComponents,
    MarkovEntry,
    Scenario,
    Step,
    StepKind,
    apply_channel,
    apply_step,
    build_markov,
    cqmi,
    fidelity,
    layout,
    markov_score,
    nonmarkovianity,
    partial_trace,
    party_partition,
    petz_recover,
    sample,
    tensor,
    zoo,
)
from nmk.errors import BadProbabilities, BudgetExceeded, InconsistentDims
from nmk.registers import Party, Register

from conftest import classical_corr, peak_before_raising


def random_components(seed, entries=3, d_el=2, d_er=2):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(entries))
    sig_lay = layout(("A", 2, "alice"), ("EL", d_el, "eve"))
    tau_lay = layout(("B", 2, "bob"), ("ER", d_er, "eve"))
    return MarkovComponents(
        tuple(
            MarkovEntry(
                float(probs[j]),
                sample("density_hs", (2, d_el), rng, layout=sig_lay),
                sample("density_hs", (2, d_er), rng, layout=tau_lay),
            )
            for j in range(entries)
        )
    )


def varied_components(seed):
    """1 to 5 entries (``1 + seed % 5``) on unequal dims: sigma on Alice's
    A (and at odd seeds a second Alice register) and Eve's EL, listed with
    EL first at even seeds; tau on Bob's B and Eve's ER, in a random order."""
    rng = np.random.default_rng([seed, 41])
    d_a, d_b, d_el, d_er = (int(d) for d in rng.integers(1, 4, size=4))
    sig = [("A", d_a + 1, "alice"), ("EL", d_el, "eve")]
    if seed % 2:
        sig.append(("A2", 2, "alice"))
    else:
        sig.reverse()
    tau = [("B", d_b + 1, "bob"), ("ER", d_er, "eve")]
    tau = [tau[i] for i in rng.permutation(2)]
    sig_lay, tau_lay = layout(*sig), layout(*tau)
    entries = 1 + seed % 5
    probs = rng.dirichlet(np.ones(entries))
    return MarkovComponents(
        tuple(
            MarkovEntry(
                float(p),
                sample("density_hs", sig_lay.dims, rng, layout=sig_lay),
                sample("density_hs", tau_lay.dims, rng, layout=tau_lay),
            )
            for p in probs
        )
    )


def dense_markov(components):
    """The labels and matrix of sum_j p_j sigma_j (x) tau_j (x) |j><j|, built
    densely, one full-size Kronecker product per entry, then permuted with
    numpy from (sigma..., tau..., index) into (alice..., bob..., index, eve
    memories...)."""
    entries = components.entries
    n = len(entries)
    sig, tau = entries[0].sigma.layout, entries[0].tau.layout
    regs = sig.registers + tau.registers + (Register("E0", n, Party.EVE),)
    mat = np.zeros((sig.dim * tau.dim * n,) * 2, dtype=complex)
    for j, e in enumerate(entries):
        flag = np.zeros((n, n), dtype=complex)
        flag[j, j] = 1.0
        mat += e.p * np.kron(np.kron(e.sigma.matrix, e.tau.matrix), flag)

    def side(lay, party):
        return [r.label for r in lay.registers if r.party is party]

    order = side(sig, Party.ALICE) + side(tau, Party.BOB) + ["E0"]
    order += side(sig, Party.EVE) + side(tau, Party.EVE)
    labels = [r.label for r in regs]
    axes = [labels.index(lbl) for lbl in order]
    dims = tuple(r.dim for r in regs)
    t = mat.reshape(dims * 2).transpose(axes + [len(regs) + a for a in axes])
    return tuple(order), t.reshape(mat.shape)


def basis_qubit(i, label, party):
    m = np.zeros((2, 2), dtype=complex)
    m[i, i] = 1.0
    return DensityState(layout((label, 2, party), (f"{label}m", 1, "eve")), m)


class TestBuildMarkov:
    def test_single_pure_entry_is_product(self):
        c = MarkovComponents((MarkovEntry(1.0, basis_qubit(0, "A", "alice"), basis_qubit(1, "B", "bob")),))
        xi = build_markov(c)
        assert abs(cqmi(xi, ("A",), ("B",), ("E0", "Am", "Bm"))) < 1e-12
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0  # |0>_A |1>_B with trivial memories and E0
        np.testing.assert_allclose(xi.matrix, expected, atol=1e-12)

    def test_two_entry_classical_blocks(self, ghz):
        c = MarkovComponents(
            (
                MarkovEntry(0.5, basis_qubit(0, "A", "alice"), basis_qubit(0, "B", "bob")),
                MarkovEntry(0.5, basis_qubit(1, "A", "alice"), basis_qubit(1, "B", "bob")),
            )
        )
        xi = build_markov(c)
        reduced = xi.permuted(("A", "B", "E0", "Am", "Bm"))
        np.testing.assert_allclose(reduced.matrix, ghz.matrix, atol=1e-12)

    def test_budget_checked_before_allocating(self, monkeypatch):
        # Two blocks of 2x4 by 2x4: a 128-dimensional state, 256 KiB a matrix.
        components = random_components(1, entries=2, d_el=4, d_er=4)
        monkeypatch.setenv("NMK_DIM_BUDGET", "64")
        peak = peak_before_raising(lambda: build_markov(components), BudgetExceeded)
        assert peak < 0.1 * 2**20

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_dense_oracle(self, seed):
        components = varied_components(seed)
        labels, want = dense_markov(components)
        xi = build_markov(components)
        assert xi.layout.labels == labels
        assert np.array_equal(xi.matrix, want)

    def test_negligible_entry_is_omitted(self):
        # A weight of -1e-11 passes the weight rule; its block, of trace at
        # most PRUNE_TOL, is dropped, as a zero weight's block adds nothing.
        e = zoo("markov_random", {"entries": 3}, seed=1).entries
        rest = (replace(e[1], p=e[1].p + e[0].p), e[2])
        xi = build_markov(MarkovComponents((replace(e[0], p=-1e-11),) + rest))
        _, want = dense_markov(MarkovComponents((replace(e[0], p=0.0),) + rest))
        assert np.array_equal(xi.matrix, want)

    def test_peak_stays_within_five_dense_matrices(self):
        # Dimension 1024: 8 entries of 4 x 4 by 4 x 2.
        params = {"entries": 8, "d_a": 4, "d_b": 4, "d_el": 4, "d_er": 2}
        components = zoo("markov_random", params, seed=1)
        tracemalloc.start()
        try:
            xi = build_markov(components)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = xi.dim**2 * np.dtype(complex).itemsize
        assert xi.dim == 1024
        assert peak <= 5 * dense, f"peak {peak / dense:.2f} dense matrices"

    def test_random_components_markov(self):
        for seed in range(5):
            xi = build_markov(random_components(seed))
            assert cqmi(xi, ("A",), ("B",), ("E0", "EL", "ER")) < 1e-10

    def test_bad_probabilities(self):
        with pytest.raises(BadProbabilities):
            MarkovComponents(
                (MarkovEntry(0.7, basis_qubit(0, "A", "alice"), basis_qubit(0, "B", "bob")),)
            )

    def test_nan_probability(self):
        first, second = random_components(3, entries=2).entries
        with pytest.raises(BadProbabilities, match="weights"):
            MarkovComponents((first, MarkovEntry(float("nan"), second.sigma, second.tau)))

    def test_inconsistent_layouts(self):
        a = basis_qubit(0, "A", "alice")
        with pytest.raises(InconsistentDims):
            MarkovComponents(
                (
                    MarkovEntry(0.5, a, basis_qubit(0, "B", "bob")),
                    MarkovEntry(0.5, a, basis_qubit(0, "C", "bob")),
                )
            )


class TestPetz:
    def test_markov_states_recover(self):
        for seed in range(5):
            xi = build_markov(random_components(seed))
            recovered, pre_trace = petz_recover(xi, ("A",), ("B",), ("E0", "EL", "ER"))
            assert fidelity(recovered, xi) >= 1 - 1e-8
            assert abs(pre_trace - 1.0) < 1e-6

    def test_bell_not_recoverable(self, bell_e0):
        recovered, _ = petz_recover(bell_e0, ("A",), ("B",), ("E",))
        # Direct computation: the recovery output is I/2 (x) I/2 (x) |0><0|.
        expected = np.kron(np.eye(4) / 4, np.diag([1.0, 0.0])).astype(complex)
        np.testing.assert_allclose(recovered.matrix, expected, atol=1e-9)
        fid = fidelity(recovered, bell_e0)
        assert fid < 1 - 1e-3
        assert abs(fid - 0.25) < 1e-9

    def test_product_recovers(self):
        rng = np.random.default_rng(2)
        a = sample("density_hs", (2,), rng, layout=layout(("A", 2, "alice")))
        b = sample("density_hs", (2,), rng, layout=layout(("B", 2, "bob")))
        e = sample("density_hs", (2,), rng, layout=layout(("E", 2, "eve")))
        rho = tensor(tensor(a, b), e)
        recovered, _ = petz_recover(rho, ("A",), ("B",), ("E",))
        assert fidelity(recovered, rho) >= 1 - 1e-9


class TestScore:
    def test_ghz_verdict(self, ghz):
        score = markov_score(ghz)
        assert score.verdict and score.recovery_fidelity >= 1 - 1e-8

    def test_classical_corr_with_mixed_eve(self):
        rho = tensor(classical_corr(), DensityState(layout(("E", 2, "eve")), np.eye(2, dtype=complex) / 2))
        score = markov_score(rho)
        assert not score.verdict
        assert abs(score.cqmi_bits - 1.0) < 1e-9

    def test_random_state_not_markov(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert not markov_score(sample("density_hs", (2, 2, 2), rng)).verdict

    def test_components_invariants(self):
        # Broad sweep: construction always verdicts Markov with near-exact recovery.
        for seed in range(200):
            xi = build_markov(random_components(seed, entries=2))
            score = markov_score(xi)
            assert score.cqmi_bits <= 1e-10
            assert score.recovery_fidelity >= 1 - 1e-8

    def test_isometry_invariance_of_verdict(self):
        rng = np.random.default_rng(5)
        xi = build_markov(random_components(8, entries=2))
        iso = ChannelMap.isometry(sample("isometry", (8, 16), rng))
        widened = apply_channel(
            xi, iso, ("E0", "EL", "ER"), out=(Register("F", 16, "eve"),)
        )
        assert markov_score(widened).verdict

    def test_mixing_markov_states_breaks_verdict(self, ghz):
        # The irreversible-mix output is an equal mixture of two block
        # states yet fails the verdict.
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        flipped = apply_channel(ghz, ChannelMap.unitary(sx), ("E",))
        assert markov_score(flipped).verdict
        mixed = DensityState(ghz.layout, 0.5 * (ghz.matrix + flipped.matrix))
        score = markov_score(mixed)
        assert not score.verdict
        assert abs(nonmarkovianity(mixed) - 0.5) < 1e-9

    def test_broadcast_output_builds_only_the_petz_result(self, monkeypatch):
        coin = tuple(np.eye(2, dtype=complex) / np.sqrt(2) for _ in range(2))
        rho = sample("density_hs", (2, 2, 2), 12)
        step = Step(StepKind.BROADCAST_A, operators=coin, on=("A",), msg_label="J")
        out = apply_step(Scenario(rho), step).state
        a, b, e = party_partition(out)
        assert out.layout.labels != a + b + e
        built = []
        check = DensityState.__post_init__

        def counted(state):
            built.append(state.layout.labels)
            check(state)

        monkeypatch.setattr(DensityState, "__post_init__", counted)
        score = markov_score(out)
        assert built == [a + b + e]
        monkeypatch.undo()
        recovered, _ = petz_recover(out, a, b, e)
        target = partial_trace(out, a + b + e).permuted(a + b + e)
        assert score.recovery_fidelity == pytest.approx(fidelity(recovered, target), abs=1e-12)
