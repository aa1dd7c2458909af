import numpy as np
import pytest

import nmk
from nmk import (
    ChannelMap,
    DensityState,
    PureState,
    apply_channel,
    fidelity,
    layout,
    partial_trace,
    purify,
    sample,
    tensor,
    trace_distance,
)
from nmk.errors import (
    BadDims,
    BudgetExceeded,
    DimensionMismatch,
    DuplicateLabel,
    InvariantViolation,
    LayoutMismatch,
    UnknownLabel,
)
from nmk import states
from nmk.registers import Register
from nmk.states import INVERSE_TOL, _inverse_deviation

from conftest import bell_pair, classical_corr, eve_zero, ghz_diag, peak_before_raising


def basis_state(dim, i, label="A", party="alice"):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, i] = 1.0
    return DensityState(layout((label, dim, party)), m)


def mixed_qubit(label="A", party="alice"):
    return DensityState(layout((label, 2, party)), np.eye(2, dtype=complex) / 2)


class TestTensor:
    def test_basis_product(self):
        out = tensor(basis_state(2, 0, "A"), basis_state(2, 0, "B", "bob"))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(out.matrix, expected)

    def test_maximally_mixed(self):
        out = tensor(mixed_qubit("A"), mixed_qubit("B", "bob"))
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4)
        assert abs(nmk.entropy(out, ("A", "B")) - 2.0) < 1e-12

    def test_bell_with_eve(self):
        out = tensor(bell_pair(), eve_zero())
        assert abs(nmk.nonmarkovianity(out) - 1.0) < 1e-9

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            tensor(mixed_qubit("A"), mixed_qubit("A", "bob"))

    def test_budget_checked_before_kron(self, monkeypatch):
        a = sample("density_hs", (2, 2), 1, layout=layout(("A", 2, "alice"), ("Q", 2, "alice")))
        b = sample("density_hs", (2, 2), 2, layout=layout(("B", 2, "bob"), ("E", 2, "eve")))
        monkeypatch.setenv("NMK_DIM_BUDGET", "8")

        def no_kron(*args):
            raise AssertionError("np.kron ran on an over-budget product")

        monkeypatch.setattr(nmk.states.np, "kron", no_kron)
        with pytest.raises(BudgetExceeded, match="16"):
            tensor(a, b)


class TestPartialTrace:
    def test_bell_marginal(self):
        out = partial_trace(bell_pair(), ("A",))
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_ghz_drop_eve(self):
        # Direct matrix computation: sum the two E diagonal blocks.
        g = ghz_diag()
        expected = np.zeros((4, 4), dtype=complex)
        full = g.matrix.reshape(4, 2, 4, 2)
        for e in range(2):
            expected += full[:, e, :, e]
        out = partial_trace(g, ("A", "B"))
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)
        np.testing.assert_allclose(out.matrix, classical_corr().matrix, atol=1e-12)

    def test_product_factor_recovery(self):
        rho = sample("density_hs", (2,), 3, layout=layout(("A", 2, "alice")))
        sig = sample("density_hs", (3,), 4, layout=layout(("B", 3, "bob")))
        out = partial_trace(tensor(rho, sig), ("B",))
        np.testing.assert_allclose(out.matrix, sig.matrix, atol=1e-12)

    def test_trace_preserved(self):
        rho = sample("density_hs", (2, 2, 2), 11)
        out = partial_trace(rho, ("A", "E"))
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            partial_trace(bell_pair(), ("Z",))

    def test_tensor_then_trace_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = sample("density_hs", (2, 2), rng, layout=layout(("A", 2, "alice"), ("X", 2, "eve")))
            b = sample("density_hs", (3,), rng, layout=layout(("B", 3, "bob")))
            back = partial_trace(tensor(a, b), ("A", "X"))
            assert np.max(np.abs(back.matrix - a.matrix)) < 1e-12


class TestPurify:
    def test_maximally_mixed(self):
        psi = purify(mixed_qubit(), "R")
        assert psi.layout.register("R").dim == 2
        back = partial_trace(psi.to_density(), ("A",))
        assert trace_distance(back, mixed_qubit()) < 1e-10

    def test_pure_input_trivial_reference(self):
        rho = basis_state(2, 1)
        psi = purify(rho, "R")
        assert psi.layout.register("R").dim == 1

    def test_rank3_qutrit_roundtrip(self):
        rho = sample("density_hs", (3,), 7, layout=layout(("A", 3, "alice")))
        psi = purify(rho, "R")
        assert psi.layout.register("R").dim == 3
        back = partial_trace(psi.to_density(), ("A",))
        assert trace_distance(back, rho) < 1e-10

    def test_roundtrip_many(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            dims = tuple(rng.choice([2, 3], size=2))
            rho = sample(
                "density_hs", dims, rng, layout=layout(("A", int(dims[0]), "alice"), ("B", int(dims[1]), "bob"))
            )
            back = partial_trace(purify(rho, "R").to_density(), ("A", "B"))
            assert trace_distance(back, rho) < 1e-9

    def test_deterministic_and_phase_fixed(self):
        rho = sample("density_hs", (2, 2), 5, layout=layout(("A", 2, "alice"), ("B", 2, "bob")))
        p1 = purify(rho, "R")
        p2 = purify(rho, "R")
        np.testing.assert_array_equal(p1.amplitudes, p2.amplitudes)
        # Column-wise phase convention: first nonzero entry real positive.
        arr = p1.amplitudes.reshape(-1, p1.layout.register("R").dim)
        for col in arr.T:
            nz = col[np.abs(col) > 1e-12]
            assert nz[0].imag == pytest.approx(0.0, abs=1e-12)
            assert nz[0].real > 0

    def test_reference_padding(self):
        psi = purify(mixed_qubit(), "R", ref_dim=4)
        assert psi.layout.register("R").dim == 4
        with pytest.raises(BadDims):
            purify(mixed_qubit(), "R", ref_dim=1)


class TestApplyChannel:
    def test_identity_channel(self):
        rho = sample("density_hs", (2, 2), 9, layout=layout(("A", 2, "alice"), ("B", 2, "bob")))
        out = apply_channel(rho, ChannelMap.unitary(np.eye(2)), ("B",))
        assert out.layout == rho.layout
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_mixing_on_eve(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        chan = ChannelMap.mixing([np.eye(2), sx], [0.5, 0.5])
        out = apply_channel(ghz_diag(), chan, ("E",))
        expected = np.kron(classical_corr().matrix, np.eye(2) / 2)
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)
        assert abs(nmk.nonmarkovianity(out) - 0.5) < 1e-9

    def test_full_dephasing_of_bell(self):
        out = apply_channel(bell_pair(), ChannelMap.dephasing(2), ("A",))
        np.testing.assert_allclose(out.matrix, classical_corr().matrix, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_channel(bell_pair(), ChannelMap.unitary(np.eye(3)), ("A",))

    def test_trace_preserved_and_identity_elsewhere(self):
        rng = np.random.default_rng(4)
        rho = sample("density_hs", (2, 3), rng, layout=layout(("A", 2, "alice"), ("B", 3, "bob")))
        chan = ChannelMap.unitary(nmk.sample("unitary", 2, rng))
        out = apply_channel(rho, chan, ("A",))
        assert abs(np.trace(out.matrix) - 1.0) < 1e-10
        np.testing.assert_allclose(
            partial_trace(out, ("B",)).matrix, partial_trace(rho, ("B",)).matrix, atol=1e-10
        )

    def test_full_output_layout_ordering(self):
        rho = sample("density_hs", (2, 2), 3, layout=layout(("A", 2, "alice"), ("E", 2, "eve")))
        iso = ChannelMap.isometry(nmk.sample("isometry", (2, 4), 5))
        target = layout(("F", 4, "eve"), ("A", 2, "alice"))
        out = apply_channel(rho, iso, ("E",), out=target)
        assert out.layout.labels == ("F", "A")
        # Same action, block form, then explicit permutation.
        block = apply_channel(rho, iso, ("E",), out=(Register("F", 4, "eve"),))
        np.testing.assert_allclose(out.matrix, block.permuted(("F", "A")).matrix, atol=1e-12)

    def test_full_output_layout_keeps_channel_block_order(self):
        # The block is named out of layout order; the channel's output is in
        # ``on`` order whichever order the full output layout lists.
        lay = layout(("A", 2, "alice"), ("Q", 3, "bob"), ("B", 2, "bob"))
        rho = sample("density_hs", (2, 3, 2), 5, layout=lay)
        chan = ChannelMap.unitary(nmk.sample("unitary", 6, 11))
        plain = apply_channel(rho, chan, ("Q", "A"))
        full = apply_channel(rho, chan, ("Q", "A"), out=lay)
        assert full.layout == plain.layout == lay
        np.testing.assert_allclose(full.matrix, plain.matrix, rtol=0, atol=1e-12)

    def test_generic_declared_inverse_verification(self):
        u = nmk.sample("unitary", 3, 8)
        chan = ChannelMap.from_kraus([u], declared_inverse=ChannelMap.from_kraus([u.conj().T]))
        chan.verify_inverse()  # a generic pair: the same Choi check as unitary()
        wrong = ChannelMap.from_kraus([np.eye(3, dtype=complex)])
        with pytest.raises(InvariantViolation, match="inverse_composition"):
            ChannelMap.from_kraus([u], declared_inverse=wrong)

    def test_declared_inverse_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = sample("density_hs", (2, 2), rng, layout=layout(("A", 2, "alice"), ("E", 2, "eve")))
            iso = nmk.sample("isometry", (2, 6), rng)
            chan = ChannelMap.isometry(iso)
            widened = apply_channel(rho, chan, ("E",), out=(Register("F", 6, "eve"),))
            back = apply_channel(
                widened, chan.declared_inverse, ("F",), out=(Register("E", 2, "eve"),)
            )
            assert trace_distance(back.permuted(("A", "E")), rho) < 1e-9


def loop_deviation(kraus, inverse_kraus):
    """Oracle: apply the channel, then the inverse, to every matrix unit and
    return the largest entrywise deviation from that unit."""
    r = kraus[0].shape[1]
    worst = 0.0
    for i in range(r):
        for j in range(r):
            unit = np.zeros((r, r), dtype=complex)
            unit[i, j] = 1.0
            mid = sum(k @ unit @ k.conj().T for k in kraus)
            back = sum(l @ mid @ l.conj().T for l in inverse_kraus)
            worst = max(worst, float(np.max(np.abs(back - unit))))
    return worst


def near_tolerance_inverse(u, factor, rng):
    """``u^dagger`` perturbed in a random direction, scaled so that the
    oracle deviation is about ``factor * INVERSE_TOL``."""
    direction = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
    probe = loop_deviation((u,), (u.conj().T + 1e-8 * direction,))
    return u.conj().T + factor * INVERSE_TOL * 1e-8 / probe * direction


def inverse_cases():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4):
        u = nmk.sample("unitary", d, rng)
        yield f"unitary{d}", (u,), (u.conj().T,)
    for out_dim in (4, 6):
        v = nmk.sample("isometry", (2, out_dim), rng)
        yield f"isometry2to{out_dim}", (v,), (v.conj().T,)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    yield "two_kraus_wrong", (np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * sx), (np.eye(2),)
    for factor in (0.5, 2.0):
        u = nmk.sample("unitary", 3, rng)
        yield f"perturbed{factor}x", (u,), (near_tolerance_inverse(u, factor, rng),)


class TestInverseCheck:
    @pytest.mark.parametrize(
        "kraus, inverse_kraus",
        [case[1:] for case in inverse_cases()],
        ids=[case[0] for case in inverse_cases()],
    )
    def test_choi_check_matches_matrix_unit_loop(self, kraus, inverse_kraus):
        expected = loop_deviation(kraus, inverse_kraus)
        chan = ChannelMap(tuple(kraus))
        inverse = ChannelMap(tuple(inverse_kraus), trace_preserving=False)
        assert _inverse_deviation(chan.kraus, inverse.kraus) == pytest.approx(expected, abs=1e-14)
        if expected <= INVERSE_TOL:
            ChannelMap(chan.kraus, declared_inverse=inverse)
        else:
            with pytest.raises(InvariantViolation, match="inverse_composition"):
                ChannelMap(chan.kraus, declared_inverse=inverse)

    def test_near_tolerance_cases_straddle_it(self):
        # The perturbed inverses land on either side of the tolerance, so
        # both verdicts are exercised near it.
        devs = {name: loop_deviation(k, l) for name, k, l in inverse_cases()}
        assert 0.4 * INVERSE_TOL < devs["perturbed0.5x"] < 0.6 * INVERSE_TOL
        assert 1.8 * INVERSE_TOL < devs["perturbed2.0x"] < 2.2 * INVERSE_TOL
        assert devs["two_kraus_wrong"] > INVERSE_TOL


class TestTraceDistanceAndFidelity:
    def test_self_distance_zero(self):
        rho = sample("density_hs", (2, 2), 1)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert abs(trace_distance(basis_state(2, 0), basis_state(2, 1)) - 1.0) < 1e-12

    def test_pure_vs_mixed(self):
        assert abs(trace_distance(basis_state(2, 0), mixed_qubit()) - 0.5) < 1e-12

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b, c = (sample("density_hs", (2, 2), rng) for _ in range(3))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert abs(dab - dba) < 1e-12
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12

    def test_layout_mismatch(self):
        with pytest.raises(LayoutMismatch):
            trace_distance(mixed_qubit("A"), mixed_qubit("B", "bob"))

    def test_fidelity_extremes(self):
        assert abs(fidelity(basis_state(2, 0), basis_state(2, 0)) - 1.0) < 1e-12
        assert fidelity(basis_state(2, 0), basis_state(2, 1)) < 1e-12


class TestSample:
    def test_pure_deterministic(self):
        v1 = sample("pure", (2,), 123)
        v2 = sample("pure", (2,), 123)
        np.testing.assert_array_equal(v1.amplitudes, v2.amplitudes)

    def test_density_valid(self):
        rho = sample("density_hs", (2, 2), 6)
        assert isinstance(rho, DensityState)  # invariants checked in constructor

    def test_isometry_property(self):
        w = sample("isometry", (2, 4), 10)
        np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=1e-12)

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            sample("isometry", (4, 2), 0)
        with pytest.raises(BadDims):
            sample("pure", (), 0)


class TestRegisterDim:
    def test_numpy_integer_stored_as_int(self):
        reg = Register("A", np.int64(2), "alice")
        assert reg.dim == 2 and type(reg.dim) is int
        assert type(layout(("A", np.int32(3), "alice")).dim) is int

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_refused_naming_dim(self, flag):
        with pytest.raises(BadDims, match="dim"):
            Register("A", flag, "alice")


class TestValidation:
    def test_not_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolation, match="hermitian"):
            DensityState(layout(("A", 2, "alice")), m)

    def test_bad_trace(self):
        with pytest.raises(InvariantViolation, match="unit_trace"):
            DensityState(layout(("A", 2, "alice")), np.eye(2, dtype=complex))

    def test_not_positive(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvariantViolation, match="positive_semidefinite"):
            DensityState(layout(("A", 2, "alice")), m)

    def test_pure_norm(self):
        with pytest.raises(InvariantViolation, match="unit_norm"):
            PureState(layout(("A", 2, "alice")), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_density_not_finite(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[1, 1] = bad
        with pytest.raises(InvariantViolation, match="finite"):
            DensityState(layout(("A", 2, "alice")), m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pure_not_finite(self, bad):
        with pytest.raises(InvariantViolation, match="finite"):
            PureState(layout(("A", 2, "alice")), np.array([1.0, bad]))

    def test_kraus_completeness(self):
        with pytest.raises(InvariantViolation, match="kraus_completeness"):
            ChannelMap((np.eye(2) * 0.5,))

    @pytest.mark.parametrize("trace_preserving", [True, False])
    def test_kraus_not_finite(self, trace_preserving):
        with pytest.raises(InvariantViolation, match="finite"):
            ChannelMap((np.full((2, 2), np.nan),), trace_preserving=trace_preserving)
        with pytest.raises(InvariantViolation, match="finite"):
            ChannelMap((np.eye(2), np.diag([0.0, np.inf])), trace_preserving=trace_preserving)

    def test_declared_inverse_not_finite(self):
        with pytest.raises(InvariantViolation, match="finite"):
            ChannelMap.from_kraus(
                (np.eye(2),), ChannelMap((np.full((2, 2), np.nan),), trace_preserving=False)
            )

    def test_dim_budget(self, monkeypatch):
        monkeypatch.setenv("NMK_DIM_BUDGET", "4")
        with pytest.raises(BudgetExceeded):
            DensityState(layout(("A", 8, "alice")), np.eye(8, dtype=complex) / 8)
        monkeypatch.setenv("NMK_DIM_BUDGET", "8")
        DensityState(layout(("A", 8, "alice")), np.eye(8, dtype=complex) / 8)

    @pytest.mark.parametrize(
        "kind, dims",
        [
            ("density_hs", (2,) * 9),
            ("pure", (2,) * 8),
            ("unitary", 512),
            ("isometry", (256, 512)),
        ],
    )
    def test_sample_checks_budget_before_allocating(self, monkeypatch, kind, dims):
        # A 512-dimensional density matrix is 4 MiB, its Gaussian factor 8 MiB;
        # a 512 x 512 unitary's draw and QR take 17 MiB, a 512 x 256 isometry's 7 MiB.
        monkeypatch.setenv("NMK_DIM_BUDGET", "64")
        assert peak_before_raising(lambda: sample(kind, dims, 1), BudgetExceeded) < 0.1 * 2**20

    def test_to_density_checks_budget_before_allocating(self, monkeypatch):
        # The outer product of 256 amplitudes is 1 MiB.
        psi = sample("pure", (2,) * 8, 1)
        monkeypatch.setenv("NMK_DIM_BUDGET", "64")
        assert peak_before_raising(psi.to_density, BudgetExceeded) < 0.1 * 2**20

    @pytest.mark.parametrize(
        "build, entries",
        [
            (lambda: purify(nmk.zoo("ghz_diag"), "R", ref_dim=64), 512),
            (lambda: ChannelMap.dephasing(64), 262144),
        ],
        ids=["purify_ref_dim", "dephasing"],
    )
    def test_entry_count_checked_before_allocating(self, monkeypatch, build, entries):
        # B = 8 admits 64 entries; dephasing(64) would build 64 dense 64 x 64
        # operators (4 MiB).
        monkeypatch.setenv("NMK_DIM_BUDGET", "8")
        with pytest.raises(BudgetExceeded, match=f"{entries} exceeds the budget of 64"):
            build()
        assert peak_before_raising(build, BudgetExceeded) < 0.1 * 2**20

    def test_default_reference_fits_the_budget(self, monkeypatch):
        # d * rank <= d^2 <= B^2: the rank never trips the entry count.
        monkeypatch.setenv("NMK_DIM_BUDGET", "8")
        assert purify(nmk.zoo("ghz_diag"), "R").layout.dim == 8 * 2


def test_equality_is_identity():
    # States hold numpy matrices; == compares identity instead of raising
    # "truth value of an array is ambiguous".
    rho, again = nmk.zoo("ghz_diag"), nmk.zoo("ghz_diag")
    psi = purify(rho, "R")
    scenario = nmk.Scenario(rho)
    (witness, _) = nmk.baseline_witnesses(rho)
    channel = ChannelMap.dephasing(2)
    for x, y in [
        (rho, again),
        (psi, purify(rho, "R")),
        (scenario, nmk.Scenario(again)),
        (scenario.block_state, nmk.BlockState.from_density(rho)),
        (witness, nmk.baseline_witnesses(rho)[0]),
        (channel, ChannelMap.dephasing(2)),
    ]:
        assert x == x and not x != x
        assert x != y and not x == y
        assert len({x, y}) == 2


def test_callers_arrays_are_copied_not_frozen():
    # A writeable array handed to a constructor stays writeable, and writing
    # to it leaves the object as built; a read-only one is shared.
    rho = nmk.zoo("ghz_diag")
    (witness, _) = nmk.baseline_witnesses(rho)
    cases = [
        (lambda a: DensityState(rho.layout, a).matrix, rho.matrix),
        (lambda a: PureState(witness.layout, a).amplitudes, witness.members[0]),
        (lambda a: ChannelMap((a,)).kraus[0], np.eye(2, dtype=complex)),
        (lambda a: nmk.Witness(witness.layout, witness.groups, (1.0,), a).members, witness.members),
    ]
    for held, source in cases:
        given = np.array(source)
        kept = held(given)
        assert given.flags.writeable
        given[...] = 0.0
        assert np.array_equal(kept, source)
        frozen = np.array(source)
        frozen.flags.writeable = False
        assert np.shares_memory(held(frozen), frozen)


@pytest.mark.parametrize(
    "operation",
    [
        lambda s: apply_channel(s["ghz"], s["dephasing"], ("A",)),
        lambda s: partial_trace(s["ghz"], ("A", "E")),
        lambda s: tensor(s["bell"], s["eve"]),
        lambda s: s["ghz"].permuted(("E", "A", "B")),
    ],
    ids=["apply_channel", "partial_trace", "tensor", "permute_registers"],
)
def test_dense_results_are_handed_over_sealed(monkeypatch, operation):
    # A freshly computed matrix reaches _freeze read-only, so the state
    # shares it instead of copying it once more.
    operands = {
        "ghz": ghz_diag(),
        "bell": bell_pair(),
        "eve": eve_zero(),
        "dephasing": ChannelMap.dephasing(2),
    }
    writeable = []
    real = states._freeze

    def spy(arr):
        writeable.append(arr.flags.writeable)
        return real(arr)

    monkeypatch.setattr(states, "_freeze", spy)
    operation(operands)
    assert writeable == [False]
