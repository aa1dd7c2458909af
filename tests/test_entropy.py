import importlib
import math
from dataclasses import asdict

import numpy as np
import pytest

from nmk import (
    DensityState,
    apply_channel,
    ChannelMap,
    conditional_entropy,
    cqmi,
    entropy,
    entropy_report,
    layout,
    mutual_info,
    nonmarkovianity,
    sample,
    tensor,
)
from nmk.errors import DuplicateLabel, OverlappingPartition
from nmk.registers import Register

from conftest import classical_corr


def test_maximally_mixed_qubit():
    rho = DensityState(layout(("A", 2, "alice")), np.eye(2, dtype=complex) / 2)
    assert abs(entropy(rho, ("A",)) - 1.0) < 1e-12


def test_pure_state_zero_entropy():
    psi = sample("pure", (2, 2, 2), 3)
    assert abs(entropy(psi.to_density(), ("A", "B", "E"))) < 1e-10


def test_binary_spectrum():
    # Closed-form oracle: h(1/4) computed directly.
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    rho = DensityState(layout(("A", 2, "alice")), np.diag([0.75, 0.25]).astype(complex))
    assert abs(entropy(rho, ("A",)) - expected) < 1e-6
    assert abs(expected - 0.811278) < 1e-6


class TestCqmi:
    def test_ghz_is_markov(self, ghz):
        assert abs(cqmi(ghz, ("A",), ("B",), ("E",))) < 1e-10

    def test_classical_corr_with_mixed_eve(self):
        mixed_e = DensityState(layout(("E", 2, "eve")), np.eye(2, dtype=complex) / 2)
        rho = tensor(classical_corr(), mixed_e)
        assert abs(cqmi(rho, ("A",), ("B",), ("E",)) - 1.0) < 1e-10
        assert abs(nonmarkovianity(rho) - 0.5) < 1e-10

    def test_bell_e0(self, bell_e0):
        assert abs(cqmi(bell_e0, ("A",), ("B",), ("E",)) - 2.0) < 1e-10
        assert abs(nonmarkovianity(bell_e0) - 1.0) < 1e-10

    def test_overlap_rejected(self, ghz):
        with pytest.raises(OverlappingPartition):
            cqmi(ghz, ("A",), ("A", "B"), ("E",))

    def test_repeated_label_rejected(self, ghz):
        with pytest.raises(DuplicateLabel):
            cqmi(ghz, ("A", "A"), ("B",), ("E",))
        with pytest.raises(DuplicateLabel):
            entropy(ghz, ("E", "E"))

    def test_extra_registers_traced_first(self, bell_e0):
        value = cqmi(bell_e0, ("A",), ("B",), ())
        assert abs(value - mutual_info(bell_e0, ("A",), ("B",))) < 1e-12

    def test_random_product_is_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = sample("density_hs", (2,), rng, layout=layout(("A", 2, "alice")))
            b = sample("density_hs", (2,), rng, layout=layout(("B", 2, "bob")))
            e = sample("density_hs", (2,), rng, layout=layout(("E", 2, "eve")))
            rho = tensor(tensor(a, b), e)
            assert abs(nonmarkovianity(rho)) < 1e-10


class TestProperties:
    def test_strong_subadditivity_sampled(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            rho = sample("density_hs", (2, 2, 2), rng)
            assert cqmi(rho, ("A",), ("B",), ("E",)) >= -1e-9

    def test_chain_rule(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            rho = sample("density_hs", (2, 2, 2), rng)
            lhs = mutual_info(rho, ("A",), ("B", "E")) - mutual_info(rho, ("A",), ("E",))
            assert abs(lhs - cqmi(rho, ("A",), ("B",), ("E",))) < 1e-9

    def test_isometry_on_eve_invariance(self):
        rng = np.random.default_rng(102)
        for _ in range(25):
            rho = sample("density_hs", (2, 2, 2), rng)
            before = cqmi(rho, ("A",), ("B",), ("E",))
            iso = ChannelMap.isometry(sample("isometry", (2, 4), rng))
            widened = apply_channel(rho, iso, ("E",), out=(Register("F", 4, "eve"),))
            after = cqmi(widened, ("A",), ("B",), ("F",))
            assert abs(after - before) < 1e-9

    def test_moving_register_into_conditioner(self):
        # I(QA:B|E) >= I(A:B|EQ): moving Q out of the A group cannot raise
        # the conditional correlation.
        rng = np.random.default_rng(103)
        lay = layout(("A", 2, "alice"), ("Q", 2, "alice"), ("B", 2, "bob"), ("E", 2, "eve"))
        for _ in range(25):
            rho = sample("density_hs", (2, 2, 2, 2), rng, layout=lay)
            grouped = cqmi(rho, ("Q", "A"), ("B",), ("E",))
            conditioned = cqmi(rho, ("A",), ("B",), ("E", "Q"))
            assert grouped >= conditioned - 1e-9

    def test_classical_conditioning_linearity(self):
        rng = np.random.default_rng(104)
        lay = layout(("A", 2, "alice"), ("B", 2, "bob"), ("E", 2, "eve"))
        for _ in range(10):
            weights = rng.dirichlet(np.ones(3))
            blocks = [sample("density_hs", (2, 2, 2), rng, layout=lay) for _ in range(3)]
            mat = sum(
                w * np.kron(b.matrix, np.diag(np.eye(3)[m]).astype(complex))
                for m, (w, b) in enumerate(zip(weights, blocks))
            )
            full = DensityState(lay.extended((Register("ME", 3, "eve"),)), mat)
            combined = cqmi(full, ("A",), ("B",), ("E", "ME"))
            expected = sum(
                w * cqmi(b, ("A",), ("B",), ("E",)) for w, b in zip(weights, blocks)
            )
            assert abs(combined - expected) < 1e-9


def test_conditional_entropy_and_report(ghz):
    assert abs(conditional_entropy(ghz, ("A", "B"), ("E",))) < 1e-10
    rep = entropy_report(ghz)
    d = asdict(rep)
    assert d["m_i_bits"] == pytest.approx(0.0, abs=1e-10)
    assert d["s_a"] == pytest.approx(1.0, abs=1e-10)
    assert d["i_a_b"] == pytest.approx(1.0, abs=1e-10)


def oracle_entropy(matrix, dims, keep) -> float:
    """Entropy in bits of the marginal on positions ``keep``, straight from
    numpy: an einsum partial trace and ``eigvalsh``."""
    n = len(dims)
    keep = sorted(keep)
    if not keep:
        return 0.0
    cols = [n + i if i in keep else i for i in range(n)]
    d = math.prod(dims[i] for i in keep)
    marginal = np.einsum(
        matrix.reshape(tuple(dims) * 2), list(range(n)) + cols, keep + [n + i for i in keep]
    ).reshape(d, d)
    vals = np.linalg.eigvalsh(marginal)
    vals = vals[vals > 1e-12]
    return float(-np.sum(vals * np.log2(vals)))


def oracle_report(state, a, b, e) -> dict:
    pos = lambda *groups: [state.layout.index(lbl) for g in groups for lbl in g]  # noqa: E731
    s = lambda *groups: oracle_entropy(state.matrix, state.layout.dims, pos(*groups))  # noqa: E731
    cqmi_bits = s(a, e) + s(b, e) - s(a, b, e) - s(e)
    return {
        "s_a": s(a),
        "s_b": s(b),
        "s_e": s(e),
        "s_abe": s(a, b, e),
        "s_ab_given_e": s(a, b, e) - s(e),
        "i_a_b": s(a) + s(b) - s(a, b),
        "cqmi_bits": cqmi_bits,
        "m_i_bits": 0.5 * cqmi_bits,
    }


def broadcast_output():
    """A 2,2,2 state after one broadcast by Alice: six registers."""
    from nmk import Scenario, Step, StepKind, apply_step

    iso = sample("isometry", (2, 4), 12)
    sc = Scenario(sample("density_hs", (2, 2, 2), 11))
    step = Step(StepKind.BROADCAST_A, operators=(iso[:2], iso[2:]), on=("A",), msg_label="J")
    return apply_step(sc, step).state


@pytest.mark.parametrize(
    "groups",
    [
        None,  # party partition: (A, J_A), (B, J_B), (E, J_E)
        (("J_A",), ("B", "J_B"), ("E",)),  # leaves A and J_E out
        (("A",), ("B",), ()),  # empty conditioner, four registers out
    ],
)
def test_entropy_report_matches_numpy_oracle(groups):
    state = broadcast_output()
    assert state.layout.labels == ("A", "B", "E", "J_A", "J_B", "J_E")
    rep = entropy_report(state) if groups is None else entropy_report(state, *groups)
    expected = oracle_report(state, rep.a, rep.b, rep.e)
    got = asdict(rep)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, abs=1e-12), key


def test_entropy_report_solves_each_marginal_once(monkeypatch):
    module = importlib.import_module("nmk.entropy")  # ``nmk.entropy`` is the function
    sizes = []
    solve = module.entropy_of_matrix
    monkeypatch.setattr(
        module, "entropy_of_matrix", lambda m: sizes.append(m.shape[0]) or solve(m)
    )
    entropy_report(broadcast_output())
    # A, B, E, AB, AE, BE, ABE, each on two registers per party.
    assert sorted(sizes) == [4, 4, 4, 16, 16, 16, 64]
    sizes.clear()
    entropy_report(broadcast_output(), ("A",), ("B",), ())
    assert sorted(sizes) == [2, 2, 4]
