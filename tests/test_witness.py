import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from nmk import (
    BlockState,
    DensityState,
    MarkovComponents,
    MarkovEntry,
    PureState,
    Witness,
    WitnessGroups,
    baseline_witnesses,
    build_markov,
    check_witness,
    continuity_bound,
    cqmi,
    entropy,
    layout,
    markov_witness,
    mutual_info,
    nonmarkovianity,
    objective,
    purify,
    sample,
    tensor,
    witness_from_ab_ensemble,
    witness_from_isometry,
    witness_local_channel,
    witness_mix,
    witness_regroup,
    witness_relabeled,
    witness_tensor,
    witness_transport_e,
    zoo,
)
from nmk.errors import (
    BadRange,
    DimensionMismatch,
    DimensionTooSmall,
    InvariantViolation,
    LayoutClash,
)
from nmk.rand import random_isometry
from nmk.registers import WEIGHT_TOL, Party, Register, RegisterLayout
from nmk.states import TRACE_TOL

from conftest import eve_zero
from test_markov import random_components


def recompute_objective(w):
    """Independent oracle: the member-marginal identity
    1/2 [S(AB|E) + sum_k p_k (S(AA') + S(BB') - S(A'B'))], evaluated with
    plain entropy calls on dense member states."""
    g = w.groups
    t = w.target()
    e = tuple(lbl for lbl in t.layout.labels if lbl in set(g.e))
    s_ab_e = entropy(t, t.layout.labels) - (entropy(t, e) if e else 0.0)
    total = 0.0
    for i, p in enumerate(w.weights):
        member = PureState(w.layout, w.members[i]).to_density()
        term = entropy(member, g.a + g.a_prime) + entropy(member, g.b + g.b_prime)
        if g.a_prime + g.b_prime:
            term -= entropy(member, g.a_prime + g.b_prime)
        total += p * term
    return 0.5 * (s_ab_e + total)


def definition_terms(w, joint):
    """The two terms of the definition 1/2 [I(AA':BB'|K) + I(AB:E'K|E)],
    with ``cqmi`` on ``joint``, a realized state of ``w`` with its flag K."""
    g = w.groups
    return (
        cqmi(joint, g.a + g.a_prime, g.b + g.b_prime, ("K",)),
        cqmi(joint, g.a + g.b, g.e_prime + ("K",), g.e),
    )


def realized_objective(w):
    """Independent oracle: the definition on the dense realized state."""
    return 0.5 * sum(definition_terms(w, w.realized().to_density()))


def count_dense_builds(monkeypatch) -> list:
    """Patch ``DensityState.__post_init__`` to log the layout labels of
    each state built; returns the log."""
    built = []
    check = DensityState.__post_init__

    def counted(state):
        built.append(state.layout.labels)
        check(state)

    monkeypatch.setattr(DensityState, "__post_init__", counted)
    return built


def random_witness(seed, ext=(1, 1, 1), k=None, rank=3):
    rng = np.random.default_rng(seed)
    rho = sample("density_hs", (2, 2, 2), rng, rank=rank)
    k = k or rank
    w_mat = random_isometry(rank, ext[0] * ext[1] * ext[2] * k, rng)
    return rho, witness_from_isometry(rho, w_mat, ext, k)


class TestConstruction:
    def test_pure_state_trivial_witness(self):
        rho = sample("pure", (2, 2, 2), 1).to_density()
        w = witness_from_isometry(rho, np.eye(1, dtype=complex), (1, 1, 1), 1)
        assert w.k == 1
        assert abs(objective(w) - 0.5 * mutual_info(rho, ("A",), ("B",))) < 1e-10

    def test_identity_steering_of_product_mixture(self):
        # I/2 (x) I/2 (x) |0><0| steered by the identity into the flag
        # gives the four basis products with equal weight.
        mixed = DensityState(
            layout(("A", 2, "alice"), ("B", 2, "bob")), np.eye(4, dtype=complex) / 4
        )
        rho = tensor(mixed, eve_zero())
        w = witness_from_isometry(rho, np.eye(4, dtype=complex), (1, 1, 1), 4)
        assert w.k == 4
        assert np.allclose(w.weights, [0.25] * 4)
        for i in range(4):
            member = PureState(w.layout, w.members[i]).to_density()
            assert abs(mutual_info(member, ("A",), ("B",))) < 1e-10
        # Product members with trivial primes leave the full conditional
        # entropy on the table: the objective is S(AB|E)/2 = 1, not 0.
        assert objective(w) == pytest.approx(1.0, abs=1e-10)

    def test_random_reduction_constraint(self):
        rho, w = random_witness(2, ext=(2, 1, 2), k=4)
        assert check_witness(w, rho, tol=1e-10) < 1e-10

    def test_capacity_too_small(self):
        rho = sample("density_hs", (2, 2, 2), 3)  # rank 8
        with pytest.raises(DimensionTooSmall):
            witness_from_isometry(rho, np.eye(4, dtype=complex), (1, 1, 1), 4)

    def test_realized_state_has_classical_flag(self):
        _, w = random_witness(4)
        joint = w.realized().to_density()
        assert joint.layout.register("K").dim == w.k
        # Off-diagonal flag blocks vanish by construction.
        t = joint.matrix.reshape(w.layout.dim, w.k, w.layout.dim, w.k)
        for i in range(w.k):
            for j in range(w.k):
                if i != j:
                    assert np.max(np.abs(t[:, i, :, j])) == 0.0


class TestObjective:
    def test_dual_route_identity(self):
        for seed in range(20):
            _, w = random_witness(seed, ext=(2, 2, 1), k=3)
            assert abs(objective(w) - recompute_objective(w)) < 1e-8

    def test_dual_route_identity_with_purifier_extension(self):
        # The escalation round uses a nontrivial E'.
        for seed in range(10):
            _, w = random_witness(seed, ext=(2, 2, 2), k=3)
            assert abs(objective(w) - recompute_objective(w)) < 1e-8

    def test_markov_witness_vanishes(self):
        for seed in range(5):
            mc = random_components(seed)
            w = markov_witness(mc)
            check_witness(w, build_markov(mc), tol=1e-9)
            assert abs(objective(w)) < 1e-9

    def test_markov_witness_builds_no_dense_state(self, monkeypatch):
        mc = zoo("markov_random", {"entries": 3}, seed=4)
        built = count_dense_builds(monkeypatch)
        w = markov_witness(mc)
        assert built == []
        monkeypatch.undo()
        xi = build_markov(mc)
        assert w.layout.labels == xi.layout.labels + ("A'", "B'")
        check_witness(w, xi, tol=1e-9)

    def test_single_product_entry(self):
        from test_markov import basis_qubit

        mc = MarkovComponents(
            (MarkovEntry(1.0, basis_qubit(0, "A", "alice"), basis_qubit(0, "B", "bob")),)
        )
        assert abs(objective(markov_witness(mc))) < 1e-12

    def test_objective_at_least_lower_bound(self):
        for seed in range(10):
            rho, w = random_witness(seed)
            assert objective(w) >= nonmarkovianity(rho) - 1e-9


def _witnesses_on_the_definition():
    """One witness from each constructor and transform, all small enough
    for the dense realized state."""
    _, w = random_witness(21, ext=(2, 2, 1), k=3)
    rho = sample("density_hs", (2, 2, 2), 22, rank=3)
    ab = layout(("A", 2, "alice"), ("B", 2, "bob"))
    rng = np.random.default_rng(23)
    chan = random_isometry(2, 4, rng)
    yield "isometry_111", random_witness(24)[1]
    yield "isometry_221", w
    yield "isometry_222", random_witness(25, ext=(2, 2, 2), k=3)[1]
    yield "baseline_b", baseline_witnesses(rho)[0]
    yield "baseline_a", baseline_witnesses(rho)[1]
    yield "markov", markov_witness(random_components(1, entries=2, d_el=1, d_er=1))
    yield "ab_ensemble", witness_from_ab_ensemble(
        (0.3, 0.7), [sample("density_hs", (2, 2), rng, layout=ab) for _ in range(2)]
    )
    yield "mix", witness_mix([(0.4, w), (0.6, w)])
    yield "tensor", witness_tensor(
        random_witness(26, rank=2)[1], witness_relabeled(random_witness(27, rank=2)[1], "2")
    )
    yield "regroup", witness_regroup(w, "A", to="e")
    yield "transport", witness_transport_e(
        w, random_isometry(2, 3, rng), ("E",), (Register("F", 3, Party.EVE),)
    )
    yield "local_channel", witness_local_channel(w, "a", [chan[:2], chan[2:]], ("A",), "Aenv")


@pytest.mark.parametrize(
    "w", [pytest.param(w, id=name) for name, w in _witnesses_on_the_definition()]
)
def test_objective_equals_definition_on_realized_state(w):
    assert abs(objective(w) - realized_objective(w)) < 1e-10


def _rank(state):
    return int(np.sum(np.linalg.eigvalsh(state.matrix) > 1e-12))


def _roles(**groups):
    """Each role's labels as a set; a role not named is empty."""
    return {f.name: set(groups.get(f.name, ())) for f in fields(WitnessGroups)}


def _flagged_members(vectors):
    """Member j is vector j with a flag register of len(vectors) levels,
    set to j, as the last register."""
    flags = np.eye(len(vectors))
    return np.array([np.kron(v, flags[j]) for j, v in enumerate(vectors)])


def _reordered(members, raw, labels):
    """A member stack on ``raw`` with its registers put in ``labels`` order."""
    t = members.reshape((len(members),) + raw.dims)
    axes = [1 + raw.index(lbl) for lbl in labels]
    return t.transpose([0] + axes).reshape(len(members), -1)


def reference_baselines(rho):
    """The two purification witnesses, written out."""
    lay = rho.layout
    parties = dict(
        a=lay.party_labels(Party.ALICE),
        b=lay.party_labels(Party.BOB),
        e=lay.party_labels(Party.EVE),
    )
    out = []
    for ref, party, role in (("B'", Party.BOB, "b_prime"), ("A'", Party.ALICE, "a_prime")):
        psi = purify(rho, ref, ref_party=party)
        out.append((psi.layout, _roles(**parties, **{role: (ref,)}), (1.0,), psi.amplitudes[None]))
    return out


def reference_markov_witness(mc):
    """Member j is |sigma_j>|tau_j>|j>, each side purified with its
    reference padded to the side's largest rank, in the built state's
    register order followed by A', B'."""
    entries = mc.entries
    a_dim = max(_rank(e.sigma) for e in entries)
    b_dim = max(_rank(e.tau) for e in entries)
    vectors = []
    for e in entries:
        ps = purify(e.sigma, "A'", ref_dim=a_dim, ref_party=Party.ALICE)
        pt = purify(e.tau, "B'", ref_dim=b_dim, ref_party=Party.BOB)
        vectors.append(np.kron(ps.amplitudes, pt.amplitudes))
    raw = RegisterLayout(
        ps.layout.registers + pt.layout.registers + (Register("E0", len(entries), Party.EVE),)
    )
    lay = build_markov(mc).layout.extended((raw.register("A'"), raw.register("B'")))
    sig, tau = entries[0].sigma.layout, entries[0].tau.layout
    roles = _roles(
        a=sig.party_labels(Party.ALICE),
        a_prime=("A'",),
        b=tau.party_labels(Party.BOB),
        b_prime=("B'",),
        e=("E0",) + sig.party_labels(Party.EVE) + tau.party_labels(Party.EVE),
    )
    return lay, roles, mc.probs, _reordered(_flagged_members(vectors), raw, lay.labels)


def reference_ab_witness(weights, states):
    """Member j is a purification of state j, its reference Ee padded to
    the largest rank, then the flag Ke set to j."""
    rank = max(_rank(s) for s in states)
    vectors = [purify(s, "Ee", ref_dim=rank, ref_party=Party.EVE).amplitudes for s in states]
    extra = (Register("Ee", rank, Party.EVE), Register("Ke", len(states), Party.EVE))
    lay = states[0].layout.extended(extra)
    roles = _roles(a=lay.party_labels(Party.ALICE), b=lay.party_labels(Party.BOB), e=("Ee", "Ke"))
    return lay, roles, weights, _flagged_members(vectors)


def padded_components(seed):
    """Two blocks whose sides differ in rank, so that both references are
    padded for one block."""
    rng = np.random.default_rng(seed)
    sig_lay = layout(("A", 2, "alice"), ("EL", 2, "eve"))
    tau_lay = layout(("B", 2, "bob"), ("ER", 1, "eve"))
    return MarkovComponents(
        tuple(
            MarkovEntry(
                p,
                sample("density_hs", (2, 2), rng, rank=r_sig, layout=sig_lay),
                sample("density_hs", (2, 1), rng, rank=r_tau, layout=tau_lay),
            )
            for p, r_sig, r_tau in ((0.4, 1, 2), (0.6, 3, 1))
        )
    )


def _composed_witnesses():
    """Each witness constructor built by composition, beside the reference
    construction of the same witness."""
    rho = sample("density_hs", (2, 2, 2), 41, rank=3)
    names = ("baseline_b", "baseline_a")
    yield from zip(names, baseline_witnesses(rho), reference_baselines(rho))
    for name, mc in (
        ("markov", random_components(42)),
        ("markov_one_entry", random_components(43, entries=1)),
        ("markov_rank_padded", padded_components(44)),
    ):
        yield name, markov_witness(mc), reference_markov_witness(mc)
    rng = np.random.default_rng(45)
    ab = layout(("A", 2, "alice"), ("B", 2, "bob"))
    states = [sample("density_hs", (2, 2), rng, rank=r, layout=ab) for r in (1, 3, 2)]
    weights = (0.2, 0.5, 0.3)
    w = witness_from_ab_ensemble(weights, states)
    yield "ab_ensemble", w, reference_ab_witness(weights, states)


@pytest.mark.parametrize(
    "w, reference", [pytest.param(w, ref, id=name) for name, w, ref in _composed_witnesses()]
)
def test_composed_constructor_matches_reference(w, reference):
    lay, roles, weights, members = reference
    assert w.layout == lay
    assert {role: set(group) for role, group in asdict(w.groups).items()} == roles
    assert np.array_equal(w.weights, weights)
    assert np.array_equal(w.members, members)


@pytest.mark.parametrize(
    "w", [pytest.param(w, id=name) for name, w in _witnesses_on_the_definition()]
)
def test_realized_matches_reference(w, monkeypatch):
    """Against the dense realized state written out: block (i, i) over the
    flag K, the last register, holds p_i |m_i><m_i|.  The realized state is
    a block state, built with no dense state, and the definition's terms
    read the same on its blocks as on its dense matrix."""
    k, d = w.members.shape
    mat = np.zeros((d, k, d, k), dtype=complex)
    for i, (p, m) in enumerate(zip(w.weights, w.members)):
        mat[:, i, :, i] = p * np.outer(m, m.conj())
    built = count_dense_builds(monkeypatch)
    blocks = w.realized()
    assert built == []
    monkeypatch.undo()
    assert isinstance(blocks, BlockState)
    joint = blocks.to_density()
    assert joint.layout == w.layout.extended((Register("K", k, Party.REFERENCE),))
    assert np.array_equal(joint.matrix, mat.reshape(d * k, d * k))
    assert definition_terms(w, blocks) == pytest.approx(definition_terms(w, joint), abs=1e-12)


class TestBaselines:
    def test_pure_state_value(self):
        rho = sample("pure", (2, 2, 2), 5).to_density()
        values = [objective(w) for w in baseline_witnesses(rho)]
        target = 0.5 * mutual_info(rho, ("A",), ("B",))
        assert min(values) == pytest.approx(target, abs=1e-9)

    def test_bell_value(self, bell_e0):
        values = [objective(w) for w in baseline_witnesses(bell_e0)]
        assert min(values) == pytest.approx(1.0, abs=1e-9)

    def test_upper_bound_guarantee(self):
        for seed in range(10):
            rho = sample("density_hs", (2, 2, 2), seed)
            cap = min(entropy(rho, ("A",)), entropy(rho, ("B",)))
            assert min(objective(w) for w in baseline_witnesses(rho)) <= cap + 1e-9

    def test_classical_corr_gap_to_optimal(self, classical_corr_e0):
        baseline = min(objective(w) for w in baseline_witnesses(classical_corr_e0))
        assert baseline == pytest.approx(1.0, abs=1e-9)
        # The two-member basis ensemble achieves the true value 1/2.
        lay = classical_corr_e0.layout
        members = []
        for i in (0, 1):
            vec = np.zeros(8, dtype=complex)
            vec[i * 4 + i * 2] = 1.0  # |ii> (x) |0>_E
            members.append(vec)
        groups = WitnessGroups(("A",), (), ("B",), (), ("E",), ())
        manual = Witness(lay, groups, (0.5, 0.5), tuple(members))
        check_witness(manual, classical_corr_e0, tol=1e-12)
        assert objective(manual) == pytest.approx(0.5, abs=1e-10)


class TestTransforms:
    def test_tensor_additivity(self):
        _, w1 = random_witness(7)
        _, w2 = random_witness(8, ext=(2, 1, 1), k=3)
        w2 = witness_relabeled(w2, "2")
        pair = witness_tensor(w1, w2)
        assert abs(objective(pair) - objective(w1) - objective(w2)) < 1e-9

    def test_tensor_markov_pair_vanishes(self):
        # Trivial memory registers keep the prime dimensions (and hence the
        # joint reductions) small.
        w1 = markov_witness(random_components(1, entries=2, d_el=1, d_er=1))
        w2 = witness_relabeled(markov_witness(random_components(2, entries=2, d_el=1, d_er=1)), "2")
        assert abs(objective(witness_tensor(w1, w2))) < 1e-9

    def test_tensor_label_clash(self):
        _, w1 = random_witness(7)
        with pytest.raises(LayoutClash):
            witness_tensor(w1, w1)

    def test_mix_single_part_unchanged(self):
        _, w = random_witness(9)
        assert abs(objective(witness_mix([(1.0, w)])) - objective(w)) < 1e-9

    def test_mix_of_block_state_witnesses_vanishes(self):
        w = markov_witness(random_components(4, entries=2))
        mixed = witness_mix([(0.3, w), (0.7, w)])
        assert abs(objective(mixed)) < 1e-9

    def test_mix_linearity_of_pure_parts(self):
        p1 = sample("pure", (2, 2, 2), 10).to_density()
        p2 = sample("pure", (2, 2, 2), 11).to_density()
        w1 = baseline_witnesses(p1)[0]
        w2 = baseline_witnesses(p2)[0]
        # Parts must share one member layout: pad both to the same shape.
        mixed = witness_mix([(0.5, w1), (0.5, Witness(w1.layout, w1.groups, w2.weights, w2.members))])
        expected = 0.5 * objective(w1) + 0.5 * objective(w2)
        assert abs(objective(mixed) - expected) < 1e-9

    def test_regroup_trivial_register_keeps_value(self):
        rho, w = random_witness(12)
        # Move a dim-1 padding register: add one to the A group first.
        lay = w.layout.extended((Register("C", 1, Party.ALICE),))
        grown = Witness(
            lay,
            WitnessGroups(w.groups.a + ("C",), w.groups.a_prime, w.groups.b,
                          w.groups.b_prime, w.groups.e, w.groups.e_prime),
            w.weights,
            w.members,
        )
        moved = witness_regroup(grown, "C", to="e")
        assert abs(objective(moved) - objective(grown)) < 1e-12

    def test_regroup_monotone(self):
        lay = layout(("A", 2, "alice"), ("C", 2, "alice"), ("B", 2, "bob"), ("E", 2, "eve"))
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = sample("density_hs", (2, 2, 2, 2), rng, rank=4, layout=lay)
            w_mat = random_isometry(4, 4, rng)
            w = witness_from_isometry(rho, w_mat, (1, 1, 1), 4)
            moved = witness_regroup(w, "C", to="e")
            assert objective(moved) <= objective(w) + 1e-9

    def test_regroup_classical_copy_of_flag_drops(self):
        # Members |k>_A |k>_C |k>_B |0>_E: the A-side copy of the flag costs
        # half a bit until it is regrouped into the conditioner.
        lay = layout(("A", 2, "alice"), ("C", 2, "alice"), ("B", 2, "bob"), ("E", 1, "eve"))
        members = []
        for k in (0, 1):
            vec = np.zeros(8, dtype=complex)
            vec[k * 4 + k * 2 + k] = 1.0
            members.append(vec)
        w = Witness(lay, WitnessGroups(("A", "C"), (), ("B",), (), ("E",), ()), (0.5, 0.5), tuple(members))
        moved = witness_regroup(w, "C", to="e")
        assert objective(w) == pytest.approx(0.5, abs=1e-10)
        assert objective(moved) == pytest.approx(0.0, abs=1e-10)

    def test_move_out_of_conditioner_bounded(self):
        lay = layout(("A", 2, "alice"), ("B", 2, "bob"), ("E", 2, "eve"), ("Q", 2, "eve"))
        rng = np.random.default_rng(14)
        for _ in range(10):
            rho = sample("density_hs", (2, 2, 2, 2), rng, rank=4, layout=lay)
            w = witness_from_isometry(rho, random_isometry(4, 4, rng), (1, 1, 1), 4)
            moved = witness_regroup(w, "Q", to="a")
            assert objective(moved) <= objective(w) + math.log2(2) + 1e-9

    def test_transport_e_invariance(self):
        rng = np.random.default_rng(15)
        for seed in range(5):
            _, w = random_witness(seed, ext=(2, 1, 1), k=3)
            iso = random_isometry(2, 6, rng)
            moved = witness_transport_e(w, iso, ("E",), (Register("F", 6, Party.EVE),))
            assert abs(objective(moved) - objective(w)) < 1e-9

    def test_local_channel_monotone(self):
        rng = np.random.default_rng(16)
        for seed in range(5):
            _, w = random_witness(seed)
            iso = random_isometry(2, 4, rng)
            kraus = [iso[i * 2 : (i + 1) * 2, :] for i in range(2)]
            for side, reg in (("a", "A"), ("b", "B")):
                moved = witness_local_channel(w, side, kraus, (reg,), f"{reg}env")
                assert objective(moved) <= objective(w) + 1e-9


class TestContinuityBound:
    def test_zero(self):
        assert continuity_bound(0.0, 2, 2) == 0.0

    def test_full_distance(self):
        # 4*log2(4) + 6*h(1/2) = 8 + 6.
        assert continuity_bound(1.0, 2, 2) == pytest.approx(14.0, abs=1e-12)

    def test_small_eps_plugin(self):
        # Oracle arithmetic: 0.8 + 3.3*h(1/11).
        h = -(1 / 11) * math.log2(1 / 11) - (10 / 11) * math.log2(10 / 11)
        expected = 0.8 + 3.3 * h
        assert expected == pytest.approx(2.250340, abs=1e-6)
        assert continuity_bound(0.01, 2, 2) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_eps(self):
        values = [continuity_bound(e, 2, 3) for e in np.linspace(0, 1, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bad_range(self):
        with pytest.raises(BadRange):
            continuity_bound(1.5, 2, 2)
        with pytest.raises(BadRange):
            continuity_bound(-0.1, 2, 2)


def test_weights_validated():
    lay = layout(("A", 2, "alice"), ("B", 2, "bob"), ("E", 1, "eve"))
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1.0
    groups = WitnessGroups(("A",), (), ("B",), (), ("E",), ())
    with pytest.raises(InvariantViolation, match="weights"):
        Witness(lay, groups, (0.7,), (vec,))


@pytest.mark.parametrize(
    "weights, entry",
    [((np.nan, 0.5), 0.0), ((np.inf, 0.5), 0.0), ((0.5, 0.5), np.nan), ((0.5, 0.5), np.inf)],
)
def test_non_finite_rejected(weights, entry):
    lay = layout(("A", 2, "alice"), ("B", 2, "bob"), ("E", 1, "eve"))
    good = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    bad = np.array([entry, 0.0, 0.0, 1.0], dtype=complex)
    groups = WitnessGroups(("A",), (), ("B",), (), ("E",), ())
    with pytest.raises(InvariantViolation, match="finite"):
        Witness(lay, groups, weights, (good, bad))


def test_members_are_a_read_only_stack():
    _, w = random_witness(5, ext=(2, 1, 1), k=3)
    assert w.members.shape == (w.k, w.layout.dim)
    with pytest.raises(ValueError, match="read-only"):
        w.members[0, 0] = 0.0


def basis(d, i):
    vec = np.zeros(d, dtype=complex)
    vec[i] = 1.0
    return vec


@pytest.mark.parametrize(
    "members",
    [
        (basis(4, 0), basis(3, 1)),  # ragged
        (basis(5, 0), basis(5, 1)),  # a stack of the wrong length
        basis(8, 0),  # one flat vector, not a stack
        (basis(4, 0), basis(4, 1), basis(4, 2)),  # more members than weights
        (),
    ],
)
def test_members_must_form_a_stack(members):
    lay = layout(("A", 2, "alice"), ("B", 2, "bob"), ("E", 1, "eve"))
    groups = WitnessGroups(("A",), (), ("B",), (), ("E",), ())
    with pytest.raises(DimensionMismatch):
        Witness(lay, groups, (0.5, 0.5), members)


def _rescaled(w, scale, shift):
    """``w`` with every member scaled by ``scale`` and its first weight moved
    by ``shift``."""
    return Witness(w.layout, w.groups, (w.weights[0] + shift, *w.weights[1:]), w.members * scale)


@pytest.mark.parametrize("mixed", [False, True], ids=["baseline", "mix"])
def test_witness_is_refused_or_usable(mixed):
    # A witness is built only when its realized state is: a build off by
    # rounding either fails naming the broken invariant or is usable.
    base = baseline_witnesses(zoo("ghz_diag"))[0]
    w0 = witness_mix([(0.3, base), (0.7, base)]) if mixed else base
    rho = w0.target()
    for c in (0.0, 0.5, -0.5, 0.9, -0.9, 1.1, -1.1, 2.0, -2.0):
        for shift in (0.0, 0.9, -0.9, 1.1, -1.1):
            try:
                w = _rescaled(w0, 1.0 + c * TRACE_TOL / 2, shift * WEIGHT_TOL)
            except InvariantViolation as exc:
                assert exc.invariant in ("weights", "unit_norm", "unit_trace"), (c, shift)
                continue
            w.realized()
            check_witness(w, rho)
            objective(w)


def test_witness_refuses_what_its_realized_state_refuses():
    base = baseline_witnesses(zoo("ghz_diag"))[0]
    # Members within 1e-9 in norm but 1e-9 off in ||m||^2.
    with pytest.raises(InvariantViolation, match="unit_norm"):
        _rescaled(base, 1.0 + 5e-10, 0.0)
    # Members and weights each within their tolerance, the trace not.
    mixed = witness_mix([(0.5, base), (0.5, base)])
    with pytest.raises(InvariantViolation, match="unit_trace"):
        _rescaled(mixed, math.sqrt(1.0 + 9e-11), 9e-11)


def test_witness_trace_is_over_the_members_its_state_keeps():
    # A member of negative weight at most PRUNE_TOL is dropped from the
    # realized state, so it cannot make up for the excess trace of the rest.
    base = baseline_witnesses(zoo("ghz_diag"))[0]
    pair = np.vstack([base.members, base.members]) * math.sqrt(1.0 + 5e-11)
    with pytest.raises(InvariantViolation, match="unit_trace"):
        Witness(base.layout, base.groups, (1.0 + 9e-11, -9e-11), pair)
