import gc
import tracemalloc

import numpy as np
import pytest

from nmk import (
    DensityState,
    EsqcConfig,
    ab_ensemble_from_witness,
    esqc_objective,
    estimate_esqc,
    extension_crosscheck,
    layout,
    mutual_info,
    objective,
    partial_trace,
    purify,
    sample,
    trace_distance,
    witness_from_ab_ensemble,
    zoo,
)
from nmk import csquashed
from nmk.csquashed import _fast_esqc_objective, _members_from_matrix
from nmk.errors import BadEnsemble, BadRange, BudgetExceeded
from nmk.rand import random_isometry

from conftest import bell_pair, classical_corr
from test_nmf import assert_gradient_matches, count_kernel_calls, steering_isometry
from test_witness import random_witness

FAST = EsqcConfig(restarts=6, max_iters=300, seed=0)


def basis_product(i, j):
    m = np.zeros((4, 4), dtype=complex)
    m[i * 2 + j, i * 2 + j] = 1.0
    return DensityState(layout(("A", 2, "alice"), ("B", 2, "bob")), m)


class TestObjective:
    def test_singleton_bell(self):
        assert esqc_objective((1.0,), (bell_pair(),)) == pytest.approx(1.0, abs=1e-10)

    def test_product_ensemble(self):
        rng = np.random.default_rng(1)
        a = sample("density_hs", (2,), rng, layout=layout(("A", 2, "alice")))
        b = sample("density_hs", (2,), rng, layout=layout(("B", 2, "bob")))
        from nmk import tensor

        assert abs(esqc_objective((1.0,), (tensor(a, b),))) < 1e-10

    def test_basis_decomposition_of_classical_corr(self):
        value = esqc_objective((0.5, 0.5), (basis_product(0, 0), basis_product(1, 1)))
        assert abs(value) < 1e-12

    def test_bad_ensembles(self):
        with pytest.raises(BadEnsemble):
            esqc_objective((0.7,), (bell_pair(),))
        with pytest.raises(BadEnsemble):
            esqc_objective((1.0,), ())

    def test_nan_weight(self):
        with pytest.raises(BadEnsemble, match="weights"):
            esqc_objective((float("nan"),), (bell_pair(),))
        with pytest.raises(BadEnsemble, match="weights"):
            esqc_objective((float("nan"), 1.0), (bell_pair(), bell_pair()))


@pytest.mark.parametrize("e_prime", [1, 2])
@pytest.mark.parametrize("extra_k", [0, 1])
def test_fast_objective_matches_dense_oracle(e_prime, extra_k):
    rng = np.random.default_rng(37)
    lay = layout(("A", 2, "alice"), ("B", 3, "bob"))
    for _ in range(3):
        omega = sample("density_hs", (2, 3), rng, layout=lay, rank=3)
        psi = purify(omega, "__ref__")
        rank = psi.layout.register("__ref__").dim
        psi_arr = psi.amplitudes.reshape(omega.dim, rank)
        k = rank + extra_k
        w_mat = steering_isometry(rank, (e_prime,), k, rng)
        fast = _fast_esqc_objective(omega, psi_arr, e_prime, k).value_and_grad(w_mat)[0]
        weights, states = _members_from_matrix(omega, psi_arr, w_mat, e_prime, k)
        assert len(states) == rank  # an empty flag slot is pruned
        assert fast == pytest.approx(esqc_objective(weights, states), abs=1e-10)


@pytest.mark.parametrize("e_prime", [1, 2])
def test_gradient_matches_dense_oracle(e_prime):
    rng = np.random.default_rng(47)
    lay = layout(("A", 2, "alice"), ("B", 3, "bob"))
    for _ in range(2):
        omega = sample("density_hs", (2, 3), rng, layout=lay, rank=3)
        psi = purify(omega, "__ref__")
        rank = psi.layout.register("__ref__").dim
        psi_arr = psi.amplitudes.reshape(omega.dim, rank)
        fast = _fast_esqc_objective(omega, psi_arr, e_prime, rank)
        w_mat = random_isometry(rank, e_prime * rank, rng)

        def oracle(w):
            return esqc_objective(*_members_from_matrix(omega, psi_arr, w, e_prime, rank))

        assert_gradient_matches(oracle, fast, w_mat, rng)


class TestEstimate:
    def test_negative_seed_rejected(self):
        with pytest.raises(BadRange, match="seed"):
            EsqcConfig(seed=-1)

    def test_bool_e_prime_rejected(self):
        with pytest.raises(BadRange, match="^e_prime must"):
            EsqcConfig(e_prime=True)

    def test_bell_is_unit(self):
        est = estimate_esqc(bell_pair(), FAST)
        assert est.upper_bits == pytest.approx(1.0, abs=1e-6)
        assert est.notes["dilution_cdown_single_copy_bits"] == pytest.approx(2.0, abs=1e-5)

    def test_pure_product_is_zero(self):
        est = estimate_esqc(basis_product(0, 0), FAST)
        assert est.upper_bits <= 1e-9

    def test_classical_corr_is_separable(self):
        est = estimate_esqc(classical_corr(), FAST)
        assert est.upper_bits <= 1e-3
        avg = sum(p * s.matrix for p, s in zip(est.weights, est.ensemble))
        assert np.max(np.abs(avg - classical_corr().matrix)) < 1e-8

    def test_never_exceeds_half_mutual_info(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            omega = sample(
                "density_hs", (2, 2), rng, layout=layout(("A", 2, "alice"), ("B", 2, "bob"))
            )
            est = estimate_esqc(omega, EsqcConfig(restarts=2, max_iters=100, seed=3))
            assert est.upper_bits <= 0.5 * mutual_info(omega, ("A",), ("B",)) + 1e-9

    def test_pure_states_have_no_nontrivial_decomposition(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            omega = sample(
                "pure", (2, 2), rng, layout=layout(("A", 2, "alice"), ("B", 2, "bob"))
            ).to_density()
            est = estimate_esqc(omega, EsqcConfig(restarts=2, max_iters=100, seed=5))
            assert est.upper_bits == pytest.approx(
                0.5 * mutual_info(omega, ("A",), ("B",)), abs=1e-6
            )

    def test_dimension_cap(self, monkeypatch):
        # Rank 2 on 9 x 9 realizes 81 * 2 * 2 = 324: within the default
        # budget, over a budget of 256.
        lay = layout(("A", 9, "alice"), ("B", 9, "bob"))
        omega = sample("density_hs", (9, 9), 6, layout=lay, rank=2)
        est = estimate_esqc(omega, FAST)
        assert est.lower_bits <= est.upper_bits
        monkeypatch.setenv("NMK_DIM_BUDGET", "256")
        with pytest.raises(BudgetExceeded, match="dimension 324 exceeds the budget of 256"):
            estimate_esqc(omega, FAST)

    def test_over_budget_round_1_is_skipped(self, monkeypatch):
        # The benchmark's hs_random 4,4,2 state: round 0 (k = 16) realizes
        # 16 * 2 * 16 = 512, round 1 (k = 32) 1024, over a budget of 600.
        omega = zoo("hs_random", {"dims": [4, 4, 2]}, seed=1)
        config = EsqcConfig(restarts=1, max_iters=20, seed=1)
        full = estimate_esqc(omega, config)
        assert [r["round"] for r in full.notes["rounds"]] == [0, 1]
        monkeypatch.setenv("NMK_DIM_BUDGET", "600")
        capped = estimate_esqc(omega, config)
        assert capped.notes["rounds"][0] == full.notes["rounds"][0]
        assert capped.notes["rounds"][1]["skipped"] == (
            "realized dimension 1024 exceeds the budget of 600"
        )
        assert list(capped.trace) == [r for r in full.trace if r.round_id == 0]

    def test_eve_marginal_taken(self):
        est = estimate_esqc(zoo("bell_e0"), FAST)
        assert est.upper_bits == pytest.approx(1.0, abs=1e-6)

    def test_worker_count_invariance(self):
        omega = sample(
            "density_hs", (2, 2), 8, layout=layout(("A", 2, "alice"), ("B", 2, "bob")), rank=2
        )
        serial = estimate_esqc(omega, EsqcConfig(restarts=4, max_iters=150, seed=9, jobs=1))
        threaded = estimate_esqc(omega, EsqcConfig(restarts=4, max_iters=150, seed=9, jobs=3))
        assert serial.upper_bits == threaded.upper_bits
        assert [r.objective for r in serial.trace] == [r.objective for r in threaded.trace]


class TestSearch:
    def test_gate_state_converges(self):
        est = estimate_esqc(zoo("hs_random", {"dims": (4, 4, 2)}, seed=1), EsqcConfig(seed=1))
        assert est.upper_bits <= 0.0013
        # 60% of the 4,801 evaluations of Armijo steps from twice the last.
        assert est.notes["evals"] <= 2880

    def test_gate_state_needs_fewer_evals_than_gradient_steps(self):
        est = estimate_esqc(zoo("hs_random", {"dims": (4, 4, 2)}, seed=1), EsqcConfig(seed=1))
        assert est.upper_bits <= 0.0013
        # Barzilai-Borwein gradient steps took 2,135 evaluations.
        assert est.notes["evals"] <= 1900

    def test_gate_state_needs_fewer_evals_than_capped_directions(self):
        est = estimate_esqc(zoo("hs_random", {"dims": (4, 4, 2)}, seed=1), EsqcConfig(seed=1))
        assert est.upper_bits <= 0.0013
        # Directions capped at the Barzilai-Borwein step's length took 1,686.
        assert est.notes["evals"] <= 1300

    def test_short_budget_gets_below_the_singleton(self):
        # At 50 steps Barzilai-Borwein gradient steps read 0.154 of the
        # singleton bound on these states.
        ratios = []
        for seed in range(1, 5):
            omega = zoo("hs_random", {"dims": (4, 4, 2)}, seed=seed)
            est = estimate_esqc(omega, EsqcConfig(restarts=1, max_iters=50, seed=1))
            ab = partial_trace(omega, ("A", "B"))
            ratios.append(est.upper_bits / (0.5 * mutual_info(ab, ("A",), ("B",))))
        assert np.mean(ratios) <= 0.11
        # Directions capped at the Barzilai-Borwein step's length read 0.0819.
        assert np.mean(ratios) <= 0.07


def winning_record(est):
    """The trace record that ``notes["best_source"]``, restart:<rid>/<round>,
    names."""
    rid, round_id = map(int, est.notes["best_source"].removeprefix("restart:").split("/"))
    (record,) = [r for r in est.trace if (r.restart_id, r.round_id) == (rid, round_id)]
    return record


def oracle_hashing_bound(omega):
    """max(0, S(A) - S(AB), S(B) - S(AB)) of the AB marginal, from numpy
    eigenvalues of marginals reduced with einsum."""
    da, db = omega.layout.dims[:2]
    rest = omega.dim // (da * db)
    t = omega.matrix.reshape(da, db, rest, da, db, rest)
    ab = np.einsum("abeABe->abAB", t)

    def s(m):
        vals = np.linalg.eigvalsh(m)
        vals = vals[vals > 1e-12]
        return float(-np.sum(vals * np.log2(vals)))

    s_ab = s(ab.reshape(da * db, da * db))
    s_a = s(np.einsum("abAb->aA", ab))
    s_b = s(np.einsum("abaB->bB", ab))
    return max(0.0, s_a - s_ab, s_b - s_ab)


class TestBracket:
    CHEAP = EsqcConfig(restarts=1, max_iters=30, seed=1)

    @pytest.mark.parametrize("dims", [(2, 2, 1), (2, 2, 2), (4, 4, 1), (4, 4, 2)])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_lower_is_the_hashing_bound_below_upper(self, dims, rank):
        for seed in range(1, 6):
            omega = zoo("hs_random", {"dims": dims, "rank": rank}, seed=seed)
            est = estimate_esqc(omega, self.CHEAP)
            lower = oracle_hashing_bound(omega)
            assert est.lower_bits == pytest.approx(lower, abs=1e-9)
            assert lower <= est.upper_bits + 1e-9
            assert est.gap == est.upper_bits - est.lower_bits >= 0
            assert est.certified == (not est.notes["uncertified"])

    def test_pure_states_reach_their_lower_bound(self):
        # (2,2,1) states of rank 1 are pure on AB: L = S(A) = E_sq^c.
        for seed in range(1, 6):
            omega = zoo("hs_random", {"dims": (2, 2, 1), "rank": 1}, seed=seed)
            est = estimate_esqc(omega, self.CHEAP)
            assert est.certified and est.notes["evals"] == 0
            assert est.upper_bits == pytest.approx(oracle_hashing_bound(omega), abs=1e-9)

    def test_ladder_doubles_k_for_one_restart(self):
        omega = zoo("hs_random", {"dims": (4, 4, 2)}, seed=1)
        est = estimate_esqc(omega, EsqcConfig(restarts=2, max_iters=30, seed=1))
        rounds = est.notes["rounds"]
        assert [(r["round"], r["k"]) for r in rounds] == [(0, 16), (1, 32)]
        assert [(r.round_id, r.restart_id) for r in est.trace] == [(0, 0), (0, 1), (1, 0)]
        assert rounds[1]["best"] == est.upper_bits < rounds[0]["best"]
        assert est.notes["best_source"] == "restart:0/1"

    def test_explicit_k_runs_one_round(self):
        omega = zoo("hs_random", {"dims": (4, 4, 2)}, seed=1)
        est = estimate_esqc(omega, EsqcConfig(k=16, restarts=2, max_iters=30, seed=1))
        assert est.notes["uncertified"]
        assert [(r["round"], r["k"]) for r in est.notes["rounds"]] == [(0, 16)]
        assert {r.round_id for r in est.trace} == {0}
        # Round 0 is the default ladder's first round, record for record.
        ladder = estimate_esqc(omega, EsqcConfig(restarts=2, max_iters=30, seed=1))
        assert est.trace == ladder.trace[:2]

    def test_round_one_winner_is_an_ensemble_of_the_state(self):
        omega = zoo("hs_random", {"dims": (4, 4, 2)}, seed=1)
        config = EsqcConfig(restarts=1, max_iters=50, seed=1)
        est = estimate_esqc(omega, config)
        assert est.notes["best_source"] == "restart:0/1"
        ab = partial_trace(omega, ("A", "B"))
        assert csquashed.check_ensemble(est.weights, est.ensemble, ab, tol=1e-8) <= 1e-8
        assert 16 < len(est.ensemble) <= 32
        assert esqc_objective(est.weights, est.ensemble) == pytest.approx(est.upper_bits, abs=1e-12)
        # Round 1's restart starts from the isometry of seed key [seed, 1, 0].
        psi = purify(ab, "__ref__")
        psi_arr = psi.amplitudes.reshape(ab.dim, 16)
        start = random_isometry(16, 2 * 32, np.random.default_rng([1, 1, 0]))
        start_value = esqc_objective(*_members_from_matrix(ab, psi_arr, start, 2, 32))
        assert winning_record(est).objective <= start_value

    def test_gate_state_stops_in_round_zero(self):
        est = estimate_esqc(zoo("hs_random", {"dims": (4, 4, 2)}, seed=1), EsqcConfig(seed=1))
        assert est.upper_bits <= 0.0013 and est.certified
        assert [r["round"] for r in est.notes["rounds"]] == [0]
        assert est.notes["evals"] <= 1157


class TestWinnerOnly:
    """Restarts are ranked by their own objective; only a restart that beats
    the singleton becomes an ensemble of states."""

    def test_one_ensemble_built(self, monkeypatch):
        built = []
        real = csquashed._members_from_matrix
        monkeypatch.setattr(csquashed, "_members_from_matrix", lambda *a: built.append(a) or real(*a))
        estimate_esqc(classical_corr(), FAST)
        assert len(built) == 1

    def test_upper_is_the_smallest_candidate(self):
        omega = classical_corr()
        est = estimate_esqc(omega, FAST)
        objectives = [r.objective for r in est.trace]
        singleton = 0.5 * mutual_info(omega, ("A",), ("B",))
        assert est.upper_bits == pytest.approx(min([singleton] + objectives), abs=1e-12)
        assert esqc_objective(est.weights, est.ensemble) == est.upper_bits
        assert winning_record(est).objective == min(objectives)

    def test_notes_count_evals_and_restarts_beating_singleton(self):
        # Separable: decompositions into products reach 0, below the
        # singleton's 1/2.
        omega = classical_corr()
        est = estimate_esqc(omega, FAST)
        singleton = esqc_objective((1.0,), (omega,))
        assert est.notes["evals"] == sum(r.evals for r in est.trace)
        assert all(r.evals >= r.iterations + 1 for r in est.trace)
        beating = [r for r in est.trace if r.objective < singleton - 1e-12]
        assert 0 < est.notes["restarts_beating_baseline"] == len(beating)
        assert est.notes["grad_norm"] == winning_record(est).grad_norm
        # Pure: the singleton meets the lower bound, so no restart runs.
        est = estimate_esqc(self.pure_state(), EsqcConfig(restarts=2, max_iters=50, seed=2))
        assert est.certified and est.trace == ()
        assert est.notes["evals"] == est.notes["restarts_beating_baseline"] == 0
        assert est.notes["grad_norm"] is None

    def test_evals_count_kernel_calls(self, monkeypatch):
        calls = count_kernel_calls(monkeypatch)
        omega = zoo("hs_random", {"dims": [2, 2, 2]}, seed=4)
        est = estimate_esqc(omega, EsqcConfig(restarts=2, max_iters=40, seed=1))
        assert est.notes["evals"] == sum(r.evals for r in est.trace) == len(calls) > 0

    @staticmethod
    def pure_state():
        lay = layout(("A", 4, "alice"), ("B", 4, "bob"))
        return sample("pure", (4, 4), 1, layout=lay).to_density()

    def test_source_singleton(self):
        omega = self.pure_state()
        est = estimate_esqc(omega, EsqcConfig(restarts=2, max_iters=50, seed=2))
        assert est.notes["best_source"] == "singleton"
        assert est.weights == (1.0,) and len(est.ensemble) == 1
        assert trace_distance(est.ensemble[0], omega) < 1e-12

    def test_result_keeps_members_not_dense_states(self):
        # At e' = 1 the 16 members take 4 KiB; 16 dense AB states, 64 KiB.
        omega = zoo("hs_random", {"dims": [4, 4, 2]}, seed=1)
        config = EsqcConfig(k=16, e_prime=1, restarts=1, max_iters=50, seed=2)
        estimate_esqc(omega, config)  # warm caches outside the measurement
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            est = estimate_esqc(omega, config)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(est.ensemble) == 16
        assert kept < 16 * 1024
        # The states are rebuilt on access, to the same bits each time.
        assert esqc_objective(est.weights, est.ensemble) == est.upper_bits


class TestCrosscheck:
    def test_bell(self):
        rep = extension_crosscheck(bell_pair(), EsqcConfig(restarts=4, max_iters=200, seed=1))
        assert rep.esqc_ub == pytest.approx(1.0, abs=1e-3)
        assert rep.msq_ub == pytest.approx(1.0, abs=1e-3)
        assert rep.gap <= 1e-3

    def test_pure_product(self):
        rep = extension_crosscheck(basis_product(1, 0), EsqcConfig(restarts=2, max_iters=100, seed=2))
        assert rep.esqc_ub <= 1e-6
        assert rep.msq_ub <= 1e-6

    def test_classical_corr(self):
        rep = extension_crosscheck(classical_corr(), EsqcConfig(restarts=6, max_iters=300, seed=3))
        assert rep.esqc_ub <= 1e-3
        assert rep.msq_ub <= 1e-3
        assert rep.gap <= 1e-3
        assert set(rep.per_extension) == {"product", "purification", "classical_flag"}


class TestWitnessBridges:
    def test_ensemble_to_witness_equality(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            states = [
                sample("density_hs", (2, 2), rng, layout=layout(("A", 2, "alice"), ("B", 2, "bob")))
                for _ in range(3)
            ]
            weights = rng.dirichlet(np.ones(3))
            w = witness_from_ab_ensemble(weights, states)
            assert abs(objective(w) - esqc_objective(weights, states)) < 1e-9

    def test_witness_to_ensemble_bound(self):
        for seed in range(5):
            rho, w = random_witness(seed, ext=(2, 2, 1), k=3)
            weights, states = ab_ensemble_from_witness(w)
            avg = sum(p * s.matrix for p, s in zip(weights, states))
            reduced = DensityState(states[0].layout, avg)
            from nmk import partial_trace

            assert trace_distance(reduced, partial_trace(rho, ("A", "B"))) < 1e-9
            assert esqc_objective(weights, states) <= objective(w) + 1e-9
