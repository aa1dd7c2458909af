import math
from collections import deque
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from nmk import (
    EsqcConfig,
    EstimateConfig,
    baseline_witnesses,
    build_markov,
    entropy,
    estimate,
    estimate_esqc,
    markov_witness,
    mutual_info,
    nonmarkovianity,
    objective,
    partial_trace,
    purify,
    sample,
    two_copy_bracket,
    witness_from_isometry,
    zoo,
)
from nmk.errors import BadRange, BudgetExceeded, DimensionTooSmall
from nmk import nmf
from nmk.csquashed import _fast_esqc_objective
from nmk.nmf import RestartRecord
from nmk.rand import as_rng, random_isometry
from nmk.states import _purified

from test_markov import random_components
from test_witness import recompute_objective

FAST = EstimateConfig(restarts=6, max_iters=300, seed=0)


def fast_objective(rho, psi_arr, ext, k):
    """``nmf._fast_objective`` with the state term ``estimate`` gives it."""
    return nmf._fast_objective(rho, psi_arr, ext, k, nmf._state_term(rho))


def steering_isometry(rank, ext, k, rng):
    """Random isometry from the reference into (extension) x K, with K the
    fastest index; flag slots from ``rank`` on stay empty."""
    cap = math.prod(ext) * k
    rows = [r for r in range(cap) if r % k < rank]
    w_mat = np.zeros((cap, rank), dtype=complex)
    w_mat[rows] = random_isometry(rank, len(rows), rng)
    return w_mat


@pytest.mark.parametrize("ext", [(1, 1, 1), (2, 2, 1), (2, 2, 2)])
@pytest.mark.parametrize("extra_k", [0, 1])
def test_fast_objective_matches_dense_oracle(ext, extra_k):
    rng = np.random.default_rng(31)
    for _ in range(3):
        rho = sample("density_hs", (2, 2, 2), rng, rank=3)
        psi = purify(rho, "__ref__")
        rank = psi.layout.register("__ref__").dim
        k = rank + extra_k
        w_mat = steering_isometry(rank, ext, k, rng)
        fast_f = fast_objective(rho, psi.amplitudes.reshape(rho.dim, rank), ext, k)
        fast = fast_f.value_and_grad(w_mat)[0]
        witness = witness_from_isometry(rho, w_mat, ext, k)
        assert witness.k == rank  # an empty flag slot is pruned
        assert fast == pytest.approx(recompute_objective(witness), abs=1e-10)


def polar(m):
    """The isometry nearest to ``m``: its polar factor."""
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh


def assert_gradient_matches(oracle, fast, w_mat, rng, h=1e-5):
    """The gradient ``fast.value_and_grad`` gives at the isometry ``w_mat``
    against central differences of ``oracle`` along the curves
    polar(W + t xi), xi tangent at W, whose slope at 0 is
    2 Re Tr[grad^dagger xi]."""
    value, grad = fast.value_and_grad(w_mat)
    assert value == pytest.approx(oracle(w_mat), abs=1e-10)
    for _ in range(3):
        z = rng.standard_normal(w_mat.shape) + 1j * rng.standard_normal(w_mat.shape)
        wz = w_mat.conj().T @ z
        xi = z - w_mat @ (0.5 * (wz + wz.conj().T))
        diff = (oracle(polar(w_mat + h * xi)) - oracle(polar(w_mat - h * xi))) / (2 * h)
        assert 2 * np.vdot(grad, xi).real == pytest.approx(diff, rel=1e-6)


@pytest.mark.parametrize("ext", [(1, 1, 1), (2, 2, 2)])
def test_gradient_matches_dense_oracle(ext):
    rng = np.random.default_rng(41)
    for _ in range(2):
        rho = sample("density_hs", (2, 2, 2), rng, rank=3)
        psi = purify(rho, "__ref__")
        rank = psi.layout.register("__ref__").dim
        fast = fast_objective(rho, psi.amplitudes.reshape(rho.dim, rank), ext, rank)
        w_mat = random_isometry(rank, math.prod(ext) * rank, rng)

        def oracle(w):
            return recompute_objective(witness_from_isometry(rho, w, ext, rank))

        assert_gradient_matches(oracle, fast, w_mat, rng)


def numpy_member_value(fast, w_mat):
    """The value of the member objective ``fast`` at ``w_mat`` with numpy
    alone: the slices at each flag K (the fastest index), their weights,
    each normalized member's marginal on each signed axis group by one
    einsum, and its eigenvalues only, with no eigenvectors."""
    slices = (fast.psi_arr @ w_mat.T).reshape(-1, fast.k).T
    weights = np.einsum("ij,ij->i", slices.conj(), slices).real
    members = slices / np.sqrt(weights)[:, None]
    tensor = members.reshape(fast.k, *fast.dims)
    signed = np.zeros(fast.k)
    for axes, sign in fast.signed_groups:
        rest = [i for i in range(len(fast.dims)) if i not in axes]
        kept = math.prod(fast.dims[i] for i in axes)
        arr = tensor.transpose([0] + [i + 1 for i in axes + rest]).reshape(fast.k, kept, -1)
        vals = np.linalg.eigvalsh(np.einsum("kab,kcb->kac", arr, arr.conj()))
        logs = np.log2(np.where(vals > 1e-12, vals, 1.0))
        signed += sign * -np.sum(vals * logs, axis=-1)
    return 0.5 * (fast.const + float(weights @ signed))


@pytest.mark.parametrize("ext", [(1, 1, 1), (2, 2, 2)])
def test_gradient_value_matches_numpy_oracle_on_near_pure_members(ext):
    # ghz_diag steered close to the identity: the members are close to
    # |000> and |111>, so their marginal spectra sit around the clamps.
    rho = zoo("ghz_diag")
    psi = purify(rho, "__ref__")
    rank = psi.layout.register("__ref__").dim
    fast = fast_objective(rho, psi.amplitudes.reshape(rho.dim, rank), ext, rank)
    rng = np.random.default_rng(43)
    cap = math.prod(ext) * rank
    for t in (0.0, 1e-7, 1e-6, 1e-5, 1e-3):
        z = rng.standard_normal((cap, rank)) + 1j * rng.standard_normal((cap, rank))
        w_mat = polar(np.eye(cap, rank) + t * z)
        value = fast.value_and_grad(w_mat)[0]
        assert value == pytest.approx(numpy_member_value(fast, w_mat), abs=1e-15)


def count_kernel_calls(monkeypatch) -> list:
    """Patch ``nmf.member_value_and_grad``, the kernel behind both
    estimators' searches, to log each call; returns the log."""
    calls = []
    real = nmf.member_value_and_grad

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(nmf, "member_value_and_grad", counted)
    return calls


def test_evals_count_kernel_calls(monkeypatch):
    # Every evaluation, line-search trials included, is one kernel call.
    calls = count_kernel_calls(monkeypatch)
    rho = sample("density_hs", (2, 2, 2), 3, rank=2)
    est = estimate(rho, EstimateConfig(restarts=2, max_iters=40, seed=1))
    assert est.notes["evals"] == sum(r.evals for r in est.trace) == len(calls) > 0


class TestSearch:
    """The descent: L-BFGS directions scaled by <s,y>/<y,y>, Barzilai-Borwein
    gradient steps when there is no pair, a nonmonotone reference, and each
    restart's best iterate returned."""

    def test_gate_state_converges(self):
        est = estimate(zoo("hs_random", {"dims": (2, 2, 2)}, seed=3), EstimateConfig(seed=1))
        assert est.notes["grad_norm"] <= 1e-6
        # 60% of the 9,603 evaluations of Armijo steps from twice the last.
        assert est.notes["evals"] <= 5761

    def test_restart_ends_at_most_at_its_start(self):
        rho = sample("density_hs", (2, 2, 2), 3, rank=2)
        config = EstimateConfig(restarts=3, max_iters=60, seed=5)
        est = estimate(rho, config)
        assert {r.round_id for r in est.trace} == {0, 1}
        for r in est.trace:
            ext = est.notes["rounds"][r.round_id]["ext"]
            capacity = math.prod(ext) * 2
            start = random_isometry(2, capacity, as_rng([config.seed, r.round_id, r.restart_id]))
            start_value = recompute_objective(witness_from_isometry(rho, start, ext, 2))
            assert r.objective <= start_value + 1e-12

    def test_more_steps_never_end_higher(self):
        # A run with a larger max_iters repeats a shorter run's steps and goes
        # on, so with the best iterate returned each restart's objective is
        # nonincreasing in max_iters, though the values along a run are not.
        rho = sample("density_hs", (2, 2, 2), 1)
        traces = [
            estimate(rho, EstimateConfig(restarts=2, max_iters=m, seed=1, ext=(1, 1, 1))).trace
            for m in range(5, 45, 5)
        ]
        for shorter, longer in zip(traces, traces[1:]):
            assert all(b.objective <= a.objective for a, b in zip(shorter, longer))

    def test_restart_record_fields_and_counts(self):
        # perfbench/layers.py reads the records' fields by name.
        assert [f.name for f in fields(RestartRecord)] == [
            "restart_id",
            "round_id",
            "objective",
            "iterations",
            "accepted",
            "evals",
            "grad_norm",
        ]
        rho = zoo("hs_random", {"dims": (2, 2, 2)}, seed=1)
        omega = zoo("hs_random", {"dims": (4, 4, 2)}, seed=2)
        for max_iters in (5, 80):
            nmf_est = estimate(rho, EstimateConfig(restarts=2, max_iters=max_iters, seed=1))
            esqc_est = estimate_esqc(omega, EsqcConfig(restarts=2, max_iters=max_iters, seed=1))
            for r in nmf_est.trace + esqc_est.trace:
                assert 0 <= r.accepted <= r.iterations <= max_iters
                assert r.evals >= r.accepted + 1

    def test_gate_state_needs_fewer_evals_than_gradient_steps(self):
        est = estimate(zoo("hs_random", {"dims": (2, 2, 2)}, seed=3), EstimateConfig(seed=1))
        assert est.upper_bits == pytest.approx(0.674593, abs=1e-5)
        # Barzilai-Borwein gradient steps took 4,647 evaluations.
        assert est.notes["evals"] <= 4000

    def test_gate_state_needs_fewer_evals_than_capped_directions(self):
        est = estimate(zoo("hs_random", {"dims": (2, 2, 2)}, seed=3), EstimateConfig(seed=1))
        # Directions capped at the Barzilai-Borwein step's length took 3,527.
        assert est.notes["evals"] <= 3200

    def test_direction_is_a_tangent_descent(self, monkeypatch):
        calls = []
        real = nmf._direction

        def logged(w, rgrad, step, pairs):
            stored = list(pairs)
            d = real(w, rgrad, step, pairs)
            calls.append((w, rgrad, step, stored, d))
            return d

        monkeypatch.setattr(nmf, "_direction", logged)
        omega = zoo("hs_random", {"dims": (4, 4, 2)}, seed=1)
        estimate_esqc(omega, EsqcConfig(restarts=1, max_iters=40, seed=1))
        w, rgrad, step = calls[0][:3]
        assert np.array_equal(real(w, rgrad, step, deque()), -step * rgrad)
        quasi_newton = [c for c in calls if c[3]]
        assert len(quasi_newton) >= 30
        for w, rgrad, step, _, d in quasi_newton:
            assert np.vdot(d, rgrad).real < 0
            wd = w.conj().T @ d
            assert np.abs(wd + wd.conj().T).max() / 2 <= 1e-12
        # With one pair, d is the tangent part of -H g for the dense BFGS
        # update H = (I - rho s y^T) gamma (I - rho y s^T) + rho s s^T of
        # H0 = gamma I, gamma = <s,y>/<y,y>, over the real entries g of rgrad.
        w, rgrad, _, [(s, y, rho)], d = next(c for c in calls if len(c[3]) == 1)
        g = rgrad.reshape(-1).view(np.float64)
        eye = np.eye(g.size)
        gamma = (s @ y) / (y @ y)
        bfgs = (eye - rho * np.outer(s, y)) @ (gamma * eye) @ (eye - rho * np.outer(y, s))
        bfgs += rho * np.outer(s, s)
        newton = -(bfgs @ g).view(np.complex128).reshape(w.shape)
        wn = w.conj().T @ newton
        tangent = newton - w @ (wn + wn.conj().T) / 2
        assert np.allclose(d, tangent, rtol=0, atol=1e-12 * np.abs(tangent).max())


class TestPureStates:
    def test_bracket_collapses_to_half_mutual_info(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho = sample("pure", (2, 2, 2), rng).to_density()
            est = estimate(rho, FAST)
            target = 0.5 * mutual_info(rho, ("A",), ("B",))
            assert est.gap <= 1e-6
            assert est.upper_bits == pytest.approx(target, abs=1e-6)
            assert est.lower_bits == pytest.approx(target, abs=1e-6)

    def test_bell_with_eve(self):
        est = estimate(zoo("bell_e0"), FAST)
        assert est.lower_bits == pytest.approx(1.0, abs=1e-9)
        assert est.upper_bits == pytest.approx(1.0, abs=1e-9)


class TestMarkovStates:
    def test_seeded_estimates_vanish(self):
        for seed in range(5):
            mc = random_components(seed, entries=2)
            xi = build_markov(mc)
            est = estimate(xi, FAST, seeds=[markov_witness(mc)])
            assert est.upper_bits <= 1e-3
            assert est.certified

    def test_lower_bound_is_never_negative(self):
        # SSA makes the half-CQMI nonnegative, but on Markov chains it
        # rounds below zero at some seeds; the reported bound is clamped.
        rounded_below = 0
        for seed in range(20):
            xi = build_markov(zoo("markov_random", {}, seed=seed))
            half_cqmi = nonmarkovianity(xi)
            rounded_below += half_cqmi < 0.0
            est = estimate(xi, EstimateConfig(restarts=1, max_iters=1, ext=(1, 1, 1)))
            assert est.lower_bits == max(0.0, half_cqmi)
        assert rounded_below > 0

    def test_block_state_without_seed(self):
        # Rank-2 diagonal blocks: the optimizer alone must crush the bound.
        est = estimate(zoo("ghz_diag"), EstimateConfig(k=2, restarts=8, max_iters=500, seed=3))
        assert est.lower_bits == pytest.approx(0.0, abs=1e-9)
        assert est.upper_bits <= 1e-3


class TestClassicalCorrelated:
    def test_benchmark_bracket(self):
        est = estimate(zoo("classical_corr_e0"), EstimateConfig(k=2, seed=5))
        assert est.lower_bits == pytest.approx(0.5, abs=1e-9)
        assert est.upper_bits == pytest.approx(0.5, abs=1e-3)
        assert est.upper_bits >= 0.5 - 1e-9

    def test_two_copy_seeded_with_the_single_copy_winner(self):
        # The single-copy winner here is an escalated (2,2,2) restart, which
        # the two-copy search does not reach from its own starts.
        rho = sample("density_hs", (2, 2, 2), 5, rank=2)
        out = two_copy_bracket(rho, EstimateConfig(restarts=1, max_iters=40, seed=4))
        assert out["two_copy_per_copy"][1] <= out["single"][1] + 1e-12

    def test_two_copy_helper(self):
        out = two_copy_bracket(zoo("classical_corr_e0"), EstimateConfig(k=2, restarts=4, seed=6))
        assert out["single"][0] == pytest.approx(0.5, abs=1e-9)
        assert out["two_copy_per_copy"][0] == pytest.approx(0.5, abs=1e-9)
        # Both sides stop once within tol of their lower bounds.
        assert out["two_copy_per_copy"][1] <= out["single"][1] + 1e-3


class TestSandwich:
    def test_bracket_and_caps_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            rho = sample("density_hs", (2, 2, 2), rng, rank=3)
            est = estimate(rho, EstimateConfig(restarts=3, max_iters=150, seed=8))
            assert est.lower_bits - 1e-9 <= est.upper_bits
            cap = min(entropy(rho, ("A",)), entropy(rho, ("B",)))
            assert est.upper_bits <= cap + 1e-9
            assert est.lower_bits == pytest.approx(nonmarkovianity(rho), abs=1e-12)

    def test_uncertified_flagged(self):
        rho = sample("density_hs", (2, 2, 2), 9)
        est = estimate(rho, EstimateConfig(restarts=2, max_iters=50, seed=1, ext=(1, 1, 1)))
        if est.gap > est.config["tol"]:
            assert est.notes["uncertified"]
            assert not est.certified


class TestDeterminism:
    def test_same_seed_same_result(self):
        rho = sample("density_hs", (2, 2, 2), 11, rank=2)
        cfg = EstimateConfig(restarts=4, max_iters=150, seed=42)
        e1 = estimate(rho, cfg)
        e2 = estimate(rho, cfg)
        assert e1.upper_bits == e2.upper_bits
        assert [r.objective for r in e1.trace] == [r.objective for r in e2.trace]

    def test_worker_count_invariance(self):
        rho = sample("density_hs", (2, 2, 2), 12, rank=2)
        serial = estimate(rho, EstimateConfig(restarts=4, max_iters=150, seed=7, jobs=1))
        threaded = estimate(rho, EstimateConfig(restarts=4, max_iters=150, seed=7, jobs=3))
        assert serial.upper_bits == threaded.upper_bits
        assert [r.objective for r in serial.trace] == [r.objective for r in threaded.trace]


class TestWinnerOnly:
    """Restarts are ranked by their own objective; only a restart that takes
    the lead becomes a witness, and it says where the answer came from."""

    CONFIG = EstimateConfig(restarts=3, max_iters=150, seed=1)

    @staticmethod
    def state():
        # Rank 2: a round-0 restart beats both baselines under CONFIG.
        return sample("density_hs", (2, 2, 2), 3, rank=2)

    def test_at_most_one_witness_per_round(self, monkeypatch):
        built = []
        real = nmf.witness_from_isometry

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(nmf, "witness_from_isometry", counted)
        est = estimate(self.state(), self.CONFIG)
        assert 1 <= len(built) <= len({r.round_id for r in est.trace})
        built.clear()
        estimate(self.state(), replace(self.CONFIG, ext=(1, 1, 1)))
        assert len(built) == 1

    def test_upper_is_the_smallest_candidate(self):
        rho = self.state()
        est = estimate(rho, self.CONFIG)
        candidates = [objective(w) for w in baseline_witnesses(rho)]
        candidates += [r.objective for r in est.trace]
        assert est.upper_bits == pytest.approx(min(candidates), abs=1e-12)
        assert objective(est.best) == est.upper_bits

    def test_notes_count_evals_and_restarts_beating_baseline(self):
        # A Markov state: its formation measure is 0, below both baselines
        # (1/2 each), so every descent that reaches tol beats them.
        rho = zoo("ghz_diag")
        est = estimate(rho, EstimateConfig(k=2, restarts=3, max_iters=300, seed=1))
        base = min(objective(w) for w in baseline_witnesses(rho))
        assert base == pytest.approx(0.5, abs=1e-9) and est.upper_bits <= 1e-3
        assert est.notes["evals"] == sum(r.evals for r in est.trace)
        # The start, plus at least one line-search trial per step tried.
        assert all(r.evals >= r.iterations + 1 for r in est.trace)
        beating = [r for r in est.trace if r.objective < base - 1e-12]
        assert 0 < est.notes["restarts_beating_baseline"] == len(beating) == len(est.trace)
        rid, round_id = map(int, est.notes["best_source"].removeprefix("restart:").split("/"))
        (winner,) = [r for r in est.trace if (r.restart_id, r.round_id) == (rid, round_id)]
        assert est.notes["grad_norm"] == winner.grad_norm
        pure = estimate(sample("pure", (2, 2, 2), 2).to_density(), FAST)
        assert pure.notes["restarts_beating_baseline"] == pure.notes["evals"] == 0
        assert pure.notes["grad_norm"] is None

    def test_source_restart(self):
        est = estimate(self.state(), self.CONFIG)
        rid, round_id = map(int, est.notes["best_source"].removeprefix("restart:").split("/"))
        (record,) = [r for r in est.trace if (r.restart_id, r.round_id) == (rid, round_id)]
        assert record.objective == pytest.approx(est.upper_bits, abs=1e-12)
        assert record.objective == min(r.objective for r in est.trace)

    def test_source_baseline(self):
        rho = sample("pure", (2, 2, 2), 2).to_density()
        est = estimate(rho, FAST)
        assert est.notes["best_source"] in ("baseline:B'", "baseline:A'")
        assert est.trace == ()
        assert objective(est.best) == est.upper_bits

    def test_source_seed(self):
        mc = random_components(0, entries=2)
        est = estimate(build_markov(mc), FAST, seeds=[markov_witness(mc)])
        assert est.notes["best_source"] == "seed:0"


class TestPanel:
    """Full-rank states, where the purification baselines used to win."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_full_rank_state_ends_below_its_baseline(self, seed):
        rho = zoo("hs_random", {"dims": [2, 2, 2]}, seed=seed)
        est = estimate(rho, EstimateConfig(restarts=2, max_iters=80, seed=1))
        assert est.upper_bits < min(objective(w) for w in baseline_witnesses(rho))
        assert est.notes["best_source"].startswith("restart:")


class TestLimits:
    def test_capacity_too_small(self):
        rho = sample("density_hs", (2, 2, 2), 13)  # rank 8
        with pytest.raises(DimensionTooSmall):
            estimate(rho, EstimateConfig(k=2, seed=0))

    def test_negative_seed_rejected(self):
        with pytest.raises(BadRange, match="seed"):
            EstimateConfig(seed=-1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("restarts", True),
            ("max_iters", False),
            ("k", True),
            ("ext", (True, 1, 1)),
            ("ext", 5),
            ("tol", "1"),
            ("tol", True),
        ],
    )
    def test_bools_and_strings_rejected_naming_the_field(self, name, value):
        with pytest.raises(BadRange, match=f"^{name} must"):
            EstimateConfig(**{name: value})

    def test_budget_exceeded(self):
        rho = sample("density_hs", (2, 2, 2), 14)
        with pytest.raises(BudgetExceeded):
            estimate(rho, EstimateConfig(ext=(8, 8, 8), seed=0))

    def test_escalation_skips_over_budget_round(self, monkeypatch):
        rho = sample("density_hs", (2, 2, 4), 15)  # dim 16, rank 16
        config = EstimateConfig(restarts=2, max_iters=60, seed=2)
        # Round 0 realizes 16 * 16 = 256 dims; the (2,2,2) round needs
        # 16 * 8 * 16 = 2048, over a budget of 1024 but within the default.
        monkeypatch.setenv("NMK_DIM_BUDGET", "1024")
        first, second = estimate(rho, config).notes["rounds"]
        assert "best" in first and "skipped" not in first
        assert second["ext"] == (2, 2, 2) and "2048" in second["skipped"]
        monkeypatch.delenv("NMK_DIM_BUDGET")
        first, second = estimate(rho, config).notes["rounds"]
        assert second["ext"] == (2, 2, 2) and "best" in second and "skipped" not in second

    def test_escalation_respects_budget(self, monkeypatch):
        # Escalated round needs 8 * 8 * 4 = 256 realized dims; cap below it.
        monkeypatch.setenv("NMK_DIM_BUDGET", "128")
        rho = sample("density_hs", (2, 2, 2), 16, rank=4)
        est = estimate(rho, EstimateConfig(restarts=2, max_iters=60, seed=3))
        skipped = [r for r in est.notes["rounds"] if "skipped" in r]
        assert skipped and "budget" in skipped[0]["skipped"]


class TestRoundLoop:
    """``_run_rounds`` admits each round and certifies the bracket, with one
    within-tol test."""

    def test_admission_reads_rank_and_capacity_off_the_objective(self, monkeypatch):
        rho = sample("density_hs", (2, 2, 2), 21, rank=3)
        psi_arr, rank = _purified(rho)
        assert rank == 3
        for k in (3, 5):
            assert nmf._admission(fast_objective(rho, psi_arr, (2, 2, 2), k)) == (3, 8 * k)
        omega = partial_trace(rho, ("A", "B"))
        psi_ab, rank_ab = _purified(omega)
        for e_prime, k in ((1, 4), (2, 4), (3, 5)):
            fast = _fast_esqc_objective(omega, psi_ab, e_prime, k)
            assert nmf._admission(fast) == (rank_ab, e_prime * k)
        with pytest.raises(DimensionTooSmall, match="capacity 2 below rank 3"):
            nmf._admission(fast_objective(rho, psi_arr, (1, 1, 1), 2))
        # (2,2,2) at k = 3: capacity 24, realized 8 * 24 = 192.
        monkeypatch.setenv("NMK_DIM_BUDGET", "191")
        with pytest.raises(BudgetExceeded, match="realized dimension 192 exceeds"):
            nmf._admission(fast_objective(rho, psi_arr, (2, 2, 2), 3))

    def test_capacity_below_rank_is_one_test_with_one_message(self):
        # Round admission and the public witness constructor refuse the
        # same capacity with the same message.
        rho = zoo("hs_random", {"dims": [2, 2, 2]}, seed=1)
        assert _purified(rho)[1] == 8
        with pytest.raises(DimensionTooSmall) as searched:
            estimate(rho, EstimateConfig(k=1, ext=(1, 1, 1), seed=1))
        with pytest.raises(DimensionTooSmall) as built:
            witness_from_isometry(rho, np.eye(1, 8), (1, 1, 1), 1)
        assert str(searched.value) == str(built.value) == "extension capacity 1 below rank 8"

    def test_state_term_is_computed_once_per_estimate(self, monkeypatch):
        calls = []
        real = nmf.entropy
        monkeypatch.setattr(nmf, "entropy", lambda *a: calls.append(a) or real(*a))
        est = estimate(zoo("bell_e0"), EstimateConfig(seed=1))
        assert est.notes["rounds"] == []  # certified by a baseline: no round runs
        assert len(calls) == 2  # S(ABE) and S(E), for both rounds

    @pytest.mark.parametrize("search", ["nmf", "esqc"])
    def test_certified_agrees_with_the_notes_at_tol_zero(self, search):
        # ghz_diag is Markov: round 0 closes the gap to rounding, so no
        # second round runs.
        if search == "nmf":
            est = estimate(zoo("ghz_diag"), EstimateConfig(tol=0.0, seed=1))
        else:
            est = estimate_esqc(zoo("ghz_diag"), EsqcConfig(tol=0.0, seed=1))
        assert 0 < est.gap <= 1e-9
        assert est.certified and not est.notes["uncertified"]
        assert len(est.notes["rounds"]) == 1
        assert {r.round_id for r in est.trace} == {0}

    @pytest.mark.parametrize("excess, certified", [(5e-10, True), (2e-9, False)])
    def test_start_gap_within_tol_up_to_rounding(self, excess, certified):
        tol, lower = 1e-3, 0.25
        config = EstimateConfig(tol=tol)
        start = (lower + tol + excess, "start", None)
        upper, _, trace, notes = nmf._run_rounds([], config, lower, start, 1.0, None)
        est = nmf.NmfEstimate(lower, upper, None, tuple(trace), asdict(config), notes)
        assert est.certified is certified
        assert notes["uncertified"] is not certified
        assert notes["rounds"] == [] and trace == []
