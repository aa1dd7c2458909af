"""The four benchmark workloads.

Each workload draws its inputs from the benchmark seed, so ``nmk`` only
ever sees generated states, scripts and seeds.  A workload is a panel of
jobs; one pass runs every job once, one at a time (a closed loop with a
single client and ``jobs=1``).  Each job's result is checked against
properties the package promises and, where possible, against the
independent numpy oracle below.

Why these four: ``nmf`` and ``esqc`` are the two estimators, bound by the
optimizer and by tiny eigensolves; ``nmf`` runs the witness objective and
the escalation round, ``esqc`` runs neither, so a change that helps one
estimator only shows as such.  ``fuzz`` pushes many small states through
``states`` / ``steps`` / ``entropy``; ``broadcast`` pushes a few large
dense matrices through the same layers, plus ``cli`` and ``serialize``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import nmk
import nmk.cli
import nmk.csquashed
import nmk.fuzz
import nmk.serialize

# Tolerances of the checks; the package documents each of these.
BRACKET_TOL = 1e-9  # lower <= upper, lower == independent half-CQMI
WITNESS_TOL = 1e-7  # check_witness on the returned witness
ENSEMBLE_TOL = 1e-8  # check_ensemble on the returned ensemble
MONOTONE_TOL = 1e-9  # M_I never increases under free operations
ORACLE_TOL = 1e-9  # reported entropies against the numpy oracle


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent oracle: von Neumann entropies straight from numpy


def _marginal(matrix: np.ndarray, dims, keep) -> np.ndarray:
    n = len(dims)
    keep = sorted(keep)
    t = matrix.reshape(tuple(dims) * 2)
    rows = list(range(n))
    cols = [i + n if i in keep else i for i in range(n)]
    out = keep + [i + n for i in keep]
    d = math.prod(dims[i] for i in keep)
    return np.einsum(t, rows + cols, out).reshape(d, d)


def _entropy_bits(matrix: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(matrix)
    vals = vals[vals > 1e-12]
    return float(-np.sum(vals * np.log2(vals)))


def oracle_half_cqmi(matrix: np.ndarray, dims) -> float:
    """0.5 * I(A:B|E) for registers ordered (A, B, E)."""
    s = lambda keep: _entropy_bits(_marginal(matrix, dims, keep))  # noqa: E731
    return 0.5 * (s([0, 2]) + s([1, 2]) - s([0, 1, 2]) - s([2]))


def oracle_mutual_info(matrix: np.ndarray, dims) -> float:
    """I(A:B) for registers ordered (A, B, ...)."""
    s = lambda keep: _entropy_bits(_marginal(matrix, dims, keep))  # noqa: E731
    return s([0]) + s([1]) - s([0, 1])


def oracle_purification_bound(matrix: np.ndarray, dims) -> float:
    """The smaller of I(A:BB')/2 and I(B:AA')/2 for registers (A, B, E).

    These are the objectives of the two purification witnesses (the
    purifying register B' goes to Bob, or A' to Alice).  For a pure state
    on ABEB', S(BB') = S(AE) and S(ABB') = S(E), so I(A:BB') =
    S(A) + S(AE) - S(E).  No bracket's upper bound may exceed this.
    """
    s = lambda keep: _entropy_bits(_marginal(matrix, dims, keep))  # noqa: E731
    return 0.5 * min(s([0]) + s([0, 2]) - s([2]), s([1]) + s([1, 2]) - s([2]))


def oracle_broadcast(matrix: np.ndarray, dims, ops_a, ops_b) -> tuple[float, float]:
    """(S(ABE), M_I) after a broadcast of ``ops_a`` on A, then ``ops_b`` on B.

    Each broadcast leaves one classical copy of its outcome with every
    party, so the final state is block diagonal in the outcome pair (i, j),
    with block p_ij * sigma_ij, sigma_ij the normalized K_ij rho K_ij^dag.
    Every party's group holds a copy of both outcomes, hence
    S(ABE) = H(p) + sum_ij p_ij S(sigma_ij), and in the conditional mutual
    information the H(p) terms cancel: M_I = sum_ij p_ij M_I(sigma_ij).
    """
    eye_e = np.eye(dims[2])
    s_abe = m_i = 0.0
    for ma in ops_a:
        for mb in ops_b:
            k = np.kron(np.kron(ma, mb), eye_e)
            block = k @ matrix @ k.conj().T
            p = float(np.trace(block).real)
            if p <= 1e-15:
                continue
            sigma = block / p
            s_abe += p * (_entropy_bits(sigma) - math.log2(p))
            m_i += p * oracle_half_cqmi(sigma, dims)
    return s_abe, m_i


# ---------------------------------------------------------------------------


class Workload:
    """A seeded panel of jobs.

    ``jobs`` are zero-argument callables into ``nmk``'s public API, looked
    up at call time so the traced run's wrappers see them.  ``check``
    raises :class:`CheckFailed` on a wrong result; ``key`` is the value a
    job must reproduce exactly on every pass; ``ratios`` takes the checked
    results by job index and divides each bits value a user reads off them
    by a reference value for it.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 2024])
        self.workdir = workdir
        self.jobs: list = []

    def _seed(self) -> int:
        return int(self.rng.integers(2**31))

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, index: int, result) -> None:
        raise NotImplementedError

    def key(self, result):
        raise NotImplementedError

    def ratios(self, results: dict) -> list[float]:
        raise NotImplementedError


class NmfWorkload(Workload):
    """``nmk.estimate`` with escalation on a mixed-rank 2,2,2 panel."""

    name = "nmf"
    FULL_RANK, RANK_TWO = 4, 4
    CONFIG = dict(restarts=2, max_iters=80)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.states = [
            nmk.zoo("hs_random", {"dims": [2, 2, 2], "rank": rank}, seed=self._seed())
            for rank in [None] * self.FULL_RANK + [2] * self.RANK_TWO
        ]
        self.configs = [
            nmk.EstimateConfig(**self.CONFIG, seed=self._seed(), jobs=1) for _ in self.states
        ]
        self.jobs = [self._job(rho, cfg) for rho, cfg in zip(self.states, self.configs)]
        self._bounds: dict[int, float] = {}

    @staticmethod
    def _job(rho, cfg):
        return lambda: nmk.estimate(rho, cfg)

    def purification_bound(self, index: int) -> float:
        if index not in self._bounds:
            rho = self.states[index]
            self._bounds[index] = oracle_purification_bound(rho.matrix, rho.layout.dims)
        return self._bounds[index]

    def warm_up(self):
        nmk.estimate(self.states[0], nmk.EstimateConfig(restarts=1, max_iters=3))

    def check(self, index, est):
        rho = self.states[index]
        _require(est.lower_bits <= est.upper_bits + BRACKET_TOL, "lower > upper")
        lower = oracle_half_cqmi(rho.matrix, rho.layout.dims)
        _require(abs(est.lower_bits - lower) <= BRACKET_TOL, "lower != oracle half-CQMI")
        _require(
            est.upper_bits <= self.purification_bound(index) + BRACKET_TOL,
            "upper above the purification bound",
        )
        nmk.check_witness(est.best, rho, tol=WITNESS_TOL)
        _require(
            abs(nmk.objective(est.best) - est.upper_bits) <= BRACKET_TOL,
            "objective(best) != upper_bits",
        )

    def key(self, est):
        return (est.lower_bits, est.upper_bits)

    def ratios(self, results):
        # Upper bound over the oracle's purification bound: 1 where the
        # search does not beat the baselines, below 1 where it does.
        return [est.upper_bits / self.purification_bound(i) for i, est in results.items()]


class EsqcWorkload(Workload):
    """``nmk.estimate_esqc`` on 4,4,2 states: k = 16 members per evaluation."""

    name = "esqc"
    PANEL = 8
    CONFIG = dict(restarts=1, max_iters=50)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.states = [
            nmk.zoo("hs_random", {"dims": [4, 4, 2]}, seed=self._seed()) for _ in range(self.PANEL)
        ]
        self.configs = [
            nmk.EsqcConfig(**self.CONFIG, seed=self._seed(), jobs=1) for _ in self.states
        ]
        self.jobs = [self._job(omega, cfg) for omega, cfg in zip(self.states, self.configs)]
        self._bounds: dict[int, float] = {}

    @staticmethod
    def _job(omega, cfg):
        return lambda: nmk.estimate_esqc(omega, cfg)

    def singleton_bound(self, index: int) -> float:
        """Half of I(A:B), from the oracle."""
        if index not in self._bounds:
            omega = self.states[index]
            self._bounds[index] = 0.5 * oracle_mutual_info(omega.matrix, omega.layout.dims)
        return self._bounds[index]

    def warm_up(self):
        nmk.estimate_esqc(self.states[0], nmk.EsqcConfig(restarts=1, max_iters=3))

    def check(self, index, est):
        omega = self.states[index]
        bound = self.singleton_bound(index)
        _require(est.upper_bits <= bound + BRACKET_TOL, "upper above the singleton bound")
        nmk.csquashed.check_ensemble(
            est.weights, est.ensemble, nmk.partial_trace(omega, ("A", "B")), tol=ENSEMBLE_TOL
        )

    def key(self, est):
        return est.upper_bits

    def ratios(self, results):
        return [est.upper_bits / self.singleton_bound(i) for i, est in results.items()]


class FuzzWorkload(Workload):
    """The four suites through ``nmk.fuzz.SUITES``, as the CLI runs them."""

    name = "fuzz"
    # Trials per suite.  The witness suite's two mixture probes (six
    # nmk.estimate calls) cost the same at any trial count, so the other
    # suites get more trials to keep the small-state layers a large share.
    TRIALS = {"ssa": 100, "monotonicity": 40, "markov_closure": 40, "witness": 20}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.suites = list(self.TRIALS)
        self.jobs = [self._job(suite, self.TRIALS[suite], self._seed()) for suite in self.suites]

    @staticmethod
    def _job(suite, trials, seed):
        return lambda: nmk.fuzz.SUITES[suite](trials, seed, jobs=1)

    def warm_up(self):
        fz = nmk.fuzz
        fz.fuzz_ssa(1, 1, seed=0)
        fz.fuzz_monotonicity(1, seed=0)
        fz.fuzz_markov_closure(1, seed=0)
        fz.fuzz_witness(1, seed=0)
        rho = nmk.zoo("hs_random", {"dims": [2, 2, 2], "rank": 2}, seed=0)
        nmk.estimate(rho, nmk.EstimateConfig(restarts=1, max_iters=3))

    def expected_trials(self, suite: str) -> int:
        t = self.TRIALS[suite]
        return {
            "ssa": t + max(t // 5, 1),
            "monotonicity": t * len(nmk.fuzz.FREE_CLASS_NAMES),
            "markov_closure": t,
            "witness": t * nmk.fuzz.CHECKS_PER_TRIAL,
        }[suite]

    def check(self, index, report):
        suite = self.suites[index]
        _require(report.suite == suite, f"report of suite {report.suite}, expected {suite}")
        _require(report.ok, f"{suite}: {len(report.failures)} violations")
        _require(
            report.trials == self.expected_trials(suite) == report.passes,
            f"{suite}: {report.passes}/{report.trials} checks, expected {self.expected_trials(suite)}",
        )

    def key(self, report):
        probes = report.notes.get("mixture_probes", [])
        return (report.trials, report.passes, tuple(p["mixture_upper"] for p in probes))

    def ratios(self, results):
        # Only the witness suite reports bits: the upper bound nmk.estimate
        # gives on each mixture probe, over the weighted upper bounds of its
        # two parts (the comparison the suite itself records).  The probe
        # states stay inside the suite, so there is no oracle value here.
        return [
            p["mixture_upper"] / p["weighted_part_upper"]
            for r in results.values()
            for p in r.notes.get("mixture_probes", [])
        ]


class BroadcastWorkload(Workload):
    """``nmk script`` through ``nmk.cli.main`` on seeded JSON files.

    Each script is ``broadcast_a`` then ``broadcast_b`` with two-outcome
    measurements on an ``hs_random`` 2,2,4 state: each broadcast appends
    three two-level copies, so the dimension goes 16 -> 128 -> 1024.
    """

    name = "broadcast"
    PANEL = 3
    DIMS = (2, 2, 4)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = []  # (state, measurement on A, measurement on B) per job
        self.files = [self._write(i) for i in range(self.PANEL)]
        self.jobs = [self._job(script, state) for script, state in self.files]
        self._oracle: dict[int, tuple[float, float]] = {}

    def _measurement(self, dim: int):
        iso = nmk.sample("isometry", (dim, 2 * dim), self._seed())
        return [iso[i * dim : (i + 1) * dim, :] for i in range(2)]

    def _write(self, i: int, dims=DIMS, steps=None):
        rho = nmk.zoo("hs_random", {"dims": list(dims)}, seed=self._seed())
        if steps is None:
            ops_a, ops_b = self._measurement(dims[0]), self._measurement(dims[1])
            self.inputs.append((rho, ops_a, ops_b))
            steps = (
                nmk.Step.broadcast_a(ops_a, ("A",), "J0"),
                nmk.Step.broadcast_b(ops_b, ("B",), "J1"),
            )
        script = self.workdir / f"script_{i}.json"
        state = self.workdir / f"state_{i}.json"
        ser = nmk.serialize
        script.write_text(json.dumps(ser.jsonable(ser.script_to_json(steps))))
        state.write_text(json.dumps(ser.jsonable(ser.state_to_json(rho))))
        return str(script), str(state)

    @staticmethod
    def _job(script, state):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = nmk.cli.main(["script", script, state])
            return code, out.getvalue()

        return run

    def warm_up(self):
        steps = (nmk.Step.broadcast_a(self._measurement(2), ("A",), "J0"),)
        self._job(*self._write("warm", (2, 2, 2), steps))()

    def check(self, index, result):
        code, text = result
        _require(code == 0, f"exit code {code}")
        report = json.loads(text)
        _require(report["classification"] == "omega", f"class {report['classification']}")
        ledger = report["ledger"]
        _require(ledger["qc_bits"] == 0 and ledger["cdown_bits"] == 0, f"ledger {ledger}")
        _require(report["steps_applied"] == 2, "steps_applied != 2")
        final_dim = math.prod(r["dim"] for r in report["final_registers"])
        _require(final_dim == math.prod(self.DIMS) * 64, f"final dimension {final_dim}")
        before, after = report["before"]["m_i_bits"], report["after"]["m_i_bits"]
        _require(after <= before + MONOTONE_TOL, f"M_I rose from {before} to {after}")
        rho = self.inputs[index][0]
        for name, got, want in (
            ("before.m_i_bits", before, oracle_half_cqmi(rho.matrix, rho.layout.dims)),
            ("before.s_abe", report["before"]["s_abe"], _entropy_bits(rho.matrix)),
            ("after.s_abe", report["after"]["s_abe"], self.oracle(index)[0]),
            ("after.m_i_bits", after, self.oracle(index)[1]),
        ):
            _require(abs(got - want) <= ORACLE_TOL, f"{name} {got} != oracle {want}")

    def oracle(self, index: int) -> tuple[float, float]:
        if index not in self._oracle:
            rho, ops_a, ops_b = self.inputs[index]
            self._oracle[index] = oracle_broadcast(rho.matrix, rho.layout.dims, ops_a, ops_b)
        return self._oracle[index]

    def key(self, result):
        return result

    def ratios(self, results):
        # The joint entropy S(ABE) of the final 1024-dimensional state over
        # the oracle's value, which the check pins to 1 within ORACLE_TOL: a
        # block-classical shortcut (or any change) that moves the final
        # state fails the check instead of reading as a gain.
        return [
            json.loads(text)["after"]["s_abe"] / self.oracle(i)[0]
            for i, (_, text) in results.items()
        ]


WORKLOADS = {
    w.name: w for w in (NmfWorkload, EsqcWorkload, FuzzWorkload, BroadcastWorkload)
}
