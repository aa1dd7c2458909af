import argparse
import copy
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nmk import ChannelMap, ZooScript, sample, zoo
from nmk.cli import _seed_of, load_ref
from nmk.csquashed import CrosscheckReport
from nmk.entropy import EntropyReport
from nmk.markov import MarkovScore
from nmk.nmf import RestartRecord
from nmk.registers import Register
from nmk.serialize import (
    components_to_json,
    jsonable,
    layout_to_json,
    script_to_json,
    state_to_json,
)
from nmk.steps import CostLedger, Step, StepKind, run_script

from conftest import floor_spectrum_state


def run_cli(*args, cwd=None):
    """Run ``python -m nmk``; whatever the exit code, no traceback may reach
    the user (the exit code carries the outcome)."""
    proc = subprocess.run(
        [sys.executable, "-m", "nmk", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def result_of(proc):
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout)


class TestAnalyze:
    def test_markov_example(self):
        proc = run_cli("analyze", "zoo:ghz_diag")
        assert proc.returncode == 0
        out = result_of(proc)
        assert out["entropy"]["m_i_bits"] == pytest.approx(0.0, abs=1e-10)
        assert out["markov"]["verdict"] is True

    def test_non_markov_example(self):
        proc = run_cli("analyze", "zoo:bell_e0")
        assert proc.returncode == 0
        out = result_of(proc)
        assert out["entropy"]["m_i_bits"] == pytest.approx(1.0, abs=1e-10)
        assert out["markov"]["verdict"] is False

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        rho = sample("density_hs", (2,), 1)
        payload = state_to_json(rho)
        payload["matrix"]["re"][0][0] += 0.4
        bad.write_text(json.dumps(payload))
        proc = run_cli("analyze", str(bad))
        assert proc.returncode == 2
        assert "unit_trace" in proc.stderr

    def test_unreadable_ref_exits_2(self):
        proc = run_cli("analyze", "zoo:not_a_state")
        assert proc.returncode == 2

    def test_explicit_partition_flags(self):
        # Regroup Eve's register into Bob's side: the pair (B, E) holds one
        # full bit about A conditioned on nothing.
        proc = run_cli("analyze", "zoo:ghz_diag", "--alice", "A", "--bob", "B,E", "--eve", "")
        out = result_of(proc)
        assert out["entropy"]["b"] == ["B", "E"]
        assert out["entropy"]["m_i_bits"] == pytest.approx(0.5, abs=1e-10)

    def test_bad_party_in_state_file_exits_2(self, tmp_path):
        bad = tmp_path / "party.json"
        bad.write_text(
            json.dumps(
                {
                    "registers": [{"label": "A", "dim": 1, "party": "mallory"}],
                    "matrix": {"re": [[1.0]], "im": [[0.0]]},
                }
            )
        )
        proc = run_cli("analyze", str(bad))
        assert proc.returncode == 2

    def test_capitalized_party_in_state_file_exits_2(self, tmp_path):
        # A party name is read by its exact value: "Alice" is not "alice".
        bad = tmp_path / "party.json"
        registers = [{"label": "A", "dim": 1, "party": "Alice"}]
        bad.write_text(json.dumps({"registers": registers, "matrix": {"re": [[1]], "im": [[0]]}}))
        proc = run_cli("analyze", str(bad))
        assert proc.returncode == 2 and "party" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestNmf:
    def test_bell_bracket(self):
        proc = run_cli("nmf", "zoo:bell_e0", "--seed", "1")
        out = result_of(proc)
        assert out["lower_bits"] == pytest.approx(1.0, abs=1e-9)
        assert out["upper_bits"] == pytest.approx(1.0, abs=1e-9)
        assert out["certified"] is True

    def test_classical_corr_bracket(self):
        proc = run_cli("nmf", "zoo:classical_corr_e0", "--k", "2", "--seed", "2")
        out = result_of(proc)
        assert out["lower_bits"] == pytest.approx(0.5, abs=1e-9)
        assert out["upper_bits"] == pytest.approx(0.5, abs=1e-3)

    def test_budget_exit_3(self):
        proc = run_cli("nmf", "zoo:hs_random?dims=2,2,2", "--ext", "8,8,8", "--seed", "0")
        assert proc.returncode == 3
        assert "budget" in proc.stderr.lower()

    def test_state_with_floor_eigenvalues(self, tmp_path):
        # The reader accepts the file, so nmf must purify it, although
        # purify drops its six eigenvalues at -1e-9.
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(state_to_json(floor_spectrum_state())))
        args = ("--seed", "1", "--restarts", "1", "--max-iters", "20")
        proc = run_cli("nmf", str(path), *args)
        assert proc.returncode == 0, proc.stderr
        out = result_of(proc)
        assert out["lower_bits"] == pytest.approx(0.495608, abs=1e-6)
        assert out["upper_bits"] == pytest.approx(0.641918, abs=1e-6)

    def test_seed_drawn_when_missing(self):
        proc = run_cli("nmf", "zoo:bell_e0")
        assert proc.returncode == 0
        assert "drew" in proc.stderr
        assert isinstance(result_of(proc)["seed"], int)


class TestCapacityBelowRank:
    # A flag value below the state's rank is an input error (2); only a size
    # limit is a budget error (3).
    @pytest.mark.parametrize(
        "args",
        [
            ("nmf", "zoo:ghz_diag", "--k", "1"),
            ("esqc", "zoo:classical_corr_e0", "--k", "1", "--e-prime", "1"),
        ],
    )
    def test_exits_2(self, args):
        proc = run_cli(*args, "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "capacity" in proc.stderr
        assert "budget" not in proc.stderr

    def test_esqc_size_cap_exits_3(self):
        # Full rank 81 realizes 81 * 2 * 81 = 13122 > 4096 in round 0.
        proc = run_cli("esqc", "zoo:hs_random?dims=9,9", "--seed", "1")
        assert proc.returncode == 3, proc.stderr
        assert "budget error: realized dimension 13122 exceeds the budget of 4096" in proc.stderr


def meta_of(proc):
    return json.loads(proc.stderr.splitlines()[0])["meta"]


class TestEsqc:
    def test_bell(self):
        proc = run_cli("esqc", "zoo:bell_e0", "--seed", "3")
        out = result_of(proc)
        assert out["upper_bits"] == pytest.approx(1.0, abs=1e-6)

    def test_bell_is_a_certified_bracket_without_search(self):
        proc = run_cli("esqc", "zoo:bell_e0", "--seed", "3")
        out = result_of(proc)
        assert out["lower_bits"] == pytest.approx(1.0, abs=1e-12)
        assert out["upper_bits"] == pytest.approx(1.0, abs=1e-12)
        assert out["certified"] is True and out["gap"] <= 1e-12
        assert out["notes"]["evals"] == 0 and out["trace"] == []
        assert out["notes"]["uncertified"] is False
        assert "bracket [1.000000, 1.000000] bits" in proc.stderr
        assert "UNCERTIFIED" not in proc.stderr
        meta = meta_of(proc)
        assert (meta["evals"], meta["grad_norm"], meta["rounds"]) == (0, None, 0)

    def test_open_gap_is_flagged_and_reruns_are_identical(self):
        args = ("esqc", "zoo:hs_random?dims=4,4,2", "--restarts", "1", "--max-iters", "5")
        first = run_cli(*args, "--seed", "2")
        second = run_cli(*args, "--seed", "2")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        out = result_of(first)
        assert out["certified"] is False and out["notes"]["uncertified"] is True
        assert out["lower_bits"] == 0.0 and out["gap"] == out["upper_bits"]
        assert "[UNCERTIFIED: bracket gap above tol]" in first.stderr
        meta = meta_of(first)
        assert meta["evals"] == out["notes"]["evals"] > 0
        assert meta["grad_norm"] == out["notes"]["grad_norm"]
        assert meta["rounds"] == len(out["notes"]["rounds"]) == 2

    def test_crosscheck_flag(self):
        proc = run_cli("esqc", "zoo:classical_corr_e0", "--seed", "4", "--crosscheck")
        out = result_of(proc)
        assert out["upper_bits"] <= 1e-3
        assert out["crosscheck"]["gap"] <= 1e-3


def field_names(record_cls) -> set:
    return {f.name for f in fields(record_cls)}


class TestRecordKeys:
    """Each record the CLI prints is the dict of its dataclass fields."""

    def test_analyze(self):
        out = result_of(run_cli("analyze", "zoo:ghz_diag"))
        assert set(out["entropy"]) == field_names(EntropyReport)
        assert set(out["markov"]) == field_names(MarkovScore) | {"note"}

    def test_markov_build(self):
        out = result_of(run_cli("markov-build", "zoo:markov_random"))
        assert set(out["markov"]) == field_names(MarkovScore) | {"note"}

    def test_script(self):
        ref = "zoo:nonfree_script?cls=secret_ab"
        out = result_of(run_cli("script", ref))
        assert set(out["ledger"]) == field_names(CostLedger)
        assert set(out["before"]) == set(out["after"]) == field_names(EntropyReport)
        script = load_ref(ref, ZooScript)
        final = run_script(script.scenario, script.steps).final.block_state
        assert out["final_registers"] == layout_to_json(final.layout)

    def test_nmf_trace(self):
        args = ("nmf", "zoo:hs_random?dims=2,2,2&rank=2", "--max-iters", "20", "--seed", "1")
        trace = result_of(run_cli(*args))["trace"]
        assert trace and all(set(r) == field_names(RestartRecord) for r in trace)

    def test_esqc_crosscheck(self):
        args = ("esqc", "zoo:hs_random?dims=2,2,1&rank=2", "--crosscheck", "--seed", "1")
        out = result_of(run_cli(*args))
        assert set(out["crosscheck"]) == field_names(CrosscheckReport)


class TestSearchMeta:
    ARGS = ("nmf", "zoo:hs_random?dims=2,2,2", "--restarts", "1", "--max-iters", "5", "--seed", "1")

    def test_nmf_meta_counts_the_search(self):
        proc = run_cli(*self.ARGS)
        out = result_of(proc)
        meta = meta_of(proc)
        assert meta["evals"] == out["notes"]["evals"] == sum(r["evals"] for r in out["trace"])
        assert meta["grad_norm"] == out["notes"]["grad_norm"]
        assert meta["rounds"] == len(out["notes"]["rounds"]) == 2

    def test_skipped_round_is_not_counted(self, monkeypatch):
        # Round 1 would realize dimension 8 * 64 = 512.
        monkeypatch.setenv("NMK_DIM_BUDGET", "64")
        proc = run_cli(*self.ARGS)
        rounds = result_of(proc)["notes"]["rounds"]
        assert [("skipped" in r) for r in rounds] == [False, True]
        assert meta_of(proc)["rounds"] == 1


#: One quick run per subcommand, and the keys it adds to stderr ``meta``.
ENVELOPE_RUNS = {
    "analyze": (["analyze", "zoo:ghz_diag"], set()),
    "nmf": (["nmf", "zoo:classical_corr_e0", "--seed", "1"], {"evals", "grad_norm", "rounds"}),
    "esqc": (["esqc", "zoo:bell_e0", "--seed", "3"], {"evals", "grad_norm", "rounds"}),
    "markov-build": (["markov-build", "zoo:markov_random?entries=2"], set()),
    "script": (["script", "zoo:nonfree_script?cls=secret_ab"], {"blocks", "max_block_dim"}),
    "fuzz": (["fuzz", "ssa", "--trials", "5", "--seed", "1"], set()),
    "zoo list": (["zoo", "list"], set()),
    "zoo build": (["zoo", "build", "bell_e0"], set()),
}


@pytest.mark.parametrize("name", sorted(ENVELOPE_RUNS))
def test_every_subcommand_reports_through_one_envelope(capsys, name):
    """Exit 0, the ``result`` on stdout, and a ``meta`` line first on stderr
    holding ``wall_time_s`` and ``version`` plus exactly the command's own keys."""
    from nmk import __version__, cli

    argv, own = ENVELOPE_RUNS[name]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["command"] == argv[0]
    meta = json.loads(err.splitlines()[0])["meta"]
    assert set(meta) == {"wall_time_s", "version"} | own
    assert isinstance(meta["wall_time_s"], float) and meta["wall_time_s"] >= 0
    assert meta["version"] == __version__


class TestScript:
    def test_zoo_script(self):
        proc = run_cli("script", "zoo:nonfree_script?cls=quantum_e_to_a")
        out = result_of(proc)
        assert out["classification"] == "omega_q"
        assert out["ledger"]["qc_bits"] == pytest.approx(1.0)
        assert out["after"]["m_i_bits"] == pytest.approx(1.0, abs=1e-9)

    def test_empty_script_file(self, tmp_path):
        script = tmp_path / "empty.json"
        script.write_text(json.dumps(script_to_json(())))
        proc = run_cli("script", str(script), "zoo:ghz_diag")
        out = result_of(proc)
        assert out["steps_applied"] == 0
        assert out["before"] == out["after"]

    def test_script_file_with_steps(self, tmp_path):
        steps = (Step(StepKind.LOCAL_A, discard=("A",)),)
        script = tmp_path / "discard.json"
        script.write_text(json.dumps(script_to_json(steps)))
        proc = run_cli("script", str(script), "zoo:ghz_diag")
        out = result_of(proc)
        assert out["classification"] == "omega"
        assert out["after"]["m_i_bits"] == pytest.approx(0.0, abs=1e-10)

    def test_invalid_step_exits_2(self, tmp_path):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps({"steps": [{"kind": "discard_the_moon"}]}))
        proc = run_cli("script", str(script), "zoo:ghz_diag")
        assert proc.returncode == 2

    def test_preparation_protocol_through_cli(self, tmp_path):
        # Free preparation of a block state from the trivial start: costs
        # nothing and ends Markov.
        from nmk import preparation_script, zoo
        from nmk.serialize import state_to_json

        mc = zoo("markov_random", {"entries": 2}, seed=13)
        start, steps = preparation_script(mc)
        script = tmp_path / "prep.json"
        script.write_text(json.dumps(script_to_json(steps)))
        state = tmp_path / "start.json"
        state.write_text(json.dumps(state_to_json(start.state)))
        proc = run_cli("script", str(script), str(state))
        out = result_of(proc)
        assert out["classification"] == "omega"
        assert out["ledger"] == {"qc_bits": 0.0, "cdown_bits": 0.0}
        assert out["after"]["m_i_bits"] == pytest.approx(0.0, abs=1e-9)


def two_broadcasts():
    iso_a, iso_b = sample("isometry", (2, 4), 21), sample("isometry", (2, 4), 22)
    return (
        Step(StepKind.BROADCAST_A, operators=(iso_a[:2], iso_a[2:]), on=("A",), msg_label="J0"),
        Step(StepKind.BROADCAST_B, operators=(iso_b[:2], iso_b[2:]), on=("B",), msg_label="J1"),
    )


def coin_broadcasts(count):
    """``count`` one-qubit coin broadcasts by Alice: each leaves the state
    alone and doubles the number of blocks."""
    coin = tuple(np.eye(2, dtype=complex) / np.sqrt(2) for _ in range(2))
    return tuple(
        Step(StepKind.BROADCAST_A, operators=coin, on=("A",), msg_label=f"J{i}")
        for i in range(count)
    )


class TestBlockScript:
    """``nmk script`` runs on the block form: stdout is as before, stderr
    ``meta`` reports the blocks, and ``--out`` writes the dense state."""

    STATE = "zoo:hs_random?dims=2,2,2"

    def test_meta_reports_blocks_and_out_writes_dense_state(self, tmp_path):
        from nmk import zoo
        from nmk.serialize import state_from_json
        from test_blocks import dense_step

        script = tmp_path / "two.json"
        script.write_text(json.dumps(script_to_json(two_broadcasts())))
        target = tmp_path / "final.json"
        proc = run_cli("script", str(script), self.STATE, "--out", str(target))
        assert proc.returncode == 0, proc.stderr
        out = result_of(proc)
        assert set(out) == {
            "command", "input", "classification", "ledger", "steps_applied",
            "before", "after", "final_registers",
        }
        meta = json.loads(proc.stderr.splitlines()[0])["meta"]
        assert meta["blocks"] == 4 and meta["max_block_dim"] == 8
        dense = zoo("hs_random", {"dims": [2, 2, 2]})
        for step in two_broadcasts():
            dense = dense_step(dense, step)
        written = state_from_json(json.loads(target.read_text()))
        assert written.layout == dense.layout and written.dim == 512
        np.testing.assert_allclose(written.matrix, dense.matrix, atol=1e-12, rtol=0)
        again = run_cli("script", str(script), self.STATE, "--out", str(target))
        assert again.stdout == proc.stdout

    def test_out_over_budget_exits_3_before_allocating(self, tmp_path, monkeypatch, capsys):
        # The steps fit the budget; the budget then drops below the final
        # dimension, so only densifying for --out is refused.
        from nmk import cli

        script = tmp_path / "two.json"
        script.write_text(json.dumps(script_to_json(two_broadcasts())))
        target = tmp_path / "final.json"
        shapes = []
        real_run, real_zeros = cli.run_script, np.zeros

        def counted_zeros(shape, *args, **kwargs):
            shapes.append(shape)
            return real_zeros(shape, *args, **kwargs)

        def run_then_lower_budget(*args):
            run = real_run(*args)
            monkeypatch.setenv("NMK_DIM_BUDGET", "256")
            monkeypatch.setattr(np, "zeros", counted_zeros)
            return run

        monkeypatch.setattr(cli, "run_script", run_then_lower_budget)
        code = cli.main(["script", str(script), self.STATE, "--out", str(target)])
        assert code == 3
        err = capsys.readouterr().err
        assert "budget" in err and "512" in err
        assert not target.exists()
        assert all(512 not in np.atleast_1d(shape) for shape in shapes)

    def test_four_broadcasts_run_but_out_exits_3(self, tmp_path):
        # 16 blocks of dim 8 fit the default budget; their dense state
        # (dim 32768) does not, so --out is refused and writes no file.
        script = tmp_path / "four.json"
        script.write_text(json.dumps(script_to_json(coin_broadcasts(4))))
        proc = run_cli("script", str(script), self.STATE)
        assert proc.returncode == 0, proc.stderr
        assert meta_of(proc)["blocks"] == 16
        out = tmp_path / "final.json"
        proc = run_cli("script", str(script), self.STATE, "--out", str(out))
        assert proc.returncode == 3
        assert "32768 exceeds the budget of 4096" in proc.stderr
        assert not out.exists()


def valid_script():
    """Five steps that run on ``zoo:ghz_diag`` (registers A, B, E)."""
    flip = ChannelMap((np.array([[0, 1], [1, 0]], dtype=complex),))
    halves = tuple(np.diag(row).astype(complex) for row in ([1.0, 0.0], [0.0, 1.0]))
    return script_to_json(
        (
            Step(
                StepKind.LOCAL_A,
                channel=ChannelMap.dephasing(2),
                on=("A",),
                out=(Register("A", 2, "alice"),),
            ),
            Step(StepKind.LOCAL_B, channel=ChannelMap.dephasing(2), on=("B",)),
            Step(StepKind.REVERSIBLE_E, channel=flip, on=("E",)),
            Step(StepKind.QUANTUM_AB, register="A", to="bob"),
            Step(StepKind.SECRET_AB, operators=halves, on=("B",), msg_label="S", sender="bob"),
        )
    )


DROP = object()
#: The channel of ``valid_script``'s ``reversible_e`` step (index 2).
class TestReaderRobustness:
    def test_valid_script_runs(self, tmp_path):
        script = tmp_path / "ok.json"
        script.write_text(json.dumps(valid_script()))
        proc = run_cli("script", str(script), "zoo:ghz_diag")
        assert proc.returncode == 0, proc.stderr
        assert result_of(proc)["steps_applied"] == 5

    @pytest.mark.parametrize(
        "index, key, value, named",
        [
            (0, "channel", DROP, "channel"),
            (1, "channel", DROP, "channel"),
            (2, "channel", DROP, "channel"),
            (2, "channel", [], "'channel'"),
            (0, "out", [{"label": "A", "dim": 2, "party": "carol"}], "'out'"),
            (0, "out", [{"dim": 2, "party": "alice"}], "'out'"),
            (0, "out", [{"label": "A", "party": "alice"}], "'out'"),
            (0, "out", 7, "'out'"),
            (1, "on", "B", "'on'"),
            (3, "to", "carol", "'to'"),
            (4, "sender", "carol", "'sender'"),
            (4, "operators", [{"re": 1}], "'operators'"),
            (4, "kind", None, "kind"),
            (3, "to", DROP, "'to'"),
            (4, "sender", DROP, "'sender'"),
            (4, "msg_label", DROP, "'msg_label'"),
            (2, "discard", ["E"], "'discard'"),
            (0, "discard", ["A"], "'discard'"),
            (4, "discard", ["B"], "'discard'"),
            (2, "bypass", "false", "bypass must be true or false, got 'false'"),
            (2, "bypass", 2.7, "bypass must be true or false, got 2.7"),
            (4, "operators", [{"re": [[True]], "im": [[0]]}], "matrix entry must be a number"),
            (3, "to", "eve", "'to'"),
            (3, "to", "Bob", "'to'"),
            (2, "register", "E", "'register'"),
            (3, "bypass", True, "'bypass'"),
        ],
    )
    def test_malformed_step_exits_2(self, tmp_path, index, key, value, named):
        payload = valid_script()
        if value is DROP:
            del payload["steps"][index][key]
        else:
            payload["steps"][index][key] = value
        script = tmp_path / "bad.json"
        script.write_text(json.dumps(payload))
        proc = run_cli("script", str(script), "zoo:ghz_diag")
        assert proc.returncode == 2, proc.stderr
        assert "error" in proc.stderr and named in proc.stderr

    def test_steps_not_a_list_exits_2(self, tmp_path):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps({"steps": 3}))
        proc = run_cli("script", str(script), "zoo:ghz_diag")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda m: m["re"][0].__setitem__(1, False), "matrix entry must be a number, got False"),
            (lambda m: m["re"][2].__setitem__(2, "0"), "matrix entry must be a number, got '0'"),
            (lambda m: m.__setitem__("im", 0), "'re' has shape (8, 8), 'im' ()"),
            (lambda m: m.__setitem__("im", m["im"][:1]), "'re' has shape (8, 8), 'im' (1, 8)"),
            (lambda m: m["re"][3].pop(), "matrix entry must be a number, got ["),
        ],
        ids=["false_entry", "string_entry", "scalar_im", "im_rows_deleted", "ragged_re"],
    )
    def test_malformed_matrix_exits_2(self, tmp_path, capsys, mutate, named):
        from nmk import cli

        payload = state_to_json(zoo("ghz_diag"))
        mutate(payload["matrix"])
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["analyze", str(path)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["0.5", True, None, [0.5]], ids=repr)
    def test_weight_that_is_no_number_exits_2(self, tmp_path, capsys, weight):
        from nmk import cli

        payload = jsonable(components_to_json(zoo("markov_random", {"entries": 2}, seed=7)))
        payload["entries"][0]["p"] = weight
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["markov-build", str(path)]) == 2
        assert f"p must be a number, got {weight!r}" in capsys.readouterr().err

    def test_weight_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        from nmk import cli

        payload = jsonable(components_to_json(zoo("markov_random", {"entries": 2}, seed=7)))
        payload["entries"][0]["p"] = 10**400
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["markov-build", str(path)]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "p is too large for a float: 401 digits" in captured.err

    @pytest.mark.parametrize("label", [7, None, False, ""], ids=repr)
    @pytest.mark.parametrize("command", ["analyze", "nmf"])
    def test_bad_register_label_exits_2(self, tmp_path, capsys, command, label):
        from nmk import cli

        payload = state_to_json(zoo("ghz_diag"))
        payload["registers"][0]["label"] = label
        path = tmp_path / "label.json"
        path.write_text(json.dumps(payload))
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"register label must be a non-empty string, got {label!r}" in err

    @pytest.mark.parametrize(
        "content, named",
        [
            (b"5", "expected a JSON object, got int"),
            (b'{"registers": "\xff"}', "not valid JSON"),
            (b"[" * 100_000, "not valid JSON"),
            (b"1" * 5_000, "not valid JSON"),
        ],
        ids=["number", "not_utf8", "nested_too_deep", "too_many_digits"],
    )
    def test_unreadable_payload_exits_2(self, tmp_path, capsys, content, named):
        from nmk import cli

        path = tmp_path / "payload.json"
        path.write_bytes(content)
        assert cli.main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert not captured.out and named in captured.err

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("state", 5, "state payload needs"),
            ("state", [], "state payload needs"),
            ("state", {"entries": []}, "state payload needs"),
            ("expected_m_i", "0.5", "expected_m_i must be a finite real"),
            ("expected_m_i", -1, "expected_m_i must be a finite real >= 0"),
            ("expected_m_i", float("nan"), "expected_m_i must be a finite real"),
        ],
    )
    def test_malformed_bundled_script_exits_2(self, tmp_path, capsys, key, value, named):
        from nmk import cli

        payload = json.loads(json.dumps(jsonable(bundled_script_json("secret_ab"))))
        payload[key] = value
        path = tmp_path / "bundled.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["script", str(path)]) == 2
        captured = capsys.readouterr()
        assert not captured.out and named in captured.err

    def test_over_budget_broadcast_exits_3(self, tmp_path, monkeypatch):
        # B = 16 admits 16^2 = 256 block entries: two broadcasts reach 4
        # blocks of dim 8 (256 entries), the third would store 512.
        monkeypatch.setenv("NMK_DIM_BUDGET", "16")
        for count, code in ((2, 0), (3, 3)):
            script = tmp_path / f"grow{count}.json"
            script.write_text(json.dumps(script_to_json(coin_broadcasts(count))))
            proc = run_cli("script", str(script), "zoo:hs_random?dims=2,2,2")
            assert proc.returncode == code, proc.stderr
        assert "block-state entries 512 exceeds the budget of 256" in proc.stderr

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_step_exits_2_without_warnings(self, tmp_path, capsys):
        # The 1e308 operator's products overflow: the outcome's block trace
        # is inf, and the step is refused before anything divides by it.
        from nmk import cli

        huge = np.diag([1e308, 1e308]).astype(complex)
        step = Step(
            StepKind.BROADCAST_A,
            operators=(huge, np.eye(2, dtype=complex)),
            on=("A",),
            msg_label="M",
        )
        script = tmp_path / "overflow.json"
        script.write_text(json.dumps(script_to_json((step,))))
        assert cli.main(["script", str(script), "zoo:ghz_diag"]) == 2
        captured = capsys.readouterr()
        assert not captured.out and "error: finite: " in captured.err
        proc = run_cli("script", str(script), "zoo:ghz_diag")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: finite: block trace must be finite, got inf"]


class TestNanInput:
    def test_markov_build_with_nan_weight_exits_2(self, tmp_path):
        payload = components_to_json(zoo("markov_random", {"entries": 2}, seed=7))
        payload["entries"][0]["p"] = float("nan")
        components = tmp_path / "nan_weight.json"
        components.write_text(json.dumps(payload))
        proc = run_cli("markov-build", str(components))
        assert proc.returncode == 2
        assert "weights must be nonnegative" in proc.stderr


class TestFuzz:
    def test_ssa_passes(self):
        proc = run_cli("fuzz", "ssa", "--trials", "50", "--seed", "5")
        assert proc.returncode == 0
        out = result_of(proc)
        assert out["failure_count"] == 0
        assert out["passes"] == out["trials"]

    def test_violations_exit_1_and_persist(self, tmp_path, monkeypatch, capsys):
        # Synthetic failing suite exercises the counterexample path.
        from nmk import cli
        from nmk.fuzz import FuzzReport

        def broken(trials, seed, jobs=1):
            return FuzzReport("ssa", trials, trials - 1, [{"trial": 0, "cqmi": -1.0}])

        monkeypatch.setitem(cli.SUITES, "ssa", broken)
        code = cli.main(
            ["fuzz", "ssa", "--trials", "3", "--seed", "1", "--counterexample-dir", str(tmp_path)]
        )
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["failure_count"] == 1
        files = list(tmp_path.glob("counterexample_ssa_*.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text())["cqmi"] == -1.0


class TestBadRanges:
    @pytest.mark.parametrize(
        "args",
        [
            ("nmf", "zoo:bell_e0", "--ext", "1,2"),
            ("nmf", "zoo:bell_e0", "--ext", "a,b,c"),
            ("nmf", "zoo:bell_e0", "--ext", "0,1,1"),
            ("nmf", "zoo:bell_e0", "--restarts", "-2"),
            ("nmf", "zoo:bell_e0", "--max-iters", "-1"),
            ("nmf", "zoo:bell_e0", "--k", "0"),
            ("nmf", "zoo:bell_e0", "--tol", "nan"),
            ("nmf", "zoo:bell_e0", "--tol", "-1"),
            ("nmf", "zoo:bell_e0", "--jobs", "0"),
            ("esqc", "zoo:bell_e0", "--restarts", "-1"),
            ("esqc", "zoo:bell_e0", "--max-iters", "-1"),
            ("esqc", "zoo:bell_e0", "--k", "0"),
            ("esqc", "zoo:bell_e0", "--e-prime", "0"),
            ("esqc", "zoo:bell_e0", "--tol", "inf"),
            ("esqc", "zoo:bell_e0", "--jobs", "0"),
            ("fuzz", "ssa", "--trials", "0"),
            ("fuzz", "witness", "--trials", "-3"),
            ("fuzz", "ssa", "--trials", "2", "--jobs", "0"),
            ("fuzz", "monotonicity", "--trials", "1", "--jobs", "-3"),
            ("nmf", "zoo:hs_random?dims=2.5,2,2"),
            ("esqc", "zoo:hs_random?dims=2,2&rank=1.5"),
            ("nmf", "zoo:hs_random?dims="),
            ("esqc", "zoo:markov_random?entries=2.5"),
        ],
    )
    def test_exits_2_without_traceback(self, args):
        proc = run_cli(*args, "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        assert "error" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (("nmf", "zoo:bell_e0", "--seed", "abc"), "seed must be an integer >= 0, got 'abc'"),
            (("fuzz", "ssa", "--trials", "2.5"), "trials must be an integer >= 1, got '2.5'"),
            (("nmf", "zoo:bell_e0", "--ext", "1,x,1"), "ext must be an integer >= 1, got 'x'"),
        ],
        ids=["seed", "trials", "ext"],
    )
    def test_non_integer_flag_says_what_it_needs(self, args, message):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr
        assert f"argument {args[-2]}: {message}" in proc.stderr

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_trials_below_one_names_the_flag(self, value):
        proc = run_cli("fuzz", "ssa", "--trials", value, "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        assert f"argument --trials: trials must be an integer >= 1, got {value}" in proc.stderr

    @pytest.mark.parametrize(
        "command, flag, floor",
        [
            ("nmf", "--k", 1),
            ("nmf", "--restarts", 0),
            ("nmf", "--max-iters", 0),
            ("nmf", "--jobs", 1),
            ("esqc", "--k", 1),
            ("esqc", "--restarts", 0),
            ("esqc", "--max-iters", 0),
            ("esqc", "--jobs", 1),
            ("esqc", "--e-prime", 1),
            ("fuzz", "--jobs", 1),
        ],
    )
    @pytest.mark.parametrize("kind", ["fraction", "below_floor"])
    def test_integer_flag_names_its_field_and_floor(self, capsys, command, flag, floor, kind):
        from nmk import cli

        target = "ssa" if command == "fuzz" else "zoo:bell_e0"
        value = "1.5" if kind == "fraction" else str(floor - 1)
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, target, flag, value])
        assert exit_.value.code == 2
        field = flag[2:].replace("-", "_")
        shown = repr(value) if kind == "fraction" else value
        message = f"argument {flag}: {field} must be an integer >= {floor}, got {shown}"
        assert message in capsys.readouterr().err

    def test_nmf_help_explains_ext(self, capsys):
        from nmk import cli

        with pytest.raises(SystemExit) as exit_:
            cli.main(["nmf", "--help"])
        assert exit_.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--ext EXT extension dims a',b',e' of the one round to run" in help_text

    @pytest.mark.parametrize(
        "ref", ["zoo:ghz_diag?seed=2.5", "zoo:hs_random?dims=2,2,2&seed=2.5", "zoo:bell_e0?seed=-1"]
    )
    def test_zoo_seed_names_the_parameter(self, capsys, ref):
        from nmk import cli

        assert cli.main(["analyze", ref]) == 2
        seed = ref.rsplit("=", 1)[1]
        assert f"error: seed must be an integer >= 0, got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["nmf", "esqc"])
def test_each_search_flag_is_a_config_field(command):
    # _search_inputs reads one flag per config field but seed; a field
    # without a flag (or a flag without a field) must not slip in.
    from nmk import cli

    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parser = sub.choices[command]
    flags = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    config_cls = {"nmf": cli.EstimateConfig, "esqc": cli.EsqcConfig}[command]
    assert flags - {"state", "seed", "csv", "crosscheck"} == {
        f.name for f in fields(config_cls) if f.name != "seed"
    }


class TestAnalyzeTol:
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_exits_2_without_traceback(self, tol):
        proc = run_cli("analyze", "zoo:ghz_diag", "--tol", tol)
        assert proc.returncode == 2, proc.stderr
        assert "error" in proc.stderr and "tol" in proc.stderr
        assert not proc.stdout


class TestUnwritableOutput:
    """An output path under a regular file cannot be written: the run exits
    2 with an error line and prints no report."""

    @pytest.mark.parametrize("command", ["script", "markov-build", "zoo", "analyze", "fuzz"])
    def test_exits_2(self, tmp_path, monkeypatch, capsys, command):
        from nmk import cli
        from nmk.fuzz import FuzzReport

        blocker = tmp_path / "file"
        blocker.write_text("")
        target = str(blocker / "x.json")
        script = tmp_path / "ok.json"
        script.write_text(json.dumps(valid_script()))

        def broken(trials, seed, jobs=1):
            return FuzzReport("ssa", trials, trials - 1, [{"trial": 0, "cqmi": -1.0}])

        monkeypatch.setitem(cli.SUITES, "ssa", broken)
        argv = {
            "script": ["script", str(script), "zoo:ghz_diag", "--out", target],
            "markov-build": ["markov-build", "zoo:markov_random?entries=2", "--out", target],
            "zoo": ["zoo", "build", "bell_e0", "--out", target],
            "analyze": ["analyze", "zoo:ghz_diag", "--csv", target],
            "fuzz": ["fuzz", "ssa", "--trials", "1", "--seed", "1", "--counterexample-dir", target],
        }[command]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("error: ") and str(blocker) in err


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "args",
        [
            ("nmf", "zoo:bell_e0"),
            ("esqc", "zoo:bell_e0"),
            ("fuzz", "ssa", "--trials", "2"),
            ("fuzz", "monotonicity", "--trials", "1"),
            ("zoo", "build", "bell_e0"),
        ],
    )
    def test_rejected_at_parse_time(self, args):
        proc = run_cli(*args, "--seed", "-1")
        assert proc.returncode == 2, proc.stderr
        assert "argument --seed: seed must be an integer >= 0, got -1" in proc.stderr


class TestBudgetSetting:
    @pytest.mark.parametrize("value", ["abc", "1e3", "0", "-5"])
    @pytest.mark.parametrize("source", ["file", "zoo"])
    def test_invalid_budget_exits_2(self, tmp_path, monkeypatch, value, source):
        state = "zoo:bell_e0"
        if source == "file":
            state = tmp_path / "state.json"
            state.write_text(json.dumps(state_to_json(zoo("bell_e0"))))
        monkeypatch.setenv("NMK_DIM_BUDGET", value)
        proc = run_cli("analyze", str(state))
        assert proc.returncode == 2, proc.stderr
        assert "NMK_DIM_BUDGET" in proc.stderr


class TestZooCommand:
    def test_build_needs_a_name(self):
        proc = run_cli("zoo", "build")
        assert proc.returncode == 2
        assert "error: zoo build needs an entry name" in proc.stderr

    def test_list_matches_manifest(self):
        proc = run_cli("zoo", "list")
        out = result_of(proc)
        names = [e["name"] for e in out["catalog"]]
        assert "ghz_diag" in names and "nonfree_script" in names

    def test_build_writes_state(self, tmp_path):
        target = tmp_path / "state.json"
        proc = run_cli("zoo", "build", "zoo:hs_random?dims=2,2&seed=3", "--out", str(target))
        assert proc.returncode == 0
        payload = json.loads(target.read_text())
        assert "registers" in payload


    def test_build_reports_the_seed_it_built_with(self, capsys):
        # The reference's seed= wins over --seed, and the report says so.
        from nmk import cli

        assert cli.main(["zoo", "build", "zoo:hs_random?dims=2,2,2&seed=5", "--seed", "9"]) == 0
        given = json.loads(capsys.readouterr().out)
        assert cli.main(["zoo", "build", "zoo:hs_random?dims=2,2,2", "--seed", "5"]) == 0
        flag = json.loads(capsys.readouterr().out)
        assert given["seed"] == flag["seed"] == 5
        assert given["payload"] == flag["payload"]


def bundled_script_json(cls):
    """The file ``nmk zoo build --out`` writes for ``zoo:nonfree_script?cls=cls``."""
    script = zoo("nonfree_script", {"cls": cls})
    return {
        **script_to_json(script.steps),
        "state": state_to_json(script.scenario.state),
        "expected_m_i": script.expected_m_i,
    }


#: Each kind of reference, as a zoo URI and as a file (the file's payload).
REFERENCES = {
    "state": ("zoo:ghz_diag", lambda: state_to_json(zoo("ghz_diag"))),
    "components": (
        "zoo:markov_random?entries=2",
        lambda: components_to_json(zoo("markov_random", {"entries": 2})),
    ),
    # The zoo holds no script without a state.
    "plain script": (None, lambda: script_to_json((Step(StepKind.LOCAL_A, discard=("A",)),))),
    "bundled script": (
        "zoo:nonfree_script?cls=secret_ab",
        lambda: bundled_script_json("secret_ab"),
    ),
}
SEARCH = ["--max-iters", "3", "--restarts", "1", "--seed", "1"]
#: Each command, its arguments around the reference, and the kinds it runs.
COMMANDS = {
    "analyze": (["analyze"], [], {"state", "components"}),
    "nmf": (["nmf"], SEARCH, {"state", "components"}),
    "esqc": (["esqc"], SEARCH, {"state", "components"}),
    "markov-build": (["markov-build"], [], {"components"}),
    "script on a state": (["script"], ["zoo:ghz_diag"], {"plain script"}),
    "script alone": (["script"], [], {"bundled script"}),
}


@pytest.mark.parametrize(
    "command, kind, source",
    [
        (command, kind, source)
        for command in sorted(COMMANDS)
        for kind, (uri, _) in sorted(REFERENCES.items())
        for source in ("zoo", "file")[uri is None :]
    ],
)
def test_every_command_takes_its_kinds_and_refuses_others(tmp_path, capsys, command, kind, source):
    """Through ``cli.main``: a command runs on the kinds it takes and exits
    2 naming the reference on any other; nothing raises."""
    from nmk import cli

    ref, payload = REFERENCES[kind]
    if source == "file":
        ref = str(tmp_path / "ref.json")
        Path(ref).write_text(json.dumps(jsonable(payload())))
    head, tail, kinds = COMMANDS[command]
    code = cli.main([*head, ref, *tail])
    out, err = capsys.readouterr()
    if kind in kinds:
        assert code == 0, err
        assert json.loads(out)["input"] == ref
    else:
        assert code == 2 and not out
        assert err.startswith(f"error: {ref} ")


class TestRoundTrip:
    """A file ``nmk zoo build --out`` writes reads back as the entry: the
    report on it is the zoo URI's but for ``input``."""

    @staticmethod
    def report(capsys, *argv):
        from nmk import cli

        assert cli.main(list(argv)) == 0
        out = json.loads(capsys.readouterr().out)
        out.pop("input", None)
        return out

    @pytest.mark.parametrize(
        "cls", ["irreversible_e", "quantum_e_to_a", "quantum_e_to_b", "secret_ab", "quantum_ab"]
    )
    def test_bundled_script(self, tmp_path, capsys, cls):
        uri, target = f"zoo:nonfree_script?cls={cls}", str(tmp_path / "s.json")
        self.report(capsys, "zoo", "build", uri, "--out", target)
        assert json.loads(Path(target).read_text()) == json.loads(
            json.dumps(jsonable(bundled_script_json(cls)))
        )
        assert self.report(capsys, "script", target) == self.report(capsys, "script", uri)

    @pytest.mark.parametrize(
        "command, uri",
        [("analyze", "zoo:ghz_diag"), ("markov-build", "zoo:markov_random?entries=2&seed=4")],
    )
    def test_state_and_components(self, tmp_path, capsys, command, uri):
        target = str(tmp_path / "entry.json")
        self.report(capsys, "zoo", "build", uri, "--out", target)
        assert self.report(capsys, command, target) == self.report(capsys, command, uri)


class TestDeterminism:
    def test_nmf_repeat_byte_identical(self):
        a = run_cli("nmf", "zoo:classical_corr_e0", "--k", "2", "--seed", "9")
        b = run_cli("nmf", "zoo:classical_corr_e0", "--k", "2", "--seed", "9")
        assert a.stdout == b.stdout

    def test_fuzz_repeat_byte_identical(self):
        a = run_cli("fuzz", "ssa", "--trials", "25", "--seed", "11")
        b = run_cli("fuzz", "ssa", "--trials", "25", "--seed", "11")
        assert a.stdout == b.stdout


def test_cli_import_loads_no_thread_pool_and_no_secrets():
    """A fresh ``import nmk.cli`` loads neither ``concurrent.futures`` (restarts
    and trials run in the calling thread) nor ``secrets`` (the fallback seed
    reads ``os.urandom``).  ``numpy.random`` loads ``secrets`` itself, so the
    probe stops before anything draws."""
    probe = (
        "import json, sys, nmk.cli; "
        "print(json.dumps(sorted({'concurrent.futures', 'secrets'} & set(sys.modules))))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_fallback_seed_is_drawn_below_2_to_the_31(capsys):
    seeds = [_seed_of(argparse.Namespace(seed=None)) for _ in range(8)]
    assert all(0 <= s < 2**31 for s in seeds)
    assert capsys.readouterr().err.splitlines() == [f"seed not given; drew {s}" for s in seeds]
    assert _seed_of(argparse.Namespace(seed=7)) == 7


def test_csv_output(tmp_path):
    target = tmp_path / "report.csv"
    proc = run_cli("analyze", "zoo:ghz_diag", "--csv", str(target))
    assert proc.returncode == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("entropy.m_i_bits,") for line in lines)


def test_markov_build_roundtrip(tmp_path):
    out_file = tmp_path / "built.json"
    proc = run_cli("markov-build", "zoo:markov_random?entries=2&seed=7", "--out", str(out_file))
    assert proc.returncode == 0
    out = result_of(proc)
    assert out["markov"]["verdict"] is True
    check = run_cli("analyze", str(out_file))
    assert check.returncode == 0
    assert result_of(check)["markov"]["verdict"] is True


def _node_paths(tree, path=()):
    """The path (keys and list indices) of every node below the root."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


#: One node's replacement per mutation kind, drawn from these values.
MUTATIONS = {
    "null": [None],
    "bool": [True, False],
    "number": [0, -1, 2.5, 3],
    "nan": [float("nan")],
    "infinity": [float("inf"), float("-inf")],
    "string": ["", "x", "2", "false"],
    "list": [[], [1]],
    "object": [{}, {"re": 1}],
    "delete": [DROP],
}
#: The kinds each typed field refuses: a number field (a weight ``p`` or a
#: matrix entry) everything but a number, a flag everything but a boolean.
#: A null flag is left out: a null step field reads as absent.
WRONG_KINDS = {
    "number": {"null", "bool", "string", "list", "object"},
    "flag": {"number", "nan", "infinity", "string", "list", "object"},
}


def _typed_field(payload, path):
    """Which typed field ``path`` names ("number" or "flag"), or None."""
    if path[-1] == "bypass":
        return "flag"
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    leaf = parent[path[-1]]
    if path[-1] == "p" or ({"re", "im"} & set(path) and isinstance(leaf, (int, float))):
        return "number"
    return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMutationFuzz:
    """Single-node mutations of valid payloads, run through ``cli.main``:
    no exception escapes, every exit is 0, 2 or 3, and a value of the wrong
    JSON type in a typed field exits 2."""

    SEED = 7
    PER_PAYLOAD = 100

    @staticmethod
    def payloads(tmp_path):
        """Each base payload, with the command line that reads it (the
        mutated file goes in place of the None)."""
        payloads = {
            "state": (state_to_json(zoo("ghz_diag")), ["analyze"]),
            "components": (
                components_to_json(zoo("markov_random", {"entries": 2}, seed=7)),
                ["markov-build"],
            ),
        }
        for cls in ("secret_ab", "irreversible_e"):
            script = zoo("nonfree_script", {"cls": cls})
            state = tmp_path / f"{cls}_state.json"
            state.write_text(json.dumps(state_to_json(script.scenario.state)))
            payloads[cls] = (script_to_json(script.steps), ["script", None, str(state)])
        return {
            name: (json.loads(json.dumps(jsonable(payload))), command)
            for name, (payload, command) in payloads.items()
        }

    def test_mutated_payloads_exit_cleanly(self, tmp_path, capsys):
        from nmk import cli

        rng = np.random.default_rng(self.SEED)
        escaped, bad_exits, typed, typed_not_refused = [], [], 0, []
        path_file = tmp_path / "mutated.json"
        for name, (base, command) in self.payloads(tmp_path).items():
            # Draw a node shape (its path with list indices dropped) first, so
            # the many matrix entries do not crowd out the other fields.
            shapes = {}
            for path in _node_paths(base):
                shapes.setdefault(tuple(k for k in path if isinstance(k, str)), []).append(path)
            keys = sorted(shapes)
            for _ in range(self.PER_PAYLOAD):
                paths = shapes[keys[rng.integers(len(keys))]]
                path = paths[rng.integers(len(paths))]
                kind = sorted(MUTATIONS)[rng.integers(len(MUTATIONS))]
                values = MUTATIONS[kind]
                value = values[rng.integers(len(values))]
                mutated = copy.deepcopy(base)
                parent = mutated
                for key in path[:-1]:
                    parent = parent[key]
                if value is DROP:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(value)
                path_file.write_text(json.dumps(mutated))
                argv = [command[0], str(path_file), *command[2:]]
                case = (name, path, kind, value)
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    escaped.append((case, repr(exc)))
                    continue
                finally:
                    capsys.readouterr()
                if code not in (0, 2, 3):
                    bad_exits.append((case, code))
                field = _typed_field(base, path)
                if field and kind in WRONG_KINDS[field]:
                    typed += 1
                    if code != 2:
                        typed_not_refused.append((case, code))
        assert escaped == []
        assert bad_exits == []
        assert typed_not_refused == []
        assert typed >= 20
