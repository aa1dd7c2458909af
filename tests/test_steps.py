import math

import numpy as np
import pytest

from nmk import (
    ChannelMap,
    CostLedger,
    Scenario,
    ScriptClass,
    Step,
    apply_step,
    build_markov,
    classify_script,
    dilution_conversion_cost,
    layout,
    markov_score,
    nonmarkovianity,
    partial_trace,
    run_script,
    sample,
)
from nmk.errors import (
    BadMu,
    BadParams,
    BadRange,
    BudgetExceeded,
    IrreversibleEveOp,
    NotClassicalRegister,
    UnknownLabel,
)
from nmk import fuzz
from nmk.fuzz import fuzz_markov_closure, fuzz_monotonicity
from nmk.markov import preparation_script
from nmk.registers import Party, Register
from nmk.serialize import (
    channel_to_json,
    matrix_to_json,
    script_from_json,
    script_to_json,
    state_from_json,
    step_from_json,
    step_to_json,
)
from nmk.steps import KINDS, StepKind
from nmk.zoo import zoo


def coin_ops(n=2):
    return tuple(np.eye(2, dtype=complex) / math.sqrt(n) for _ in range(n))


#: A value for every payload field of a step.
FULL_PAYLOAD = {
    "channel": ChannelMap((np.eye(2),)),
    "on": ("E",),
    "out": (Register("E", 2, Party.EVE),),
    "discard": ("E",),
    "register": "E",
    "to": Party.ALICE,
    "operators": coin_ops(),
    "msg_label": "J",
    "sender": Party.ALICE,
    "bypass": True,
}

#: ``FULL_PAYLOAD`` in its JSON form.
FULL_JSON = {
    "channel": channel_to_json(FULL_PAYLOAD["channel"]),
    "on": ["E"],
    "out": [{"label": "E", "dim": 2, "party": "eve"}],
    "discard": ["E"],
    "register": "E",
    "to": "alice",
    "operators": [matrix_to_json(op) for op in coin_ops()],
    "msg_label": "J",
    "sender": "alice",
    "bypass": True,
}


def needed(kind):
    """The payload a step of ``kind`` needs, from ``FULL_PAYLOAD``."""
    return {key: FULL_PAYLOAD[key] for key in KINDS[kind].needs}


def kind_ids(value):
    return value.value if isinstance(value, StepKind) else value


class TestStepBoundary:
    """A step checks its payload when it is built, from Python as from JSON."""

    @pytest.mark.parametrize(
        "kind, missing",
        [(kind, key) for kind, row in KINDS.items() for key in row.needs],
        ids=kind_ids,
    )
    def test_missing_field_is_named(self, kind, missing):
        payload = needed(kind)
        Step(kind, **payload)
        del payload[missing]
        with pytest.raises(BadParams, match=repr(missing)):
            Step(kind, **payload)

    def test_local_step_needs_channel_or_discard(self, ghz):
        with pytest.raises(BadParams, match="'channel' or a 'discard'"):
            apply_step(Scenario(ghz), Step(StepKind.LOCAL_A))

    @pytest.mark.parametrize(
        "kind", [StepKind.LOCAL_A, StepKind.REVERSIBLE_E], ids=lambda kind: kind.value
    )
    def test_discard_only_on_a_local_step_without_channel(self, kind):
        with pytest.raises(BadParams, match="'discard'"):
            Step(kind, channel=FULL_PAYLOAD["channel"], on=("E",), discard=("E",))

    @pytest.mark.parametrize(
        "kind, extra",
        [
            (kind, key)
            for kind, row in KINDS.items()
            for key in FULL_PAYLOAD
            if key not in row.needs + row.may
        ],
        ids=kind_ids,
    )
    def test_field_outside_the_row_is_refused(self, kind, extra):
        with pytest.raises(BadParams, match=f"carries no {extra!r}"):
            Step(kind, **needed(kind), **{extra: FULL_PAYLOAD[extra]})
        written = dict(step_to_json(Step(kind, **needed(kind))), **{extra: FULL_JSON[extra]})
        with pytest.raises(BadParams, match=f"carries no {extra!r}"):
            step_from_json(written)

    def test_a_send_to_eve_carries_only_its_register(self):
        with pytest.raises(BadParams, match="quantum_to_e step carries no 'to'"):
            Step(
                StepKind.QUANTUM_TO_E,
                register="A",
                operators=[np.eye(2)],
                msg_label="J",
                to="bob",
                bypass=True,
            )

    @pytest.mark.parametrize("kind", [StepKind.LOCAL_A, StepKind.LOCAL_B], ids=kind_ids)
    @pytest.mark.parametrize("extra", ["channel", "on", "out"])
    def test_discard_form_carries_only_its_list(self, kind, extra):
        refused = f"'discard' list carries no {extra!r}"
        with pytest.raises(BadParams, match=refused):
            Step(kind, discard=("E",), **{extra: FULL_PAYLOAD[extra]})
        written = {"kind": kind.value, "discard": ["E"], extra: FULL_JSON[extra]}
        with pytest.raises(BadParams, match=refused):
            step_from_json(written)

    @pytest.mark.parametrize("kind", list(StepKind), ids=kind_ids)
    def test_round_trip_writes_only_the_row(self, kind):
        row = KINDS[kind]
        keys = [key for key in row.needs + row.may if key != "discard"]
        steps = [Step(kind, **{key: FULL_PAYLOAD[key] for key in keys})]
        want = [{"kind", *keys}]
        if "discard" in row.may:
            steps.append(Step(kind, discard=("E",)))
            want.append({"kind", "discard"})
        written = script_to_json(steps)
        assert [set(d) for d in written["steps"]] == want
        assert script_to_json(script_from_json(written)) == written

    def test_a_string_is_one_label(self):
        step = Step(StepKind.LOCAL_A, channel=FULL_PAYLOAD["channel"], on="A1")
        assert step.on == ("A1",)
        assert Step(StepKind.LOCAL_A, discard="A1").discard == ("A1",)

    def test_fields_are_coerced_however_built(self):
        step = Step(StepKind.SECRET_AB, operators=[np.eye(2)], on=["A"], msg_label="J", sender="bob")
        assert step.on == ("A",) and step.sender is Party.BOB
        assert isinstance(step.operators, tuple) and step.operators[0].dtype == complex

    @pytest.mark.parametrize(
        "kind, payload, named",
        [
            (StepKind.LOCAL_A, dict(channel=ChannelMap.dephasing(2), on=None), "on"),
            (StepKind.LOCAL_A, dict(channel=ChannelMap.dephasing(2), on=5), "on"),
            (StepKind.LOCAL_A, dict(channel=ChannelMap.dephasing(2), on=("A", "")), "on"),
            (StepKind.LOCAL_A, dict(discard=5), "discard"),
            (StepKind.LOCAL_A, dict(discard=[3]), "discard"),
            (StepKind.LOCAL_A, dict(channel=ChannelMap.dephasing(2), on="A", out=5), "out"),
            (StepKind.LOCAL_A, dict(channel=ChannelMap.dephasing(2), on="A", out=["A"]), "out"),
            (StepKind.LOCAL_A, dict(channel="junk", on="A"), "channel"),
            (StepKind.BROADCAST_A, dict(operators="junk", on="A", msg_label="J"), "operators"),
            (StepKind.BROADCAST_A, dict(operators=[[1, 0]], on="A", msg_label="J"), "operators"),
            (StepKind.BROADCAST_A, dict(operators=coin_ops(), on="A", msg_label=7), "msg_label"),
            (StepKind.BROADCAST_A, dict(operators=coin_ops(), on="A", msg_label=""), "msg_label"),
            (StepKind.QUANTUM_TO_E, dict(register=5), "register"),
            (StepKind.QUANTUM_TO_E, dict(register=""), "register"),
            (StepKind.REVERSIBLE_E, dict(channel=ChannelMap.dephasing(2), bypass="no"), "bypass"),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_payload_types_are_refused_naming_the_field(self, kind, payload, named):
        with pytest.raises(BadParams, match=f"step field {named!r} must be"):
            Step(kind, **payload)

    def test_equality_is_identity(self):
        # A step holds numpy operators; == compares identity instead of
        # raising "truth value of an array is ambiguous", and hash() works.
        step, again = (
            Step(StepKind.BROADCAST_A, operators=coin_ops(), on=("A",), msg_label="J")
            for _ in range(2)
        )
        assert step == step and not step != step
        assert step != again and not step == again
        assert hash(step) == hash(step) and len({step, again}) == 2

    def test_only_the_two_broadcast_aliases_remain(self):
        # perfbench's broadcast workload builds its steps through these two;
        # every other step is built as Step(kind, ...).
        methods = {name for name, attr in vars(Step).items() if isinstance(attr, classmethod)}
        assert methods == {"broadcast_a", "broadcast_b"}
        ops = coin_ops()
        pairs = [
            (Step.broadcast_a(ops, ("A",), "J"), StepKind.BROADCAST_A, ("A",)),
            (Step.broadcast_b(ops, ("B",), "J"), StepKind.BROADCAST_B, ("B",)),
        ]
        for alias, kind, on in pairs:
            want = Step(kind, operators=ops, on=on, msg_label="J")
            assert step_to_json(alias) == step_to_json(want)


class TestStepParties:
    """The party rule belongs to the step: its ``to`` and ``sender`` name
    Alice or Bob, and an unknown kind or party raises BadParams naming its
    field, before any scenario is touched."""

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"kind": "quantum_from_e", "register": "E", "to": "eve"}, "to"),
            ({"kind": "quantum_from_e", "register": "E", "to": "reference"}, "to"),
            ({"kind": "quantum_ab", "register": "A", "to": "eve"}, "to"),
            (
                {
                    "kind": "secret_ab",
                    "operators": coin_ops(),
                    "on": ("E",),
                    "msg_label": "J",
                    "sender": "eve",
                },
                "sender",
            ),
            ({"kind": "bogus"}, "kind"),
            ({"kind": "quantum_from_e", "register": "E", "to": "Alice"}, "to"),
        ],
        ids=[
            "from_e_to_eve",
            "from_e_to_reference",
            "ab_to_eve",
            "secret_from_eve",
            "unknown_kind",
            "capitalized_party",
        ],
    )
    def test_refused_when_built_naming_the_field(self, fields, named):
        with pytest.raises(BadParams, match=repr(named)):
            Step(**fields)

    def test_quantum_ab_moves_only_the_other_partys_register(self, ghz):
        sc = Scenario(ghz)
        with pytest.raises(UnknownLabel, match="belongs to alice"):
            apply_step(sc, Step(StepKind.QUANTUM_AB, register="A", to="alice"))
        out = apply_step(sc, Step(StepKind.QUANTUM_AB, register="A", to="bob"))
        assert out.block_state.layout.register("A").party is Party.BOB


#: Party names every entry point refuses: only the exact lowercase values pass.
BAD_PARTIES = ["ALICE", "Alice", "carol", 5, None]


class TestPartyNames:
    """Every entry point reads a party name through one rule,
    ``registers.require_member``, and refuses anything but its exact value
    with BadParams naming the field."""

    @pytest.mark.parametrize("bad", BAD_PARTIES)
    def test_registers_and_layouts_refuse(self, bad):
        lay = layout(("A", 2, "alice"))
        entry = {"label": "A", "dim": 1, "party": bad}
        calls = [
            lambda: Register("A", 2, bad),
            lambda: state_from_json({"registers": [entry], "matrix": {"re": [[1]], "im": [[0]]}}),
            lambda: lay.party_labels(bad),
            lambda: lay.retagged("A", bad),
        ]
        for call in calls:
            with pytest.raises(BadParams, match="party"):
                call()

    @pytest.mark.parametrize("bad", BAD_PARTIES)
    @pytest.mark.parametrize(
        "kind, key", [(StepKind.QUANTUM_FROM_E, "to"), (StepKind.SECRET_AB, "sender")]
    )
    def test_step_parties_refuse(self, kind, key, bad):
        with pytest.raises(BadParams, match=repr(key)):
            Step(kind, **dict(needed(kind), **{key: bad}))
        written = dict(step_to_json(Step(kind, **needed(kind))), **{key: bad})
        with pytest.raises(BadParams, match=repr(key)):
            step_from_json(written)


class TestApplyStep:
    def test_reversible_isometry_preserves_m_i(self, ghz):
        rng = np.random.default_rng(0)
        sc = Scenario(ghz)
        before = nonmarkovianity(ghz)
        iso = ChannelMap((sample("isometry", (2, 4), rng),))
        wider = (Register("F", 4, Party.EVE),)
        step = Step(StepKind.REVERSIBLE_E, channel=iso, on=("E",), out=wider)
        out = apply_step(sc, step)
        assert abs(nonmarkovianity(out.state) - before) < 1e-9
        assert markov_score(out.state).verdict == markov_score(ghz).verdict

    def test_eve_unitary_is_free_from_its_kraus_operator_alone(self, ghz):
        step = Step(StepKind.REVERSIBLE_E, channel=ChannelMap((sample("unitary", 2, 4),)), on="E")
        run = run_script(Scenario(ghz), (step,))
        assert run.classification is ScriptClass.OMEGA
        assert abs(nonmarkovianity(run.final.state) - nonmarkovianity(ghz)) < 1e-9

    def test_large_eve_unitary_applies(self):
        lay = layout(("A", 2, "alice"), ("B", 2, "bob"), ("E", 128, "eve"))
        rho = sample("density_hs", (2, 2, 128), 6, layout=lay, rank=2)
        step = Step(StepKind.REVERSIBLE_E, channel=ChannelMap((sample("unitary", 128, 7),)), on="E")
        out = apply_step(Scenario(rho), step)
        assert abs(nonmarkovianity(out.state) - nonmarkovianity(rho)) < 1e-9

    def test_irreversible_mix_rejected_then_bypassed(self, ghz):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        mix = ChannelMap.mixing([np.eye(2), sx], [0.5, 0.5])
        sc = Scenario(ghz)
        with pytest.raises(IrreversibleEveOp):
            apply_step(sc, Step(StepKind.REVERSIBLE_E, channel=mix, on=("E",)))
        out = apply_step(sc, Step(StepKind.REVERSIBLE_E, channel=mix, on=("E",), bypass=True))
        assert abs(nonmarkovianity(out.state) - 0.5) < 1e-9

    def test_quantum_from_e_costs_and_frees_entanglement(self):
        zs = zoo("nonfree_script", {"cls": "quantum_e_to_a"})
        run = run_script(zs.scenario, zs.steps)
        assert run.final.ledger.qc_bits == pytest.approx(1.0)
        assert abs(nonmarkovianity(run.final.state) - 1.0) < 1e-9
        assert run.classification is ScriptClass.OMEGA_Q

    def test_quantum_send_retags_without_revalidating(self, ghz, monkeypatch):
        calls = []
        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m) or real(m))
        out = apply_step(Scenario(ghz), Step(StepKind.QUANTUM_TO_E, register="A"))
        assert calls == []
        assert out.state.layout.register("A").party is Party.EVE
        np.testing.assert_array_equal(out.state.matrix, ghz.matrix)

    def test_broadcast_copies_all_parties(self, ghz):
        sc = Scenario(ghz)
        step = Step(StepKind.BROADCAST_A, operators=coin_ops(), on=("A",), msg_label="J")
        out = apply_step(sc, step)
        lay = out.state.layout
        assert lay.register("J_A").party is Party.ALICE
        assert lay.register("J_B").party is Party.BOB
        assert lay.register("J_E").party is Party.EVE
        assert out.state.dim == ghz.dim * 8

    def test_classical_down_requires_classical_register(self):
        rho = sample("density_hs", (2, 2, 2), 7)
        sc = Scenario(rho)
        with pytest.raises(NotClassicalRegister):
            apply_step(sc, Step(StepKind.CLASSICAL_E_TO_A, register="E"))

    def test_classical_down_copies_and_costs(self, ghz):
        sc = Scenario(ghz)  # E register of the block state is diagonal
        out = apply_step(sc, Step(StepKind.CLASSICAL_E_TO_A, register="E"))
        assert out.ledger.cdown_bits == pytest.approx(1.0)
        assert out.state.layout.register("E_c_A").party is Party.ALICE
        assert abs(nonmarkovianity(out.state) - nonmarkovianity(ghz)) < 1e-9

    def test_joint_block_measurement(self):
        # Broadcast measuring two of Alice's registers at once.
        rng = np.random.default_rng(20)
        lay = layout(("A", 2, "alice"), ("A2", 2, "alice"), ("B", 2, "bob"), ("E", 2, "eve"))
        rho = sample("density_hs", (2, 2, 2, 2), rng, layout=lay)
        iso = sample("isometry", (4, 8), rng)
        ops = tuple(iso[i * 4 : (i + 1) * 4, :] for i in range(2))
        sc = Scenario(rho)
        step = Step(StepKind.BROADCAST_A, operators=ops, on=("A", "A2"), msg_label="J")
        out = apply_step(sc, step)
        assert out.state.dim == rho.dim * 8
        assert nonmarkovianity(out.state) <= nonmarkovianity(rho) + 1e-9

    def test_party_ownership_enforced(self, ghz):
        sc = Scenario(ghz)
        with pytest.raises(UnknownLabel):
            apply_step(sc, Step(StepKind.LOCAL_A, discard=("B",)))
        with pytest.raises(UnknownLabel):
            apply_step(sc, Step(StepKind.QUANTUM_FROM_E, register="A", to="bob"))


    def test_broadcast_on_registers_out_of_layout_order(self):
        # The block is measured in the order the step names it, whatever the
        # layout order; swapping the operators' two factors undoes swapping
        # the labels.
        lay = layout(("A", 2, "alice"), ("Q", 2, "alice"), ("B", 2, "bob"), ("E", 2, "eve"))
        sc = Scenario(sample("density_hs", (2, 2, 2, 2), 4, layout=lay))
        iso = sample("isometry", (4, 8), 5)
        ops = (iso[:4], iso[4:])
        swap = np.eye(4)[[0, 2, 1, 3]]
        named = apply_step(
            sc, Step(StepKind.BROADCAST_A, operators=ops, on=("Q", "A"), msg_label="J")
        ).state
        swapped = [swap @ k @ swap for k in ops]
        ordered = apply_step(
            sc, Step(StepKind.BROADCAST_A, operators=swapped, on=("A", "Q"), msg_label="J")
        )
        assert named.layout == ordered.state.layout
        assert named.layout.labels == ("A", "Q", "B", "E", "J_A", "J_B", "J_E")
        np.testing.assert_allclose(named.matrix, ordered.state.matrix, atol=1e-12)

    def test_budget_checked_before_the_channel_runs(self, monkeypatch):
        # Three one-qubit broadcasts take 1 -> 2 -> 4 -> 8 blocks of dim 8;
        # B = 16 admits 256 entries, so the third (512) is refused before
        # any of its matrices is computed.
        from nmk import states

        monkeypatch.setenv("NMK_DIM_BUDGET", "16")
        calls = []
        kernel = states._apply_kraus_block

        def counted(*args):
            calls.append(args[0].shape)
            return kernel(*args)

        monkeypatch.setattr(states, "_apply_kraus_block", counted)
        sc = Scenario(sample("density_hs", (2, 2, 2), 6))
        for i in range(2):
            step = Step(StepKind.BROADCAST_A, operators=coin_ops(), on=("A",), msg_label=f"J{i}")
            sc = apply_step(sc, step)
        assert len(sc.block_state.blocks) == 4 and sc.block_state.quantum.dim == 8
        ran = len(calls)
        step = Step(StepKind.BROADCAST_A, operators=coin_ops(), on=("A",), msg_label="J2")
        with pytest.raises(BudgetExceeded, match="entries 512 exceeds the budget of 256"):
            apply_step(sc, step)
        assert ran > 0 and len(calls) == ran


class TestClassify:
    def test_free_script(self):
        steps = [
            Step(StepKind.BROADCAST_A, operators=coin_ops(), on=("A",), msg_label="J"),
            Step(StepKind.QUANTUM_TO_E, register="A"),
            Step(StepKind.REVERSIBLE_E, channel=ChannelMap((np.eye(2),)), on=("E",)),
        ]
        assert classify_script(steps) is ScriptClass.OMEGA

    def test_classical_down_script(self):
        steps = [
            Step(StepKind.REVERSIBLE_E, channel=ChannelMap((np.eye(2),)), on=("E",)),
            Step(StepKind.CLASSICAL_E_TO_B, register="ME"),
        ]
        assert classify_script(steps) is ScriptClass.OMEGA_STAR

    def test_quantum_down_script(self):
        steps = [
            Step(StepKind.REVERSIBLE_E, channel=ChannelMap((np.eye(2),)), on=("E",)),
            Step(StepKind.QUANTUM_FROM_E, register="E1", to="alice"),
        ]
        assert classify_script(steps) is ScriptClass.OMEGA_Q

    def test_non_free_variants(self):
        quantum_ab = Step(StepKind.QUANTUM_AB, register="Q", to="bob")
        assert classify_script([quantum_ab]) is ScriptClass.NON_FREE
        secret = Step(
            StepKind.SECRET_AB, operators=coin_ops(), on=("A",), msg_label="J", sender="alice"
        )
        assert classify_script([secret]) is ScriptClass.NON_FREE
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        mix = ChannelMap.mixing([np.eye(2), sx], [0.5, 0.5])
        bypass = Step(StepKind.REVERSIBLE_E, channel=mix, on=("E",), bypass=True)
        assert classify_script([bypass]) is ScriptClass.NON_FREE
        both = [
            Step(StepKind.QUANTUM_FROM_E, register="E1", to="alice"),
            Step(StepKind.CLASSICAL_E_TO_A, register="ME"),
        ]
        assert classify_script(both) is ScriptClass.NON_FREE


class TestRunScript:
    def test_preparation_protocol_reaches_block_state(self):
        mc = zoo("markov_random", {"entries": 2}, seed=3)
        start, steps = preparation_script(mc)
        run = run_script(start, steps)
        assert run.classification is ScriptClass.OMEGA
        assert run.final.ledger == CostLedger(0.0, 0.0)
        target = build_markov(mc)
        got = partial_trace(run.final.state, ("A", "B", "J_E", "EL", "ER")).permuted(
            ("A", "B", "J_E", "EL", "ER")
        )
        np.testing.assert_allclose(got.matrix, target.matrix, atol=1e-10)

    def test_secret_bit_protocol(self):
        zs = zoo("nonfree_script", {"cls": "secret_ab"})
        run = run_script(zs.scenario, zs.steps)
        assert run.classification is ScriptClass.NON_FREE
        assert abs(nonmarkovianity(run.final.state) - 0.5) < 1e-9

    def test_empty_script(self, ghz):
        run = run_script(Scenario(ghz), ())
        assert run.final.state.layout.labels == ghz.layout.labels
        np.testing.assert_allclose(run.final.state.matrix, ghz.matrix, atol=1e-10)
        assert run.classification is ScriptClass.OMEGA

    def test_ledger_additivity_exact(self):
        zs = zoo("nonfree_script", {"cls": "quantum_e_to_a"})
        run = run_script(zs.scenario, zs.steps)
        sc = zs.scenario
        totals = []
        for step in zs.steps:
            sc = apply_step(sc, step)
            totals.append(sc.ledger)
        assert run.step_ledgers == tuple(totals)
        assert run.final.ledger.qc_bits == totals[-1].qc_bits


class TestDilutionConversion:
    def test_square_message(self):
        out = dilution_conversion_cost([4], 2)
        assert out.per_step_bits == (2.0,)
        assert out.total_bits == 2.0
        assert out.conversion_bound == 4.0

    def test_single_bit_message(self):
        out = dilution_conversion_cost([2], 1)
        assert out.per_step_bits == (1.0,)  # ceil(sqrt(2)) = 2
        assert out.conversion_bound == 1.5

    def test_two_rounds_four_copies(self):
        out = dilution_conversion_cost([2, 2], 4)
        assert out.total_bits == 4.0
        assert out.conversion_bound == 6.0

    def test_bound_holds_broadly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mu = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 4)))]
            l = int(rng.integers(1, 6))
            out = dilution_conversion_cost(mu, l)
            assert out.total_bits <= out.conversion_bound + 1e-12

    def test_bad_mu(self):
        with pytest.raises(BadMu):
            dilution_conversion_cost([1], 2)
        with pytest.raises(BadMu):
            dilution_conversion_cost([4], 0)
        # Anything but an integer is rejected, naming the value, not rounded.
        for mu, l, named in (
            ([2.5], 2, "2.5"),
            ([math.nan], 2, "nan"),
            ([4], math.nan, "nan"),
            (["3"], 2, "'3'"),
            ([4], True, "True"),
        ):
            with pytest.raises(BadMu) as exc:
                dilution_conversion_cost(mu, l)
            assert named in str(exc.value)


@pytest.mark.parametrize("qc, cdown", [(math.nan, 0.0), (0.0, math.nan)])
def test_ledger_rejects_nan(qc, cdown):
    with pytest.raises(BadMu):
        CostLedger(qc, cdown)
    with pytest.raises(BadMu):
        CostLedger().add(qc=qc, cdown=cdown)


class TestPropertySuites:
    def test_monotonicity_sampled(self):
        report = fuzz_monotonicity(trials_per_class=25, seed=1)
        assert report.ok, report.failures[:2]

    def test_markov_closure_sampled(self):
        report = fuzz_markov_closure(trials=25, seed=2)
        assert report.ok, report.failures[:2]

    @pytest.mark.parametrize(
        "suite, checked",
        [
            (lambda: fuzz.fuzz_ssa(2, 1, seed=0), "cqmi"),
            (lambda: fuzz_monotonicity(1, seed=0), "nonmarkovianity"),
            (lambda: fuzz_markov_closure(2, seed=0), "cqmi"),
            (lambda: fuzz.fuzz_witness(1, seed=0), "objective"),
        ],
        ids=["ssa", "monotonicity", "markov_closure", "witness"],
    )
    def test_a_nan_value_fails_every_check(self, monkeypatch, suite, checked):
        monkeypatch.setattr(fuzz, checked, lambda *args, **kwargs: float("nan"))
        report = suite()
        assert report.passes == 0 and len(report.failures) == report.trials

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: fuzz.fuzz_ssa(10, -5), "trials_224"),
            (lambda: fuzz.fuzz_ssa(2.5, 1), "trials_222"),
            (lambda: fuzz.fuzz_ssa(0, 1), "trials_222"),
            (lambda: fuzz_monotonicity(True), "trials_per_class"),
            (lambda: fuzz_markov_closure(np.float64(2)), "trials"),
            (lambda: fuzz.fuzz_witness(20, mixture_probes=-1), "mixture_probes"),
            (lambda: fuzz.fuzz_witness(1, mixture_probes=1.0), "mixture_probes"),
            (lambda: fuzz.fuzz_ssa(2, 1, jobs=0), "jobs"),
        ],
        ids=[
            "ssa_negative",
            "ssa_float",
            "ssa_zero",
            "monotonicity_bool",
            "closure_numpy_float",
            "witness_negative",
            "witness_float",
            "ssa_zero_jobs",
        ],
    )
    def test_bad_counts_rejected_naming_the_parameter(self, call, name):
        with pytest.raises(BadRange, match=f"^{name} must be an integer >= "):
            call()

    def test_optional_counts_may_be_zero(self):
        assert fuzz.fuzz_ssa(np.int64(2), 0).trials == 2
        assert fuzz.fuzz_witness(1, mixture_probes=0).notes["mixture_probes"] == []

    def test_worker_count_invariance(self, monkeypatch):
        # Every trial reports a "violation", so the reports list every
        # trial's value and state, in trial order.
        monkeypatch.setattr(fuzz, "SSA_TOL", -10.0)
        serial = fuzz.fuzz_ssa(trials_222=12, trials_224=4, seed=5, jobs=1)
        threaded = fuzz.fuzz_ssa(trials_222=12, trials_224=4, seed=5, jobs=3)
        assert len(serial.failures) == 16
        assert threaded == serial
