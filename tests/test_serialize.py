import itertools
import json
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
import pytest

from nmk import objective, sample
from nmk.errors import BadParams, DimensionMismatch, InvariantViolation
from nmk.serialize import (
    components_from_json,
    components_to_json,
    jsonable,
    layout_from_json,
    layout_to_json,
    matrix_from_json,
    script_from_json,
    script_to_json,
    state_from_json,
    state_to_json,
    witness_to_json,
)
from nmk.witness import Witness, WitnessGroups
from nmk.zoo import zoo as build_zoo

from test_markov import random_components
from test_witness import random_witness


def test_state_roundtrip():
    rho = sample("density_hs", (2, 3), 1)
    back = state_from_json(json.loads(json.dumps(state_to_json(rho))))
    assert back.layout == rho.layout
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)


def test_reader_names_violated_invariant():
    rho = sample("density_hs", (2, 2), 2)
    payload = state_to_json(rho)
    payload["matrix"]["re"][0][0] += 0.5
    with pytest.raises(InvariantViolation) as err:
        state_from_json(payload)
    assert "unit_trace" in str(err.value) or "hermitian" in str(err.value)

    payload = state_to_json(rho)
    payload["matrix"]["im"][0][1] += 0.3  # breaks hermiticity
    with pytest.raises(InvariantViolation, match="hermitian"):
        state_from_json(payload)

    with pytest.raises(BadParams):
        state_from_json({"registers": []})


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=repr)
def test_non_finite_entry_reaches_the_finite_check_without_warnings(part, value):
    payload = state_to_json(sample("density_hs", (2, 2), 2))
    payload["matrix"][part][0][1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="finite"):
            state_from_json(payload)


def test_matrix_reader_matches_the_complex_product_bit_for_bit():
    # Every pair of signed zeros, extremes and ordinary values, as re and im.
    values = [0, 0.0, -0.0, 1, -3, 1.5, -2.25, 1e-300, -5e-324, 1e308, -1e308, 10**20]
    re, im = (list(v) for v in zip(*itertools.product(values, values)))
    expected = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    assert matrix_from_json({"re": [re], "im": [im]}).tobytes() == expected[None].tobytes()


def test_components_roundtrip():
    mc = random_components(3, entries=2)
    back = components_from_json(json.loads(json.dumps(components_to_json(mc))))
    assert back.probs == pytest.approx(mc.probs)
    np.testing.assert_allclose(back.entries[0].sigma.matrix, mc.entries[0].sigma.matrix)


def test_script_roundtrip_with_channels():
    zs = build_zoo("nonfree_script", {"cls": "secret_ab"})
    payload = json.loads(json.dumps(script_to_json(zs.steps)))
    back = script_from_json(payload)
    assert [s.kind for s in back] == [s.kind for s in zs.steps]
    # Channels survive with their inverses.
    originals = [s for s in zs.steps if s.channel is not None]
    restored = [s for s in back if s.channel is not None]
    for orig, rest in zip(originals, restored):
        np.testing.assert_allclose(orig.channel.kraus[0], rest.channel.kraus[0])
        assert (orig.channel.declared_inverse is None) == (
            rest.channel.declared_inverse is None
        )


def _rebuilt(payload) -> Witness:
    """The witness a ``witness_to_json`` payload describes, read back from
    its keys here: the package writes witnesses but has no reader for them."""
    return Witness(
        layout_from_json(payload["registers"]),
        WitnessGroups(**{role: tuple(group) for role, group in payload["groups"].items()}),
        payload["weights"],
        [matrix_from_json(m) for m in payload["members"]],
    )


def test_witness_writer_pins_keys_and_member_stack():
    _, w = random_witness(5, ext=(2, 1, 1), k=3)
    payload = json.loads(json.dumps(witness_to_json(w)))
    assert sorted(payload) == [
        "ext_dims", "flag_is_classical", "groups", "k_label", "members", "registers", "weights"
    ]
    assert payload["registers"] == layout_to_json(w.layout)
    assert payload["groups"] == {role: list(g) for role, g in asdict(w.groups).items()}
    assert payload["weights"] == list(w.weights)
    assert payload["ext_dims"] == {"a_prime": 2, "b_prime": 1, "e_prime": 1, "k": 3}
    stack = np.stack([matrix_from_json(m) for m in payload["members"]])
    np.testing.assert_array_equal(stack, w.members)


def test_witness_roundtrip_preserves_objective():
    _, w = random_witness(5, ext=(2, 1, 1), k=3)
    payload = json.loads(json.dumps(witness_to_json(w)))
    back = _rebuilt(payload)
    assert abs(objective(back) - objective(w)) < 1e-12
    assert payload["flag_is_classical"] is True


def test_baseline_witness_roundtrip_with_empty_groups():
    from nmk import baseline_witnesses

    rho = sample("density_hs", (2, 2, 2), 9, rank=2)
    w = baseline_witnesses(rho)[0]
    back = _rebuilt(json.loads(json.dumps(witness_to_json(w))))
    assert back.groups.a_prime == () and back.groups.b_prime == ("B'",)
    assert abs(objective(back) - objective(w)) < 1e-12


def test_witness_reader_rejects_ragged_members():
    _, w = random_witness(6, ext=(2, 1, 1), k=3)
    payload = json.loads(json.dumps(witness_to_json(w)))
    for part in ("re", "im"):
        del payload["members"][1][part][-1]
    with pytest.raises(DimensionMismatch):
        _rebuilt(payload)


def test_witness_flag_label_is_k():
    _, w = random_witness(6, ext=(2, 1, 1), k=3)
    payload = json.loads(json.dumps(witness_to_json(w)))
    assert payload["k_label"] == "K"
    assert _rebuilt(payload).realized().layout.labels[-1] == "K"


def test_jsonable_turns_numpy_booleans_into_booleans():
    assert jsonable(np.True_) is True and jsonable(np.False_) is False
    assert jsonable({"ok": np.bool_(False), "n": np.int64(3)}) == {"ok": False, "n": 3}


@dataclass(frozen=True)
class _Inner:
    flag: np.bool_
    values: tuple


@dataclass
class _Record:
    name: str
    inner: _Inner
    rows: list = field(default_factory=list)

    @property
    def derived(self):
        return "not a field"


def test_jsonable_emits_a_dataclass_as_its_fields():
    record = _Record("r", _Inner(np.True_, (np.float64(0.5), 2)), [_Inner(np.False_, ())])
    assert jsonable(record) == {
        "name": "r",
        "inner": {"flag": True, "values": [0.5, 2]},
        "rows": [{"flag": False, "values": []}],
    }
    assert json.loads(json.dumps(jsonable({"record": record}))) == {"record": jsonable(record)}
    # A class is not a record: it falls through to its string form.
    assert jsonable(_Record) == str(_Record)
