"""Every integer input passes through ``registers.require_integer`` where it
enters: a float, a numeric string, a bool, infinity or a value below the
floor is refused with the entry point's own error class, naming the field,
and never truncated."""

import json
import math
import re

import numpy as np
import pytest

from nmk import cli, purify, sample, zoo
from nmk.errors import BadDims, BadMu, BadParams, BadRange, DimensionTooSmall
from nmk.fuzz import fuzz_ssa
from nmk.nmf import EstimateConfig
from nmk.rand import random_density_matrix, random_isometry, random_pure_vector, random_unitary
from nmk.registers import require_integer
from nmk.serialize import layout_from_json, state_to_json
from nmk.states import ChannelMap
from nmk.steps import dilution_conversion_cost
from nmk.witness import continuity_bound, witness_from_isometry

BAD_VALUES = [2.7, "2", True, math.inf, 0]

RHO = sample("density_hs", (2, 2, 2), 1, rank=2)
W_MATRIX = np.eye(4, 2, dtype=complex)
RNG = np.random.default_rng(0)

#: entry point -> (call with the bad value, its error class, the field named)
ENTRY_POINTS = {
    "sample": (lambda v: sample("density_hs", (v, 2, 2), 1), BadDims, "dims"),
    "sample_isometry": (lambda v: sample("isometry", (v, 4), 1), BadDims, "in_dim"),
    "layout_from_json": (
        lambda v: layout_from_json([{"label": "A", "dim": v, "party": "alice"}]),
        BadDims,
        "register 'A' dim",
    ),
    "witness_ext": (
        lambda v: witness_from_isometry(RHO, W_MATRIX, (v, 1, 1), 2),
        DimensionTooSmall,
        "ext_dims",
    ),
    "witness_k": (
        lambda v: witness_from_isometry(RHO, W_MATRIX, (2, 1, 1), v),
        DimensionTooSmall,
        "k",
    ),
    "zoo": (lambda v: zoo("markov_random", {"entries": v}), BadParams, "entries"),
    "dilution": (lambda v: dilution_conversion_cost([4], v), BadMu, "copy count l"),
    "estimate_config": (lambda v: EstimateConfig(ext=(v, 1, 1)), BadRange, "ext"),
    "fuzz": (lambda v: fuzz_ssa(v, 0), BadRange, "trials_222"),
    "continuity_bound": (lambda v: continuity_bound(0.1, v, 2), BadRange, "d_a"),
    "dephasing": (ChannelMap.dephasing, BadDims, "dim"),
    "purify": (lambda v: purify(RHO, "R", ref_dim=v), BadDims, "ref_dim"),
    "random_isometry_in": (lambda v: random_isometry(v, 2, RNG), BadDims, "in_dim"),
    "random_isometry_out": (lambda v: random_isometry(1, v, RNG), BadDims, "out_dim"),
    "random_unitary": (lambda v: random_unitary(v, RNG), BadDims, "dim"),
    "random_pure_vector": (lambda v: random_pure_vector(v, RNG), BadDims, "dim"),
    "random_density_matrix": (lambda v: random_density_matrix(v, RNG), BadDims, "dim"),
}


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_refuses_naming_the_field(entry, value):
    call, error, name = ENTRY_POINTS[entry]
    with pytest.raises(error, match=f"^{re.escape(name)} must be an integer >= "):
        call(value)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
def test_analyze_refuses_a_state_file_dim(tmp_path, capsys, value):
    payload = state_to_json(RHO)
    payload["registers"][0]["dim"] = value
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"register 'A' dim must be an integer >= 1, got {value!r}" in captured.err


def test_require_integer_returns_a_python_int():
    value = require_integer("n", np.int64(3), 1)
    assert value == 3 and type(value) is int
    with pytest.raises(BadDims, match=r"^n must be an integer >= 1, got -2$"):
        require_integer("n", -2, 1)
    with pytest.raises(BadParams, match="^n must be"):
        require_integer("n", None, 0, BadParams)
