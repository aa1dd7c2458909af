"""Every probability vector passes ``registers.require_distribution`` and
every real input ``registers.require_real`` where it enters: a negative
weight, a sum off 1, NaN, infinity, a bool or a numeric string is refused
with the entry point's own error class, naming the field."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from nmk import sample, zoo
from nmk.csquashed import check_ensemble, esqc_objective
from nmk.errors import BadEnsemble, BadProbabilities, BadRange, DimensionMismatch
from nmk.errors import InvariantViolation
from nmk.markov import MarkovComponents, markov_score
from nmk.nmf import SearchConfig
from nmk.registers import WEIGHT_TOL, layout, require_distribution, require_real
from nmk.states import ChannelMap
from nmk.witness import Witness, WitnessGroups, check_witness, continuity_bound, witness_mix

#: Two-weight vectors: a negative weight summing to 1, a sum of 1.1, NaN,
#: infinity, a bool, a numeric string and an integer too large for a float.
BAD_WEIGHTS = [
    (1.5, -0.5), (0.6, 0.5), (math.nan, 0.5), (math.inf, 0.5), (True, 0.0), ("0.5", 0.5),
    (10**400, 0.5),
]

BAD_REALS = ["x", True, math.nan, -1, 10**400]

RHO = sample("density_hs", (2, 2, 2), 1, rank=2)
AB = sample("density_hs", (2, 2), 1)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
LAYOUT = layout(("A", 2, "alice"), ("B", 2, "bob"), ("E", 1, "eve"))
GROUPS = WitnessGroups(("A",), (), ("B",), (), ("E",), ())
MEMBERS = np.eye(4, dtype=complex)[[0, 3]]
SINGLE = Witness(LAYOUT, GROUPS, (1.0,), MEMBERS[:1])
MARKOV = zoo("markov_random", {"entries": 2}, seed=7)


def _components(weights):
    return MarkovComponents(tuple(replace(e, p=p) for e, p in zip(MARKOV.entries, weights)))


#: entry point -> (call with two weights, its error class, the field named)
DISTRIBUTIONS = {
    "witness": (lambda w: Witness(LAYOUT, GROUPS, w, MEMBERS), InvariantViolation, "weights"),
    "witness_mix": (
        lambda w: witness_mix([(p, SINGLE) for p in w]),
        InvariantViolation,
        "mixture weights",
    ),
    "markov_components": (_components, BadProbabilities, "weights"),
    "esqc_objective": (lambda w: esqc_objective(w, (AB, AB)), BadEnsemble, "weights"),
    "check_ensemble": (lambda w: check_ensemble(w, (AB, AB), AB), BadEnsemble, "weights"),
    "mixing": (lambda w: ChannelMap.mixing([np.eye(2), SX], w), BadProbabilities, "probs"),
}

#: entry point -> (call with the bad value, its error class, the field named)
REALS = {
    "search_config": (lambda v: SearchConfig(tol=v), BadRange, "tol"),
    "markov_score": (lambda v: markov_score(RHO, tol=v), BadRange, "tol"),
    "continuity_bound": (lambda v: continuity_bound(v, 2, 2), BadRange, "eps"),
}


@pytest.mark.parametrize("weights", BAD_WEIGHTS, ids=repr)
@pytest.mark.parametrize("entry", sorted(DISTRIBUTIONS))
def test_distribution_refuses_naming_the_field(entry, weights):
    call, error, name = DISTRIBUTIONS[entry]
    with pytest.raises(error, match=re.escape(f"{name} must be nonnegative and sum to 1: ")):
        call(weights)


@pytest.mark.parametrize("value", BAD_REALS, ids=repr)
@pytest.mark.parametrize("entry", sorted(REALS))
def test_real_refuses_naming_the_field(entry, value):
    call, error, name = REALS[entry]
    with pytest.raises(error, match=f"^{name} must be a finite real >= "):
        call(value)


def test_mixing_refuses_unpaired_probs():
    # zip would drop the second unitary and build the identity channel.
    with pytest.raises(DimensionMismatch, match="probs"):
        ChannelMap.mixing([np.eye(2), SX], [1.0])


def test_check_ensemble_refuses_unpaired_states():
    # zip would drop the second state and compare AB with itself.
    with pytest.raises(BadEnsemble, match="pair up"):
        check_ensemble((1.0,), (AB, AB), AB)


def test_string_mixture_weight_names_the_field():
    with pytest.raises(InvariantViolation, match="mixture weights must be nonnegative"):
        witness_mix([("x", SINGLE)])


def test_message_names_the_bad_weight_or_the_sum():
    with pytest.raises(BadProbabilities) as err:
        require_distribution("weights", (1.5, -0.5))
    assert str(err.value) == (
        "weights must be nonnegative and sum to 1: "
        "weight 1 must be a finite real >= -1e-10, got -0.5"
    )
    with pytest.raises(BadProbabilities, match=r"^p must .* sum to 1: they sum to 1\.1$"):
        require_distribution("p", (0.6, 0.5))


def test_rules_return_python_floats_within_tolerance():
    weights = require_distribution("weights", np.array([1.0 + WEIGHT_TOL / 2, -WEIGHT_TOL / 2]))
    assert weights == (1.0 + WEIGHT_TOL / 2, -WEIGHT_TOL / 2)
    assert all(type(p) is float for p in weights)
    value = require_real("tol", np.float32(0.5), 0)
    assert value == 0.5 and type(value) is float
    assert require_real("tol", 0, 0) == 0.0
    # Below the tolerance a negative weight is refused, whatever the sum.
    with pytest.raises(BadProbabilities, match="weight 1"):
        require_distribution("weights", (1.0 + 2 * WEIGHT_TOL, -2 * WEIGHT_TOL))
    # Tiny negative weights are admitted, and mixing clamps them at 0.
    channel = ChannelMap.mixing([np.eye(2), SX], [1.0 + WEIGHT_TOL / 2, -WEIGHT_TOL / 2])
    assert np.abs(channel.kraus[1]).max() == 0.0


#: The tolerances a reduction check must refuse: NaN, a negative value, a
#: numeric string and a bool.
BAD_TOLS = [math.nan, -1, "1e-9", True]

#: reduction check -> its call with the given ``tol``
REDUCTION_CHECKS = {
    "check_witness": lambda v: check_witness(SINGLE, SINGLE.target(), tol=v),
    "check_ensemble": lambda v: check_ensemble((1.0,), (AB,), AB, tol=v),
}


@pytest.mark.parametrize("value", BAD_TOLS, ids=repr)
@pytest.mark.parametrize("entry", sorted(REDUCTION_CHECKS))
def test_reduction_check_refuses_bad_tol(entry, value):
    with pytest.raises(BadRange, match="^tol must be a finite real >= "):
        REDUCTION_CHECKS[entry](value)
