import numpy as np
import pytest

from nmk import DensityState, MarkovComponents, build_markov, nonmarkovianity, run_script, zoo
from nmk.errors import BadParams, UnknownName
from nmk.zoo import ZooScript, catalog_names, manifest, parse_zoo_ref


def test_catalog_matches_manifest():
    assert set(catalog_names()) == {
        "dummy",
        "ghz_diag",
        "bell_e0",
        "classical_corr_e0",
        "markov_random",
        "hs_random",
        "pure_random",
        "nonfree_script",
    }


def test_documented_m_i_values_match_computation():
    for entry in manifest()["entries"]:
        target = entry["m_i"]
        if target is None:
            continue
        obj = zoo(entry["name"], seed=0)
        if isinstance(obj, MarkovComponents):
            obj = build_markov(obj)
        assert abs(nonmarkovianity(obj) - target) < 1e-9, entry["name"]


def test_script_entries_reach_expected_values():
    for cls in ("irreversible_e", "quantum_e_to_a", "quantum_e_to_b", "secret_ab", "quantum_ab"):
        zs = zoo("nonfree_script", {"cls": cls})
        assert isinstance(zs, ZooScript)
        run = run_script(zs.scenario, zs.steps)
        assert abs(nonmarkovianity(run.final.state) - zs.expected_m_i) < 1e-9, cls


def test_deterministic_per_seed():
    a = zoo("hs_random", {"dims": [2, 2, 2]}, seed=5)
    b = zoo("hs_random", {"dims": [2, 2, 2]}, seed=5)
    c = zoo("hs_random", {"dims": [2, 2, 2]}, seed=6)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert np.max(np.abs(a.matrix - c.matrix)) > 1e-6


def test_markov_random_builds_markov():
    mc = zoo("markov_random", {"entries": 3}, seed=2)
    assert isinstance(mc, MarkovComponents)
    assert nonmarkovianity(build_markov(mc)) < 1e-10


def test_rank_limited_random():
    rho = zoo("hs_random", {"dims": [2, 2], "rank": 1}, seed=1)
    vals = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(vals > 1e-10) == 1


def test_unknown_name_and_bad_params():
    with pytest.raises(UnknownName):
        zoo("no_such_state")
    with pytest.raises(BadParams):
        zoo("ghz_diag", {"dims": [2]})
    with pytest.raises(BadParams):
        zoo("nonfree_script", {"cls": "bogus"})


@pytest.mark.parametrize(
    "ref, name",
    [
        ("zoo:hs_random?dims=2.5,2,2", "dims"),
        ("zoo:hs_random?dims=2,,2", "dims"),
        ("zoo:hs_random?dims=", "dims"),
        ("zoo:hs_random?dims=2,2&rank=1.5", "rank"),
        ("zoo:pure_random?dims=2,x", "dims"),
        ("zoo:markov_random?entries=2.0", "entries"),
        ("zoo:markov_random?d_a=", "d_a"),
    ],
)
def test_non_integer_params_are_named_not_truncated(ref, name):
    with pytest.raises(BadParams, match=name):
        zoo(*parse_zoo_ref(ref))


def test_parse_ref_forms():
    assert parse_zoo_ref("zoo:dummy") == ("dummy", {})
    name, params = parse_zoo_ref("zoo:hs_random?dims=2,2,4&rank=3&seed=9")
    assert name == "hs_random"
    assert params == {"dims": [2, 2, 4], "rank": 3, "seed": 9}
    name, params = parse_zoo_ref("zoo:nonfree_script?cls=secret_ab")
    assert params == {"cls": "secret_ab"}
    with pytest.raises(UnknownName):
        parse_zoo_ref("not_a_ref")


def test_seed_param_in_ref_is_honored():
    a = zoo("pure_random", {"dims": [2, 2]}, seed=3)
    name, params = parse_zoo_ref("zoo:pure_random?dims=2,2&seed=3")
    b = zoo(name, params, seed=params.pop("seed"))
    assert isinstance(a, DensityState) and isinstance(b, DensityState)
    np.testing.assert_array_equal(a.matrix, b.matrix)
