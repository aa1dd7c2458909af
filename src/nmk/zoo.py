"""Named generators for the example states, component families and
protocols used throughout the tests, docs and CLI.

The catalog is data-driven: ``zoo_manifest.json`` is the single source of
truth for entry names, default parameters and documented half-CQMI values;
the builders here are keyed by those names.  Everything is deterministic
per (name, params, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from .errors import BadParams, UnknownName
from .markov import MarkovComponents, MarkovEntry
from .rand import as_rng, sample
from .registers import Party, RegisterLayout, layout, require_integer
from .states import ChannelMap, DensityState, tensor
from .steps import Scenario, Step, StepKind, _copy_label


@dataclass(frozen=True)
class ZooScript:
    """A protocol: the steps to run and, when bundled, the scenario they start
    from and the half-CQMI expected after them (each None when a script file
    carries none)."""

    name: str
    scenario: Scenario | None
    steps: tuple[Step, ...]
    expected_m_i: float | None


def manifest() -> dict:
    with resources.files("nmk").joinpath("zoo_manifest.json").open("r") as fh:
        return json.load(fh)


def catalog_names() -> list[str]:
    return [entry["name"] for entry in manifest()["entries"]]


def _basis_density(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return m


def _abe_layout(d_a=2, d_b=2, d_e=2) -> RegisterLayout:
    return layout(("A", d_a, "alice"), ("B", d_b, "bob"), ("E", d_e, "eve"))


def _dummy(_params, _seed) -> DensityState:
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 1.0
    return DensityState(_abe_layout(), m)


def _ghz_diag(_params, _seed) -> DensityState:
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 0.5
    m[7, 7] = 0.5
    return DensityState(_abe_layout(), m)


def _bell_matrix() -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            m[i, j] = 0.5
    return m


def _bell_e0(_params, _seed) -> DensityState:
    ab = DensityState(layout(("A", 2, "alice"), ("B", 2, "bob")), _bell_matrix())
    e = DensityState(layout(("E", 2, "eve")), _basis_density(2))
    return tensor(ab, e)


def _classical_corr_e0(_params, _seed) -> DensityState:
    ab = DensityState(
        layout(("A", 2, "alice"), ("B", 2, "bob")), np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    )
    e = DensityState(layout(("E", 2, "eve")), _basis_density(2))
    return tensor(ab, e)


def _dims(params) -> tuple[int, ...]:
    """``params["dims"]``, a list of integers, as a tuple of ints."""
    dims = params["dims"]
    if not isinstance(dims, (list, tuple)):
        raise BadParams(f"dims must be a list of integers, got {dims!r}")
    return tuple(require_integer("dims", d, 1, BadParams) for d in dims)


def _markov_random(params, seed) -> MarkovComponents:
    rng = as_rng(seed)
    n, d_a, d_b, d_el, d_er = (
        require_integer(key, params[key], 1, BadParams)
        for key in ("entries", "d_a", "d_b", "d_el", "d_er")
    )
    probs = rng.dirichlet(np.ones(n))
    sig_lay = layout(("A", d_a, "alice"), ("EL", d_el, "eve"))
    tau_lay = layout(("B", d_b, "bob"), ("ER", d_er, "eve"))
    entries = []
    for j in range(n):
        sig = sample("density_hs", (d_a, d_el), rng, layout=sig_lay)
        tau = sample("density_hs", (d_b, d_er), rng, layout=tau_lay)
        entries.append(MarkovEntry(float(probs[j]), sig, tau))
    return MarkovComponents(tuple(entries))


def _hs_random(params, seed) -> DensityState:
    rank = params.get("rank")
    rank = None if rank is None else require_integer("rank", rank, 1, BadParams)
    return sample("density_hs", _dims(params), seed, rank=rank)


def _pure_random(params, seed) -> DensityState:
    return sample("pure", _dims(params), seed).to_density()


def _script_irreversible_e() -> ZooScript:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    mix = ChannelMap.mixing([np.eye(2), sx], [0.5, 0.5])
    return ZooScript(
        "nonfree_script:irreversible_e",
        Scenario(_ghz_diag(None, None)),
        (Step(StepKind.REVERSIBLE_E, channel=mix, on=("E",), bypass=True),),
        expected_m_i=0.5,
    )


def _script_quantum_down(to: str) -> ZooScript:
    # A spectator qubit at the receiver, one Bell half at Eve.
    other = "B" if to == "alice" else "A"
    own = "A1" if to == "alice" else "B1"
    lay = layout(
        (own, 2, to),
        (other, 2, "bob" if to == "alice" else "alice"),
        ("E1", 2, "eve"),
        ("E", 2, "eve"),
    )
    vec = np.zeros(16, dtype=complex)
    # |0>_own (|00> + |11>)/sqrt(2)_{other,E1} |0>_E
    vec[0b0000] = vec[0b0110] = 1 / math.sqrt(2)
    state = DensityState(lay, np.outer(vec, vec.conj()))
    steps = (
        Step(StepKind.QUANTUM_FROM_E, register="E1", to=to),
        Step(StepKind.LOCAL_A if to == "alice" else StepKind.LOCAL_B, discard=(own,)),
    )
    return ZooScript(f"nonfree_script:quantum_e_to_{to[0]}", Scenario(state), steps, 1.0)


def _script_secret_ab() -> ZooScript:
    coin = [np.eye(2) / math.sqrt(2)] * 2
    cx = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    ja, jb = _copy_label("J", Party.ALICE), _copy_label("J", Party.BOB)
    steps = (
        Step(StepKind.SECRET_AB, operators=coin, on=("A",), msg_label="J", sender="alice"),
        Step(StepKind.LOCAL_A, channel=ChannelMap((cx,)), on=(ja, "A")),
        Step(StepKind.LOCAL_B, channel=ChannelMap((cx,)), on=(jb, "B")),
        Step(StepKind.LOCAL_A, discard=(ja,)),
        Step(StepKind.LOCAL_B, discard=(jb,)),
    )
    return ZooScript("nonfree_script:secret_ab", Scenario(_dummy(None, None)), steps, 0.5)


def _script_quantum_ab() -> ZooScript:
    lay = layout(("A", 2, "alice"), ("Q", 2, "alice"), ("B0", 2, "bob"), ("E", 2, "eve"))
    bell = DensityState(layout(("A", 2, "alice"), ("Q", 2, "alice")), _bell_matrix())
    rest = DensityState(
        layout(("B0", 2, "bob"), ("E", 2, "eve")), np.kron(_basis_density(2), _basis_density(2))
    )
    state = tensor(bell, rest).permuted(lay.labels)
    steps = (
        Step(StepKind.QUANTUM_AB, register="Q", to="bob"),
        Step(StepKind.LOCAL_B, discard=("B0",)),
    )
    return ZooScript("nonfree_script:quantum_ab", Scenario(state), steps, 1.0)


def _nonfree_script(params, _seed) -> ZooScript:
    cls = str(params["cls"])
    builders = {
        "irreversible_e": _script_irreversible_e,
        "quantum_e_to_a": lambda: _script_quantum_down("alice"),
        "quantum_e_to_b": lambda: _script_quantum_down("bob"),
        "secret_ab": _script_secret_ab,
        "quantum_ab": _script_quantum_ab,
    }
    if cls not in builders:
        raise BadParams(f"unknown script class {cls!r}; pick one of {sorted(builders)}")
    return builders[cls]()


_BUILDERS = {
    "dummy": _dummy,
    "ghz_diag": _ghz_diag,
    "bell_e0": _bell_e0,
    "classical_corr_e0": _classical_corr_e0,
    "markov_random": _markov_random,
    "hs_random": _hs_random,
    "pure_random": _pure_random,
    "nonfree_script": _nonfree_script,
}


def zoo(name: str, params: dict | None = None, seed=0):
    """Build a catalog entry; returns a DensityState, MarkovComponents or
    ZooScript depending on the entry kind.  ``seed`` (or a ``seed``
    parameter) is an integer >= 0 or a numpy ``Generator``."""
    entries = {e["name"]: e for e in manifest()["entries"]}
    if name not in entries:
        raise UnknownName(f"no zoo entry named {name!r}; have {sorted(entries)}")
    merged = dict(entries[name]["params"])
    for key, value in (params or {}).items():
        if key == "seed":
            seed = value
            continue
        if key not in merged:
            raise BadParams(f"entry {name!r} takes no parameter {key!r}")
        merged[key] = value
    if not isinstance(seed, np.random.Generator):
        seed = require_integer("seed", seed, 0, BadParams)
    try:
        return _BUILDERS[name](merged, seed)
    except (ValueError, TypeError) as exc:
        raise BadParams(f"bad parameters for {name!r}: {exc}") from exc


def parse_zoo_ref(ref: str):
    """Parse ``zoo:name?param=value&...`` into (name, params).

    Values are coerced to int or float when they parse as one; ``dims``
    style comma lists become lists.  A blank value is kept as ``""``, so
    the builder rejects it instead of falling back to the default.
    """
    if not ref.startswith("zoo:"):
        raise UnknownName(f"not a zoo reference: {ref!r}")
    rest = ref[len("zoo:") :]
    split = urlsplit("//x/" + rest)
    name = rest.split("?", 1)[0]
    params = {}
    for key, value in parse_qsl(split.query, keep_blank_values=True):
        if "," in value:
            params[key] = [_coerce(v) for v in value.split(",")]
        else:
            params[key] = _coerce(value)
    return name, params


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value
