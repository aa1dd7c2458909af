"""JSON codecs for states, components, scripts and reports, and a writer
for witnesses.

Reports reach JSON through one rule, :func:`jsonable`: a record (a
dataclass such as ``EntropyReport``, ``MarkovScore`` or ``CostLedger``)
becomes the dict of its fields, so a record has no ``to_dict`` of its own
and a new field is emitted without further code.

State files carry the register list and the matrix split into real and
imaginary parts, row-major in register order.  Readers re-validate every
invariant; a violation surfaces as :class:`~nmk.errors.InvariantViolation`
whose message names the failed invariant.  A malformed payload (a missing
key, a party name that is not exactly ``alice``, ``bob``, ``eve`` or
``reference``, a wrong JSON type: a flag not ``true``/``false``, a weight or
matrix entry not a number, a ragged matrix) raises
:class:`~nmk.errors.BadParams` naming the field.  A script step is read
field by field through one table of (encode, decode) pairs; its kind, the
fields its row of ``steps.KINDS`` allows and its parties are checked by
:class:`~nmk.steps.Step` when it is built, as for a step built in Python,
and a name passes ``registers.require_member`` there, not here.
"""

from __future__ import annotations

from dataclasses import asdict, fields, is_dataclass

import numpy as np

from .errors import BadParams
from .markov import MarkovComponents, MarkovEntry
from .registers import Register, RegisterLayout
from .states import ChannelMap, DensityState
from .steps import Step
from .witness import Witness


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m)
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _boolean(name: str, value) -> bool:
    """``value`` if it is JSON true or false; else BadParams naming ``name``."""
    if not isinstance(value, bool):
        raise BadParams(f"{name} must be true or false, got {value!r}")
    return value


def _real(name: str, value) -> float:
    """``value`` as a float if it is a JSON number (not a bool); else BadParams naming ``name``."""
    if type(value) not in (int, float):
        raise BadParams(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise BadParams(f"{name} is too large for a float: {len(str(abs(value)))} digits") from None


def matrix_from_json(d: dict) -> np.ndarray:
    """The matrix of ``{"re": ..., "im": ...}``: nested lists of ``_real`` numbers of one shape.

    Each type among the entries is checked once, with one of its entries.
    The matrix is assembled part by part as ``re + 1j * im`` would be, zero
    signs included, but without the product, which warns on an infinity."""
    try:
        re, im = (np.array(d[part], dtype=object) for part in ("re", "im"))
        for x in {type(x): x for a in (re, im) for x in a.flat}.values():
            _real("matrix entry", x)
        re, im = re.astype(float), im.astype(float)
    except (KeyError, OverflowError, RuntimeError, TypeError, ValueError) as exc:
        raise BadParams(f"malformed matrix payload: {exc}") from exc
    if not re.shape or re.shape != im.shape:
        raise BadParams(f"malformed matrix payload: 're' has shape {re.shape}, 'im' {im.shape}")
    m = np.empty(re.shape, dtype=complex)
    m.real, m.imag = re + np.copysign(0.0, im), im + 0.0
    return m


def layout_to_json(layout: RegisterLayout) -> list:
    return [
        {"label": r.label, "dim": r.dim, "party": r.party.value} for r in layout.registers
    ]


def layout_from_json(items) -> RegisterLayout:
    try:
        regs = tuple(Register(it["label"], it["dim"], it["party"]) for it in items)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParams(f"malformed register list: {exc}") from exc
    return RegisterLayout(regs)


def state_to_json(state: DensityState) -> dict:
    return {"registers": layout_to_json(state.layout), "matrix": matrix_to_json(state.matrix)}


def state_from_json(d: dict) -> DensityState:
    if not isinstance(d, dict) or "registers" not in d or "matrix" not in d:
        raise BadParams("state payload needs 'registers' and 'matrix'")
    return DensityState(layout_from_json(d["registers"]), matrix_from_json(d["matrix"]))


def components_to_json(c: MarkovComponents) -> dict:
    return {
        "entries": [
            {"p": e.p, "sigma": state_to_json(e.sigma), "tau": state_to_json(e.tau)}
            for e in c.entries
        ]
    }


def components_from_json(d: dict) -> MarkovComponents:
    try:
        entries = tuple(
            MarkovEntry(_real("p", it["p"]), *map(state_from_json, (it["sigma"], it["tau"])))
            for it in d["entries"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParams(f"malformed components payload: {exc}") from exc
    return MarkovComponents(entries)


def witness_to_json(w: Witness) -> dict:
    return {
        "registers": layout_to_json(w.layout),
        "groups": {role: list(group) for role, group in asdict(w.groups).items()},
        "weights": list(w.weights),
        "members": [matrix_to_json(m) for m in w.members],
        "k_label": w.k_label,
        "ext_dims": w.ext_dims,
        "flag_is_classical": True,
    }


def channel_to_json(c: ChannelMap) -> dict:
    return {"kraus": [matrix_to_json(k) for k in c.kraus]}


def channel_from_json(d: dict) -> ChannelMap:
    """The channel of ``{"kraus": [...]}``; the other keys an older file
    writes beside ``"kraus"``, such as its inverse, are ignored."""
    return ChannelMap(tuple(matrix_from_json(k) for k in d["kraus"]))


def step_to_json(step: Step) -> dict:
    out = {"kind": step.kind.value}
    for key, (encode, _) in _STEP_FIELDS.items():
        value = getattr(step, key)
        if value not in (None, (), False):  # a field at its default is left out
            out[key] = encode(value)
    return out


def step_from_json(d: dict) -> Step:
    """A step from its JSON form; ``Step`` checks its kind and the payload
    its kind allows.  A malformed field raises BadParams naming it."""
    if not isinstance(d, dict):
        raise BadParams(f"a step must be a JSON object, got {d!r}")
    payload = {}
    for key, (_, decode) in _STEP_FIELDS.items():
        if d.get(key) is None:
            continue
        try:
            payload[key] = decode(d[key])
        except (AttributeError, BadParams, KeyError, TypeError, ValueError) as exc:
            raise BadParams(f"malformed step field {key!r}: {exc}") from exc
    return Step(d.get("kind"), **payload)


def _label(item) -> str:
    if not isinstance(item, str):
        raise TypeError(f"expected a register label, got {item!r}")
    return item


def _labels(items) -> tuple[str, ...]:
    if not isinstance(items, list):
        raise TypeError(f"expected a list of register labels, got {items!r}")
    return tuple(map(_label, items))


#: (encode, decode) for each payload field of a step, in field order.
_STEP_FIELDS = {
    "channel": (channel_to_json, channel_from_json),
    "on": (list, _labels),
    "out": (
        lambda regs: layout_to_json(RegisterLayout(regs)),
        lambda items: layout_from_json(items).registers,
    ),
    "discard": (list, _labels),
    "register": (str, _label),
    "to": (lambda party: party.value, lambda name: name),
    "operators": (
        lambda ms: [matrix_to_json(m) for m in ms],
        lambda ms: tuple(map(matrix_from_json, ms)),
    ),
    "msg_label": (str, _label),
    "sender": (lambda party: party.value, lambda name: name),
    "bypass": (bool, lambda value: _boolean("bypass", value)),
}


def script_to_json(steps) -> dict:
    return {"steps": [step_to_json(s) for s in steps]}


def script_from_json(d: dict) -> tuple[Step, ...]:
    if not isinstance(d.get("steps"), list):
        raise BadParams("script payload needs a 'steps' array")
    return tuple(step_from_json(it) for it in d["steps"])


def jsonable(obj):
    """``obj`` in a form ``json.dumps`` takes: the one rule that turns a
    record into JSON.  A dataclass instance becomes the dict of its fields,
    so ``dataclasses.fields`` decides what is emitted; dicts, lists and
    tuples are converted item by item, and numpy booleans, numbers and
    arrays become their Python values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return str(obj)
