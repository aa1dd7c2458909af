"""Command-line interface.

A subcommand returns a :class:`Run`; ``main`` owns the clock, the report
(the JSON ``result`` on stdout, a ``meta`` line and a short human summary
on stderr) and the exit code.  :func:`load_ref` decides what kind of
reference each command accepts, and ``_emit`` writes every file, before
the report.  A seeded run reports its seed: ``nmf``, ``esqc`` and
``fuzz`` draw and print a fresh one without ``--seed``, so the run stays
replayable; ``zoo build`` seeds an entry from its ``seed=`` parameter or
``--seed`` (default 0) and draws none.
The ``result`` object of a report is byte-identical across repeated runs
with the same inputs and seed; wall times live under ``meta``.

Exit codes: 0 success, 1 invariant violation found (fuzz), 2 input or
validation error (an output file that cannot be written included, and a
flag below the state's rank), 3 dimension-budget error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .csquashed import EsqcConfig, estimate_esqc, extension_crosscheck
from .entropy import entropy_report
from .errors import BadParams, BudgetExceeded, NmkError
from .fuzz import SUITES
from .markov import MarkovComponents, build_markov, markov_score
from .nmf import EstimateConfig, estimate
from .registers import require_integer, require_real
from .serialize import (
    components_from_json,
    components_to_json,
    jsonable,
    layout_to_json,
    script_from_json,
    script_to_json,
    state_from_json,
    state_to_json,
    witness_to_json,
)
from .states import DensityState
from .steps import Scenario, run_script
from .zoo import ZooScript, catalog_names, manifest, parse_zoo_ref, zoo


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadParams(f"cannot read {path}: {exc}") from exc
    except (RecursionError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or digit count
        raise BadParams(f"{path} is not valid JSON: {exc}") from exc


#: The kinds a reference may resolve to, as an error names them.
_KINDS = {DensityState: "a state", MarkovComponents: "block components", ZooScript: "a script"}


def load_ref(ref: str, kind: type | None = None):
    """Resolve ``ref``, a zoo URI or a JSON file, to one of ``_KINDS``; given ``kind``,
    to that one (block components stand for the state ``build_markov`` makes of
    them), or BadParams names ``ref`` and ``kind``.  A script file reads as a
    ``ZooScript`` whose scenario is the ``state`` it carries, or None."""
    if ref.startswith("zoo:"):
        obj = zoo(*parse_zoo_ref(ref))
    else:
        payload = _load_json(ref)
        if not isinstance(payload, dict):
            raise BadParams(f"{ref}: expected a JSON object, got {type(payload).__name__}")
        if "registers" in payload:
            obj = state_from_json(payload)
        elif "entries" in payload:
            obj = components_from_json(payload)
        elif "steps" in payload:
            state, expected = payload.get("state"), payload.get("expected_m_i")
            scenario = None if state is None else Scenario(state_from_json(state))
            if expected is not None:
                expected = require_real("expected_m_i", expected, 0.0, BadParams)
            obj = ZooScript(ref, scenario, script_from_json(payload), expected)
        else:
            raise BadParams(f"{ref}: unrecognized payload (no registers/entries/steps key)")
    if kind is DensityState and isinstance(obj, MarkovComponents):
        obj = build_markov(obj)
    if kind and not isinstance(obj, kind):
        raise BadParams(f"{ref} does not resolve to {_KINDS[kind]}")
    return obj


def _seed_of(args) -> int:
    if args.seed is None:
        seed = int.from_bytes(os.urandom(4), "big") % 2**31
        print(f"seed not given; drew {seed}", file=sys.stderr)
        return seed
    return args.seed


class Run(NamedTuple):
    """A subcommand's report: ``result`` for stdout, ``summary`` lines and its own
    ``meta`` counts for stderr, exit ``code``, and ``files``, each path's JSON payload."""

    result: dict
    summary: list
    meta: dict = {}
    code: int = 0
    files: dict = {}


def _emit(run: Run, started: float, args) -> None:
    # Files go first, so a run whose file cannot be written prints no report.
    if getattr(args, "csv", None):
        _write_csv(args.csv, run.result)
    for path, payload in run.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(jsonable(payload), sort_keys=True))
    print(json.dumps(jsonable(run.result), sort_keys=True, indent=2))
    meta = {"wall_time_s": time.time() - started, "version": __version__, **run.meta}
    print(json.dumps({"meta": meta}, sort_keys=True), file=sys.stderr)
    for line in run.summary:
        print(line, file=sys.stderr)


def _write_csv(path: str, result: dict) -> None:
    rows = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in sorted(obj.items()):
                walk(f"{prefix}{k}." if prefix else f"{k}.", v)
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(f"{prefix}{i}.", v)
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            rows.append((prefix.rstrip("."), obj))

    walk("", jsonable(result))
    with open(path, "w") as fh:
        fh.writelines(["key,value\n", *(f"{key},{value}\n" for key, value in rows)])


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> Run:
    state = load_ref(args.state, DensityState)
    groups = _partition_args(args)
    report = entropy_report(state, *groups)
    score = markov_score(state, *groups, tol=args.tol)
    result = {
        "command": "analyze",
        "input": args.state,
        "entropy": report,
        "markov": _markov_section(score),
    }
    verdict = "markov" if score.verdict else "non-markov"
    return Run(result, [f"M_I = {report.m_i_bits:.9f} bits; verdict: {verdict}"])


def _markov_section(score) -> dict:
    """A ``MarkovScore``'s fields and the advisory note on its verdict."""
    note = "verdict decided by the cqmi threshold; fidelity is diagnostic"
    return {**jsonable(score), "note": note}


def _partition_args(args):
    """The ``--alice/--bob/--eve`` groups, or the entropy routines' default."""
    groups = (args.alice, args.bob, args.eve)
    if any(groups):
        return tuple(tuple(g.split(",")) if g else () for g in groups)
    return (None, None, None)


def cmd_nmf(args) -> Run:
    state, config = _search_inputs(EstimateConfig, args)
    est = estimate(state, config)
    result = _bracket_report("nmf", args, est, witness=witness_to_json(est.best))
    return Run(result, [_bracket_line(est)], _search_meta(est))


def _bracket_report(command: str, args, est, **extra) -> dict:
    """The result keys every bracket search reports, then ``extra``."""
    return {
        "command": command,
        "input": args.state,
        "seed": est.config["seed"],
        "config": est.config,
        "lower_bits": est.lower_bits,
        "upper_bits": est.upper_bits,
        "gap": est.gap,
        "certified": est.certified,
        "trace": est.trace,
        "notes": est.notes,
        **extra,
    }


def _bracket_line(est) -> str:
    flag = "" if est.certified else "  [UNCERTIFIED: bracket gap above tol]"
    return f"bracket [{est.lower_bits:.6f}, {est.upper_bits:.6f}] bits{flag}"


def _search_meta(est) -> dict:
    """The search counts of an estimate, for stderr ``meta``: evaluations,
    the winner's gradient norm and the rounds run (skipped ones not
    counted)."""
    return {
        "evals": est.notes["evals"],
        "grad_norm": est.notes["grad_norm"],
        "rounds": sum("best" in r for r in est.notes["rounds"]),
    }


def cmd_esqc(args) -> Run:
    state, config = _search_inputs(EsqcConfig, args)
    est = estimate_esqc(state, config)
    ensemble = [state_to_json(s) for s in est.ensemble]
    result = _bracket_report("esqc", args, est, weights=list(est.weights), ensemble=ensemble)
    lines = [_bracket_line(est)]
    if args.crosscheck:
        rep = extension_crosscheck(state, config)
        result["msq_upper_bits"] = rep.msq_ub
        result["crosscheck"] = rep
        lines.append(f"extension crosscheck gap {rep.gap:.6f} bits")
    return Run(result, lines, _search_meta(est))


def cmd_markov_build(args) -> Run:
    state = build_markov(load_ref(args.components, MarkovComponents))
    score = markov_score(state)
    result = {
        "command": "markov-build",
        "input": args.components,
        "state": state_to_json(state),
        "markov": _markov_section(score),
    }
    files = {args.out: result["state"]} if args.out else {}
    return Run(result, [f"built dim {state.dim}; cqmi = {score.cqmi_bits:.3e}"], files=files)


def cmd_script(args) -> Run:
    script = load_ref(args.script, ZooScript)
    if (script.scenario is None) == (args.state is None):
        need = "no state; give a" if script.scenario is None else "its own state; give no"
        raise BadParams(f"{args.script} carries {need} state reference")
    scenario = script.scenario or Scenario(load_ref(args.state, DensityState))
    before = entropy_report(scenario.block_state)
    run = run_script(scenario, script.steps)
    final = run.final.block_state
    after = entropy_report(final)
    result = {
        "command": "script",
        "input": args.script,
        "classification": run.classification.value,
        "ledger": run.final.ledger,
        "steps_applied": len(run.step_ledgers),
        "before": before,
        "after": after,
        "final_registers": layout_to_json(final.layout),
    }
    # Densified only for --out: the blocks alone may fit where the state does not.
    files = {args.out: state_to_json(run.final.state)} if args.out else {}
    ledger = run.final.ledger
    summary = (
        f"class {run.classification.value}; Qc = {ledger.qc_bits} bits, "
        f"C_down = {ledger.cdown_bits} bits; M_I {before.m_i_bits:.6f} -> {after.m_i_bits:.6f}"
    )
    meta = {"blocks": len(final.blocks), "max_block_dim": final.max_block_dim}
    return Run(result, [summary], meta, files=files)


def cmd_fuzz(args) -> Run:
    seed = _seed_of(args)
    report = SUITES[args.suite](args.trials, seed, jobs=args.jobs)
    result = {
        "command": "fuzz",
        "suite": args.suite,
        "seed": seed,
        "trials": report.trials,
        "passes": report.passes,
        "failure_count": len(report.failures),
        "notes": report.notes,
    }
    files = {
        str(Path(args.counterexample_dir) / f"counterexample_{args.suite}_{i}.json"): failure
        for i, failure in enumerate(report.failures)
    }
    result["counterexample_files"] = list(files)
    verdict = "" if report.ok else "; VIOLATIONS FOUND"
    summary = f"{report.passes}/{report.trials} checks passed{verdict}"
    return Run(result, [summary], code=0 if report.ok else 1, files=files)


def cmd_zoo(args) -> Run:
    if args.action == "list":
        result = {"command": "zoo", "action": "list", "catalog": manifest()["entries"]}
        return Run(result, [f"{len(catalog_names())} entries"])
    if not args.name:
        raise BadParams("zoo build needs an entry name")
    name, params = parse_zoo_ref(args.name) if args.name.startswith("zoo:") else (args.name, {})
    seed = params.pop("seed", args.seed or 0)
    obj = zoo(name, params, seed=seed)
    if isinstance(obj, DensityState):
        payload = state_to_json(obj)
    elif isinstance(obj, MarkovComponents):
        payload = components_to_json(obj)
    else:
        payload = {
            **script_to_json(obj.steps),
            "state": state_to_json(obj.scenario.state),
            "expected_m_i": obj.expected_m_i,
        }
    result = {"command": "zoo", "action": "build", "name": name, "seed": seed, "payload": payload}
    files = {args.out: payload} if args.out else {}
    return Run(result, [f"built zoo entry {name}"], files=files)


# ---------------------------------------------------------------------------


def _integer_flag(name: str, text: str, low: int) -> int:
    """The integer ``text`` spells, refused by ``require_integer`` (naming
    ``name``) when it spells none or one below ``low``."""
    try:
        value = int(text)
    except ValueError:
        value = text
    return require_integer(name, value, low, argparse.ArgumentTypeError)


def ext_dims(text: str) -> tuple[int, ...]:
    return tuple(_integer_flag("ext", x, 1) for x in text.split(","))


def _common(p, seeded=True) -> None:
    p.add_argument("--csv", help="also write flattened numeric results to this CSV file")
    if seeded:
        p.add_argument("--seed", type=partial(_integer_flag, "seed", low=0), default=None)


def _search_parser(sub, name: str, config_cls, summary: str) -> argparse.ArgumentParser:
    """A subcommand running the restart search: one flag per field of
    ``config_cls`` but ``seed`` (which ``--seed`` gives), with the field's
    name, default and ``help``; an integer field's floor is its ``MINIMA``."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("state")
    minima = {"k": 1, **config_cls.MINIMA}
    for f in fields(config_cls):
        if f.name != "seed":
            parse = {"tol": float, "ext": ext_dims}.get(f.name)
            parse = parse or partial(_integer_flag, f.name, low=minima[f.name])
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, type=parse, default=f.default, help=f.metadata.get("help"))
    _common(p)
    return p


def _search_inputs(config_cls, args):
    """The state the search runs on, and a ``config_cls`` read from the flags
    named after its fields and the seed of ``_seed_of``."""
    state = load_ref(args.state, DensityState)
    values = {f.name: getattr(args, f.name) for f in fields(config_cls) if f.name != "seed"}
    return state, config_cls(**values, seed=_seed_of(args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmk",
        description="Non-Markovianity measures and free-operation simulation "
        "for tripartite quantum states",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="entropic report and Markov verdict for a state")
    p.add_argument("state", help="state file or zoo:name?params reference")
    p.add_argument("--alice", help="comma-separated register labels for the A group")
    p.add_argument("--bob")
    p.add_argument("--eve")
    p.add_argument("--tol", type=float, default=1e-8)
    _common(p, seeded=False)
    p.set_defaults(func=cmd_analyze)

    p = _search_parser(sub, "nmf", EstimateConfig, "bracket the formation measure of a state")
    p.set_defaults(func=cmd_nmf)

    p = _search_parser(
        sub, "esqc", EsqcConfig, "bracket the ensemble entanglement of a bipartite state"
    )
    p.add_argument("--crosscheck", action="store_true", help="also run the extension crosscheck")
    p.set_defaults(func=cmd_esqc)

    p = sub.add_parser("markov-build", help="assemble a state from block components")
    p.add_argument("components", help="components file or zoo:markov_random?... reference")
    p.add_argument("--out", help="write the built state to this file")
    _common(p, seeded=False)
    p.set_defaults(func=cmd_markov_build)

    p = sub.add_parser("script", help="run a step script against a state")
    p.add_argument("script", help="script file or zoo:nonfree_script?cls=... reference")
    p.add_argument("state", nargs="?", help="state reference, for a script that carries none")
    p.add_argument("--out", help="write the final state to this file")
    _common(p, seeded=False)
    p.set_defaults(func=cmd_script)

    p = sub.add_parser("fuzz", help="run a randomized property suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=partial(_integer_flag, "trials", low=1), default=300)
    jobs = partial(_integer_flag, "jobs", low=1)
    p.add_argument("--jobs", type=jobs, default=1, help="has no effect: trials run in order")
    p.add_argument("--counterexample-dir", default=".")
    _common(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("zoo", help="list or build catalog entries")
    p.add_argument("action", choices=("list", "build"))
    p.add_argument("name", nargs="?", help="entry name or zoo:name?params reference")
    p.add_argument("--out")
    _common(p)
    p.set_defaults(func=cmd_zoo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        run = args.func(args)
        _emit(run, started, args)
        return run.code
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (NmkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
