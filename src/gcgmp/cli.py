"""Command-line front end.

Subcommands: ``validate``, ``check``, ``simulate``, ``encode-tcm``,
``export-graph``.  Every run prints a single JSON report to stdout and
keeps diagnostics on stderr; reports are byte-identical across runs
except for the ``wall_ms`` field.  Exit codes: 0 for a completed run
(including "unknown" verdicts), 1 when validation found violations, 2 for
unusable input (bad files, unparsable formulas, malformed options), 3
when an explicitly requested engine cannot handle the instance, or, under
``auto``, when no engine can.

Model files may be replaced by ``builtin:fig1`` and machine files by
``builtin:drain`` to use the bundled examples.  ``check`` hands the
engine choice to ``checker.check`` and renders what it returns.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from fractions import Fraction

from .checker import ENGINES, check, observation_key

# unused here, but bench/tracing.py wraps the engines at these names
from .checker import check_atl, check_bounded, check_saturated  # noqa: F401
from .dynamics import (
    Play,
    enabled_actions,
    explore,
    initial_config,
    play_value,
    step,
    to_dot,
)
from .errors import GcgmpError, GuardViolation, NotApplicable, ParseError
from .logic import (
    STRATEGY_CLASSES,
    StrategyClassSpec,
    bind_formula,
    classify,
    formula_props,
    is_state_formula,
    parse_formula,
)
from .model import (
    ValueSemantics,
    builtin_fig1,
    dump_model,
    load_model,
    model_to_dict,
    validate,
)
from .tcm import VARIANTS, encode, load_tcm


class CliInputError(Exception):
    """The invocation cannot be acted on (exit code 2)."""


def model_digest(m) -> str:
    blob = json.dumps(model_to_dict(m), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _load_model(path: str):
    if path == "builtin:fig1":
        return builtin_fig1()
    try:
        return load_model(path)
    except OSError as e:
        raise CliInputError(f"cannot read model {path!r}: {e}") from e
    except (GcgmpError, ValueError, KeyError, json.JSONDecodeError) as e:
        raise CliInputError(f"bad model file {path!r}: {e}") from e


def _load_tcm(path: str):
    if path == "builtin:drain":
        from importlib import resources

        ref = resources.files("gcgmp.data").joinpath("tcm_drain.json")
        from .tcm import tcm_from_dict

        return tcm_from_dict(json.loads(ref.read_text("utf-8")))
    try:
        return load_tcm(path)
    except OSError as e:
        raise CliInputError(f"cannot read machine {path!r}: {e}") from e
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        raise CliInputError(f"bad machine file {path!r}: {e}") from e


def _bound_formula(m, text: str):
    try:
        f = parse_formula(text)
    except ParseError as e:
        raise CliInputError(f"bad formula: {e}") from e
    try:
        f = bind_formula(m, f)
    except GcgmpError as e:
        raise CliInputError(f"formula does not fit the model: {e}") from e
    undeclared = sorted(formula_props(f) - set(m.atoms))
    if undeclared:
        raise CliInputError(
            "formula does not fit the model: undeclared propositions "
            + ", ".join(undeclared)
        )
    if not is_state_formula(f):
        raise CliInputError("checking needs a state formula (wrap path operators in <<...>>)")
    return f


def _parse_init(m, text: str | None):
    if text is None:
        return initial_config(m, min(m.states))
    state, sep, rest = text.partition(":")
    if state not in m.states:
        raise CliInputError(f"unknown initial state {state!r}")
    if not sep or not rest.strip():
        return initial_config(m, state)
    try:
        utilities = [Fraction(part.strip()) for part in rest.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise CliInputError(f"bad initial utilities {rest!r}: {e}") from e
    if len(utilities) != len(m.agents):
        raise CliInputError(
            f"{len(utilities)} initial utilities for {len(m.agents)} agents"
        )
    return initial_config(m, state, utilities)


def _config_json(c) -> dict:
    return {"state": c.state, "utilities": [str(u) for u in c.utilities]}


def _require_wellformed(m, path):
    problems = validate(m)
    if problems:
        raise CliInputError(
            f"model {path!r} is not well-formed: {len(problems)} violation(s), "
            f"first {problems[0]}; run `gcgmp validate` for the list"
        )


# --- validate -----------------------------------------------------------


def cmd_validate(args):
    m = _load_model(args.model)
    problems = validate(m)
    report = {
        "command": "validate",
        "model": args.model,
        "model_sha256": model_digest(m),
        "ok": not problems,
        "violations": [
            {
                "kind": v.kind,
                "subject": [str(x) for x in v.subject],
                "message": v.message,
                "witness": None if v.witness is None else str(v.witness),
            }
            for v in problems
        ],
    }
    return report, (0 if not problems else 1)


# --- check ----------------------------------------------------------------


def cmd_check(args):
    m = _load_model(args.model)
    _require_wellformed(m, args.model)
    f = _bound_formula(m, args.formula)
    init = _parse_init(m, args.init)
    sp, so = STRATEGY_CLASSES[args.sp], STRATEGY_CLASSES[args.so]
    result = check(m, init, f, sp, so, budget=args.depth, engine=args.engine)
    report = {
        "command": "check",
        "model": args.model,
        "model_sha256": model_digest(m),
        "formula": args.formula,
        "fragment": classify(f).value,
        "init": _config_json(init),
        **result,
    }
    return report, 0


# --- simulate -------------------------------------------------------------


def _parse_profile_script(m, text: str):
    profiles = []
    for chunk in text.split():
        acts = tuple(chunk.split(","))
        if len(acts) != len(m.agents):
            raise CliInputError(
                f"profile {chunk!r} has {len(acts)} actions for {len(m.agents)} agents"
            )
        for agent, act in zip(m.agents, acts):
            if act not in m.actions.get(agent, ()):
                raise CliInputError(f"agent {agent!r} has no action {act!r}")
        profiles.append(acts)
    if not profiles:
        raise CliInputError("empty profile script")
    return profiles


def _load_strategy(m, path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CliInputError(f"cannot read strategy {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise CliInputError(f"bad strategy file {path!r}: {e}") from e
    if not isinstance(doc, dict):
        raise CliInputError(f"bad strategy file {path!r}: not a JSON object")
    try:
        spec = StrategyClassSpec.parse(doc.get("class", "ml-config"))
    except ValueError as e:
        raise CliInputError(str(e)) from e
    moves = doc.get("moves", {})
    if not isinstance(moves, dict) or not all(
        isinstance(t, dict) and all(isinstance(act, str) for act in t.values())
        for t in moves.values()
    ):
        raise CliInputError(
            f"bad strategy file {path!r}: moves must map agents to tables of actions"
        )
    foreign = set(moves) - set(m.agents)
    if foreign:
        raise CliInputError(f"strategy covers unknown agents: {', '.join(sorted(foreign))}")
    return spec, moves


def cmd_simulate(args):
    m = _load_model(args.model)
    _require_wellformed(m, args.model)
    if args.value is not None:
        m = dataclasses.replace(
            m, value_semantics=ValueSemantics(args.value)
        )
    init = _parse_init(m, args.init)

    script = None
    strategy = None
    if args.profile_script is not None:
        script = _parse_profile_script(m, args.profile_script)
    elif args.strategy_file is not None:
        strategy = _load_strategy(m, args.strategy_file)

    if args.steps is not None:
        steps = args.steps
    elif script is not None:
        steps = len(script)
    else:
        steps = 20
    if script is not None:
        steps = min(steps, len(script))

    configs = [init]
    profiles = []
    aborted = None
    for l in range(1, steps + 1):
        c = configs[-1]
        if script is not None:
            prof = script[l - 1]
        else:
            chosen = []
            for agent in m.agents:
                act = None
                if strategy is not None and agent in strategy[1]:
                    spec, moves = strategy
                    key = observation_key(spec, configs)
                    act = moves[agent].get(key)
                    if act is None:
                        aborted = {
                            "step": l,
                            "agent": agent,
                            "message": f"strategy has no move for observation {key!r}",
                        }
                        break
                else:  # a well-formed model leaves no agent without one
                    act = min(enabled_actions(m, c, agent))
                chosen.append(act)
            if aborted is not None:
                break
            prof = tuple(chosen)
        try:
            configs.append(step(m, c, prof, l))
            profiles.append(prof)
        except GuardViolation as e:
            aborted = {
                "step": l,
                "agent": e.agent,
                "action": e.action,
                "message": str(e),
            }
            break

    loop = None
    for j in range(len(configs) - 1):
        if configs[j] == configs[-1]:
            loop = j
            break

    values = None
    if loop is not None and aborted is None:
        play = Play(tuple(configs), tuple(profiles), loop)
        values = {}
        for agent in m.agents:
            try:
                values[agent] = str(play_value(m, play, agent))
            except GcgmpError as e:
                values[agent] = {"error": str(e)}

    report = {
        "command": "simulate",
        "model": args.model,
        "model_sha256": model_digest(m),
        "value_semantics": m.value_semantics.value,
        "steps_run": len(profiles),
        "trace": [_config_json(c) for c in configs],
        "profiles": [list(p) for p in profiles],
        "lasso": None if loop is None else {"loop": loop},
        "values": values,
    }
    if aborted is not None:
        report["aborted"] = aborted
    return report, 0


# --- encode-tcm -----------------------------------------------------------


def cmd_encode_tcm(args):
    tcm = _load_tcm(args.machine)
    try:
        enc = encode(tcm, args.variant)
    except ValueError as e:
        raise CliInputError(str(e)) from e
    report = {
        "command": "encode-tcm",
        "machine": args.machine,
        "variant": enc.variant,
        "machine_states": len(tcm.states),
        "machine_transitions": len(tcm.transitions),
        "game_states": len(enc.model.states),
        "model_sha256": model_digest(enc.model),
        "init": _config_json(enc.initial),
        "formula": enc.formula_text,
    }
    if args.output is not None:
        dump_model(enc.model, args.output)
        report["model_written"] = args.output
    else:
        report["model"] = model_to_dict(enc.model)
    if args.emit_formula is not None:
        with open(args.emit_formula, "w", encoding="utf-8") as fh:
            fh.write(enc.formula_text + "\n")
        report["formula_written"] = args.emit_formula
    return report, 0


# --- export-graph -----------------------------------------------------------


def cmd_export_graph(args):
    m = _load_model(args.model)
    _require_wellformed(m, args.model)
    init = _parse_init(m, args.init)
    result = explore(m, init, args.bound)
    dot = to_dot(result)
    report = {
        "command": "export-graph",
        "model": args.model,
        "model_sha256": model_digest(m),
        "init": _config_json(init),
        "bound": args.bound,
        "nodes": len(result.nodes),
        "edges": len(result.edges),
        "truncated": result.truncated,
    }
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dot)
        report["dot_written"] = args.output
    else:
        report["dot"] = dot
    return report, 0


# --- wiring ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcgmp",
        description="Guarded concurrent game models: validation, checking, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file for structural defects")
    p.add_argument("model", help="model JSON path, or builtin:fig1")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("check", help="decide a formula at an initial configuration")
    p.add_argument("model", help="model JSON path, or builtin:fig1")
    p.add_argument("formula", help="state formula, e.g. '<<I>> G (p1 | v_I > 0)'")
    p.add_argument(
        "--engine",
        choices=["auto", *ENGINES],
        default="auto",
        help="auto picks the cheapest engine that soundly applies",
    )
    p.add_argument("--sp", choices=STRATEGY_CLASSES, default="ml-config",
                   help="strategy class of the coalition")
    p.add_argument("--so", choices=STRATEGY_CLASSES, default="ml-config",
                   help="strategy class of the opponents")
    p.add_argument("--depth", type=int, default=25,
                   help="horizon for the bounded engine")
    p.add_argument("--init", help="initial configuration STATE:U1,U2,... "
                                  "(default: least state, zero utilities)")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("simulate", help="run the guarded dynamics step by step")
    p.add_argument("model", help="model JSON path, or builtin:fig1")
    p.add_argument("--init", help="initial configuration STATE:U1,U2,...")
    p.add_argument("--steps", type=int, help="number of steps (default 20, or script length)")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--profile-script",
                     help="whitespace-separated profiles, each comma-joined per agent: 'C,C D,C'")
    src.add_argument("--strategy-file",
                     help="JSON strategy table; uncovered agents take their least enabled action")
    p.add_argument("--value", choices=[s.value for s in ValueSemantics],
                   help="override the model's play-value semantics")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("encode-tcm", help="embed a two-counter machine into a game model")
    p.add_argument("machine", help="machine JSON path, or builtin:drain")
    p.add_argument("--variant", choices=list(VARIANTS), default="guard-based")
    p.add_argument("-o", "--output", help="write the encoded model here (else inline in the report)")
    p.add_argument("--emit-formula", metavar="PATH",
                   help="also write the halting formula to this file")
    p.set_defaults(handler=cmd_encode_tcm)

    p = sub.add_parser("export-graph", help="write the reachable configuration graph as DOT")
    p.add_argument("model", help="model JSON path, or builtin:fig1")
    p.add_argument("--init", help="initial configuration STATE:U1,U2,...")
    p.add_argument("--bound", type=int, default=10, help="step budget for the exploration")
    p.add_argument("-o", "--output", help="write DOT here (else inline in the report)")
    p.set_defaults(handler=cmd_export_graph)

    return parser


_LINE_BREAKS = {ord(ch): repr(ch)[1:-1] for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        for flag in ("depth", "steps", "bound"):  # step counts, never negative
            if (getattr(args, flag, None) or 0) < 0:
                raise CliInputError(f"--{flag} must be non-negative")
        report, code = args.handler(args)
    except (CliInputError, NotApplicable) as e:
        # one line, even when a name from the input holds a line break
        print(f"gcgmp: {str(e).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 2 if isinstance(e, CliInputError) else 3
    report["wall_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
