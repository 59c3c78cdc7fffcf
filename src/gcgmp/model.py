"""Game models: agents, guarded actions, transitions, payoffs.

A model couples an ordinary concurrent game structure (agents, per-state
available actions, a total transition function over action profiles, atomic
propositions labelling states) with

* a rational payoff vector per (state, action profile),
* per-agent *guards*: constraint formulas over that agent's own running
  utility which gate when an action may be taken, and
* per-agent discount factors in [0, 1] applied to accumulated payoffs.

Models are plain frozen dataclasses; `validate` reports every problem it can
find rather than stopping at the first.

The JSON file format writes rationals as strings ("-3/2").  Two dialects
are read, told apart per field by whether ``transitions``, ``payoffs`` and
``guards`` are mappings or lists:

* nested (the documented one, and the only one written): action profiles
  are keys comma-joined per agent in declaration order, as in
  ``transitions: {state: {"C,D": target}}``,
  ``payoffs: {state: {"C,D": ["-2", "3"]}}`` and
  ``guards: {agent: {state: {action: text}}}``;
* rows: ``transitions: [{from, profile, to}]``,
  ``payoffs: [{state, profile, values}]`` and
  ``guards: [{agent, state, action, formula}]``, with profiles and payoff
  values spelled out as {agent: ...} maps.

``available`` is state-first in both: ``{state: {agent: [actions]}}``.  The
atom set is always the union of the label sets; an ``atoms`` declaration is
optional and, when present, must equal that union.  Loading only checks
what must hold for the document to denote *a* model at all (well-formed
shapes, rationals, no duplicate ids, no undeclared names inside profile or
value maps); everything else is `validate`'s business.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from importlib import resources
from typing import Iterator

from . import arith
from .arith import ACF_TRUE, ConstraintFormula, Rational, eval_acf, exact
from .errors import InvalidState, ParseError, UnknownAgent, UnknownIdentifier

Profile = tuple[str, ...]


class ValueSemantics(Enum):
    """How the long-run value ``w_<agent>`` of an infinite play is defined."""

    MEAN_LIMIT = "mean"
    DISCOUNTED = "discounted"
    TOTAL = "total"


@dataclass(frozen=True)
class Gcgmp:
    agents: tuple[str, ...]
    states: tuple[str, ...]
    actions: Mapping[str, tuple[str, ...]]
    available: Mapping[tuple[str, str], tuple[str, ...]]  # (agent, state)
    transitions: Mapping[tuple[str, Profile], str]
    # exact rationals: int when integral, else Fraction
    payoffs: Mapping[tuple[str, Profile], tuple[Rational, ...]]
    atoms: tuple[str, ...]
    labels: Mapping[str, frozenset[str]]
    guards: Mapping[tuple[str, str, str], ConstraintFormula]  # (agent, state, action)
    discounts: Mapping[str, Fraction]
    value_semantics: ValueSemantics = ValueSemantics.TOTAL

    # -- discount classification, computed once and then a plain attribute --

    @cached_property
    def discount_kinds(self) -> tuple[str, ...]:
        """Per agent, in agent order: "one", "zero" or "step" (any other d)."""
        return tuple({1: "one", 0: "zero"}.get(self.discounts[a], "step") for a in self.agents)

    @cached_property
    def step_indexed(self) -> bool:
        """Some 0 < d < 1: equal configurations at different steps differ."""
        return "step" in self.discount_kinds

    @cached_property
    def lassos_close(self) -> bool:
        """Every d is 0 or 1: a repeated configuration closes a lasso."""
        return not self.step_indexed

    # -- lookups with defaults -------------------------------------------

    def agent_index(self, agent: str) -> int:
        try:
            return self.agents.index(agent)
        except ValueError:
            raise UnknownAgent(agent) from None

    def available_of(self, agent: str, state: str) -> tuple[str, ...]:
        got = self.available.get((agent, state))
        if got is not None:
            return got
        return self.actions.get(agent, ())

    def guard_of(self, agent: str, state: str, action: str) -> ConstraintFormula:
        return self.guards.get((agent, state, action), ACF_TRUE)

    def payoff_of(self, agent: str, state: str, profile: Profile) -> Rational:
        return self.payoffs[(state, profile)][self.agent_index(agent)]

    def label_of(self, state: str) -> frozenset[str]:
        if state not in self.states:
            raise InvalidState(state)
        return self.labels.get(state, frozenset())

    def available_profiles(self, state: str) -> Iterator[Profile]:
        pools = [self.available_of(a, state) for a in self.agents]
        return itertools.product(*pools)

    def enabled_actions(self, agent: str, state: str, utility: Rational) -> tuple[str, ...]:
        """Available actions whose guard accepts the agent's current utility."""
        val = {agent: utility}
        return tuple(
            act
            for act in self.available_of(agent, state)
            if eval_acf(self.guard_of(agent, state, act), val)
        )


# --- validation -------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: tuple
    message: str
    witness: Fraction | None = None

    def __str__(self):
        return f"[{self.kind}] {self.message}"


def validate(m: Gcgmp) -> list[Violation]:
    """Every defect `m` has; an empty list means the model is well-formed.

    Checked: uniqueness of names, non-empty availability drawn from each
    agent's alphabet, totality of transitions and payoffs over available
    profiles (and no entries beyond them), label/atom consistency, guards
    mentioning only the owning agent's utility variable, guard totality
    (for every reachable utility value at least one available action is
    enabled), discount factors within [0, 1], and discounted value
    semantics requiring strictly contractive discounts.
    """
    out: list[Violation] = []

    def bad(kind, subject, message, witness=None):
        out.append(Violation(kind, subject, message, witness))

    if not m.agents:
        bad("no-agents", (), "a model needs at least one agent")
    if not m.states:
        bad("no-states", (), "a model needs at least one state")
    for name, seq in [("agent", m.agents), ("state", m.states), ("atom", m.atoms)]:
        for x in sorted(x for x, k in Counter(seq).items() if k > 1):
            bad(f"duplicate-{name}", (x,), f"{name} {x!r} declared more than once")

    for a in m.agents:
        if not m.actions.get(a):
            bad("no-actions", (a,), f"agent {a!r} has an empty action alphabet")
    for a in m.actions:
        if a not in m.agents:
            bad("unknown-agent", (a,), f"actions listed for unknown agent {a!r}")

    for (a, s), acts in m.available.items():
        if a not in m.agents:
            bad("unknown-agent", (a, s), f"availability for unknown agent {a!r}")
            continue
        if s not in m.states:
            bad("unknown-state", (a, s), f"availability of {a!r} at unknown state {s!r}")
            continue
        if not acts:
            bad("empty-available", (a, s), f"agent {a!r} has no available action at {s!r}")
        for act in acts:
            if act not in m.actions.get(a, ()):
                bad(
                    "unknown-action",
                    (a, s, act),
                    f"available action {act!r} of {a!r} at {s!r} is not in its alphabet",
                )

    valid_profiles: dict[str, set[Profile]] = {
        s: set(m.available_profiles(s)) for s in m.states
    }
    for s in m.states:
        for prof in sorted(valid_profiles[s]):
            if (s, prof) not in m.transitions:
                bad(
                    "missing-transition",
                    (s, prof),
                    f"no successor for profile {','.join(prof)} at {s!r}",
                )
            if (s, prof) not in m.payoffs:
                bad(
                    "missing-payoff",
                    (s, prof),
                    f"no payoff vector for profile {','.join(prof)} at {s!r}",
                )
    for (s, prof), target in m.transitions.items():
        if s not in m.states or prof not in valid_profiles.get(s, set()):
            bad(
                "extraneous-transition",
                (s, prof),
                f"transition at {s!r} for unavailable profile {','.join(prof)}",
            )
        elif target not in m.states:
            bad("unknown-state", (s, prof), f"transition target {target!r} is not a state")
    for (s, prof), vec in m.payoffs.items():
        if s not in m.states or prof not in valid_profiles.get(s, set()):
            bad(
                "extraneous-payoff",
                (s, prof),
                f"payoff at {s!r} for unavailable profile {','.join(prof)}",
            )
        elif len(vec) != len(m.agents):
            bad(
                "payoff-arity",
                (s, prof),
                f"payoff vector at {s!r}/{','.join(prof)} has {len(vec)} entries, "
                f"expected {len(m.agents)}",
            )

    for s, lab in m.labels.items():
        if s not in m.states:
            bad("unknown-state", (s,), f"labelling for unknown state {s!r}")
        for p in sorted(lab):
            if p not in m.atoms:
                bad("unknown-atom", (s, p), f"state {s!r} labelled with undeclared atom {p!r}")

    for (a, s, act), g in m.guards.items():
        if a not in m.agents or s not in m.states:
            bad("unknown-agent" if a not in m.agents else "unknown-state", (a, s, act),
                f"guard for unknown agent/state ({a!r}, {s!r})")
            continue
        if act not in m.actions.get(a, ()):
            bad("unknown-action", (a, s, act),
                f"guard of {a!r} at {s!r} for action {act!r} outside its alphabet")
            continue
        foreign = arith.acf_variables(g) - {a}
        if foreign:
            bad(
                "guard-foreign-variable",
                (a, s, act),
                f"guard of {a!r} at {s!r} on {act!r} mentions other agents' "
                f"utilities: {', '.join(sorted(foreign))}",
            )

    # guard totality: at each state some available action must be enabled
    # whatever the agent's utility is
    for a in m.agents:
        for s in m.states:
            acts = m.available_of(a, s)
            if not acts:
                continue  # already reported as empty-available
            gs = [m.guard_of(a, s, act) for act in acts]
            if any(arith.acf_variables(g) - {a} for g in gs):
                continue  # foreign variables already reported; totality undecidable here
            disj = gs[0]
            for g in gs[1:]:
                disj = arith.Or(disj, g)
            cx = arith.validity_counterexample(disj)
            if cx is not None:
                bad(
                    "guard-gap",
                    (a, s),
                    f"agent {a!r} at {s!r} has no enabled action when its utility is {cx}",
                    witness=cx,
                )

    for a in m.agents:
        d = m.discounts.get(a)
        if d is None:
            bad("missing-discount", (a,), f"agent {a!r} has no discount factor")
        elif not (0 <= d <= 1):
            bad("bad-discount", (a,), f"discount of {a!r} is {d}, outside [0, 1]")
    for a in m.discounts:
        if a not in m.agents:
            bad("unknown-agent", (a,), f"discount listed for unknown agent {a!r}")

    if m.value_semantics is ValueSemantics.DISCOUNTED:
        for a in m.agents:
            if m.discounts.get(a) == 1:
                bad(
                    "discount-not-contractive",
                    (a,),
                    f"discounted value semantics needs discount < 1, agent {a!r} has 1",
                )

    return out


# --- JSON I/O ---------------------------------------------------------------

_FIELDS = {
    "agents", "states", "actions", "available", "transitions", "payoffs",
    "atoms", "labels", "guards", "discounts", "value_semantics",
}


def _field(row, key, where, name=False):
    """``row[key]``; with ``name``, it must be a string, as every name is."""
    if not isinstance(row, Mapping) or key not in row:
        raise ParseError(f"{where}: missing {key!r}")
    if name and not isinstance(row[key], str):
        raise ParseError(f"{where}: {key!r} {row[key]!r} is not a name")
    return row[key]


def _rational(x, where) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ParseError(f"{where}: {x!r} is not a rational") from None


def _mapping(x, where) -> Mapping:
    if not isinstance(x, Mapping):
        raise ParseError(f"{where}: expected a mapping, got {type(x).__name__}")
    return x


def _names(x, where) -> tuple:
    if not isinstance(x, (list, tuple)):
        raise ParseError(f"{where}: expected a list, got {type(x).__name__}")
    for name in x:
        if not isinstance(name, str):
            raise ParseError(f"{where}: {name!r} is not a name")
    return tuple(x)


def _profile_from_map(agents, entry, where) -> Profile:
    """An action profile written as a {agent: action} map covering every agent."""
    if not isinstance(entry, Mapping):
        raise ParseError(f"{where}: profile must map agents to actions")
    extra = sorted(set(entry) - set(agents))
    if extra:
        raise UnknownIdentifier(
            f"{where}: profile names undeclared agents: {', '.join(extra)}"
        )
    missing = [a for a in agents if a not in entry]
    if missing:
        raise ParseError(f"{where}: profile misses agents: {', '.join(missing)}")
    return _names([entry[a] for a in agents], where)


def _per_profile(agents, table, what):
    """(state, profile, value) triples of a nested {state: {"a1,a2": value}} table."""
    for s, row in _mapping(table, what).items():
        where = f"{what} at {s!r}"
        for key, value in _mapping(row, where).items():
            prof = tuple(key.split(","))
            if len(prof) != len(agents):
                raise ParseError(
                    f"{where}: profile {key!r} has {len(prof)} actions "
                    f"for {len(agents)} agents"
                )
            yield s, prof, value


def _is_rows(table) -> bool:
    """Row dialect (a list of rows) rather than the nested one (a mapping)."""
    return isinstance(table, (list, tuple))


def _load_transitions(agents, table) -> dict[tuple[str, Profile], str]:
    if not _is_rows(table):
        return {
            (s, prof): target for s, prof, target in _per_profile(agents, table, "transitions")
        }
    transitions = {}
    for row in table:
        s = _field(row, "from", "transition", name=True)
        where = f"transition from {s!r}"
        prof = _profile_from_map(agents, _field(row, "profile", where), where)
        transitions[(s, prof)] = _field(row, "to", where)
    return transitions


def _load_payoffs(agents, table) -> dict[tuple[str, Profile], tuple[Rational, ...]]:
    payoffs = {}
    if not _is_rows(table):
        for s, prof, vec in _per_profile(agents, table, "payoffs"):
            where = f"payoff at {s!r}/{','.join(prof)}"
            if not isinstance(vec, (list, tuple)):
                raise ParseError(f"{where}: expected a list of rationals")
            payoffs[(s, prof)] = tuple(exact(_rational(x, where)) for x in vec)
        return payoffs
    for row in table:
        s = _field(row, "state", "payoff", name=True)
        where = f"payoff at {s!r}"
        prof = _profile_from_map(agents, _field(row, "profile", where), where)
        values = _mapping(_field(row, "values", where), where)
        extra = sorted(set(values) - set(agents))
        if extra:
            raise UnknownIdentifier(
                f"{where} has values for undeclared agents: {', '.join(extra)}"
            )
        payoffs[(s, prof)] = tuple(
            exact(_rational(values[a], where)) for a in agents if a in values
        )
    return payoffs


def _load_guards(table) -> dict[tuple[str, str, str], ConstraintFormula]:
    if _is_rows(table):
        texts = {
            tuple(_field(row, k, "guard", name=True) for k in ("agent", "state", "action")):
            _field(row, "formula", "guard")
            for row in table
        }
    else:
        texts = {
            (a, s, act): text
            for a, per_state in _mapping(table, "guards").items()
            for s, per_action in _mapping(per_state, f"guards of {a!r}").items()
            for act, text in _mapping(per_action, f"guards of {a!r} at {s!r}").items()
        }
    for (a, s, act), text in texts.items():
        if not isinstance(text, str):
            raise ParseError(f"guard of {a!r} at {s!r} on {act!r}: expected a string")
    return {key: arith.parse_acf(text) for key, text in texts.items()}


def model_from_dict(doc: dict) -> Gcgmp:
    """Build a model from either dialect (see the module docstring)."""
    unknown = set(_mapping(doc, "model")) - _FIELDS
    if unknown:
        raise ValueError(f"unknown model fields: {', '.join(sorted(unknown))}")
    agents = _names(doc.get("agents", ()), "agents")
    states = _names(doc.get("states", ()), "states")
    for kind, seq in (("agent", agents), ("state", states)):
        dup = sorted(x for x, k in Counter(seq).items() if k > 1)
        if dup:
            raise ParseError(f"duplicate {kind} id: {', '.join(dup)}")
    actions = {
        a: _names(acts, f"actions of {a!r}")
        for a, acts in _mapping(doc.get("actions", {}), "actions").items()
    }
    for a, acts in actions.items():
        if any("," in str(act) for act in acts):
            raise ParseError(f"actions of {a!r}: an action name may not contain ','")

    available: dict[tuple[str, str], tuple[str, ...]] = {}
    for s, per_agent in _mapping(doc.get("available", {}), "available").items():
        for a, acts in _mapping(per_agent, f"available at {s!r}").items():
            available[(a, s)] = _names(acts, f"available to {a!r} at {s!r}")
    for a in agents:  # default: everything in the agent's alphabet
        for s in states:
            available.setdefault((a, s), actions.get(a, ()))

    labels = {
        s: frozenset(_names(atoms, f"labels of {s!r}"))
        for s, atoms in _mapping(doc.get("labels", {}), "labels").items()
    }
    atoms = sorted(set().union(*labels.values()))
    declared = doc.get("atoms")
    if declared is not None and (
        not isinstance(declared, (list, tuple)) or sorted(declared, key=str) != atoms
    ):
        raise ValueError(
            f"declared atoms {declared!r} differ from the union of the labels {atoms!r}"
        )
    discounts = {
        a: _rational(x, f"discount of {a!r}")
        for a, x in _mapping(doc.get("discounts", {}), "discounts").items()
    }
    for a in agents:
        discounts.setdefault(a, Fraction(1))
    return Gcgmp(
        agents=agents,
        states=states,
        actions=actions,
        available=available,
        transitions=_load_transitions(agents, doc.get("transitions", ())),
        payoffs=_load_payoffs(agents, doc.get("payoffs", ())),
        atoms=tuple(atoms),
        labels=labels,
        guards=_load_guards(doc.get("guards", ())),
        discounts=discounts,
        value_semantics=ValueSemantics(doc.get("value_semantics", "total")),
    )


def model_to_dict(m: Gcgmp) -> dict:
    """The nested README dialect, with the atoms declared."""
    avail: dict[str, dict[str, list[str]]] = {}
    for (a, s), acts in sorted(m.available.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        avail.setdefault(s, {})[a] = list(acts)
    trans: dict[str, dict[str, str]] = {}
    for (s, prof), target in sorted(m.transitions.items()):
        trans.setdefault(s, {})[",".join(prof)] = target
    pays: dict[str, dict[str, list[str]]] = {}
    for (s, prof), vec in sorted(m.payoffs.items()):
        pays.setdefault(s, {})[",".join(prof)] = [str(x) for x in vec]
    guards: dict[str, dict[str, dict[str, str]]] = {}
    for (a, s, act), g in sorted(m.guards.items()):
        guards.setdefault(a, {}).setdefault(s, {})[act] = arith.format_acf(g)
    return {
        "agents": list(m.agents),
        "states": list(m.states),
        "actions": {a: list(acts) for a, acts in m.actions.items()},
        "available": avail,
        "transitions": trans,
        "payoffs": pays,
        "atoms": list(m.atoms),
        "labels": {s: sorted(lab) for s, lab in m.labels.items()},
        "guards": guards,
        "discounts": {a: str(d) for a, d in m.discounts.items()},
        "value_semantics": m.value_semantics.value,
    }


def load_model(path: str) -> Gcgmp:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def dump_model(m: Gcgmp, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2)
        fh.write("\n")


def builtin_fig1() -> Gcgmp:
    """The bundled three-state two-player example model."""
    text = resources.files("gcgmp.data").joinpath("fig1.json").read_text("utf-8")
    return model_from_dict(json.loads(text))
