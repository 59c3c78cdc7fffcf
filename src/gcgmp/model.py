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

The JSON file format writes rationals as strings ("-3/2") and reads JSON
integers too, but never a JSON float or boolean.  Two dialects
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

import functools
import itertools
import json
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from importlib import resources
from typing import Iterator

from . import arith
from .arith import ACF_TRUE, ConstraintFormula, Rational, eval_acf, exact
from .errors import InvalidState, MultiVariable, ParseError, UnknownAgent, UnknownIdentifier, echo

Profile = tuple[str, ...]


class ValueSemantics(Enum):
    """How the long-run value ``w_<agent>`` of an infinite play is defined."""

    MEAN_LIMIT = "mean"
    DISCOUNTED = "discounted"
    TOTAL = "total"


@dataclass(frozen=True)
class Gcgmp:
    """A model as loaded, and what it compiles to, once, on first use:
    ``region_tables`` per (agent, state) by `regions`, read by the engines
    through `dynamics.enabled_pools`, by `validate` and by `checker.check`'s
    atl gate; ``step_table`` per (state, profile) by `step_entry`, read by
    `dynamics.successor`; ``move_table`` per (state, enabled pools) by `moves`,
    read by `dynamics.explore`; and ``saturation_facts`` by `saturation`.
    `enabled_actions` stays literal, as the brute-force oracle reads it."""

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

    def __post_init__(self):
        # all stored at construction: on CPython 3.11 anything written into an
        # instance's __dict__ later makes every attribute read on it 3x slower
        object.__setattr__(self, "state_set", frozenset(self.states))
        object.__setattr__(self, "agent_positions",  # a repeated name keeps its first index
                           {a: i for i, a in reversed(tuple(enumerate(self.agents)))})
        # per agent: "one", "zero" or "step" (any other d, or none: validate reports it)
        kinds = tuple({1: "one", 0: "zero"}.get(self.discounts.get(a), "step") for a in self.agents)
        object.__setattr__(self, "discount_kinds", kinds)
        # some 0 < d < 1: equal configurations at different steps differ;
        # otherwise every d is 0 or 1 and a repeated configuration closes a lasso
        object.__setattr__(self, "step_indexed", "step" in kinds)
        object.__setattr__(self, "region_tables", {})
        object.__setattr__(self, "step_table", {})
        object.__setattr__(self, "move_table", {})
        object.__setattr__(self, "saturation_facts", [])

    # -- lookups with defaults -------------------------------------------

    def agent_index(self, agent: str) -> int:
        try:
            return self.agent_positions[agent]
        except KeyError:
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
        if state not in self.state_set:
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

    def regions(self, agent: str, state: str) -> tuple:
        """``(thresholds, points, enabled)``: `arith.regions` over the agent's
        guards at ``state``, and `enabled_actions` at each point, which holds
        throughout its region.  Built once; a foreign variable raises MultiVariable."""
        table = self.region_tables.get((agent, state))
        if table is None:
            keys = [(agent, state, act) for act in self.available_of(agent, state)]
            guards = [self.guards[k] for k in keys if k in self.guards] or [ACF_TRUE]
            ts, points = arith.regions(functools.reduce(arith.Or, guards), agent)
            table = self.region_tables[(agent, state)] = (
                tuple(map(exact, ts)), points,  # int thresholds compare with int utilities in C
                tuple(self.enabled_actions(agent, state, exact(p)) for p in points))
        return table

    def step_entry(self, state: str, profile: Profile) -> tuple:
        """``(target, adds, scaled)`` under ``profile`` at ``state``.  Under discount 1
        an agent adds its payoff and under 0 nothing; under any other d, ``scaled``
        holds (d, payoff) and it adds ``d ** step_index * payoff`` (steps count from 1)."""
        key = (state, profile)
        entry = self.step_table.get(key)
        if entry is None:
            pays, kinds = self.payoffs[key], self.discount_kinds
            entry = self.step_table[key] = (
                self.transitions[key], tuple(p if k == "one" else 0 for k, p in zip(kinds, pays)),
                tuple((self.discounts[a], p) if k == "step" else None
                      for a, k, p in zip(self.agents, kinds, pays)) if self.step_indexed else ())
        return entry

    def moves(self, state: str, pools: tuple) -> tuple:
        """``(profile, step_entry)`` for each profile drawn from ``pools``, each
        agent's enabled actions at ``state``, in `itertools.product` order.  Built once."""
        key = (state, pools)
        table = self.move_table.get(key)
        if table is None:
            table = self.move_table[key] = tuple(
                (prof, self.step_entry(state, prof)) for prof in itertools.product(*pools))
        return table

    def saturation(self) -> tuple:
        """``(negative, bound, mixed)`` for `checker.check_saturated`: the first
        negative payoff, as (state, profile, agent, payoff), or None; the largest
        constant (at least 0) of the guards' atoms, and whether one is mixed."""
        if not self.saturation_facts:
            negative = next(((s, prof, a, p) for (s, prof), pays in self.payoffs.items()
                             for a, p in zip(self.agents, pays) if p < 0), None)
            shapes = [arith.normalize_atom(x) for g in self.guards.values() for x in arith.acf_atoms(g)]
            self.saturation_facts.append((
                negative, max([Fraction(0)] + [x[3] for x in shapes if x[0] == "sum"]),
                any(x[0] == "mixed" for x in shapes)))
        return self.saturation_facts[0]


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

    # names are looked up in sets built once, so validation is linear in the model's size
    agents, states, atoms = set(m.agents), m.state_set, set(m.atoms)
    alphabet = {a: set(acts) for a, acts in m.actions.items()}

    if not m.agents:
        bad("no-agents", (), "a model needs at least one agent")
    if not m.states:
        bad("no-states", (), "a model needs at least one state")
    for name, seq in [("agent", m.agents), ("state", m.states), ("atom", m.atoms)]:
        for x in sorted(x for x, k in Counter(seq).items() if k > 1):
            bad(f"duplicate-{name}", (x,), f"{name} {echo(x)} declared more than once")

    for a in m.agents:
        if not m.actions.get(a):
            bad("no-actions", (a,), f"agent {echo(a)} has an empty action alphabet")
    for a in m.actions:
        if a not in agents:
            bad("unknown-agent", (a,), f"actions listed for unknown agent {echo(a)}")

    for (a, s), acts in m.available.items():
        if a not in agents:
            bad("unknown-agent", (a, s), f"availability for unknown agent {echo(a)}")
            continue
        if s not in states:
            bad("unknown-state", (a, s), f"availability of {echo(a)} at unknown state {echo(s)}")
            continue
        if not acts:
            bad("empty-available", (a, s), f"agent {echo(a)} has no available action at {echo(s)}")
        for act in acts:
            if act not in alphabet.get(a, ()):
                bad(
                    "unknown-action",
                    (a, s, act),
                    f"available action {echo(act)} of {echo(a)} at {echo(s)} is not in its alphabet",
                )

    valid_profiles: dict[str, set[Profile]] = {
        s: set(m.available_profiles(s)) for s in m.states
    }
    tables = (("transition", m.transitions, "successor"), ("payoff", m.payoffs, "payoff vector"))
    for s in m.states:
        for prof in sorted(valid_profiles[s]):
            for what, table, noun in tables:
                if (s, prof) not in table:
                    bad(f"missing-{what}", (s, prof),
                        f"no {noun} for profile {echo(','.join(prof), str)} at {echo(s)}")
    for what, table, _ in tables:
        for (s, prof), value in table.items():
            if prof not in valid_profiles.get(s, ()):
                bad(f"extraneous-{what}", (s, prof),
                    f"{what} at {echo(s)} for unavailable profile {echo(','.join(prof), str)}")
            elif what == "transition" and value not in states:
                bad("unknown-state", (s, prof), f"transition target {echo(value)} is not a state")
            elif what == "payoff" and len(value) != len(m.agents):
                bad("payoff-arity", (s, prof),
                    f"payoff vector at {echo(s)}/{echo(','.join(prof), str)} has {len(value)} entries, "
                    f"expected {len(m.agents)}")

    for s, lab in m.labels.items():
        if s not in states:
            bad("unknown-state", (s,), f"labelling for unknown state {echo(s)}")
        for p in sorted(lab):
            if p not in atoms:
                bad("unknown-atom", (s, p), f"state {echo(s)} labelled with undeclared atom {echo(p)}")

    for (a, s, act), g in m.guards.items():
        if a not in agents or s not in states:
            bad("unknown-agent" if a not in agents else "unknown-state", (a, s, act),
                f"guard for unknown agent/state ({echo(a)}, {echo(s)})")
            continue
        if act not in alphabet.get(a, ()):
            bad("unknown-action", (a, s, act),
                f"guard of {echo(a)} at {echo(s)} for action {echo(act)} outside its alphabet")
            continue
        foreign = arith.acf_variables(g) - {a}
        if foreign:
            bad(
                "guard-foreign-variable",
                (a, s, act),
                f"guard of {echo(a)} at {echo(s)} on {echo(act)} mentions other agents' "
                f"utilities: {echo(', '.join(sorted(foreign)), str)}",
            )

    # guard totality: at each state some available action must be enabled
    # whatever the agent's utility is
    for a in m.agents:
        for s in m.states:
            acts = m.available_of(a, s)
            if not acts or any((a, s, act) not in m.guards for act in acts):
                continue  # empty-available is reported; an unguarded action is always enabled
            try:
                _, points, enabled = m.regions(a, s)
            except MultiVariable:
                continue  # foreign variables already reported; totality undecidable here
            cx = next((p for p, r in zip(points, enabled) if not r), None)
            if cx is not None:
                bad("guard-gap", (a, s), f"agent {echo(a)} at {echo(s)} has no enabled action "
                    f"when its utility is {echo(cx, str)}", witness=cx)

    for a in m.agents:
        d = m.discounts.get(a)
        if d is None:
            bad("missing-discount", (a,), f"agent {echo(a)} has no discount factor")
        elif not (0 <= d <= 1):
            bad("bad-discount", (a,), f"discount of {echo(a)} is {echo(d, str)}, outside [0, 1]")
    for a in m.discounts:
        if a not in agents:
            bad("unknown-agent", (a,), f"discount listed for unknown agent {echo(a)}")

    if m.value_semantics is ValueSemantics.DISCOUNTED:
        for a in m.agents:
            if m.discounts.get(a) == 1:
                bad(
                    "discount-not-contractive",
                    (a,),
                    f"discounted value semantics needs discount < 1, agent {echo(a)} has 1",
                )

    return out


# --- JSON I/O ---------------------------------------------------------------

_FIELDS = {
    "agents", "states", "actions", "available", "transitions", "payoffs",
    "atoms", "labels", "guards", "discounts", "value_semantics",
}


def _is_map(x) -> bool:
    return type(x) is dict or isinstance(x, Mapping)  # dict first: the ABC test is slow


def _field(row, key, where, name=False):
    """``row[key]``; with ``name``, it must be a string, as every name is."""
    if not _is_map(row) or key not in row:
        raise ParseError(f"{where}: missing {echo(key)}")
    if name and not isinstance(row[key], str):
        raise ParseError(f"{where}: {echo(key)} {echo(row[key])} is not a name")
    return row[key]


def _rational(x, where) -> Rational:
    """A JSON integer or a string such as "-3/2", exactly; never a float or a boolean."""
    if type(x) in (float, bool):
        raise ParseError(f'{where}: {json.dumps(x)} is not exact, write a string such as "1/10"')
    try:  # int() sits inside: it refuses strings of more than 4300 digits
        if type(x) is int or type(x) is str and x.isdecimal():
            return int(x)
        # and so is an exponent past 4300 refused before Fraction expands it:
        # "1e100000000000" would otherwise take all memory
        if type(x) is str:
            _, e, exponent = x.replace("E", "e").rpartition("e")
            if e and abs(int(exponent)) > 4300:
                raise ValueError
        return exact(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ParseError(f"{where}: {echo(x)} is not a rational") from None


def _mapping(x, where) -> Mapping:
    if not _is_map(x):
        raise ParseError(f"{where}: expected a mapping, got {type(x).__name__}")
    return x


def _names(x, where) -> tuple:
    if not isinstance(x, (list, tuple)):
        raise ParseError(f"{where}: expected a list, got {type(x).__name__}")
    for name in x:
        if not isinstance(name, str):
            raise ParseError(f"{where}: {echo(name)} is not a name")
    return tuple(x)


def _profile_from_map(agents, entry, where) -> Profile:
    """An action profile written as a {agent: action} map covering every agent."""
    if not _is_map(entry):
        raise ParseError(f"{where}: profile must map agents to actions")
    if len(entry) != len(agents) or not all(a in entry for a in agents):
        extra = sorted(entry.keys() - agents)
        if extra:
            raise UnknownIdentifier(
                f"{where}: profile names undeclared agents: {', '.join(extra)}"
            )
        missing = [a for a in agents if a not in entry]
        raise ParseError(f"{where}: profile misses agents: {', '.join(missing)}")
    return _names([entry[a] for a in agents], where)


def _per_profile(agents, table, what):
    """(state, profile, value) triples of a nested {state: {"a1,a2": value}} table."""
    for s, row in _mapping(table, what).items():
        where = f"{what} at {echo(s)}"
        for key, value in _mapping(row, where).items():
            prof = tuple(key.split(","))
            if len(prof) != len(agents):
                raise ParseError(
                    f"{where}: profile {echo(key)} has {len(prof)} actions "
                    f"for {len(agents)} agents"
                )
            yield s, prof, value


def _is_rows(table) -> bool:
    """Row dialect (a list of rows) rather than the nested one (a mapping)."""
    return isinstance(table, (list, tuple))


def _load_transitions(agents, table) -> dict[tuple[str, Profile], str]:
    if not _is_rows(table):
        triples = list(_per_profile(agents, table, "transitions"))
        _names([target for _, _, target in triples], "transition targets")
        return {(s, prof): target for s, prof, target in triples}
    transitions = {}
    for row in table:
        s = _field(row, "from", "transition", name=True)
        where = f"transition from {echo(s)}"
        prof = _profile_from_map(agents, _field(row, "profile", where), where)
        transitions[(s, prof)] = _field(row, "to", where, name=True)
    return transitions


def _load_payoffs(agents, table) -> dict[tuple[str, Profile], tuple[Rational, ...]]:
    payoffs = {}
    if not _is_rows(table):
        for s, prof, vec in _per_profile(agents, table, "payoffs"):
            where = f"payoff at {echo(s)}/{echo(','.join(prof), str)}"
            if not isinstance(vec, (list, tuple)):
                raise ParseError(f"{where}: expected a list of rationals")
            payoffs[(s, prof)] = tuple(_rational(x, where) for x in vec)
        return payoffs
    for row in table:
        s = _field(row, "state", "payoff", name=True)
        where = f"payoff at {echo(s)}"
        prof = _profile_from_map(agents, _field(row, "profile", where), where)
        values = _mapping(_field(row, "values", where), where)
        extra = sorted(values.keys() - agents)
        if extra:
            raise UnknownIdentifier(
                f"{where} has values for undeclared agents: {', '.join(extra)}"
            )
        payoffs[(s, prof)] = tuple(
            _rational(values[a], where) for a in agents if a in values
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
            for s, per_action in _mapping(per_state, f"guards of {echo(a)}").items()
            for act, text in _mapping(per_action, f"guards of {echo(a)} at {echo(s)}").items()
        }
    for (a, s, act), text in texts.items():
        if not isinstance(text, str):
            raise ParseError(f"guard of {echo(a)} at {echo(s)} on {echo(act)}: expected a string")
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
        a: _names(acts, f"actions of {echo(a)}")
        for a, acts in _mapping(doc.get("actions", {}), "actions").items()
    }
    for a, acts in actions.items():
        if any("," in str(act) for act in acts):
            raise ParseError(f"actions of {echo(a)}: an action name may not contain ','")

    available: dict[tuple[str, str], tuple[str, ...]] = {}
    for s, per_agent in _mapping(doc.get("available", {}), "available").items():
        for a, acts in _mapping(per_agent, f"available at {echo(s)}").items():
            available[(a, s)] = _names(acts, f"available to {echo(a)} at {echo(s)}")
    for a in agents:  # default: everything in the agent's alphabet
        for s in states:
            available.setdefault((a, s), actions.get(a, ()))

    labels = {
        s: frozenset(_names(atoms, f"labels of {echo(s)}"))
        for s, atoms in _mapping(doc.get("labels", {}), "labels").items()
    }
    atoms = sorted(set().union(*labels.values()))
    declared = doc.get("atoms")
    if declared is not None and (
        not isinstance(declared, (list, tuple)) or sorted(declared, key=str) != atoms
    ):
        raise ValueError(
            f"declared atoms {echo(declared)} differ from the union of the labels {echo(atoms)}"
        )
    discounts = {
        a: Fraction(_rational(x, f"discount of {echo(a)}"))
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
