"""Two-counter machines and their embedding into guarded game models.

A machine configuration is a control state plus two non-negative counters.
Each transition names the zero-test pattern it expects (``tests``: 1 means
"this counter is nonzero", 0 means "this counter is zero") and how the
counters move (``effects``: -1, 0, or +1 each).  Reaching a final state is
halting.

``encode`` turns a machine into a two-player game in which player p1
schedules transitions and the counters live in the players' utilities.
Each machine step becomes two game steps: a selection step from the
control state into a per-transition checkpoint state, then an apply step
that books the counter effects.  The two variants differ in who polices
the zero-test claims:

* ``guard-based``: at the checkpoint each player's continue action is
  guarded by the claimed test on their own utility; a false claim forces
  the play into an absorbing ``err`` sink.  Halting becomes
  ``<<p1>> F halt``.
* ``state-based``: no guards at all.  Claiming "nonzero" costs that
  counter one unit at the selection step (repaid at the apply step), so a
  false nonzero-claim drags the utility to -1 at the checkpoint, and a
  false zero-claim is visible through the checkpoint's e1/e2 labels.  The
  formula keeps plays honest: utilities must stay non-negative and match
  every zero claim until halt.

Either formula names only labels the encoded game carries: an ``e1``/``e2``
honesty conjunct is left out when no checkpoint claims that counter zero,
and a machine without finals gets ``false`` as its goal.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from typing import Union

from .dynamics import Configuration, initial_config
from .errors import echo
from .logic import Formula, bind_formula, format_formula, parse_formula
from .model import Gcgmp, model_from_dict


@dataclass(frozen=True)
class TcmTransition:
    source: str
    tests: tuple[int, int]  # per counter: 1 = must be nonzero, 0 = must be zero
    target: str
    effects: tuple[int, int]  # per counter: -1 | 0 | +1


@dataclass(frozen=True)
class TwoCounterMachine:
    states: tuple[str, ...]
    initial: str
    finals: frozenset[str]
    transitions: tuple[TcmTransition, ...]


@dataclass(frozen=True)
class TcmConfiguration:
    state: str
    counters: tuple[int, int]


@dataclass(frozen=True)
class Halts:
    """A shortest halting run: visited configurations and the transition
    indices taken between them."""

    trace: tuple[TcmConfiguration, ...]
    transitions: tuple[int, ...]

    @property
    def steps(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class NoWithinBudget:
    budget: int


SearchOutcome = Union[Halts, NoWithinBudget]


def _check_machine(tcm: TwoCounterMachine):
    if len(set(tcm.states)) != len(tcm.states):
        raise ValueError("duplicate machine states")
    if tcm.initial not in tcm.states:
        raise ValueError(f"initial state {echo(tcm.initial)} is not a machine state")
    for s in tcm.finals:
        if s not in tcm.states:
            raise ValueError(f"final state {echo(s)} is not a machine state")
    for i, t in enumerate(tcm.transitions):
        if t.source not in tcm.states:
            raise ValueError(f"transition {i}: unknown source {echo(t.source)}")
        if t.target not in tcm.states:
            raise ValueError(f"transition {i}: unknown target {echo(t.target)}")
        for c in (0, 1):
            if t.tests[c] not in (0, 1):
                raise ValueError(f"transition {i}: test must be 0 or 1")
            if t.effects[c] not in (-1, 0, 1):
                raise ValueError(f"transition {i}: effect must be -1, 0, or +1")
            if t.tests[c] == 0 and t.effects[c] == -1:
                raise ValueError(
                    f"transition {i}: cannot decrement counter {c + 1} "
                    "where the same transition asserts it is zero"
                )


def make_machine(states, initial, finals, transitions) -> TwoCounterMachine:
    tcm = TwoCounterMachine(
        tuple(states),
        initial,
        frozenset(finals),
        tuple(
            TcmTransition(src, (int(e1), int(e2)), dst, (int(c1), int(c2)))
            for (src, e1, e2, dst, c1, c2) in transitions
        ),
    )
    _check_machine(tcm)
    return tcm


def tcm_from_dict(doc: dict) -> TwoCounterMachine:
    """Read a machine document; ValueError for shapes it cannot hold."""
    if not isinstance(doc, dict):
        raise ValueError("a machine document must be a JSON object")
    states, finals, rows = doc["states"], doc.get("finals", []), doc.get("transitions", [])
    for field, value in (("states", states), ("finals", finals), ("transitions", rows)):
        if not isinstance(value, list):
            raise ValueError(f"{field} must be a list")
    if not all(isinstance(s, str) for s in states + finals):
        raise ValueError("machine states must be strings")
    transitions = []
    for i, t in enumerate(rows):
        if not isinstance(t, dict):
            raise ValueError(f"transition {i} must be a JSON object")
        row = (t["from"], t["e1"], t["e2"], t["to"], t["c1"], t["c2"])
        if not all(type(n) is int for n in row[1:3] + row[4:]):
            raise ValueError(f"transition {i}: tests and effects must be integers")
        transitions.append(row)
    return make_machine(states, doc["initial"], finals, transitions)


def tcm_to_dict(tcm: TwoCounterMachine) -> dict:
    return {
        "states": list(tcm.states),
        "initial": tcm.initial,
        "finals": sorted(tcm.finals),
        "transitions": [
            {
                "from": t.source,
                "e1": t.tests[0],
                "e2": t.tests[1],
                "to": t.target,
                "c1": t.effects[0],
                "c2": t.effects[1],
            }
            for t in tcm.transitions
        ],
    }


def load_tcm(path) -> TwoCounterMachine:
    with open(path, "r", encoding="utf-8") as fh:
        return tcm_from_dict(json.load(fh))


def dump_tcm(tcm: TwoCounterMachine, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tcm_to_dict(tcm), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- machine dynamics ---------------------------------------------------------


def initial_tcm_config(tcm: TwoCounterMachine) -> TcmConfiguration:
    return TcmConfiguration(tcm.initial, (0, 0))


def enabled_transitions(tcm: TwoCounterMachine, conf: TcmConfiguration) -> list[int]:
    """Indices of transitions whose source and zero-tests match ``conf``."""
    out = []
    for i, t in enumerate(tcm.transitions):
        if t.source != conf.state:
            continue
        if all((conf.counters[c] > 0) == bool(t.tests[c]) for c in (0, 1)):
            out.append(i)
    return out


def _successors(tcm: TwoCounterMachine, conf: TcmConfiguration):
    """Each enabled transition's index and the configuration it leads to."""
    for i in enabled_transitions(tcm, conf):
        t = tcm.transitions[i]
        yield i, TcmConfiguration(
            t.target, (conf.counters[0] + t.effects[0], conf.counters[1] + t.effects[1])
        )


def tcm_step(tcm: TwoCounterMachine, conf: TcmConfiguration) -> list[TcmConfiguration]:
    """All successor configurations, in transition order."""
    return [nxt for _, nxt in _successors(tcm, conf)]


def halting_search(tcm: TwoCounterMachine, budget: int) -> SearchOutcome:
    """Breadth-first search for a shortest run into a final state.

    ``budget`` bounds the run length in machine steps; counter values are
    unbounded, so without the budget this would not terminate.
    """
    start = initial_tcm_config(tcm)
    if start.state in tcm.finals:
        return Halts((start,), ())
    seen = {start}
    queue = deque([(start, (start,), ())])
    while queue:
        conf, trace, taken = queue.popleft()
        if len(taken) >= budget:
            continue
        for i, nxt in _successors(tcm, conf):
            if nxt in seen:
                continue
            seen.add(nxt)
            trace2 = trace + (nxt,)
            taken2 = taken + (i,)
            if nxt.state in tcm.finals:
                return Halts(trace2, taken2)
            queue.append((nxt, trace2, taken2))
    return NoWithinBudget(budget)


# --- game encoding --------------------------------------------------------


GUARD_BASED = "guard-based"
STATE_BASED = "state-based"
VARIANTS = (GUARD_BASED, STATE_BASED)

_RESERVED = re.compile(r"^(err|step\d+)$")


@dataclass(frozen=True)
class EncodedGame:
    model: Gcgmp
    initial: Configuration
    formula: Formula
    formula_text: str
    variant: str


def _claim_guard(player: str, nonzero: bool) -> str:
    return f"v_{player} >= 1" if nonzero else f"v_{player} = 0"


def _claim_guard_negation(player: str, nonzero: bool) -> str:
    return f"v_{player} < 1" if nonzero else f"v_{player} > 0 | v_{player} < 0"


def encode(tcm: TwoCounterMachine, variant: str) -> EncodedGame:
    """Embed the machine into a guarded game for players p1 and p2.

    Counters ride along as the two players' utilities; control states and
    per-transition checkpoints become game states; p1 picks transitions.
    A ``halt``-labelled absorbing state marks each machine final.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown encoding variant {echo(variant)}; pick from {VARIANTS}")
    _check_machine(tcm)
    for s in tcm.states:
        if _RESERVED.match(s):
            raise ValueError(
                f"machine state {echo(s)} collides with a reserved game state name"
            )

    guard_based = variant == GUARD_BASED
    states = []
    transitions: list = []
    payoffs: list = []
    labels: dict = {}
    guards: list = []
    avail: dict = {}

    def add_state(name, p1_moves, p2_moves):
        states.append(name)
        avail[name] = {"p1": p1_moves, "p2": p2_moves}

    def add_edge(state, prof, target, pay):
        profile = {"p1": prof[0], "p2": prof[1]}
        transitions.append({"from": state, "profile": profile, "to": target})
        payoffs.append({
            "state": state,
            "profile": profile,
            "values": {"p1": str(pay[0]), "p2": str(pay[1])},
        })

    outgoing: dict[str, list[int]] = {s: [] for s in tcm.states}
    for i, t in enumerate(tcm.transitions):
        if t.source not in tcm.finals:  # finals absorb; their exits are dead
            outgoing[t.source].append(i)

    # control states
    for s in tcm.states:
        if s in tcm.finals:
            add_state(s, ["go"], ["go"])
            add_edge(s, ("go", "go"), s, (0, 0))
            labels[s] = ["halt"]
            continue
        moves = [f"t{i}" for i in outgoing[s]] or ["stay"]
        add_state(s, moves, ["go"])
        if not outgoing[s]:
            add_edge(s, ("stay", "go"), s, (0, 0))
        for i in outgoing[s]:
            t = tcm.transitions[i]
            if guard_based:
                dip = (0, 0)
            else:
                dip = (-t.tests[0], -t.tests[1])
            add_edge(s, (f"t{i}", "go"), f"step{i}", dip)

    # per-transition checkpoints
    for i, t in enumerate(tcm.transitions):
        if t.source in tcm.finals:
            continue
        name = f"step{i}"
        if guard_based:
            add_state(name, ["ok", "bail"], ["ok", "bail"])
            for k, player in enumerate(["p1", "p2"]):
                nonzero = bool(t.tests[k])
                guards.append({
                    "agent": player, "state": name, "action": "ok",
                    "formula": _claim_guard(player, nonzero),
                })
                guards.append({
                    "agent": player, "state": name, "action": "bail",
                    "formula": _claim_guard_negation(player, nonzero),
                })
            for prof in [("ok", "ok"), ("ok", "bail"), ("bail", "ok"), ("bail", "bail")]:
                if prof == ("ok", "ok"):
                    add_edge(name, prof, t.target, t.effects)
                else:
                    add_edge(name, prof, "err", (0, 0))
        else:
            add_state(name, ["go"], ["go"])
            refund = (
                t.effects[0] + t.tests[0],
                t.effects[1] + t.tests[1],
            )
            add_edge(name, ("go", "go"), t.target, refund)
        claim_labels = [f"e{k + 1}" for k in (0, 1) if t.tests[k] == 0]
        if claim_labels:
            labels[name] = claim_labels

    if guard_based:
        add_state("err", ["go"], ["go"])
        add_edge("err", ("go", "go"), "err", (0, 0))

    doc = {
        "agents": ["p1", "p2"],
        "states": states,
        "actions": {
            "p1": sorted({a for per in avail.values() for a in per["p1"]}),
            "p2": sorted({a for per in avail.values() for a in per["p2"]}),
        },
        "available": avail,
        "transitions": transitions,
        "payoffs": payoffs,
        "labels": labels,
        "guards": guards,
        "value_semantics": "total",
    }
    model = model_from_dict(doc)
    start = initial_config(model, tcm.initial)

    # name only labels some state carries: an absent one is false everywhere,
    # so dropping its conjunct (or using `false` as the goal) changes nothing
    goal = "halt" if "halt" in model.atoms else "false"
    if guard_based:
        text = f"<<p1>>(true U {goal})"
    else:
        honest = ["v_p1 >= 0", "v_p2 >= 0"] + [
            f"!({e} & !(v_{p} = 0))"
            for e, p in (("e1", "p1"), ("e2", "p2"))
            if e in model.atoms
        ]
        text = f"<<p1>>(({' & '.join(honest)}) U {goal})"
    formula = bind_formula(model, parse_formula(text))
    return EncodedGame(model, start, formula, format_formula(formula), variant)
