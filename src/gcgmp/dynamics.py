"""Runs of a model: configurations, guarded steps, lassos, play values.

A *configuration* pairs a state with the vector of running utilities.  One
*step* under an action profile checks availability and guards against the
current utilities, then adds each agent's discounted payoff::

    u'_a  =  u_a + d_a ** step_index * payoff_a(state, profile)

Step indices count from 1 at the start of a run, so an undiscounted agent
(d = 1) accumulates raw payoffs while a fully discounted one (d = 0) never
changes utility.

Infinite runs are represented as *lassos*: a finite configuration sequence
whose last configuration loops back onto an earlier position.  A lasso is
*exact* when replaying its cycle reproduces the same configurations forever
(true when every agent either has discount 1, or accrues nothing over the
cycle); only exact lassos can be projected beyond their stored prefix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .arith import Rational, eval_acf, exact
from .errors import (
    Divergent,
    GuardViolation,
    IndexOutOfRange,
    InvalidState,
    NotLasso,
    UndiscountedDiscounted,
)
from .model import Gcgmp, Profile, ValueSemantics


class Configuration(NamedTuple):
    """A state and every agent's running utility.  A search key built and
    hashed at every step, hence a named tuple: hashing and equality run in C
    (``2`` and ``Fraction(2)`` are equal utilities with equal hashes).  JSON
    would write a tuple as a bare list, so reports go through
    ``cli._config_json`` or ``checker._trace``."""

    state: str
    # one per agent, in model agent order; exact rationals: int when integral, else Fraction
    utilities: tuple[Rational, ...]


def initial_config(m: Gcgmp, state: str, utilities=None) -> Configuration:
    if state not in m.states:
        raise InvalidState(state)
    if utilities is None:
        utilities = (0,) * len(m.agents)
    else:
        utilities = tuple(map(exact, utilities))
        if len(utilities) != len(m.agents):
            raise ValueError(
                f"expected {len(m.agents)} utilities, got {len(utilities)}"
            )
    return Configuration(state, utilities)


def enabled_actions(m: Gcgmp, c: Configuration, agent: str) -> frozenset[str]:
    """Actions available to ``agent`` whose guard accepts the current utility."""
    if c.state not in m.states:
        raise InvalidState(c.state)
    idx = m.agent_index(agent)
    return frozenset(m.enabled_actions(agent, c.state, c.utilities[idx]))


def enabled_pools(m: Gcgmp, c: Configuration, cache: dict) -> tuple:
    """Each agent's guard-enabled actions at ``c``, in agent order.  ``cache``
    keeps them on (agent, state, own utility), which is all a guard reads."""
    pools = []
    for key in zip(m.agents, itertools.repeat(c.state), c.utilities):
        if key not in cache:
            cache[key] = m.enabled_actions(*key)
        pools.append(cache[key])
    return tuple(pools)


def enabled_profiles(m: Gcgmp, c: Configuration) -> Iterator[Profile]:
    """All action profiles whose every component guard accepts ``c``."""
    return itertools.product(*enabled_pools(m, c, {}))


def step(m: Gcgmp, c: Configuration, profile: Profile, step_index: int = 1) -> Configuration:
    """Apply one guarded transition.

    When several agents are blocked at once, GuardViolation names the
    lexicographically least of them, so failures are deterministic.
    """
    if len(profile) != len(m.agents):
        raise ValueError(f"profile {profile!r} has wrong arity for {len(m.agents)} agents")
    blocked = []
    for i, (agent, act) in enumerate(zip(m.agents, profile)):
        if act not in m.available_of(agent, c.state):
            blocked.append((agent, act, "not available"))
            continue
        guard = m.guard_of(agent, c.state, act)
        if not eval_acf(guard, {agent: c.utilities[i]}):
            blocked.append((agent, act, "guard rejects utility"))
    if blocked:
        agent, act, why = min(blocked, key=lambda b: b[0])
        raise GuardViolation(agent, act, step_index, reason=why)
    return successor(m, c, profile, step_index)


def successor(m: Gcgmp, c: Configuration, profile: Profile, step_index: int) -> Configuration:
    """The configuration one unchecked step later: no availability or guard test.

    Discounts 1 and 0 (at positive step indices) take a shortcut around the
    ``Fraction`` power, which dominates deep undiscounted searches.
    """
    us = []
    pays = m.payoffs[(c.state, profile)]
    for a, kind, u, p in zip(m.agents, m.discount_kinds, c.utilities, pays):
        if kind == "one":
            us.append(u + p)
        elif kind == "zero" and step_index > 0:
            us.append(u)
        else:
            us.append(u + m.discounts[a] ** step_index * p)
    return Configuration(m.transitions[(c.state, profile)], tuple(us))


@dataclass(frozen=True)
class History:
    """A finite guarded run: configurations c_0..c_n and the profiles between."""

    configs: tuple[Configuration, ...]
    profiles: tuple[Profile, ...]
    start_index: int = 1  # step index of the first transition

    def __post_init__(self):
        if len(self.configs) != len(self.profiles) + 1:
            raise ValueError("a history has one more configuration than profiles")

    @property
    def current(self) -> Configuration:
        return self.configs[-1]

    def extend(self, m: Gcgmp, profile: Profile) -> "History":
        nxt = step(m, self.current, profile, self.start_index + len(self.profiles))
        return History(self.configs + (nxt,), self.profiles + (profile,), self.start_index)


def run_profiles(m: Gcgmp, init: Configuration, profiles, start_index: int = 1) -> History:
    h = History((init,), (), start_index)
    for prof in profiles:
        h = h.extend(m, tuple(prof))
    return h


@dataclass(frozen=True)
class Play:
    """A lasso: configurations c_0..c_n, profiles between them, and the index
    the final configuration loops back to (its state must match c_loop)."""

    configs: tuple[Configuration, ...]
    profiles: tuple[Profile, ...]
    loop: int
    start_index: int = 1

    def __post_init__(self):
        if len(self.configs) != len(self.profiles) + 1:
            raise ValueError("a play has one more configuration than profiles")
        if not self.profiles:
            raise NotLasso("a lasso needs at least one transition")
        if not 0 <= self.loop < len(self.profiles):
            raise NotLasso(f"loop index {self.loop} outside the play")
        if self.configs[-1].state != self.configs[self.loop].state:
            raise NotLasso(
                f"final state {self.configs[-1].state!r} does not rejoin "
                f"position {self.loop} ({self.configs[self.loop].state!r})"
            )

    @property
    def cycle_length(self) -> int:
        return len(self.profiles) - self.loop

    def state_at(self, i: int) -> str:
        return self.configs[self._fold(i)].state

    def profile_at(self, i: int) -> Profile:
        if i < 0:
            raise IndexOutOfRange(f"position {i}")
        if i < len(self.profiles):
            return self.profiles[i]
        return self.profiles[self.loop + (i - self.loop) % self.cycle_length]

    def _fold(self, i: int) -> int:
        if i < 0:
            raise IndexOutOfRange(f"position {i}")
        if i < len(self.configs):
            return i
        return self.loop + (i - self.loop) % self.cycle_length


def from_history(h: History, loop: int) -> Play:
    return Play(h.configs, h.profiles, loop, h.start_index)


def cycle_increments(m: Gcgmp, play: Play, agent: str) -> list[Fraction]:
    """Discounted utility increments the agent sees along one lap of the cycle."""
    d = m.discounts[agent]
    out = []
    for i in range(play.loop, len(play.profiles)):
        pay = m.payoff_of(agent, play.configs[i].state, play.profiles[i])
        out.append(d ** (play.start_index + i) * pay)
    return out


def is_exact_lasso(m: Gcgmp, play: Play) -> bool:
    """Whether replaying the cycle reproduces identical configurations forever.

    Requires the closing configuration to equal the loop target, and for each
    agent either discount exactly 1 (laps repeat verbatim) or no utility
    movement anywhere in the cycle (later laps scale a zero by d**k).
    """
    return play.configs[-1] == play.configs[play.loop] and all(
        kind == "one" or not any(cycle_increments(m, play, a))
        for a, kind in zip(m.agents, m.discount_kinds)
    )


def project(p, kind: str, i: int, m: Gcgmp | None = None):
    """Positional projection of a play or history.

    ``kind`` selects what position ``i`` yields: ``"c"`` the configuration,
    ``"u"`` the utility vector, ``"s"`` the state, ``"a"`` the action profile.
    Histories are strict about range.  Play positions beyond the stored
    prefix fold back into the cycle; states and profiles always fold soundly,
    but configurations and utilities do so only when the cycle actually
    repeats them, so those kinds insist the closing configuration equals the
    loop target (and, when a model is supplied, on agents accruing nothing
    over the cycle unless undiscounted).
    """
    if kind not in ("c", "u", "s", "a"):
        raise ValueError(f"unknown projection kind {kind!r}")
    if i < 0:
        raise IndexOutOfRange(f"position {i}")
    if isinstance(p, History):
        if kind == "a":
            if i >= len(p.profiles):
                raise IndexOutOfRange(f"position {i} of a {len(p.profiles)}-step history")
            return p.profiles[i]
        if i >= len(p.configs):
            raise IndexOutOfRange(f"position {i} of a {len(p.profiles)}-step history")
        c = p.configs[i]
    else:
        if kind == "a":
            return p.profile_at(i)
        if i >= len(p.configs) and kind in ("c", "u"):
            exact = is_exact_lasso(m, p) if m is not None else (
                p.configs[-1] == p.configs[p.loop]
            )
            if not exact:
                raise NotLasso(
                    "cycle does not repeat configurations exactly; utilities "
                    "beyond the stored prefix are undefined"
                )
        c = p.configs[p._fold(i)]
    if kind == "c":
        return c
    if kind == "u":
        return c.utilities
    return c.state


def play_value(m: Gcgmp, play: Play, agent: str) -> Fraction:
    """The long-run value ``w_<agent>`` of the lasso under the model's semantics.

    mean-limit   average raw payoff over one cycle lap
    discounted   discounted payoff sum of the whole infinite run (needs d < 1)
    total        eventual utility; Divergent unless the cycle accrues nothing
    """
    idx = m.agent_index(agent)
    d = m.discounts[agent]
    k = play.cycle_length
    if m.value_semantics is ValueSemantics.MEAN_LIMIT:
        total = sum(
            (m.payoff_of(agent, play.state_at(i), play.profile_at(i))
             for i in range(play.loop, play.loop + k)),
            Fraction(0),
        )
        return total / k
    if m.value_semantics is ValueSemantics.DISCOUNTED:
        if d >= 1:
            raise UndiscountedDiscounted(
                f"agent {agent!r} has discount {d}; discounted values need d < 1"
            )
        prefix = sum(
            (d ** (play.start_index + i)
             * m.payoff_of(agent, play.state_at(i), play.profile_at(i))
             for i in range(play.loop)),
            Fraction(0),
        )
        cycle = sum(
            (d ** t * m.payoff_of(agent, play.state_at(play.loop + t),
                                  play.profile_at(play.loop + t))
             for t in range(k)),
            Fraction(0),
        )
        return prefix + d ** (play.start_index + play.loop) * cycle / (1 - d ** k)
    # total: utilities must settle, i.e. the cycle adds nothing for this agent
    if not is_exact_lasso(m, play):
        raise NotLasso("total value needs a configuration-exact lasso")
    if any(x != 0 for x in cycle_increments(m, play, agent)):
        raise Divergent(agent)
    return play.configs[play.loop].utilities[idx]


# --- bounded reachability ----------------------------------------------------


@dataclass(frozen=True)
class ExploreResult:
    """Configuration graph reachable within a step budget.

    Node keys are configurations, extended with the step index whenever some
    discount lies strictly between 0 and 1 (then depth changes increments, so
    equal configurations at different depths are distinct dynamics nodes).
    ``unexpanded`` holds the frontier nodes that still had enabled moves when
    the budget ran out; the graph is truncated exactly when that is nonempty.
    """

    nodes: tuple = ()
    edges: tuple = ()  # (source key, profile, target key)
    truncated: bool = False
    step_indexed: bool = False
    root: object = None
    bound: int = 0
    unexpanded: frozenset = frozenset()


def explore(m: Gcgmp, init: Configuration, depth: int, start_index: int = 1) -> ExploreResult:
    """Breadth-first expansion of the guarded configuration graph.

    Nodes at distance ``depth`` are kept but not expanded; ``truncated``
    reports whether any of them still had an enabled move.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    indexed = m.step_indexed

    def key(c: Configuration, l: int):
        return (c, l) if indexed else c

    init_key = key(init, start_index)
    seen = {init_key: init_key}  # one stored copy per node; edges share it
    order = [init_key]
    edges = []
    frontier = [(init, start_index, init_key)]
    unexpanded = set()
    enabled: dict = {}
    for dist in range(depth + 1):
        if not frontier:
            break  # the graph closed before the horizon
        nxt = []
        for c, l, k in frontier:
            profs = list(itertools.product(*enabled_pools(m, c, enabled)))
            if dist == depth:
                if profs:
                    unexpanded.add(k)
                continue
            for prof in profs:  # enabled already: no guard re-check
                c2 = successor(m, c, prof, l)
                k2 = key(c2, l + 1)
                known = seen.setdefault(k2, k2)
                edges.append((k, prof, known))
                if known is k2:
                    order.append(k2)
                    nxt.append((c2, l + 1, k2))
        frontier = nxt
    return ExploreResult(
        tuple(order),
        tuple(edges),
        bool(unexpanded),
        indexed,
        root=init_key,
        bound=depth,
        unexpanded=frozenset(unexpanded),
    )


def dot_lines(result: ExploreResult) -> Iterator[str]:
    """Render an exploration as Graphviz DOT text, one newline-ended line at
    a time, so that a large graph can be written out without holding it.

    Node labels read ``state | u1,u2,…``; nodes cut short by the step budget
    while moves were still enabled are drawn dashed.
    """
    names = {k: f"n{i}" for i, k in enumerate(result.nodes)}
    yield "digraph gcgmp {\n  rankdir=LR;\n"
    for k in result.nodes:
        if result.step_indexed:
            c, l = k
            extra = f" @l={l}"
        else:
            c, extra = k, ""
        us = ",".join(str(u) for u in c.utilities)
        style = ", style=dashed" if k in result.unexpanded else ""
        yield f'  {names[k]} [label="{c.state} | {us}{extra}"{style}];\n'
    for src, prof, dst in result.edges:
        yield f'  {names[src]} -> {names[dst]} [label="{",".join(prof)}"];\n'
    yield "}\n"


def to_dot(result: ExploreResult) -> str:
    """The whole DOT text of ``dot_lines``, for reports that embed it."""
    return "".join(dot_lines(result))
