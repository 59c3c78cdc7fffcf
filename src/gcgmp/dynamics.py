"""Runs of a model: configurations, guarded steps, lassos, play values.

A *configuration* pairs a state with the vector of running utilities.  One
*step* under an action profile checks availability and guards against the
current utilities, then adds each agent's discounted payoff::

    u'_a  =  u_a + d_a ** step_index * payoff_a(state, profile)

Step indices count from 1 at the start of a run, so an undiscounted agent
(d = 1) accumulates raw payoffs while a fully discounted one (d = 0) never
changes utility.

Infinite runs are represented as *lassos* (``Play``): a finite configuration
sequence whose last configuration loops back onto an earlier position.
States and profiles past the stored prefix fold back into the cycle.  A
lasso is *exact* when replaying its cycle reproduces the same configurations
forever (true when every agent either has discount 1, or accrues nothing over
the cycle); a ``total`` play value exists only on an exact lasso.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterator, NamedTuple, Optional

from .arith import Rational, eval_acf, exact
from .errors import (
    Divergent,
    GuardViolation,
    IndexOutOfRange,
    InvalidState,
    NotLasso,
    TooLarge,
    UndiscountedDiscounted,
    echo,
)
from .model import Gcgmp, Profile, ValueSemantics


class Configuration(NamedTuple):
    """A state and every agent's running utility.  A search key built and
    hashed at every step, hence a named tuple: hashing and equality run in C
    (``2`` and ``Fraction(2)`` are equal utilities with equal hashes).  JSON
    would write a tuple as a bare list, so every report goes through
    ``as_json``."""

    state: str
    # one per agent, in model agent order; exact rationals: int when integral, else Fraction
    utilities: tuple[Rational, ...]

    def as_json(self) -> dict:
        return {"state": self.state, "utilities": [str(u) for u in self.utilities]}


def initial_config(m: Gcgmp, state: str, utilities=None) -> Configuration:
    if state not in m.state_set:
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
    if c.state not in m.state_set:
        raise InvalidState(c.state)
    idx = m.agent_index(agent)
    return frozenset(m.enabled_actions(agent, c.state, c.utilities[idx]))


def enabled_pools(m: Gcgmp, c: Configuration) -> tuple:
    """Each agent's guard-enabled actions at ``c``, in agent order, read off
    the model's region tables: the point region when the utility is a
    threshold, else the interval region below the next threshold up."""
    pools = []
    for a, u in zip(m.agents, c.utilities):
        ts, _, enabled = m.region_tables.get((a, c.state)) or m.regions(a, c.state)
        i = bisect_left(ts, u)
        pools.append(enabled[2 * i + (i < len(ts) and ts[i] == u)])
    return tuple(pools)


def step(m: Gcgmp, c: Configuration, profile: Profile, step_index: int = 1) -> Configuration:
    """Apply one guarded transition.

    When several agents are blocked at once, GuardViolation names the
    lexicographically least of them, so failures are deterministic.
    """
    if len(profile) != len(m.agents):
        raise ValueError(f"profile {echo(profile)} has wrong arity for {len(m.agents)} agents")
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

    Reads the model's step table, through `Gcgmp.step_entry`.
    """
    target, adds, scaled = m.step_table.get((c.state, profile)) or m.step_entry(c.state, profile)
    if scaled:
        adds = [x if s is None else s[0] ** step_index * s[1] for x, s in zip(adds, scaled)]
    return Configuration(target, tuple(map(add, c.utilities, adds)))


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
                f"final state {echo(self.configs[-1].state)} does not rejoin "
                f"position {self.loop} ({echo(self.configs[self.loop].state)})"
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
                f"agent {echo(agent)} has discount {echo(d, str)}; discounted values need d < 1"
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
    """The configuration graph reachable from ``root``, as a game.

    ``pools[node]`` lists each agent's guard-enabled actions at the node, in
    agent order, and ``succ[(node, profile)]`` is the successor under an
    enabled profile; both are in breadth-first order, and every edge end is
    the stored node key itself.  Node keys are configurations, extended with
    the step index whenever some discount lies strictly between 0 and 1
    (then depth changes increments, so equal configurations at different
    depths are distinct dynamics nodes).  ``unexpanded`` holds the nodes at
    the depth limit that still had enabled moves; the graph is truncated
    exactly when that is nonempty.
    """

    pools: dict
    succ: dict
    root: object
    step_indexed: bool = False
    unexpanded: frozenset = frozenset()

    @property
    def truncated(self) -> bool:
        return bool(self.unexpanded)


#: The most nodes ``explore`` builds; one more is TooLarge.  A one-state,
#: one-agent counter reaches it in about 1.0 s at 108 MB of peak RSS.
MAX_GRAPH_NODES = 250_000


def explore(m: Gcgmp, init: Configuration, depth: Optional[int] = None,
            cap: Optional[Rational] = None) -> ExploreResult:
    """Breadth-first expansion of the guarded configuration graph.

    Nodes at distance ``depth`` get their pools but no successors; with no
    ``depth`` the search runs until the graph closes.  A ``cap`` clamps every
    utility, the start's included, to ``min(u, cap)``.  A graph of more than
    ``MAX_GRAPH_NODES`` nodes is TooLarge.  Moves come from `Gcgmp.moves`, and
    `successor` only where increments depend on the step (``step_indexed``).
    """
    if depth is not None and depth < 0:
        raise ValueError("depth must be non-negative")
    indexed, caps = m.step_indexed, itertools.repeat(cap)
    if cap is not None:
        init = Configuration(init.state, tuple(map(min, init.utilities, caps)))
    root = (init, 1) if indexed else init
    seen = {root: root}  # one stored copy per node; edges share it
    pools = {root: enabled_pools(m, init)}
    succ: dict = {}
    unexpanded = set()
    frontier = [(init, 1, root)]
    dist = 0
    while frontier:
        if dist == depth:
            unexpanded.update(k for _, _, k in frontier if all(pools[k]))
            break
        nxt = []
        for c, l, k in frontier:
            pool = pools[k]  # enabled: no guard re-check
            for prof, (target, adds, _) in m.move_table.get((c.state, pool)) or m.moves(c.state, pool):
                us2 = successor(m, c, prof, l).utilities if indexed else map(add, c.utilities, adds)
                c2 = Configuration(target, tuple(us2 if cap is None else map(min, us2, caps)))
                k2 = (c2, l + 1) if indexed else c2
                known = succ[(k, prof)] = seen.setdefault(k2, k2)
                if known is k2:
                    if len(seen) > MAX_GRAPH_NODES:
                        raise TooLarge(f"the configuration graph has more than "
                                       f"{MAX_GRAPH_NODES:,} nodes")
                    pools[k2] = enabled_pools(m, c2)
                    nxt.append((c2, l + 1, k2))
        frontier = nxt
        dist += 1
    return ExploreResult(pools, succ, root, indexed, frozenset(unexpanded))


def dot_lines(result: ExploreResult) -> Iterator[str]:
    """Render an exploration as Graphviz DOT text, one newline-ended line at
    a time, so that a large graph can be written out without holding it.

    Node labels read ``state | u1,u2,…``; nodes cut short by the step budget
    while moves were still enabled are drawn dashed.
    """
    names = {k: f"n{i}" for i, k in enumerate(result.pools)}
    yield "digraph gcgmp {\n  rankdir=LR;\n"
    for k in result.pools:
        if result.step_indexed:
            c, l = k
            extra = f" @l={l}"
        else:
            c, extra = k, ""
        us = ",".join(str(u) for u in c.utilities)
        style = ", style=dashed" if k in result.unexpanded else ""
        yield f'  {names[k]} [label="{c.state} | {us}{extra}"{style}];\n'
    for (src, prof), dst in result.succ.items():
        yield f'  {names[src]} -> {names[dst]} [label="{",".join(prof)}"];\n'
    yield "}\n"

