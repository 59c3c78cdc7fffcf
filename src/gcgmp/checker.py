"""Model-checking engines for coalition formulas over guarded game models.

Three engines with different scopes, one entry point choosing among them,
and a brute-force reference.  The first two share one fixpoint core
(``_fixpoint`` over the controllable predecessor ``_cpre``) and differ only
in the graph they run it on:

``check_atl``
    Qualitative fixpoint checking on the bare state graph (guards and
    utilities ignored).  Exact, fast, and only for formulas without
    utility comparisons.

``check_saturated``
    Exact checking for models whose payoffs are all non-negative and
    undiscounted.  Utilities then only grow, so every comparison against a
    constant stabilizes once a utility passes the largest constant B
    mentioned anywhere; clamping utilities to B+1 yields a finite graph of
    configurations, stepped by ``dynamics.successor`` under guard-enabled
    moves, on which coalition fixpoints are exact.

``check_bounded``
    Three-valued search for everything else.  Proponent strategies are
    enumerated lazily through an odometer over consultation points with
    conflict-directed backjumping; opponents branch freely (perfect
    recall) or under per-path commitment (memoryless).  Each sweep after
    a backjump resumes at a checkpoint of the last one instead of walking
    again from the root.  A play that revisits a configuration (possible
    only with 0/1 discounts) closes into a lasso and is judged exactly;
    open plays at the horizon come back Unknown.  True verdicts carry a
    replayable strategy table, False verdicts refuted-assignment traces.

``enumerate_oracle``
    An independent, deliberately naive enumeration of proponent/opponent
    strategy choices over the bounded tree.  Used to cross-validate the
    engines on tiny instances.

``check``
    The one entry point: it picks the engine (``auto`` tries them in the
    order above) and refuses a strategy-class pair that an exact engine
    does not answer for.

The oracle and ``replay_strategy_table``, the audit of a True verdict's
strategy table, share one literal play checker, ``_Literal``, which uses
none of the engines' successor or pool code.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

from .arith import _REL_FN, PathConstraint, eval_atom, exact, normalize_atom
from .arith import check_validity_single_var
from .dynamics import Configuration, Play, enabled_pools, play_value, step, successor
from .errors import (
    FragmentError,
    GcgmpError,
    NotApplicable,
    NotMonotone,
    TooLarge,
    VariableVsVariableAtom,
)
from .logic import (
    CHILDREN,
    Always,
    And,
    Apc,
    Constraint,
    Coop,
    Formula,
    FragmentTag,
    ML_CONFIG,
    Next,
    Not,
    Prop,
    STRATEGY_CLASSES,
    StrategyClassSpec,
    StrategyMemory,
    StrategyObservation,
    Tru,
    Until,
    classify,
    constraint_atoms,
    is_state_formula,
    is_xgu_body,
    subformulas,
)
from .model import Gcgmp

Vb = Union[bool, None]  # three-valued: None means "unknown"


def k_not(x: Vb) -> Vb:
    return None if x is None else (not x)


def k_and(x: Vb, y: Vb) -> Vb:
    if x is False or y is False:
        return False
    if x is None or y is None:
        return None
    return True


def k_or(x: Vb, y: Vb) -> Vb:
    if x is True or y is True:
        return True
    if x is None or y is None:
        return None
    return False


# --- results ---------------------------------------------------------------


@dataclass(frozen=True)
class StrategyTable:
    """One action per coalition member per consulted observation.

    Observation keys are canonical strings: the state name for state-based
    strategies, ``state|u1,u2`` for configuration-based ones, and
    `` > ``-joined sequences of those for perfect recall.
    """

    spec: StrategyClassSpec
    coalition: tuple[str, ...]
    moves: dict[str, dict[str, str]]  # agent -> observation key -> action

    def as_json(self) -> dict:
        return {
            "class": self.spec.short,
            "coalition": list(self.coalition),
            "moves": {a: dict(sorted(t.items())) for a, t in self.moves.items()},
        }


@dataclass
class Verdict:
    """Three-valued engine result with optional evidence.

    ``value`` is True, False, or None (unknown; only the bounded engine
    produces it).  True verdicts from the bounded engine carry a strategy
    table, False verdicts a list of refutation records, each a replayable
    trace together with the proponent commitments it refutes.
    """

    value: Vb
    witness: Optional[StrategyTable] = None
    counterexample: Optional[list] = None
    bound_used: Optional[int] = None

    def as_json(self) -> dict:
        name = {True: "true", False: "false", None: "unknown"}[self.value]
        out: dict = {"verdict": name}
        if self.witness is not None:
            out["witness"] = self.witness.as_json()
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.bound_used is not None:
            out["bound_used"] = self.bound_used
        return out


@dataclass(frozen=True)
class Budget:
    """Exploration limits for the bounded engine.

    ``depth`` is the maximal number of transitions along any play;
    ``max_strategies`` caps how many sweeps (proponent assignments) one
    coalition node may try; ``max_nodes`` caps the nodes the walks enter
    per call, over every horizon tried.  A resumed sweep does not enter
    again the nodes before its checkpoint, so they count once.
    """

    depth: int
    max_strategies: int = 4000
    max_nodes: int = 2_000_000


# --- qualitative fixpoints ---------------------------------------------------


def _cpre(agents, coalition, nodes, pools_of, succ_of, targets: frozenset) -> frozenset:
    """Nodes from which the coalition can force the next node into targets.

    The controllable predecessor of Alur, Henzinger & Kupferman (JACM 2002):
    some joint coalition move such that every opponent response leads into
    ``targets``.  ``pools_of(n)`` lists each agent's actions at ``n`` in
    ``agents`` order, and ``succ_of(n, profile)`` is the successor.  When no
    opponent has an action the coalition wins vacuously; when a member has
    none it loses.
    """
    mi, oi, weave = _split(agents, coalition)
    out = set()
    for n in nodes:
        pools = pools_of(n)
        responses = list(itertools.product(*[pools[i] for i in oi]))
        for mv in itertools.product(*[pools[i] for i in mi]):
            if all(succ_of(n, weave(mv + ov)) in targets for ov in responses):
                out.add(n)
                break
    return frozenset(out)


def _split(agents, coalition) -> tuple:
    """Agent positions of the coalition members and of the others, and the
    weaver that turns a joint move followed by a response, ``move + resp``,
    into a profile in agent order."""
    mi = [i for i, a in enumerate(agents) if a in coalition]
    oi = [i for i, a in enumerate(agents) if a not in coalition]
    if not (mi and oi):
        return mi, oi, tuple  # one side is empty: already in agent order
    order = sorted(range(len(agents)), key=(mi + oi).__getitem__)
    return mi, oi, operator.itemgetter(*order)


def _fixpoint(f: Formula, every: frozenset, leaf, pre) -> frozenset:
    """Satisfaction set of a state formula whose coalition bodies are X/G/U.

    ``every`` is the node set, ``leaf(g)`` the nodes satisfying a formula
    without connectives or modalities, and ``pre(coalition, z)`` the
    controllable predecessor of ``z``.
    """

    def sat(g) -> frozenset:
        if isinstance(g, Tru):
            return every
        if isinstance(g, Not):
            return every - sat(g.sub)
        if isinstance(g, And):
            return sat(g.left) & sat(g.right)
        if isinstance(g, Coop):
            body = g.body
            if isinstance(body, Next):
                return pre(g.coalition, sat(body.sub))
            if isinstance(body, Always):
                phi = sat(body.sub)
                z = every
                while True:
                    z2 = phi & pre(g.coalition, z)
                    if z2 == z:
                        return z
                    z = z2
            if isinstance(body, Until):
                phi1, phi2 = sat(body.left), sat(body.right)
                z = frozenset()
                while True:
                    z2 = phi2 | (phi1 & pre(g.coalition, z))
                    if z2 == z:
                        return z
                    z = z2
        return leaf(g)

    return sat(f)


def pre_states(m: Gcgmp, coalition: frozenset, targets: frozenset) -> frozenset:
    """States from which the coalition can force the next state into targets.

    Pure state-graph reasoning: availability only, guards ignored.
    """
    return _cpre(
        m.agents,
        coalition,
        m.states,
        lambda s: [m.available_of(a, s) for a in m.agents],
        lambda s, prof: m.transitions[(s, prof)],
        targets,
    )


def check_atl(m: Gcgmp, f: Formula) -> frozenset:
    """Exact satisfaction set of a constraint-free formula on the state graph."""
    if classify(f) is not FragmentTag.ATL_PURE:
        raise FragmentError(
            "the qualitative engine handles coalition formulas without "
            "utility comparisons only"
        )

    def leaf(g) -> frozenset:
        if isinstance(g, Prop):
            return frozenset(s for s in m.states if g.name in m.label_of(s))
        raise FragmentError(f"unsupported node in qualitative checking: {g!r}")

    return _fixpoint(f, frozenset(m.states), leaf, lambda co, z: pre_states(m, co, z))


# --- saturation engine -------------------------------------------------------


def saturation_cap(m: Gcgmp, f: Formula) -> Fraction:
    """One above the largest constant in the formula's and guards' atoms."""
    bound = Fraction(0)
    for a in constraint_atoms(f, m):
        kind = normalize_atom(a)
        if kind[0] == "mixed":
            raise VariableVsVariableAtom(
                "saturation cannot decide comparisons between two utility terms"
            )
        if kind[0] == "sum":
            bound = max(bound, kind[3])
    return bound + 1


def check_saturated(m: Gcgmp, c0: Configuration, f: Formula) -> Verdict:
    """Exact verdict for non-negative undiscounted models.

    Coalition fixpoints run over the finite graph of reachable configurations
    whose utilities are clamped to the cap, ``min(u, cap)``.  The clamp is
    exact: payoffs and start utilities are non-negative, and every atom in
    the formula or a guard is a sum of variables with positive counts
    against a constant d <= cap - 1, so any utility >= cap makes the sum
    exceed d whatever it is.  Clamping therefore never changes the truth of
    an atom or a guard, and the clamped graph is a bisimulation of the real
    one.
    """
    tag = classify(f)
    if tag is FragmentTag.NGL_STAR:
        raise FragmentError(
            "the saturation engine needs plain X/G/U coalition bodies over "
            "state formulas, without play-value atoms"
        )
    for (s, prof), pays in m.payoffs.items():
        for a, p in zip(m.agents, pays):
            if p < 0:
                raise NotMonotone(
                    f"payoff {p} for agent {a!r} at state {s!r} under "
                    f"{prof!r} is negative"
                )
    for a, d in m.discounts.items():
        if d != 1:
            raise NotMonotone(f"agent {a!r} has discount {d}; saturation needs 1")
    for a, u in zip(m.agents, c0.utilities):
        if u < 0:
            raise NotMonotone(f"start utility {u} for agent {a!r} is negative")

    cap = exact(saturation_cap(m, f))

    def clamp(c: Configuration) -> Configuration:
        return Configuration(c.state, tuple(min(u, cap) for u in c.utilities))

    # breadth-first closure of the clamped configuration graph, keeping each
    # node's guard-enabled actions per agent
    root = clamp(Configuration(c0.state, tuple(map(exact, c0.utilities))))
    cache: dict = {}
    pools = {root: enabled_pools(m, root, cache)}
    succ: dict[tuple, Configuration] = {}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for prof in itertools.product(*pools[node]):
            nxt = succ[(node, prof)] = clamp(successor(m, node, prof, 1))
            if nxt not in pools:
                pools[nxt] = enabled_pools(m, nxt, cache)
                queue.append(nxt)

    def leaf(g) -> frozenset:
        if isinstance(g, Prop):
            return frozenset(n for n in pools if g.name in m.label_of(n.state))
        if isinstance(g, Constraint):
            return frozenset(
                n for n in pools if eval_atom(g.atom, dict(zip(m.agents, n.utilities)))
            )
        raise FragmentError(f"unsupported node in saturation checking: {g!r}")

    def pre(coalition, z: frozenset) -> frozenset:
        return _cpre(
            m.agents, coalition, pools, pools.__getitem__,
            lambda n, prof: succ[(n, prof)], z,
        )

    return Verdict(root in _fixpoint(f, frozenset(pools), leaf, pre))


# --- bounded engine ----------------------------------------------------------


class _BudgetStop(Exception):
    """Internal: the node budget ran out; surfaces as an Unknown verdict."""


_OPEN = object()  # a walked node that is still to be expanded


@dataclass
class _Point:
    """One proponent consultation point in the odometer."""

    key: object  # _search_key of the observation
    obs: object  # _strategy_key of the same observation, for reports
    alts: list  # coalition joint moves enabled where the point was created
    idx: int = 0
    blame: set = field(default_factory=set)

    @property
    def move(self):
        return self.alts[self.idx]


@dataclass
class _Ctx:
    """Caches shared by every coalition node of one bounded check.

    Configurations are interned: ``intern`` maps each one to the single
    object that stands for it, the root included, so ``succ_cache`` and
    ``pool_cache`` key on ``id(c)`` and equal configurations meet by
    identity instead of comparing utilities.  ``pools(c)`` gives every
    agent's guard-enabled actions at once, filled from ``enabled_cache`` on
    (agent, state, own utility).  ``formula`` hash-conses formula nodes, so
    the memo keys on ``id(g)`` and equal subformulas share its entries.
    """

    m: Gcgmp
    sp: StrategyClassSpec
    so: StrategyClassSpec
    budget: Budget
    memo: dict = field(default_factory=dict)
    nodes_used: int = 0
    canon: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=dict)
    enabled_cache: dict = field(default_factory=dict)
    pool_cache: dict = field(default_factory=dict)
    succ_cache: dict = field(default_factory=dict)

    def tick(self):
        self.nodes_used += 1
        if self.nodes_used > self.budget.max_nodes:
            raise _BudgetStop()

    def intern(self, c: Configuration) -> Configuration:
        return self.canon.setdefault(c, c)

    def formula(self, g: Formula) -> Formula:
        """The canonical copy of ``g``: equal subformulas become one object."""
        kids = {k: self.formula(getattr(g, k)) for k in CHILDREN.get(type(g), ())}
        if kids:
            g = replace(g, **kids)
        return self.formulas.setdefault(g, g)

    def pools(self, c: Configuration) -> tuple:
        """Guard-enabled actions of every agent, in agent order, at an
        interned configuration."""
        hit = self.pool_cache.get(id(c))
        if hit is None:
            hit = self.pool_cache[id(c)] = enabled_pools(self.m, c, self.enabled_cache)
        return hit

    def succ(self, c: Configuration, prof: tuple, l: int) -> Configuration:
        """Interned successor of an interned configuration; no guard re-check."""
        key = (id(c), prof, l if self.m.step_indexed else 0)
        hit = self.succ_cache.get(key)
        if hit is None:
            hit = self.succ_cache[key] = self.intern(successor(self.m, c, prof, l))
        return hit


def _body_machine(body) -> tuple:
    """Initial evaluation state for a supported coalition body."""
    if isinstance(body, Apc):
        return ("APC", body.pc)
    if not is_xgu_body(body):
        raise FragmentError(
            "the bounded engine handles coalition bodies of the form X/G/U over "
            "state formulas, or a single play-value comparison"
        )
    if isinstance(body, Next):
        return ("X", body.sub)
    if isinstance(body, Always):
        return ("G", body.sub, True)
    return ("U", body.left, body.right, False, True)


def _check_supported(f: Formula):
    if not is_state_formula(f):
        raise FragmentError("only state formulas can be checked")
    for g in subformulas(f):
        if isinstance(g, Coop):
            _body_machine(g.body)


def _obs(observation: StrategyObservation, c: Configuration):
    if observation is StrategyObservation.STATE_BASED:
        return c.state
    return c


def _obs_str(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, Configuration):
        return f"{key.state}|{','.join(str(u) for u in key.utilities)}"
    return " > ".join(_obs_str(k) for k in key)


def _strategy_key(spec: StrategyClassSpec, path_configs: list) -> object:
    if spec.memory is StrategyMemory.MEMORYLESS:
        return _obs(spec.observation, path_configs[-1])
    return tuple(_obs(spec.observation, c) for c in path_configs)


def _search_key(spec: StrategyClassSpec, path_configs: list) -> object:
    """``_strategy_key`` with interned configurations standing for themselves by id."""
    if spec.observation is StrategyObservation.STATE_BASED:
        return _strategy_key(spec, path_configs)
    if spec.memory is StrategyMemory.MEMORYLESS:
        return id(path_configs[-1])
    return tuple(map(id, path_configs))


def observation_key(spec: StrategyClassSpec, configs) -> str:
    """The table key a strategy of this class consults after this history.

    Matches the keys used in StrategyTable moves: bare state, "state|u1,u2",
    or those joined by " > " under perfect recall.
    """
    return _obs_str(_strategy_key(spec, list(configs)))


def _trace(configs, profiles, loop) -> dict:
    steps = []
    for i, c in enumerate(configs):
        entry = {
            "state": c.state,
            "utilities": [str(u) for u in c.utilities],
        }
        if i < len(profiles):
            entry["profile"] = list(profiles[i])
        steps.append(entry)
    out = {"trace": steps}
    if loop is not None:
        out["loop"] = loop
    return out


class _CoopSolver:
    """Decides one coalition node: exists-proponent / for-all-opponent search.

    The proponent side is a persistent odometer over consultation points;
    each sweep fixes its committed choices and walks every opponent branch.
    A refuted sweep reports which points it actually consulted, and the
    odometer backjumps to the deepest of them, discarding younger points.

    A sweep resumes where the backjump lands instead of walking again from
    the root, which keeps the work of the unchanged moves as dynamic
    backtracking does (Ginsberg, JAIR 1993).  The walk is an explicit stack
    of immutable frames, each linked to its parent.  A consultation whose
    point id is higher than every id consulted before it in the sweep keeps
    a checkpoint: the node's folded state, the frame above it and copies of
    the path.  The walk up to that consultation read only lower points, and
    it is deterministic in their moves.  So after a backjump to point j,
    the next sweep starts at the first checkpoint whose id is at least j,
    and at the root if there is none.
    """

    def __init__(self, ctx: _Ctx, coop: Coop, c0: Configuration, l0: int, depth: int):
        self.ctx = ctx
        self.coop = coop
        self.c0 = c0
        self.l0 = l0
        self.depth = depth
        self.mi, self.oi, self.weave = _split(ctx.m.agents, coop.coalition)
        self.members = [ctx.m.agents[i] for i in self.mi]
        self.machine0 = _body_machine(coop.body)
        self.points: list[_Point] = []
        self.index: dict = {}
        self.records: list = []  # (configs, profiles, loop, refutes) per refutation
        self.sweep_consulted: dict = {}  # point ids in first-consulted order
        # (point id, frame, c, l, machine, consulted, n, path_configs,
        # path_profiles, tau_store) at each record-high consultation
        self.checkpoints: list = []
        self.capped = False  # gave up because of the sweep budget
        self.saw_refutation = False

    # -- odometer ------------------------------------------------------------

    def _consult(self, c: Configuration, path_configs: list):
        """Current committed coalition move at this node, creating the
        point if it is new.  Returns (move, point_id, invalid)."""
        if not self.members:
            return (), None, False
        key = _search_key(self.ctx.sp, path_configs)
        pid = self.index.get(key)
        pools = self.ctx.pools(c)
        if pid is None:
            alts = list(itertools.product(*[pools[i] for i in self.mi]))
            pid = len(self.points)
            obs = _strategy_key(self.ctx.sp, path_configs)
            self.points.append(_Point(key, obs, alts))
            self.index[key] = pid
        point = self.points[pid]
        self.sweep_consulted[pid] = None
        if not point.alts:
            return None, pid, True
        move = point.move
        # the committed action must be enabled here, not only where the
        # point was created
        for i, act in zip(self.mi, move):
            if act not in pools[i]:
                return None, pid, True
        return move, pid, False

    def _bump(self, conflict: set) -> Optional[int]:
        """Advance the odometer past a refuted assignment.  Returns the id
        of the point that moved, or None when the whole proponent space is
        exhausted."""
        work = set(conflict)
        while work:
            j = max(work)
            point = self.points[j]
            point.blame |= work - {j}
            point.idx += 1
            for p in self.points[j + 1 :]:
                self.index.pop(p.key, None)
            del self.points[j + 1 :]
            if point.idx < len(point.alts):
                return j
            work = set(point.blame)
            self.index.pop(point.key, None)
            del self.points[j]
        return None

    # -- one sweep -------------------------------------------------------

    def solve(self):
        sweeps = 0
        any_unknown = False
        start = None
        while True:
            sweeps += 1
            if sweeps > self.ctx.budget.max_strategies:
                self.capped = True
                return None, None, None
            value, conflict, record = self._walk(start)
            if value is True:
                return True, self._witness(), None
            if value is False:
                self.saw_refutation = True
                if len(self.records) < 50:
                    # a point with no enabled coalition move commits to nothing;
                    # the moves change on a bump, so they are named now
                    self.records.append(record + ({
                        _obs_str(self.points[i].obs): list(self.points[i].move)
                        for i in sorted(conflict)
                        if self.points[i].alts
                    },))
                if not conflict:
                    return False, None, self.records
                j = self._bump(conflict)
                if j is None:
                    if any_unknown:
                        return None, None, None
                    return False, None, self.records
            else:
                # unknown sweep: this horizon cannot refute the proponent any
                # more, so treat every live point as suspect and move on
                any_unknown = True
                if not self.points:
                    return None, None, None
                j = self._bump(set(range(len(self.points))))
                if j is None:
                    return None, None, None
            # checkpoint ids rise through the sweep; drop the first one at or
            # past j and all after it, since the next sweep passes it again
            k = bisect.bisect_left(self.checkpoints, j, key=operator.itemgetter(0))
            start = self.checkpoints[k] if k < len(self.checkpoints) else None
            del self.checkpoints[k if start else 0 :]

    def _witness(self) -> StrategyTable:
        moves: dict[str, dict[str, str]] = {a: {} for a in self.members}
        for pid in sorted(self.sweep_consulted):
            point = self.points[pid]
            key = _obs_str(point.obs)
            for a, act in zip(self.members, point.move):
                moves[a][key] = act
        return StrategyTable(self.ctx.sp, tuple(self.members), moves)

    # -- the for-all walk --------------------------------------------------

    def _walk(self, start):
        """One sweep, from the root (``start`` None) or from a checkpoint.

        A frame is (parent, c, l, machine, consulted, move, tau_key, push,
        responses, i, unknown): a node being expanded, whose response
        ``responses[i - 1]`` led to the child walked now.  Returns (value,
        conflict, record); a False value ends the sweep, and its record is
        the refuted path as (configurations, profiles, loop index).
        """
        ctx = self.ctx
        depth, members, oi, weave = self.depth, self.members, self.oi, self.weave
        tau_memoryless = bool(oi) and ctx.so.memory is StrategyMemory.MEMORYLESS
        fold = start is None  # a resumed node was entered by the last sweep
        root = (-1, None, self.c0, self.l0, self.machine0, frozenset(), 0, (self.c0,), (), {})
        _, top, c, l, machine, consulted, n, configs, profiles, taus = start or root
        path_configs, path_profiles, tau_store = list(configs), list(profiles), dict(taus)
        # the first occurrence of a configuration wins
        path_index = dict(zip(map(id, reversed(configs)), range(len(configs) - 1, -1, -1)))
        self.sweep_consulted = dict.fromkeys(itertools.islice(self.sweep_consulted, n))
        high = self.checkpoints[-1][0] if self.checkpoints else -1

        def refuted(loop=None):
            return False, consulted, (tuple(path_configs), tuple(path_profiles), loop)

        while True:
            # -- enter c: fold the position into the body state, close a
            # lasso, stop at the horizon
            v = _OPEN
            if fold:
                ctx.tick()
                pos = len(path_profiles)
                kind = machine[0]
                if kind == "X":
                    if pos == 1:
                        v = _eval_interned(ctx, machine[1], c, l, depth)
                elif kind == "G":
                    v = _eval_interned(ctx, machine[1], c, l, depth)
                    machine = ("G", machine[1], k_and(machine[2], v))
                    v = _OPEN if v is not False else v
                elif kind == "U":
                    _, phi1, phi2, best, pcond = machine
                    best = k_or(best, k_and(pcond, _eval_interned(ctx, phi2, c, l, depth)))
                    if best is True:
                        v = True
                    else:
                        pcond = k_and(pcond, _eval_interned(ctx, phi1, c, l, depth))
                        if pcond is False:
                            v = best and None  # False, or None for an open best
                        machine = ("U", phi1, phi2, best, pcond)
                if v is False:
                    return refuted()

                # lasso closure: an exact repeat pins the infinite play
                if v is _OPEN and pos >= 1 and ctx.m.lassos_close:
                    j = path_index.get(id(c))
                    if j is not None and j < pos:
                        v = self._closure_verdict(machine, path_configs, path_profiles, j)
                        if (
                            v is False
                            and members
                            and ctx.sp.memory is StrategyMemory.PERFECT_RECALL
                        ):
                            # a recall-ful proponent may deviate in later laps;
                            # pumping refutes only its memoryless collapse (with
                            # no coalition choices at all, the pump is forced
                            # and final)
                            v = None
                        if v is False:
                            return refuted(j)

                if v is _OPEN and pos >= depth:
                    v = None
            fold = True

            if v is _OPEN:
                move, pid, invalid = self._consult(c, path_configs)
                if pid is not None:
                    if pid > high:
                        high = pid
                        n = len(self.sweep_consulted) - 1
                        self.checkpoints.append((
                            pid, top, c, l, machine, consulted, n,
                            tuple(path_configs), tuple(path_profiles), dict(tau_store),
                        ))
                    consulted = consulted | {pid}
                if invalid:
                    return refuted()
                pools = ctx.pools(c)
                tau_key = _search_key(ctx.so, path_configs) if oi else None
                committed = tau_store.get(tau_key) if oi else None
                if committed is None:
                    responses = list(itertools.product(*[pools[i] for i in oi]))
                elif all(act in pools[i] for i, act in zip(oi, committed)):
                    responses = [committed]
                else:
                    responses = []  # the committed opponent action is no longer legal
                if responses:
                    push = tau_memoryless and committed is None
                    top = (top, c, l, machine, consulted, move, tau_key, push, responses, 0, False)
                else:
                    # opponents are stuck: the play ends here, and its prefix
                    # is valued with a true future, as _Literal.value does
                    v = True
                    if machine[0] == "G":
                        v = machine[2]
                    elif machine[0] == "U":
                        v = k_or(machine[3], machine[4])

            # -- report resolved nodes upwards, then descend into the next child
            while v is not _OPEN:
                if top is None:
                    return v, None, None
                if top[7]:
                    del tau_store[top[6]]
                if top[9] < len(top[8]):
                    if v is None and not top[10]:
                        top = top[:10] + (True,)
                    break
                if top[10]:
                    v = None  # every response is walked and one was unknown
                top = top[0]
            _, c, l, machine, consulted, move, tau_key, push, responses, i, unknown = top
            resp = responses[i]
            prof = weave(move + resp)
            top = top[:9] + (i + 1, unknown)
            if push:
                tau_store[tau_key] = resp
            # the path lists keep stale entries past the parent until here
            pos = l - self.l0 + 1
            del path_configs[pos:], path_profiles[pos - 1 :]
            c = ctx.succ(c, prof, l)
            l += 1
            # an entry left by an abandoned branch is corrected here, before
            # the lasso test at c reads it
            j = path_index.get(id(c))
            if j is None or j >= pos or path_configs[j] is not c:
                path_index[id(c)] = pos
            path_configs.append(c)
            path_profiles.append(prof)

    def _closure_verdict(self, machine, path_configs, path_profiles, j):
        kind = machine[0]
        if kind == "G":
            return True if machine[2] is True else None
        if kind == "U":
            return machine[3] if machine[3] is not True else None
        if kind == "APC":
            play = Play(
                tuple(path_configs), tuple(path_profiles), j, start_index=self.l0
            )
            try:
                return check_apc_play(self.ctx.m, play, machine[1])
            except GcgmpError:
                return None
        return None  # X resolves positionally, never via closure


def _eval_state(ctx: _Ctx, g, c: Configuration, l: int, depth: int) -> Vb:
    """Three-valued value of state formula ``g`` at any configuration."""
    return _eval_interned(ctx, g, ctx.intern(c), l, depth)


def _eval_interned(ctx: _Ctx, g, c: Configuration, l: int, depth: int) -> Vb:
    key = (id(g), id(c), l if ctx.m.step_indexed else None)
    hit = ctx.memo.get(key)
    if hit is not None:
        return hit
    # a definite value holds at every horizon, an unknown one only at its
    # own: the search at a horizon is deterministic, and a budget stop raises
    if (key, depth) in ctx.memo:
        return None
    value = _eval_state_raw(ctx, g, c, l, depth)
    ctx.memo[key if value is not None else (key, depth)] = value
    return value


def _eval_state_raw(ctx: _Ctx, g, c: Configuration, l: int, depth: int) -> Vb:
    if isinstance(g, Tru):
        return True
    if isinstance(g, Prop):
        return g.name in ctx.m.label_of(c.state)
    if isinstance(g, Constraint):
        return eval_atom(g.atom, dict(zip(ctx.m.agents, c.utilities)))
    if isinstance(g, Not):
        return k_not(_eval_interned(ctx, g.sub, c, l, depth))
    if isinstance(g, And):
        return k_and(
            _eval_interned(ctx, g.left, c, l, depth),
            _eval_interned(ctx, g.right, c, l, depth),
        )
    if isinstance(g, Coop):
        value, _, _ = _CoopSolver(ctx, g, c, l, depth).solve()
        return value
    raise FragmentError(f"unsupported formula node: {g!r}")


def _ladder(depth: int) -> list[int]:
    if depth <= 2:
        return [max(depth, 0)]
    out = []
    d = 2
    while d < depth:
        out.append(d)
        d *= 2
    out.append(depth)
    return out


def check_bounded(
    m: Gcgmp,
    c0: Configuration,
    f: Formula,
    sp: StrategyClassSpec = ML_CONFIG,
    so: StrategyClassSpec = ML_CONFIG,
    budget: Union[Budget, int] = 25,
) -> Verdict:
    """Three-valued verdict for ``f`` at ``c0`` under bounded exploration.

    Horizons grow geometrically up to the budget depth; a verdict found at
    a shallow horizon is definitive, Unknown triggers deepening.  True
    carries the proponent table of the accepting sweep, False the refuted
    assignments with their traces.
    """
    if isinstance(budget, int):
        budget = Budget(budget)
    _check_supported(f)
    ctx = _Ctx(m, sp, so, budget)
    f = ctx.formula(f)
    c0 = ctx.intern(Configuration(c0.state, tuple(map(exact, c0.utilities))))
    rungs = _ladder(budget.depth)
    i = 0
    while i < len(rungs):
        depth = rungs[i]
        try:
            if isinstance(f, Coop):
                solver = _CoopSolver(ctx, f, c0, 1, depth)
                value, witness, records = solver.solve()
                if value is not None:
                    # traces are built only for the refutations reported
                    return Verdict(
                        value,
                        witness=witness,
                        counterexample=None if records is None else [
                            {**_trace(configs, profiles, loop), "refutes": refutes}
                            for configs, profiles, loop, refutes in records
                        ],
                        bound_used=depth,
                    )
                if solver.capped and not solver.saw_refutation:
                    # the proponent space blew up without a single refuted
                    # sweep: intermediate horizons will only blow up again,
                    # so go straight to the deepest one and hunt for True
                    i = len(rungs) - 1 if i < len(rungs) - 1 else len(rungs)
                    continue
            else:
                value = _eval_interned(ctx, f, c0, 1, depth)
                if value is not None:
                    return Verdict(value, bound_used=depth)
        except _BudgetStop:
            return Verdict(None, bound_used=depth)
        i += 1
    return Verdict(None, bound_used=budget.depth)


def check_apc_play(m: Gcgmp, p: Play, apc: PathConstraint) -> bool:
    """Whether the lasso's long-run value satisfies the comparison."""
    return _REL_FN[apc.rel](play_value(m, p, apc.agent), apc.bound)


# --- one entry point ---------------------------------------------------------

ENGINES = ("atl", "saturated", "bounded")  # the order ``auto`` tries them in

# (proponent, opponent) strategy classes each exact engine answers for
_EXACT_FOR = {
    "atl": {(p, "pr-config") for p in STRATEGY_CLASSES}
    | {("ml-state", o) for o in STRATEGY_CLASSES} | {("ml-config", "ml-config")},
    "saturated": {("ml-config", "pr-config"), ("pr-config", "pr-config"),
                  ("ml-config", "ml-config")},
}


def _run(engine: str, m: Gcgmp, c0: Configuration, f: Formula, sp, so, budget: Budget) -> dict:
    """One engine's report fields, or a NotApplicable worded for the user."""
    if engine in _EXACT_FOR and (sp.short, so.short) not in _EXACT_FOR[engine]:
        raise NotApplicable(f"the {engine} engine does not answer for proponents "
                            f"{sp.short} against opponents {so.short}")
    if engine == "atl":
        if classify(f) is not FragmentTag.ATL_PURE:
            raise NotApplicable("the atl engine handles only constraint-free state formulas")
        if not all(check_validity_single_var(g) for g in m.guards.values()):
            raise NotApplicable("the atl engine ignores guards, so it applies only "
                                "when every guard always holds")
        winning = check_atl(m, f)
        return {"verdict": "true" if c0.state in winning else "false",
                "winning_states": sorted(winning)}
    try:
        if engine == "saturated":
            return check_saturated(m, c0, f).as_json()
        got = check_bounded(m, c0, f, sp, so, budget).as_json()
    except NotApplicable as e:
        raise NotApplicable(f"the {engine} engine does not apply: {e}") from e
    return {"bounds": {"depth": budget.depth, "strategies": budget.max_strategies,
                       "nodes": budget.max_nodes}, **got}


def check(m: Gcgmp, c0: Configuration, f: Formula, sp: StrategyClassSpec = ML_CONFIG,
          so: StrategyClassSpec = ML_CONFIG, budget: Union[Budget, int] = 25,
          engine: str = "auto") -> dict:
    """Decide ``f`` at ``c0`` for ``sp`` proponents against ``so`` opponents.

    ``auto`` tries ``ENGINES`` in order, and the first that applies answers.
    Returns a check report's fields: ``engine``, ``strategy_class``,
    ``verdict`` and the engine's evidence.  When no engine asked for
    answers, the last refusal is raised, a NotApplicable.

    The bounded engine holds both sides to their classes.  The exact ones
    compute memoryless winning sets, on states (atl) or clamped
    configurations (saturated), against opponents who respond after seeing
    the coalition's move: outside the set a response keeps every coalition
    move outside, whatever the coalition's memory; inside it the fixpoint
    strategy wins (Alur, Henzinger & Kupferman, JACM 2002).  So they answer
    for a pair, listed in ``_EXACT_FOR``, when that strategy is in class
    ``sp`` and opponents of class ``so`` spoil whatever free ones spoil:

    * ``pr-config`` opponents are free: fixed proponents leave one play per
      opponent strategy, and no two histories of one play are equal.  atl's
      state strategy is in every class; saturated's reads utilities, which
      ``ml-config`` and ``pr-config`` proponents see.
    * A fixed memoryless coalition is spoiled by a violating play that is a
      simple path or a lasso in the graph it observes, or never repeats a
      node: cut a violating prefix at its repeats, and let an infinite play
      that repeats one go round its first cycle forever.  A commitment per
      path on that observation, or on a finer one, allows such a play.
      atl's ``ml-state`` proponents observe states, which every class sees;
      ``ml-config`` proponents observe configurations, as ``ml-config``
      opponents do.

    Other pairs are refused: a coalition with recall, or one that reads
    utilities, can exploit opponents who observe less (in matching pennies
    an ``ml-state`` opponent's growing utility counts laps for the
    coalition).  ``pr-state`` opponents are as free as ``pr-config`` ones in
    every engine, but stay refused until a differential population covers
    them.
    """
    if engine != "auto" and engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; pick auto or one of {ENGINES}")
    budget = Budget(budget) if isinstance(budget, int) else budget
    for name in ENGINES if engine == "auto" else (engine,):
        try:
            got = _run(name, m, c0, f, sp, so, budget)
        except NotApplicable as e:
            refusal = e
            continue
        return {"engine": name, "strategy_class": {"proponents": sp.short,
                                                   "opponents": so.short}, **got}
    raise refusal


# --- literal play checking ---------------------------------------------------


class _Literal:
    """Outcome plays of a coalition under given proponent moves, and the
    clause-by-clause value of a body on each of them.

    ``eval_sf(g, c, l)`` values a state formula at a configuration and step
    index; ``spend()`` is called once per node entered.  Three caches serve
    every node of one check, and only memoise: interned configurations, so
    that each configuration a walk holds is one object and lassos close on
    identity; guarded ``step`` results on (``id`` of the interned
    configuration, profile, step index); and enabled sets on (agent
    position, state, own utility), read at the positions ``_split`` gives.
    """

    def __init__(self, m: Gcgmp, so: StrategyClassSpec, depth: int, eval_sf, spend):
        self.m = m
        self.so = so
        self.depth = depth
        self.eval_sf = eval_sf
        self.spend = spend
        self.enabled_sets: dict = {}
        self.steps: dict = {}
        self.interned: dict = {}

    def enabled(self, c: Configuration, i: int):
        key = (i, c.state, c.utilities[i])
        hit = self.enabled_sets.get(key)
        if hit is None:
            hit = self.enabled_sets[key] = self.m.enabled_actions(self.m.agents[i], *key[1:])
        return hit

    def step(self, c: Configuration, prof: tuple, l: int) -> Configuration:
        key = (id(c), prof, l)
        hit = self.steps.get(key)
        if hit is None:
            c2 = step(self.m, c, prof, l)
            hit = self.steps[key] = self.interned.setdefault(c2, c2)
        return hit

    def plays(self, coop: Coop, croot: Configuration, l0: int, move_of) -> list:
        """Every outcome play from ``croot`` at step index ``l0``, across all
        opponent behaviours of the class, as (configs, profiles, loop, cut)
        tuples in depth-first order.

        ``move_of(configs)`` is the coalition's joint move after a history,
        None where it prescribes none.  The tree is walked from an explicit
        stack, so plays of any length fit, and each child is stepped just
        before it is entered, so ``step`` and ``spend()`` run depth first.
        """
        m, so, depth, enabled, spend = self.m, self.so, self.depth, self.enabled, self.spend
        mi, oi, weave = _split(m.agents, coop.coalition)
        commits = bool(oi) and so.memory is StrategyMemory.MEMORYLESS
        closes = m.lassos_close
        out = []
        # (parent configs, parent profiles, opponent commitments, profile taken)
        stack = [([], [], {}, None)]
        while stack:
            configs, profiles, tau, prof = stack.pop()
            if prof is None:
                c = self.interned.setdefault(croot, croot)
            else:
                c = self.step(configs[-1], prof, l0 + len(profiles))
                profiles = profiles + [prof]
            configs = configs + [c]
            spend()
            pos = len(profiles)
            loop = None
            if closes:
                for j in range(pos):
                    if configs[j] is c:
                        loop = j
                        break
            if loop is not None or pos >= depth:
                out.append((configs, profiles, loop, None))
                continue
            move = move_of(configs) if mi else ()
            if move is None or any(act not in enabled(c, i) for i, act in zip(mi, move)):
                out.append((configs, profiles, None, False))
                continue
            tkey = _strategy_key(so, configs) if oi else None
            committed = tau.get(tkey) if oi else None
            if committed is None:
                responses = list(itertools.product(*[enabled(c, i) for i in oi]))
            elif all(act in enabled(c, i) for i, act in zip(oi, committed)):
                responses = [committed]
            else:
                responses = []  # a dead commitment
            if oi and not responses:
                out.append((configs, profiles, None, True))  # nothing to refute
                continue
            for resp in reversed(responses):
                child_tau = {**tau, tkey: resp} if commits and committed is None else tau
                stack.append((configs, profiles, child_tau, weave(move + resp)))
        return out

    def value(self, body, configs, profiles, loop, l0, sp_pr, cut) -> Vb:
        """Clause-by-clause value of a ``_body_machine`` body on one play.

        ``loop`` is None for a prefix that ends without closing, and ``cut``
        is then the value of its undetermined future: Unknown at the horizon,
        False where a proponent's move is disabled, True where the opponents
        have none.  Positions are evaluated literally.  A False that exists
        only because the closing cycle is pumped forever does not refute a
        perfect-recall proponent (``sp_pr``), who may deviate in later laps,
        so it degrades to Unknown.
        """
        eval_sf = self.eval_sf
        n = len(profiles)
        # a closed play repeats configs[loop] at position n; an open prefix
        # still has a real final position to evaluate
        last = n + 1 if loop is None else n
        if body[0] == "X":
            if n >= 1:
                return eval_sf(body[1], configs[1], l0 + 1)
            return cut
        if body[0] == "G":
            acc: Vb = True
            for i in range(last):
                acc = k_and(acc, eval_sf(body[1], configs[i], l0 + i))
                if acc is False:
                    return False
            if loop is None:
                return k_and(acc, cut)  # held so far, but the play ends
            return acc
        if body[0] == "U":
            phi1, phi2 = body[1], body[2]
            best: Vb = False
            pcond: Vb = True
            for i in range(last):
                c, l = configs[i], l0 + i
                best = k_or(best, k_and(pcond, eval_sf(phi2, c, l)))
                if best is True:
                    return True
                pcond = k_and(pcond, eval_sf(phi1, c, l))
                if pcond is False:
                    return best if best is False else None
            if loop is None:
                return k_or(best, k_and(pcond, cut))
            # closed play: every later position repeats a cycle position
            if best is False:
                return None if sp_pr else False
            return None
        # a play-value comparison, judged on closed plays only
        if loop is None:
            return cut
        play = Play(tuple(configs), tuple(profiles), loop, start_index=l0)
        try:
            ok = check_apc_play(self.m, play, body[1])
        except GcgmpError:
            return None
        if ok is False and sp_pr:
            return None
        return ok


def replay_strategy_table(
    m: Gcgmp,
    c0: Configuration,
    f: Coop,
    table: StrategyTable,
    so: StrategyClassSpec,
    depth: int,
) -> bool:
    """Re-run a witness on the oracle's literal play checker: every
    prescribed action must be enabled wherever consulted, and the body must
    hold on every outcome play within ``depth`` steps.  Nested formulas are
    valued by the bounded engine.  Used to audit True verdicts independently
    of the search that produced them."""
    ctx = _Ctx(m, table.spec, so, Budget(depth))
    members = [a for a in m.agents if a in f.coalition]
    c0 = Configuration(c0.state, tuple(map(exact, c0.utilities)))

    def move_of(configs):
        key = _obs_str(_strategy_key(table.spec, configs))
        move = tuple(table.moves.get(a, {}).get(key) for a in members)
        return None if None in move else move

    lit = _Literal(m, so, depth, lambda g, c, l: _eval_state(ctx, g, c, l, depth), lambda: None)
    body = _body_machine(f.body)
    # only True counts, so a pumped False needs no downgrade under recall
    return all(
        lit.value(body, configs, profiles, loop, 1, False, cut) is True
        for configs, profiles, loop, cut in lit.plays(f, c0, 1, move_of)
    )


# --- brute-force reference ---------------------------------------------------


def enumerate_oracle(
    m: Gcgmp,
    c0: Configuration,
    f: Formula,
    sp: StrategyClassSpec = ML_CONFIG,
    so: StrategyClassSpec = ML_CONFIG,
    depth: int = 6,
) -> Verdict:
    """Literal strategy enumeration on tiny instances.

    Chronologically enumerates every distinct proponent commitment over the
    observations actually consulted within the horizon (equivalent to
    enumerating all full tables, since unconsulted entries cannot matter),
    plays out every opponent behaviour of the stated class, and evaluates
    the body positionally on each outcome play, both on the literal play
    checker that witness replay shares.  No pruning, no deepening, no
    backjumping — just the definitions.  One enumeration may enter 60,000
    nodes over all its tables and modalities; past that it is TooLarge.
    The root's utilities go through ``arith.exact``, as in the engines.
    """
    if len(m.states) > 4:
        raise TooLarge(f"{len(m.states)} states is beyond the oracle's scale")
    for a in m.agents:
        if len(m.actions[a]) > 2:
            raise TooLarge(f"agent {a!r} has more than two actions")
    if depth > 8:
        raise TooLarge(f"depth {depth} is beyond the oracle's scale")
    _check_supported(f)
    c0 = Configuration(c0.state, tuple(map(exact, c0.utilities)))
    memo: dict = {}
    entered = itertools.count(1)

    def spend():
        if next(entered) > 60_000:
            raise TooLarge("oracle enumeration exceeded its play budget")

    def eval_sf(g, c, l) -> Vb:
        key = (g, c, l if m.step_indexed else None)
        v = memo.get(key)
        if v is not None:
            return v
        if isinstance(g, Tru):
            v = True
        elif isinstance(g, Prop):
            v = g.name in m.label_of(c.state)
        elif isinstance(g, Constraint):
            v = eval_atom(g.atom, dict(zip(m.agents, c.utilities)))
        elif isinstance(g, Not):
            v = k_not(eval_sf(g.sub, c, l))
        elif isinstance(g, And):
            v = k_and(eval_sf(g.left, c, l), eval_sf(g.right, c, l))
        elif isinstance(g, Coop):
            v = solve(g, c, l)
        else:
            raise FragmentError(f"unsupported formula node: {g!r}")
        if v is not None:
            memo[key] = v
        return v

    lit = _Literal(m, so, depth, eval_sf, spend)

    def solve(coop: Coop, croot: Configuration, l0: int) -> Vb:
        body = _body_machine(coop.body)
        mi = [i for i, a in enumerate(m.agents) if a in coop.coalition]
        sp_pr = bool(mi) and sp.memory is StrategyMemory.PERFECT_RECALL

        # chronological enumeration of proponent tables over consulted keys
        sigma: dict = {}
        order: list = []  # keys in creation order
        alts: dict = {}

        def move_of(configs):
            return sigma[_strategy_key(sp, configs)]  # KeyError: grow the table

        def next_assignment() -> bool:
            while order:
                key = order[-1]
                i = alts[key].index(sigma[key]) + 1
                if i < len(alts[key]):
                    sigma[key] = alts[key][i]
                    return True
                del sigma[key]
                del alts[key]
                order.pop()
            return False

        any_unknown_sigma = False
        while True:
            # evaluate the current (partial) table, growing it on demand
            try:
                verdict: Vb = True
                for configs, profiles, loop, cut in lit.plays(coop, croot, l0, move_of):
                    verdict = k_and(
                        verdict, lit.value(body, configs, profiles, loop, l0, sp_pr, cut)
                    )
                    if verdict is False:
                        break
            except KeyError as e:  # a new consultation point appeared
                key = e.args[0]
                # the last observation: a bare state or a configuration
                last = key if isinstance(key, (str, Configuration)) else key[-1]
                pools = ([lit.enabled(last, i) for i in mi] if isinstance(last, Configuration)
                         else [m.available_of(m.agents[i], last) for i in mi])
                options = list(itertools.product(*pools))
                if not options:
                    options = [tuple("?" for _ in mi)]  # always invalid
                sigma[key] = options[0]
                alts[key] = options
                order.append(key)
                continue
            if verdict is True:
                return True
            if verdict is None:
                any_unknown_sigma = True
            if not next_assignment():
                return None if any_unknown_sigma else False

    return Verdict(eval_sf(f, c0, 1))
