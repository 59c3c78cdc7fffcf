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
    configurations, built by ``dynamics.explore``, on which coalition
    fixpoints are exact.

``check_bounded``
    Three-valued search for everything else.  Proponent strategies are
    enumerated lazily through an odometer over consultation points with
    conflict-directed backjumping; opponents branch freely (perfect
    recall) or under per-path commitment (memoryless).  Each sweep after
    a backjump resumes at the checkpoint of the point the backjump moved
    instead of walking again from the root.  A play that revisits a
    configuration (possible only with 0/1 discounts) closes into a lasso
    and is judged exactly; open plays at the horizon come back Unknown.  True verdicts carry a
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
strategy table, share one literal play checker, ``_Literal``.  It reads no
region table: every guard it meets is evaluated by ``arith.eval_acf``,
through ``Gcgmp.enabled_actions`` and ``dynamics.step``'s re-check.  What it
shares with the engines is the model's step table, which ``step`` reads
through ``dynamics.successor`` once the guards pass.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

from .arith import _REL_FN, PathConstraint, eval_atom, exact, normalize_atom
from .dynamics import Configuration, Play, enabled_pools, explore, play_value, step, successor
from .errors import (
    FragmentError,
    GcgmpError,
    NotApplicable,
    NotMonotone,
    TooLarge,
    VariableVsVariableAtom,
    echo,
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
    """The bounded engine's horizon: ``depth`` is the maximal number of
    transitions along any play.  ``MAX_NODES`` and ``MAX_SWEEPS`` bound its
    work."""

    depth: int


# nodes the walks of one bounded check may enter, over every horizon tried; a
# resumed sweep does not enter again the nodes before its checkpoint
MAX_NODES = 2_000_000
MAX_SWEEPS = 4000  # sweeps (proponent assignments) one coalition node may try


# --- qualitative fixpoints ---------------------------------------------------


def _cpre(agents, coalition, pools, succ, targets, among, won=None, lost=None) -> frozenset:
    """Nodes of ``among`` from which the coalition can force the next node
    into targets.

    The controllable predecessor of Alur, Henzinger & Kupferman (JACM 2002):
    some joint coalition move such that every opponent response leads into
    ``targets``.  ``pools[n]`` is a tuple of each agent's actions at ``n``
    in ``agents`` order, and ``succ[(n, profile)]`` is the successor.  When
    no opponent has an action the coalition wins vacuously; when a member
    has none it loses.  The profiles a coalition move meets depend on the
    pool alone, so each distinct pool's plan (per move, its profiles) is
    woven once per call; only the successor lookups read the node.

    Without ``won`` the winners are returned.  A fixpoint round passes its
    set as ``targets`` and its ``add`` as ``won`` or ``discard`` as ``lost``:
    ``among`` is examined in order, each node against the updated set.
    """
    mi, oi, weave = _split(agents, coalition)
    plans = {}
    out = set()
    won = won or out.add
    for n in among:
        pool = pools[n]
        plan = plans.get(pool)
        if plan is None:
            responses = list(itertools.product(*[pool[i] for i in oi]))
            plan = plans[pool] = [[weave(mv + ov) for ov in responses]
                                  for mv in itertools.product(*[pool[i] for i in mi])]
        for profiles in plan:
            if all(succ[(n, p)] in targets for p in profiles):
                won(n)
                break
        else:
            if lost:
                lost(n)
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


def _fixpoint(f: Formula, leaf, agents, pools, succ) -> frozenset:
    """Satisfaction set of a state formula whose coalition bodies are X/G/U.

    The game is ``pools`` and ``succ`` as ``_cpre`` reads them, and its
    nodes are the keys of ``pools``; ``leaf(g)`` gives the nodes satisfying
    a formula without connectives or modalities.  A round examines only the
    nodes still open (U: not yet won, G: not yet lost), newest key of
    ``pools`` first, since keys mostly precede their successors, and updates
    the set in place: a U round adds a node as soon as it wins, a G round
    drops one as soon as it loses.  Sound as ``_cpre`` is monotone: a U set
    stays below the least fixpoint and a G set above the greatest.
    """
    every, newest = frozenset(pools), list(reversed(pools))

    def rounds(co, z: set, open_: list, keep: bool, **update) -> frozenset:
        while True:  # open_ is the nodes whose membership in z is not final
            _cpre(agents, co, pools, succ, z, open_, **update)
            still = [n for n in open_ if (n in z) is keep]
            if len(still) == len(open_):
                return frozenset(z)
            open_ = still

    def sat(g) -> frozenset:
        if isinstance(g, Tru):
            return every
        if isinstance(g, Not):
            return every - sat(g.sub)
        if isinstance(g, And):
            return sat(g.left) & sat(g.right)
        if isinstance(g, Coop):
            body, co = g.body, g.coalition
            if isinstance(body, Next):
                return _cpre(agents, co, pools, succ, sat(body.sub), every)
            if isinstance(body, Always):  # greatest fixpoint, from phi down
                z = set(sat(body.sub))
                return rounds(co, z, [n for n in newest if n in z], True, lost=z.discard)
            if isinstance(body, Until):  # least fixpoint, from phi2 up
                phi1, z = sat(body.left), set(sat(body.right))
                return rounds(co, z, [n for n in newest if n in phi1 and n not in z],
                              False, won=z.add)
        return leaf(g)

    z = sat(f)
    del sat  # sat's closure holds sat: free the game when the call returns
    return z


def _state_pools(m: Gcgmp) -> dict:
    """Each state's available actions per agent, in agent order, as tuples."""
    return {s: tuple(m.available_of(a, s) for a in m.agents) for s in m.states}


def pre_states(m: Gcgmp, coalition: frozenset, targets: frozenset) -> frozenset:
    """States from which the coalition can force the next state into targets.

    Pure state-graph reasoning: availability only, guards ignored.
    """
    return _cpre(m.agents, coalition, _state_pools(m), m.transitions, targets, m.states)


def check_atl(m: Gcgmp, f: Formula) -> frozenset:
    """Exact satisfaction set of a constraint-free formula on the state graph."""
    if classify(f) is not FragmentTag.ATL_PURE:
        raise FragmentError(
            "the qualitative engine handles coalition formulas without "
            "utility comparisons only"
        )

    def leaf(g) -> frozenset:  # ATL_PURE leaves only propositions here
        return frozenset(s for s in m.states if g.name in m.label_of(s))

    return _fixpoint(f, leaf, m.agents, _state_pools(m), m.transitions)


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
                    f"payoff {echo(p, str)} for agent {echo(a)} at state {echo(s)} under "
                    f"{echo(prof)} is negative"
                )
    for a, kind in zip(m.agents, m.discount_kinds):
        if kind != "one":
            raise NotMonotone(f"agent {echo(a)} has discount {echo(m.discounts.get(a), str)}; "
                              "saturation needs 1")
    for a, u in zip(m.agents, c0.utilities):
        if u < 0:
            raise NotMonotone(f"start utility {echo(u, str)} for agent {echo(a)} is negative")

    cap = exact(saturation_cap(m, f))
    try:
        game = explore(m, Configuration(c0.state, tuple(map(exact, c0.utilities))), cap=cap)
    except TooLarge as e:
        raise NotApplicable(str(e)) from e
    pools = game.pools

    def leaf(g) -> frozenset:  # outside NGL_STAR, a leaf is a proposition or an atom
        if isinstance(g, Prop):
            return frozenset(n for n in pools if g.name in m.label_of(n.state))
        shape = normalize_atom(g.atom)  # "const" or "sum": saturation_cap refused "mixed"
        if shape[0] == "const":
            return frozenset(pools) if shape[1] else frozenset()
        _, counts, rel, d = shape
        terms = [(m.agent_index(x), k) for x, k in counts.items()]
        holds, d = _REL_FN[rel], exact(d)  # an int d compares with int utilities in C
        return frozenset(n for n in pools if holds(sum([n.utilities[i] * k for i, k in terms]), d))

    return Verdict(game.root in _fixpoint(f, leaf, m.agents, pools, game.succ))


# --- bounded engine ----------------------------------------------------------


class _BudgetStop(Exception):
    """Internal: the node budget ran out; surfaces as an Unknown verdict."""


_OPEN = object()  # a walked node that is still to be expanded


@dataclass
class _Point:
    """One proponent consultation point in the odometer."""

    key: object  # _search_key of the observation
    alts: list  # coalition joint moves enabled where the point was created
    idx: int = 0
    blame: int = 0  # bitmask of the point ids this point's exhaustion blames
    # (frame, machine, consulted, path_configs, path_profiles, tau_store,
    # path_index) where the sweep that created it met it, at path_configs[-1]
    resume: object = None

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
    agent's guard-enabled actions at once, read off the model's region
    tables.  ``formula`` hash-conses formula nodes, so
    the memo keys on ``id(g)`` and equal subformulas share its entries.
    """

    m: Gcgmp
    sp: StrategyClassSpec
    so: StrategyClassSpec
    memo: dict = field(default_factory=dict)
    nodes_used: int = 0
    canon: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=dict)
    pool_cache: dict = field(default_factory=dict)
    succ_cache: dict = field(default_factory=dict)

    def tick(self):
        self.nodes_used += 1
        if self.nodes_used > MAX_NODES:
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
            hit = self.pool_cache[id(c)] = enabled_pools(self.m, c)
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
    return _obs_str(_strategy_key(spec, configs))


def _trace(configs, profiles, loop) -> dict:
    out = {"trace": [c.as_json() for c in configs]}
    for entry, prof in zip(out["trace"], profiles):
        entry["profile"] = list(prof)
    if loop is not None:
        out["loop"] = loop
    return out


class _CoopSolver:
    """Decides one coalition node: exists-proponent / for-all-opponent search.

    The proponent side is a persistent odometer over consultation points;
    each sweep fixes its committed choices and walks every opponent branch.
    A refuted sweep reports which points it actually consulted, as a
    bitmask of point ids (so do the blame sets the odometer keeps), and the
    odometer backjumps to the deepest of them, discarding younger points.

    A sweep resumes where the backjump lands instead of walking again from
    the root, which keeps the work of the unchanged moves as dynamic
    backtracking does (Ginsberg, JAIR 1993).  The walk is an explicit stack
    of immutable frames, each linked to its parent.  A point keeps, as its
    ``resume`` checkpoint, where the sweep that created it met it: the
    node's folded state, the frame above it and snapshots of the path (which
    ends at the point's configuration, so it gives the node, its step and
    its observation), its opponent commitments and its position index.  A
    new point's id exceeds every live one, so the walk up to its checkpoint
    read only lower points, and it is deterministic in their moves.  A
    backjump to point j changes j and drops every point above it, so the
    next sweep starts at j's own checkpoint and consults j at once.  A point
    created later is consulted when created, none is deleted during a sweep,
    and the first sweep starts with none: so every sweep consults every live
    point, and a winning sweep's witness is the table of all of them.  Most
    sweeps walk one or two nodes, so nothing else is copied per sweep: a
    refuted path only for a kept record, response lists once per configuration.
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
        self.responses: dict = {}  # id of an interned configuration -> opponent responses

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
            self.points.append(_Point(key, alts))
            self.index[key] = pid
        point = self.points[pid]
        if not point.alts:
            return None, pid, True
        move = point.move
        # the committed action must be enabled here, not only where the
        # point was created
        for i, act in zip(self.mi, move):
            if act not in pools[i]:
                return None, pid, True
        return move, pid, False

    def _bump(self, conflict: int) -> Optional[int]:
        """Advance the odometer past a refuted assignment, given as a bitmask
        of point ids.  Returns the id of the point that moved, or None when
        the whole proponent space is exhausted."""
        work = conflict
        while work:
            j = work.bit_length() - 1
            point = self.points[j]
            point.blame |= work ^ (1 << j)
            point.idx += 1
            for p in self.points[j + 1 :]:
                self.index.pop(p.key, None)
            del self.points[j + 1 :]
            if point.idx < len(point.alts):
                return j
            work = point.blame
            self.index.pop(point.key, None)
            del self.points[j]
        return None

    # -- one sweep -------------------------------------------------------

    def solve(self):
        any_unknown = False
        start = None
        for _ in range(MAX_SWEEPS):
            value, conflict, record = self._walk(start)
            if value is True:
                return True, self._witness(), None
            if value is False:
                if len(self.records) < 50:
                    # the path lists are the walk's own; a point with no enabled
                    # coalition move commits to nothing; the moves change on a
                    # bump, so they are named now
                    configs, profiles, loop = record
                    self.records.append((tuple(configs), tuple(profiles), loop, {
                        observation_key(self.ctx.sp, p.resume[3]): list(p.move)
                        for i, p in enumerate(self.points) if conflict >> i & 1 and p.alts
                    }))
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
                j = self._bump((1 << len(self.points)) - 1)
                if j is None:
                    return None, None, None
            start = self.points[j].resume
        return None, None, None

    def _witness(self) -> StrategyTable:
        moves: dict[str, dict[str, str]] = {a: {} for a in self.members}
        for point in self.points:  # the sweep consulted every live point
            key = observation_key(self.ctx.sp, point.resume[3])
            for a, act in zip(self.members, point.move):
                moves[a][key] = act
        return StrategyTable(self.ctx.sp, tuple(self.members), moves)

    # -- the for-all walk --------------------------------------------------

    def _walk(self, start):
        """One sweep, from the root (``start`` None) or from a point's checkpoint.

        A frame is (parent, c, l, machine, consulted, move, tau_key, push,
        responses, i, unknown): a node being expanded, whose response
        ``responses[i - 1]`` led to the child walked now.  A node with one
        response and no opponent commitment to undo gets no frame: its
        child's value is its own.  Returns (value, conflict, record); a False
        value ends the sweep, and its record is the refuted path as
        (configurations, profiles, loop index), in the walk's own lists.
        """
        ctx = self.ctx
        depth, members, oi, weave = self.depth, self.members, self.oi, self.weave
        tau_memoryless = bool(oi) and ctx.so.memory is StrategyMemory.MEMORYLESS
        fold = start is None  # a resumed node was entered by the last sweep
        root = (None, self.machine0, 0, (self.c0,), (), {}, {id(self.c0): 0})
        top, machine, consulted, configs, profiles, taus, index = start or root
        c, l = configs[-1], self.l0 + len(profiles)
        path_configs, path_profiles = list(configs), list(profiles)
        # the index may keep entries of branches abandoned before the
        # checkpoint; the descent corrects the one entry it reads
        tau_store, path_index = dict(taus), dict(index)

        def refuted(loop=None):
            return False, consulted, (path_configs, path_profiles, loop)

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
                if v is _OPEN and pos >= 1 and not ctx.m.step_indexed:
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
                    point = self.points[pid]
                    if point.resume is None:  # created just now
                        point.resume = (top, machine, consulted, tuple(path_configs),
                                        tuple(path_profiles), dict(tau_store), dict(path_index))
                    consulted |= 1 << pid
                if invalid:
                    return refuted()
                tau_key = _search_key(ctx.so, path_configs) if oi else None
                committed = tau_store.get(tau_key) if oi else None
                if committed is None:
                    responses = self.responses.get(id(c))
                    if responses is None:
                        pools = ctx.pools(c)
                        responses = self.responses[id(c)] = list(
                            itertools.product(*[pools[i] for i in oi]))
                else:
                    pools = ctx.pools(c)
                    # the committed opponent action may no longer be legal here
                    legal = all(act in pools[i] for i, act in zip(oi, committed))
                    responses = [committed] if legal else []
                if not responses:
                    # opponents are stuck: the play ends here, and its prefix
                    # is valued with a true future, as _Literal.value does
                    v = True
                    if machine[0] == "G":
                        v = machine[2]
                    elif machine[0] == "U":
                        v = k_or(machine[3], machine[4])
                else:
                    resp = responses[0]
                    push = tau_memoryless and committed is None
                    if push or len(responses) > 1:
                        top = (top, c, l, machine, consulted, move, tau_key, push, responses, 1,
                               False)
                        if push:
                            tau_store[tau_key] = resp

            # -- report resolved nodes upwards, up to the next response
            while v is not _OPEN:
                if top is None:
                    return v, None, None
                if top[7]:
                    del tau_store[top[6]]
                if top[9] < len(top[8]):
                    _, c, l, machine, consulted, move, tau_key, push, responses, i, unknown = top
                    resp = responses[i]
                    top = top[:9] + (i + 1, unknown or v is None)
                    if push:
                        tau_store[tau_key] = resp
                    break
                if top[10]:
                    v = None  # every response is walked and one was unknown
                top = top[0]

            # -- descend from c by the coalition move and response ``resp``
            prof = weave(move + resp)
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
        # an APC body: an X body is valued at position 1, before any lasso
        # test, so it never reaches the closure
        play = Play(tuple(path_configs), tuple(path_profiles), j, start_index=self.l0)
        try:
            return check_apc_play(self.ctx.m, play, machine[1])
        except GcgmpError:
            return None


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
    # a coalition node: _check_supported admits no other kind of state formula
    value, _, _ = _CoopSolver(ctx, g, c, l, depth).solve()
    return value


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
    ctx = _Ctx(m, sp, so)
    f = ctx.formula(f)
    c0 = ctx.intern(Configuration(c0.state, tuple(map(exact, c0.utilities))))
    for depth in _ladder(budget.depth):
        try:
            if isinstance(f, Coop):
                value, witness, records = _CoopSolver(ctx, f, c0, 1, depth).solve()
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
            else:
                value = _eval_interned(ctx, f, c0, 1, depth)
                if value is not None:
                    return Verdict(value, bound_used=depth)
        except _BudgetStop:
            return Verdict(None, bound_used=depth)
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
        if not all(act in r for a, s, act in m.guards for r in m.regions(a, s)[2]):
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
    return {"bounds": {"depth": budget.depth, "strategies": MAX_SWEEPS,
                       "nodes": MAX_NODES}, **got}


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
        raise ValueError(f"unknown engine {echo(engine)}; pick auto or one of {ENGINES}")
    budget = Budget(budget) if isinstance(budget, int) else budget
    names = ENGINES if engine == "auto" else (engine,)
    for name in names:
        try:
            return {"engine": name, "strategy_class": {"proponents": sp.short,
                                                       "opponents": so.short},
                    **_run(name, m, c0, f, sp, so, budget)}
        except NotApplicable:
            if name == names[-1]:
                raise  # bare: a name for it here would form a cycle with its traceback


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
        closes = not m.step_indexed
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
    ctx = _Ctx(m, table.spec, so)
    members = [a for a in m.agents if a in f.coalition]
    c0 = Configuration(c0.state, tuple(map(exact, c0.utilities)))

    def move_of(configs):
        key = observation_key(table.spec, configs)
        move = tuple(table.moves.get(a, {}).get(key) for a in members)
        return None if None in move else move

    lit = _Literal(m, so, depth, lambda g, c, l: _eval_interned(ctx, g, ctx.intern(c), l, depth),
                   lambda: None)
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
    backjumping — just the definitions.  A table grows where a walk meets a
    new point, and the walk goes on.  The 60,000-node budget, over all tables
    and modalities, counts the nodes of the enumeration that walks again from
    the root on each growth: the nodes it would re-enter are charged without
    being walked.  Past the budget the call is TooLarge.
    The root's utilities go through ``arith.exact``, as in the engines.
    """
    if len(m.states) > 4:
        raise TooLarge(f"{len(m.states)} states is beyond the oracle's scale")
    for a in m.agents:
        if len(m.actions[a]) > 2:
            raise TooLarge(f"agent {echo(a)} has more than two actions")
    if depth > 8:
        raise TooLarge(f"depth {depth} is beyond the oracle's scale")
    _check_supported(f)
    c0 = Configuration(c0.state, tuple(map(exact, c0.utilities)))
    memo: dict = {}
    spent = 0

    def spend():
        nonlocal spent
        spent += 1
        if spent > 60_000:
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
            raise FragmentError(f"unsupported formula node: {echo(g)}")
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
            nonlocal base
            key = _strategy_key(sp, configs)
            move = sigma.get(key)
            if move is None:  # a new consultation point: grow the table here
                # the last observation: a bare state or a configuration
                last = key if isinstance(key, (str, Configuration)) else key[-1]
                pools = ([lit.enabled(last, i) for i in mi] if isinstance(last, Configuration)
                         else [m.available_of(m.agents[i], last) for i in mi])
                options = list(itertools.product(*pools))
                if not options:
                    options = [tuple("?" for _ in mi)]  # always invalid
                sigma[key] = move = options[0]
                alts[key] = options
                order.append(key)
                # a walk begun again from the root would re-enter, on cached
                # steps, every node this walk has entered: charge them unwalked
                redo, base = spent - base, spent
                for _ in range(redo):
                    lit.spend()
            return move

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
            # evaluate the current (partial) table, growing it on demand;
            # base: the budget spent before this walk, plus what it was charged
            base = spent
            verdict: Vb = True
            for configs, profiles, loop, cut in lit.plays(coop, croot, l0, move_of):
                verdict = k_and(verdict, lit.value(body, configs, profiles, loop, l0, sp_pr, cut))
                if verdict is False:
                    break
            if verdict is True:
                return True
            if verdict is None:
                any_unknown_sigma = True
            if not next_assignment():
                return None if any_unknown_sigma else False

    return Verdict(eval_sf(f, c0, 1))
