"""Engine tests: qualitative fixpoints, saturation, bounded search, oracle."""

import contextlib
import dataclasses
import gc
import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcgmp import checker, dynamics
from gcgmp.checker import (
    Budget,
    StrategyTable,
    Verdict,
    check_apc_play,
    check_atl,
    check_bounded,
    check_saturated,
    enumerate_oracle,
    k_and,
    k_not,
    k_or,
    pre_states,
    replay_strategy_table,
    saturation_cap,
)
from gcgmp.dynamics import Configuration, Play, step
from gcgmp.errors import (
    Divergent,
    FragmentError,
    GcgmpError,
    GuardViolation,
    NotApplicable,
    NotMonotone,
    TooLarge,
    VariableVsVariableAtom,
)
from gcgmp.logic import (
    CHILDREN,
    ML_CONFIG,
    ML_STATE,
    PR_CONFIG,
    PR_STATE,
    TRUE,
    Always,
    And,
    Coop,
    Next,
    Not,
    Prop,
    StrategyClassSpec,
    Tru,
    Until,
    bind_formula,
    parse_formula,
    subformulas,
)
from gcgmp.model import Gcgmp, builtin_fig1, model_from_dict, validate
from test_model import ring_doc


def mk(d):
    m = model_from_dict(d)
    assert validate(m) == [], "test model must be well-formed"
    return m


def fml(m, text):
    return bind_formula(m, parse_formula(text))


@pytest.fixture(scope="module")
def fig1():
    return builtin_fig1()


def one_agent_loop(actions_pay, labels=None, semantics=None):
    """Single agent, single state; each action loops with the given payoff."""
    d = {
        "agents": ["a"],
        "states": ["s"],
        "actions": {"a": [act for act, _ in actions_pay]},
        "transitions": [
            {"from": "s", "profile": {"a": act}, "to": "s"} for act, _ in actions_pay
        ],
        "payoffs": [
            {"state": "s", "profile": {"a": act}, "values": {"a": str(p)}}
            for act, p in actions_pay
        ],
        "labels": labels or {},
        "value_semantics": semantics or "mean",
    }
    return mk(d)


def run(m, c0, profiles) -> list:
    """The configurations c_0..c_n of the guarded run of ``profiles`` from ``c0``."""
    configs = [c0]
    for i, prof in enumerate(profiles, start=1):
        configs.append(step(m, configs[-1], prof, i))
    return configs


def lasso(m, c0, profiles, loop=0) -> Play:
    """The guarded run of ``profiles`` from ``c0``, closed back onto ``loop``."""
    return Play(tuple(run(m, c0, profiles)), tuple(profiles), loop)


CHAIN = {
    "agents": ["a"],
    "states": ["s", "t"],
    "actions": {"a": ["go"]},
    "transitions": [
        {"from": "s", "profile": {"a": "go"}, "to": "t"},
        {"from": "t", "profile": {"a": "go"}, "to": "t"},
    ],
    "payoffs": [
        {"state": "s", "profile": {"a": "go"}, "values": {"a": "0"}},
        {"state": "t", "profile": {"a": "go"}, "values": {"a": "0"}},
    ],
    "labels": {"t": ["q"]},
}
SWAP = {**CHAIN, "transitions": [  # s and t share a pool; only s steps into q
    {"from": "s", "profile": {"a": "go"}, "to": "t"},
    {"from": "t", "profile": {"a": "go"}, "to": "s"},
]}


def one_agent_graph(moves: dict, labels: dict) -> dict:
    """A game of agent ``a`` alone: ``moves[s]`` maps each action available
    at ``s`` to its target, and the states are listed in ``moves``' order."""
    rows = [(s, act, to) for s, acts in moves.items() for act, to in acts.items()]
    return {"agents": ["a"], "states": list(moves), "actions": {"a": ["x", "y"]},
            "available": {s: {"a": list(acts)} for s, acts in moves.items()},
            "transitions": [{"from": s, "profile": {"a": act}, "to": to}
                            for s, act, to in rows],
            "payoffs": [{"state": s, "profile": {"a": act}, "values": {"a": "0"}}
                        for s, act, _ in rows],
            "labels": labels}


# s3 and s2 fall into g, s1 follows s2 and s0 follows s1, while s4 may loop.
# Listed so that a fixpoint round, which visits the newest state first, meets
# s3, s2, s4, s0, s1: a U or G round carries s3's change on to s2 and s1 at
# once, s0 waits one round for s1, and s4 steps into s2 but need not.
LADDER = one_agent_graph({"s1": {"x": "s2"}, "s0": {"x": "s1"}, "s4": {"x": "s2", "y": "s4"},
                          "s2": {"x": "s3"}, "s3": {"x": "g"}, "g": {"x": "g"}},
                         {"g": ["q"]})


# --- three-valued helpers ---------------------------------------------------


class TestKleene:
    @given(st.sampled_from([True, False, None]), st.sampled_from([True, False, None]))
    def test_de_morgan(self, x, y):
        assert k_not(k_and(x, y)) == k_or(k_not(x), k_not(y))

    @given(st.sampled_from([True, False, None]))
    def test_negation_involutive(self, x):
        assert k_not(k_not(x)) == x

    def test_unknown_absorbs(self):
        assert k_and(None, True) is None
        assert k_and(None, False) is False
        assert k_or(None, False) is None
        assert k_or(None, True) is True


# --- qualitative engine -----------------------------------------------------


def within(g, agents):
    """``g`` with every coalition cut down to ``agents``."""
    kids = {k: within(getattr(g, k), agents) for k in CHILDREN.get(type(g), ())}
    if isinstance(g, Coop):
        kids["coalition"] = g.coalition & agents
    return dataclasses.replace(g, **kids) if kids else g


_COALITIONS = st.sets(st.sampled_from("abc")).map(frozenset)
ATL_FORMULAS = st.recursive(  # constraint-free, with X/G/U under any coalition
    st.sampled_from([TRUE, Prop("p"), Prop("q")]),
    lambda kids: st.one_of(
        kids.map(Not),
        st.builds(And, kids, kids),
        st.builds(Coop, _COALITIONS, kids.map(Next)),
        st.builds(Coop, _COALITIONS, kids.map(Always)),
        st.builds(Coop, _COALITIONS, st.builds(Until, kids, kids)),
        # F phi: the first U round wins every state that can force phi at once
        st.builds(Coop, _COALITIONS, st.builds(Until, st.just(TRUE), kids)),
    ),
    max_leaves=6,
)


@st.composite
def small_games(draw):
    """Concurrent games of 1-6 states and 1-3 agents with 1-2 actions each,
    availability, transitions and labels drawn at random; no guards."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    states, agents = [f"s{i}" for i in range(n)], ["a", "b", "c"][:k]
    actions = dict(zip(agents, draw(st.lists(st.sampled_from([["x"], ["x", "y"]]),
                                             min_size=k, max_size=k))))
    # per state at most 3 availability picks, 1 label pick and 2 ** 3 profiles
    picks = iter(draw(st.lists(st.integers(0, 63), min_size=12 * n, max_size=12 * n)))
    available, labels, trans, pays = {}, {}, [], []
    for s in states:
        for a, acts in actions.items():  # a nonempty subset, as a bitmask
            bits = next(picks) % ((1 << len(acts)) - 1) + 1
            available.setdefault(s, {})[a] = [x for i, x in enumerate(acts) if bits >> i & 1]
        bits = next(picks)  # one pick for both letters
        labels[s] = [p for i, p in enumerate("pq") if bits >> i & 1]
        for prof in itertools.product(*available[s].values()):
            profile = dict(zip(agents, prof))
            trans.append({"from": s, "profile": profile, "to": states[next(picks) % n]})
            pays.append({"state": s, "profile": profile, "values": {a: "0" for a in agents}})
    return mk({"agents": agents, "states": states, "actions": actions,
               "available": available, "transitions": trans, "payoffs": pays,
               "labels": labels, "guards": [], "value_semantics": "total"})


def textbook_sat(m, f) -> frozenset:
    """Satisfaction set by the plain fixpoint iterations: U from the empty set
    and G from every state, each round scanning every state."""
    every = frozenset(m.states)

    def cpre(coalition, z):
        won = set()
        for s in m.states:
            outcomes = {}  # the members' part of a profile -> its successors
            for prof in itertools.product(*(m.available_of(a, s) for a in m.agents)):
                part = tuple(act for a, act in zip(m.agents, prof) if a in coalition)
                outcomes.setdefault(part, []).append(m.transitions[(s, prof)])
            if any(all(t in z for t in ts) for ts in outcomes.values()):
                won.add(s)
        return frozenset(won)

    def sat(g):
        if isinstance(g, Tru):
            return every
        if isinstance(g, Prop):
            return frozenset(s for s in m.states if g.name in m.label_of(s))
        if isinstance(g, Not):
            return every - sat(g.sub)
        if isinstance(g, And):
            return sat(g.left) & sat(g.right)
        body = g.body
        if isinstance(body, Next):
            return cpre(g.coalition, sat(body.sub))
        if isinstance(body, Always):
            keep, z = sat(body.sub), every
            while (z2 := keep & cpre(g.coalition, z)) != z:
                z = z2
            return z
        phi1, phi2, z = sat(body.left), sat(body.right), frozenset()
        while (z2 := phi2 | (phi1 & cpre(g.coalition, z))) != z:
            z = z2
        return z

    return sat(f)


@contextlib.contextmanager
def capped_cpre(cap):
    """Count ``checker._cpre``'s calls and the nodes they examine, and fail
    past ``cap`` calls: a fixpoint that never converges fails the test
    instead of hanging it."""
    cpre, work = checker._cpre, {"calls": 0, "examined": 0}

    def capped(agents, coalition, pools, succ, targets, among, **update):
        work["calls"] += 1
        assert work["calls"] <= cap, f"more than {cap} _cpre calls in one check"
        work["examined"] += len(among)
        return cpre(agents, coalition, pools, succ, targets, among, **update)

    checker._cpre = capped
    try:
        yield work
    finally:
        checker._cpre = cpre


def capped_atl(m, f) -> frozenset:
    """``check_atl`` allowed one ``_cpre`` call per state and one more for
    each modality: every fixpoint round but the last moves a state."""
    with capped_cpre(sum(isinstance(g, Coop) for g in subformulas(f)) * (len(m.states) + 1)):
        return check_atl(m, f)


class TestQualitative:
    def test_nobody_keeps_p1(self, fig1):
        # from s1 every profile pair can be answered into s2 or s3
        assert capped_atl(fig1, fml(fig1, "<<>> G p1")) == frozenset()

    def test_grand_coalition_next_true(self, fig1):
        f = fml(fig1, "<<I,II>> X true")
        assert capped_atl(fig1, f) == frozenset(fig1.states)

    def test_inevitable_reach(self):
        m = mk(CHAIN)
        assert capped_atl(m, fml(m, "<<>> F q")) == frozenset({"s", "t"})

    def test_until_and_negation(self, fig1):
        # I alone can steer s1 -> {s2, s3}? C gives {s1, s2}, D gives {s3, s2}:
        # no single choice pins p2, but <<I,II>> X p2 holds at every state
        assert "s1" in capped_atl(fig1, fml(fig1, "<<I,II>> X p2"))
        got = capped_atl(fig1, fml(fig1, "!(<<I,II>> X p2)"))
        assert got == frozenset()

    def test_rejects_constraints(self, fig1):
        with pytest.raises(FragmentError):
            check_atl(fig1, fml(fig1, "<<I>> G (v_I > 0)"))

    def test_rejects_play_value_bodies(self, fig1):
        with pytest.raises(FragmentError):
            check_atl(fig1, fml(fig1, "<<I>> w_I >= 5"))

    def test_nested_modalities_are_fine(self, fig1):
        # the inner modality is itself a state formula, so nesting is legal
        got = capped_atl(fig1, fml(fig1, "<<I>> G (<<II>>(p1 U p2))"))
        assert got <= frozenset(fig1.states)

    def test_pre_manual(self, fig1):
        # both players together choose the move, so s1 can be sent to s2
        assert "s1" in pre_states(fig1, frozenset({"I", "II"}), frozenset({"s2"}))
        # the empty coalition forces only what every profile satisfies
        assert pre_states(fig1, frozenset(), frozenset({"s2"})) == frozenset()
        assert pre_states(
            fig1, frozenset(), frozenset(fig1.states)
        ) == frozenset(fig1.states)

    @given(st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_pre_monotone(self, bits1, bits2):
        m = builtin_fig1()
        states = list(m.states)
        z1 = frozenset(s for i, s in enumerate(states) if bits1 & (1 << i))
        z2 = z1 | frozenset(s for i, s in enumerate(states) if bits2 & (1 << i))
        for coalition in [frozenset(), frozenset({"I"}), frozenset({"I", "II"})]:
            assert pre_states(m, coalition, z1) <= pre_states(m, coalition, z2)

    def test_until_iteration_is_increasing_and_short(self, fig1):
        # lfp stages grow and stabilize within the number of states
        target = frozenset(s for s in fig1.states if "p2" in fig1.label_of(s))
        coalition = frozenset({"I", "II"})
        z = frozenset()
        stages = [z]
        while True:
            z2 = target | pre_states(fig1, coalition, z)
            if z2 == z:
                break
            assert z < z2
            z = z2
            stages.append(z)
        assert len(stages) <= len(fig1.states) + 1
        assert z == capped_atl(fig1, fml(fig1, "<<I,II>>(true U p2)"))

    def test_always_iteration_is_decreasing(self, fig1):
        keep = frozenset(s for s in fig1.states if "p1" in fig1.label_of(s))
        z = frozenset(fig1.states)
        while True:
            z2 = keep & pre_states(fig1, frozenset({"I"}), z)
            if z2 == z:
                break
            assert z2 < z
            z = z2
        assert z == capped_atl(fig1, fml(fig1, "<<I>> G p1"))

    @given(small_games(), ATL_FORMULAS)
    @settings(max_examples=120, deadline=None)
    # U formulas whose first round wins a state: s steps into t, where q holds
    @example(mk(CHAIN), Coop(frozenset(), Until(TRUE, Prop("q"))))
    @example(mk(CHAIN), Not(Coop(frozenset({"a"}), Until(Not(Prop("q")), Prop("q")))))
    # states with one pool whose successors differ: a plan is per pool, a successor is not
    @example(mk(SWAP), Coop(frozenset({"a"}), Next(Prop("q"))))
    # fixpoints whose rounds carry a change back along several edges:
    # {g, s3, s2, s1, s0} and {s4}, each in 3 _cpre calls (5 without that)
    @example(mk(LADDER), Coop(frozenset(), Until(TRUE, Prop("q"))))
    @example(mk(LADDER), Coop(frozenset({"a"}), Always(Not(Prop("q")))))
    def test_fixpoints_match_the_textbook_iteration(self, m, f):
        f = within(f, frozenset(m.agents))
        assert capped_atl(m, f) == textbook_sat(m, f)


def test_fixpoint_rounds_examine_only_open_states():
    # one 300-state ring, r0 the goal: each U round examines the states not
    # yet won and each G round those not yet lost; rescanning every state
    # each round would examine 90,300 for the grand coalition, not n(n-1)/2
    m = model_from_dict(ring_doc(300))
    got = {}
    for text in ["<<A>>(true U goal)", "<<B>> G !goal", "<<A,B>>(true U goal)"]:
        with capped_cpre(len(m.states) + 1) as work:
            won = check_atl(m, fml(m, text))
        got[text] = (len(won), work["examined"])
    assert got == {
        "<<A>>(true U goal)": (75, 19650),
        "<<B>> G !goal": (225, 19650),
        "<<A,B>>(true U goal)": (300, 44850),
    }


def test_fixpoint_rounds_carry_a_win_back_within_a_round():
    # the same ring listed r0..r299: newest first, a round meets each state
    # after its successor, so the first round decides every state and the
    # second only confirms it
    doc = ring_doc(300)
    m = model_from_dict({**doc, "states": doc["states"][::-1]})
    got = {}
    for text in ["<<A>>(true U goal)", "<<B>> G !goal", "<<A,B>>(true U goal)"]:
        with capped_cpre(len(m.states) + 1) as work:
            won = check_atl(m, fml(m, text))
        got[text] = (len(won), work["calls"], work["examined"])
    assert got == {
        "<<A>>(true U goal)": (75, 2, 524),
        "<<B>> G !goal": (225, 2, 524),
        "<<A,B>>(true U goal)": (300, 2, 299),
    }


def test_checks_leave_no_cyclic_garbage(fig1):
    # each check's game goes when the call returns, and the refusals auto
    # passes over keep no frame alive: atl refuses the atom and saturated
    # fig1's negative payoffs before bounded answers
    ring = model_from_dict(ring_doc(300))
    loop = one_agent_loop([("inc", 1), ("skip", 0)])
    gc.collect()
    gc.disable()
    try:
        check_atl(ring, fml(ring, "<<A>>(true U goal)"))
        check_atl(ring, fml(ring, "<<B>> G !goal"))
        assert gc.collect() == 0
        check_saturated(loop, Configuration("s", (F(0),)), fml(loop, "<<a>> G (v_a <= 2)"))
        assert gc.collect() == 0
        got = checker.check(fig1, Configuration("s1", (0, 0)),
                            fml(fig1, "<<I>> G (p1 | v_I > 0)"), budget=150)
        assert got["engine"] == "bounded"
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- saturation engine ------------------------------------------------------


class TestSaturated:
    def test_counter_reaches_three(self):
        m = one_agent_loop([("inc", 1)])
        c0 = Configuration("s", (F(0),))
        assert check_saturated(m, c0, fml(m, "<<a>> F (v_a >= 3)")).value is True

    def test_forced_growth_breaks_ceiling(self):
        m = one_agent_loop([("inc", 1)])
        c0 = Configuration("s", (F(0),))
        assert check_saturated(m, c0, fml(m, "<<a>> G (v_a <= 2)")).value is False

    def test_idling_keeps_ceiling(self):
        m = one_agent_loop([("inc", 1), ("skip", 0)])
        c0 = Configuration("s", (F(0),))
        assert check_saturated(m, c0, fml(m, "<<a>> G (v_a <= 2)")).value is True

    def test_verdicts_carry_no_bound(self):
        m = one_agent_loop([("inc", 1)])
        v = check_saturated(m, Configuration("s", (F(0),)), fml(m, "<<a>> F (v_a >= 3)"))
        assert v.bound_used is None and v.witness is None

    def test_negative_payoff_rejected(self):
        m = one_agent_loop([("dec", -1)])
        with pytest.raises(NotMonotone):
            check_saturated(m, Configuration("s", (F(0),)), fml(m, "<<a>> F (v_a >= 1)"))

    def test_discount_rejected(self):
        d = {
            "agents": ["a"],
            "states": ["s"],
            "actions": {"a": ["inc"]},
            "transitions": [{"from": "s", "profile": {"a": "inc"}, "to": "s"}],
            "payoffs": [
                {"state": "s", "profile": {"a": "inc"}, "values": {"a": "1"}}
            ],
            "labels": {},
            "discounts": {"a": "1/2"},
            "value_semantics": "discounted",
        }
        m = mk(d)
        with pytest.raises(NotMonotone):
            check_saturated(m, Configuration("s", (F(0),)), fml(m, "<<a>> F (v_a >= 1)"))

    def test_negative_start_rejected(self):
        m = one_agent_loop([("inc", 1)])
        with pytest.raises(NotMonotone):
            check_saturated(m, Configuration("s", (F(-1),)), fml(m, "<<a>> F (v_a >= 1)"))

    def test_variable_vs_variable_rejected(self):
        d = {
            "agents": ["a", "b"],
            "states": ["s"],
            "actions": {"a": ["x"], "b": ["x"]},
            "transitions": [
                {"from": "s", "profile": {"a": "x", "b": "x"}, "to": "s"}
            ],
            "payoffs": [
                {"state": "s", "profile": {"a": "x", "b": "x"},
                 "values": {"a": "1", "b": "0"}}
            ],
            "labels": {},
        }
        m = mk(d)
        with pytest.raises(VariableVsVariableAtom):
            check_saturated(
                m, Configuration("s", (F(0), F(0))), fml(m, "<<a>> F (v_a > v_b)")
            )

    def test_play_value_atoms_rejected(self):
        m = one_agent_loop([("inc", 1)])
        with pytest.raises(FragmentError):
            check_saturated(m, Configuration("s", (F(0),)), fml(m, "<<a>> w_a >= 1"))

    def test_cap_covers_guards_too(self):
        d = {
            "agents": ["a"],
            "states": ["s"],
            "actions": {"a": ["inc", "skip"]},
            "transitions": [
                {"from": "s", "profile": {"a": "inc"}, "to": "s"},
                {"from": "s", "profile": {"a": "skip"}, "to": "s"},
            ],
            "payoffs": [
                {"state": "s", "profile": {"a": "inc"}, "values": {"a": "1"}},
                {"state": "s", "profile": {"a": "skip"}, "values": {"a": "0"}},
            ],
            "labels": {},
            "guards": [
                {"agent": "a", "state": "s", "action": "inc", "formula": "v_a <= 7"}
            ],
        }
        m = mk(d)
        f = fml(m, "<<a>> F (v_a >= 3)")
        assert saturation_cap(m, f) == F(8)
        # the guard cuts growth at 8, far above the formula's own constant
        assert check_saturated(m, Configuration("s", (F(0),)), f).value is True
        g = fml(m, "<<a>> F (v_a >= 9)")
        # inc is disabled once v_a passes 7, so 9 is unreachable
        assert check_saturated(m, Configuration("s", (F(0),)), g).value is False

    @pytest.mark.parametrize("text, verdict", [
        ("<<a>> G (0 < 1)", "true"),
        ("<<a>> X (1 < 0)", "false"),
        ("<<a>> (1/2 >= 1) U p", "false"),
    ])
    def test_a_variable_free_comparison_holds_everywhere_or_nowhere(self, text, verdict):
        m = one_agent_loop([("inc", 1), ("skip", 0)], labels={"s": []})
        m = dataclasses.replace(m, atoms=("p",))
        c0 = Configuration("s", (0,))
        auto = checker.check(m, c0, fml(m, text), budget=6)
        assert (auto["engine"], auto["verdict"]) == ("saturated", verdict)
        assert checker.check(m, c0, fml(m, text), budget=6, engine="bounded")["verdict"] == verdict

    def test_a_graph_past_the_node_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_GRAPH_NODES", 50)
        m = one_agent_loop([("inc", 1), ("skip", 0)])
        c0 = Configuration("s", (0,))
        f = fml(m, "<<a>> G (v_a < 100)")  # the cap is 100: 101 nodes
        with pytest.raises(NotApplicable, match="more than 50 nodes"):
            check_saturated(m, c0, f)
        with pytest.raises(NotApplicable, match="^the saturated engine does not apply: .*50 nodes"):
            checker.check(m, c0, f, engine="saturated")
        got = checker.check(m, c0, f, budget=6)
        assert (got["engine"], got["verdict"]) == ("bounded", "true")

    def test_saturated_start_utilities(self):
        m = one_agent_loop([("inc", 1)])
        v = check_saturated(m, Configuration("s", (F(1000),)), fml(m, "<<a>> G (v_a >= 3)"))
        assert v.value is True

    def test_rescaling_invariance_sample(self):
        def base_doc(k):
            return {
                "agents": ["a"],
                "states": ["s", "t"],
                "actions": {"a": ["go", "stay"]},
                "transitions": [
                    {"from": "s", "profile": {"a": "go"}, "to": "t"},
                    {"from": "s", "profile": {"a": "stay"}, "to": "s"},
                    {"from": "t", "profile": {"a": "go"}, "to": "t"},
                    {"from": "t", "profile": {"a": "stay"}, "to": "t"},
                ],
                "payoffs": [
                    {"state": "s", "profile": {"a": "go"}, "values": {"a": str(2 * k)}},
                    {"state": "s", "profile": {"a": "stay"}, "values": {"a": str(1 * k)}},
                    {"state": "t", "profile": {"a": "go"}, "values": {"a": str(0)}},
                    {"state": "t", "profile": {"a": "stay"}, "values": {"a": str(3 * k)}},
                ],
                "labels": {},
                "guards": [
                    {"agent": "a", "state": "t", "action": "stay",
                     "formula": f"v_a <= {5 * k}"}
                ],
            }

        m = mk(base_doc(1))
        c0 = Configuration("s", (F(0),))
        v1 = check_saturated(m, c0, fml(m, "<<a>> F (v_a >= 4)"))
        for k in (2, 3, 7):
            m2 = mk(base_doc(k))
            v2 = check_saturated(m2, c0, fml(m2, f"<<a>> F (v_a >= {4 * k})"))
            assert v2.value == v1.value

    @pytest.mark.parametrize(
        "start, text, expected",
        [
            # the guard 3 >= v_a enables half up to and at 3, not above
            ("0", "<<a>> X (v_a = 1/2)", True),
            ("3", "<<a>> X (v_a = 7/2)", True),
            ("7/2", "<<a>> X (v_a = 4)", False),
            # v_a + v_a > 5 is v_a > 5/2: two big steps reach 3 and no more
            ("0", "<<a>> X <<a>> X (v_a + v_a > 5)", True),
            ("0", "<<a>> X <<a>> X (v_a + v_a > 6)", False),
            # cap 7: four big steps hit 6; from 5 only big is enabled, giving
            # 13/2 (exact, below the cap), then 8 (clamped to 7), never 6
            ("0", "<<a>> F (v_a = 6)", True),
            ("5", "<<a>> F (v_a = 6)", False),
            ("5", "<<a>> X (v_a = 13/2)", True),
            # cap 8: 7 + 3/2 crosses the cap and is clamped to 8 > 7; with
            # cap 17/2 the same step lands on the cap exactly
            ("7", "<<a>> X (v_a > 7)", True),
            ("7", "<<a>> X (v_a < 15/2)", False),
            # starts exactly at the cap (6, then 8)
            ("6", "<<a>> G (v_a + v_a > 5)", True),
            ("6", "<<a>> F (v_a <= 5)", False),
            ("8", "<<a>> X (v_a > 7)", True),
        ],
    )
    def test_clamped_verdicts_by_hand(self, start, text, expected):
        d = {
            "agents": ["a"],
            "states": ["s"],
            "actions": {"a": ["half", "big"]},
            "transitions": [
                {"from": "s", "profile": {"a": "half"}, "to": "s"},
                {"from": "s", "profile": {"a": "big"}, "to": "s"},
            ],
            "payoffs": [
                {"state": "s", "profile": {"a": "half"}, "values": {"a": "1/2"}},
                {"state": "s", "profile": {"a": "big"}, "values": {"a": "3/2"}},
            ],
            "labels": {},
            "guards": [
                {"agent": "a", "state": "s", "action": "half", "formula": "3 >= v_a"}
            ],
        }
        m = mk(d)
        c0 = Configuration("s", (F(start),))
        assert check_saturated(m, c0, fml(m, text)).value is expected


# --- bounded engine ---------------------------------------------------------


class TestBounded:
    def test_cooperation_pays(self, fig1):
        c0 = Configuration("s1", (F(0), F(0)))
        f = fml(fig1, "<<I,II>> F (p1 & v_I > 100 & v_II > 100)")
        v = check_bounded(fig1, c0, f, ML_CONFIG, ML_CONFIG, Budget(120))
        assert v.value is True
        assert v.witness is not None and v.bound_used is not None
        # the accepting table really wins: replay it against every response
        assert replay_strategy_table(fig1, c0, f, v.witness, ML_CONFIG, 120)

    def test_a_lasso_closes_only_on_its_own_path(self):
        # x reaches t in one step, y in two; t then moves to g, labelled q.
        # The walk meets t at position 1 on the x branch, so when it meets t
        # again at position 2 on the y branch, that is no repeat of the y
        # play, and closing a lasso there would refute every branch
        edges = [("s", "x", "t"), ("s", "y", "u"), ("u", "x", "t"), ("u", "y", "t"),
                 ("t", "x", "g"), ("t", "y", "g"), ("g", "x", "g"), ("g", "y", "g")]
        m = mk({
            "agents": ["a"],
            "states": ["s", "u", "t", "g"],
            "actions": {"a": ["x", "y"]},
            "transitions": [{"from": s, "profile": {"a": a}, "to": t} for s, a, t in edges],
            "payoffs": [{"state": s, "profile": {"a": a}, "values": {"a": "0"}}
                        for s, a, _ in edges],
            "labels": {"g": ["q"]},
        })
        v = check_bounded(m, Configuration("s", (F(0),)), fml(m, "<<>> (true U q)"), budget=4)
        assert (v.value, v.bound_used) == (True, 4)

    @staticmethod
    def two_ways_to_t(guards=()):
        edges = [("s", "x", "t", "0"), ("s", "y", "u", "1"), ("u", "x", "t", "0"),
                 ("u", "y", "t", "0"), ("t", "x", "g", "1"), ("t", "y", "g", "0"),
                 ("g", "x", "g", "0"), ("g", "y", "g", "0")]
        return mk({
            "agents": ["a"],
            "states": ["s", "u", "t", "g"],
            "actions": {"a": ["x", "y"]},
            "transitions": [{"from": s, "profile": {"a": a}, "to": t} for s, a, t, _ in edges],
            "payoffs": [{"state": s, "profile": {"a": a}, "values": {"a": p}}
                        for s, a, _, p in edges],
            "guards": [{"agent": "a", "state": "t", "action": "x", "formula": g} for g in guards],
            "labels": {},
        })

    def test_an_opponent_commits_only_along_its_own_path(self):
        # a memoryless opponent plays y at t on the x branch; on the y branch
        # it reaches t with v_a = 1 and is free to play x there, which pays 1
        m = self.two_ways_to_t()
        f = fml(m, "<<>> G (v_a <= 1)")
        v = check_bounded(m, Configuration("s", (F(0),)), f, ML_STATE, ML_STATE, Budget(4))
        assert v.value is False

    def test_a_lone_opponent_response_commits_only_along_its_own_path(self):
        # as above, but at t with v_a = 0 the guard leaves y the only move
        m = self.two_ways_to_t(["v_a >= 1"])
        f = fml(m, "<<>> G (v_a <= 1)")
        v = check_bounded(m, Configuration("s", (F(0),)), f, ML_STATE, ML_STATE, Budget(4))
        assert v.value is False

    def test_a_lone_opponent_response_commits_down_its_path(self):
        # at t with v_a = 0 the guard leaves the opponent only y, which loops
        # back to t through w with v_a = 1; committed to y at t, it can never
        # take x to the q state, so only the horizon stops the search
        edges = [("s", "x", "t", "0"), ("s", "y", "t", "0"), ("t", "x", "g", "0"),
                 ("t", "y", "w", "1"), ("w", "x", "t", "0"), ("w", "y", "t", "0"),
                 ("g", "x", "g", "0"), ("g", "y", "g", "0")]
        m = mk({
            "agents": ["a"],
            "states": ["s", "t", "w", "g"],
            "actions": {"a": ["x", "y"]},
            "transitions": [{"from": s, "profile": {"a": a}, "to": t} for s, a, t, _ in edges],
            "payoffs": [{"state": s, "profile": {"a": a}, "values": {"a": p}}
                        for s, a, _, p in edges],
            "guards": [{"agent": "a", "state": "t", "action": "x", "formula": "v_a >= 1"}],
            "atoms": ["q"],
            "labels": {"g": ["q"]},
        })
        f = fml(m, "<<>> G !q")
        for so, value in ((ML_STATE, None), (PR_STATE, False)):
            v = check_bounded(m, Configuration("s", (F(0),)), f, ML_STATE, so, Budget(4))
            assert (v.value, v.bound_used) == (value, 4)

    def test_lone_player_cannot_stay_safe(self, fig1):
        c0 = Configuration("s1", (F(0), F(0)))
        f = fml(fig1, "<<I>> G (p1 | v_I > 0)")
        v = check_bounded(fig1, c0, f, ML_CONFIG, ML_CONFIG, Budget(150))
        assert v.value is False
        assert v.counterexample, "refutations must come with traces"

    def test_counterexample_traces_replay(self, fig1):
        c0 = Configuration("s1", (F(0), F(0)))
        f = fml(fig1, "<<I>> G (p1 | v_I > 0)")
        v = check_bounded(fig1, c0, f, ML_CONFIG, ML_CONFIG, Budget(150))
        for rec in v.counterexample:
            trace = rec["trace"]
            assert trace[0]["state"] == "s1"
            c = c0
            for i, entry in enumerate(trace[:-1]):
                prof = tuple(entry["profile"])
                c = step(fig1, c, prof, i + 1)
                nxt = trace[i + 1]
                assert c.state == nxt["state"]
                assert [str(u) for u in c.utilities] == nxt["utilities"]

    def test_forced_loop_always_true(self):
        m = one_agent_loop([("go", 0)])
        c0 = Configuration("s", (F(0),))
        v = check_bounded(m, c0, fml(m, "<<>> G true"), budget=Budget(1))
        assert v.value is True and v.bound_used == 1

    def test_horizon_without_closure_is_unknown(self):
        m = one_agent_loop([("inc", 1)])
        c0 = Configuration("s", (F(0),))
        v = check_bounded(m, c0, fml(m, "<<a>> F (v_a >= 10)"), budget=Budget(3))
        assert v.value is None
        assert v.bound_used == 3

    def test_node_budget_exhaustion_is_unknown(self, fig1, monkeypatch):
        c0 = Configuration("s1", (F(0), F(0)))
        f = fml(fig1, "<<I,II>> F (p1 & v_I > 100 & v_II > 100)")
        monkeypatch.setattr(checker, "MAX_NODES", 50)
        v = check_bounded(fig1, c0, f, ML_CONFIG, ML_CONFIG, Budget(120))
        assert v.value is None
        assert v.bound_used is not None

    def test_unknown_never_carries_evidence(self):
        m = one_agent_loop([("inc", 1)])
        v = check_bounded(
            m, Configuration("s", (F(0),)), fml(m, "<<a>> F (v_a >= 10)"), budget=Budget(3)
        )
        assert v.witness is None and v.counterexample is None

    def test_state_booleans_over_modalities(self, fig1):
        # at utilities (0,0) the guards pin both players to C, so even the
        # grand coalition cannot leave s1; with slack both conjuncts hold
        pinned = Configuration("s1", (F(0), F(0)))
        f = fml(fig1, "(<<I,II>> X p2) & !(<<>> X p2)")
        assert check_bounded(fig1, pinned, f, budget=Budget(4)).value is False
        free = Configuration("s1", (F(5), F(5)))
        v = check_bounded(fig1, free, f, budget=Budget(4))
        assert v.value is True
        assert v.witness is None  # evidence is attached only to a top-level modality

    def test_apc_body_resolves_on_exact_lassos_only(self):
        # a zero-increment cycle repeats its configuration, so the play is
        # pinned and its value judged exactly
        m = one_agent_loop([("go", 0)], semantics="mean")
        c0 = Configuration("s", (F(0),))
        assert check_bounded(m, c0, fml(m, "<<>> w_a = 0"), budget=Budget(4)).value is True
        assert check_bounded(m, c0, fml(m, "<<>> w_a >= 1"), budget=Budget(4)).value is False
        # accruing utilities never close a configuration lasso: honest Unknown
        grower = one_agent_loop([("go", 2)], semantics="mean")
        v = check_bounded(grower, c0, fml(grower, "<<>> w_a >= 2"), budget=Budget(4))
        assert v.value is None

    @staticmethod
    def cancelling_cycle(semantics="mean"):
        """From up, a pays 2 on the way to down and -2 on the way back."""
        return mk({
            "agents": ["a"],
            "states": ["up", "down"],
            "actions": {"a": ["go"]},
            "transitions": [
                {"from": "up", "profile": {"a": "go"}, "to": "down"},
                {"from": "down", "profile": {"a": "go"}, "to": "up"},
            ],
            "payoffs": [
                {"state": "up", "profile": {"a": "go"}, "values": {"a": "2"}},
                {"state": "down", "profile": {"a": "go"}, "values": {"a": "-2"}},
            ],
            "labels": {},
            "value_semantics": semantics,
        })

    def test_apc_body_on_cancelling_cycle(self):
        m = self.cancelling_cycle()
        c0 = Configuration("up", (F(0),))
        assert check_bounded(m, c0, fml(m, "<<>> w_a = 0"), budget=Budget(6)).value is True

    @pytest.mark.parametrize("sp", [ML_CONFIG, PR_CONFIG], ids=["ml-config", "pr-config"])
    def test_play_value_atoms_agree_with_the_oracle(self, sp):
        # the oracle values play-value bodies on its literal plays, and a True
        # witness replays through the same code; under total semantics the
        # cancelling cycle's partial sums never settle, so its value is unknown
        models = [
            (one_agent_loop([("go", 0), ("also", 0)], semantics="mean"), "s"),
            (one_agent_loop([("go", 2)], semantics="mean"), "s"),  # never closes
            (self.cancelling_cycle(), "up"),
            (self.cancelling_cycle("total"), "up"),
        ]
        got = []
        for m, root in models:
            c0 = Configuration(root, (F(0),))
            for text in ("<<a>> w_a = 0", "<<a>> w_a >= 1", "<<>> w_a >= 2"):
                f = fml(m, text)
                v = check_bounded(m, c0, f, sp, ML_CONFIG, Budget(4))
                assert enumerate_oracle(m, c0, f, sp, ML_CONFIG, depth=4).value is v.value, text
                if v.value:
                    assert replay_strategy_table(m, c0, f, v.witness, ML_CONFIG, 4)
                got.append(v.value)
        # a pumped shortfall refutes only a memoryless proponent
        short = False if sp is ML_CONFIG else None
        assert got == [True, short, False] + [None] * 3 + [True, short, False] + [None] * 3

    def test_empty_coalition_pumping_is_definite_even_with_recall(self):
        m = one_agent_loop([("go", 0)])  # "p" labels nothing: false everywhere
        c0 = Configuration("s", (F(0),))
        f = fml(m, "<<>>(true U p)")
        v = check_bounded(m, c0, f, PR_CONFIG, PR_CONFIG, Budget(6))
        assert v.value is False

    def test_proponent_recall_downgrades_pumped_refutation(self):
        # with a real choice, the memoryless pump does not refute a
        # recall-ful proponent; the engine must stay honest and say Unknown
        m = one_agent_loop([("go", 0), ("also", 0)])
        c0 = Configuration("s", (F(0),))
        f = fml(m, "<<a>>(true U p)")
        assert check_bounded(m, c0, f, ML_CONFIG, ML_CONFIG, Budget(6)).value is False
        assert check_bounded(m, c0, f, PR_CONFIG, PR_CONFIG, Budget(6)).value is None

    def test_nested_modalities(self):
        m = mk(CHAIN)
        c0 = Configuration("s", (F(0),))
        f = fml(m, "<<a>> X (<<a>> X q)")
        v = check_bounded(m, c0, f, budget=Budget(4))
        assert v.value is True

    def test_rejects_general_path_nesting(self, fig1):
        with pytest.raises(FragmentError):
            check_bounded(
                fig1,
                Configuration("s1", (F(0), F(0))),
                fml(fig1, "<<I>> G (<<II>>(p1 U p2))") .body,  # path formula
                budget=Budget(4),
            )

    def test_guard_respecting_witness(self, fig1):
        # every action the witness prescribes is enabled where consulted;
        # replay would raise GuardViolation otherwise
        c0 = Configuration("s1", (F(0), F(0)))
        f = fml(fig1, "<<I,II>> F (p1 & v_I > 100 & v_II > 100)")
        v = check_bounded(fig1, c0, f, ML_CONFIG, ML_CONFIG, Budget(120))
        for agent, table in v.witness.moves.items():
            for obs, act in table.items():
                state, us = obs.split("|")
                utilities = tuple(F(x) for x in us.split(","))
                i = fig1.agent_index(agent)
                assert act in fig1.enabled_actions(agent, state, utilities[i])

    def test_json_round_trip_shape(self, fig1):
        c0 = Configuration("s1", (F(0), F(0)))
        f = fml(fig1, "<<I>> G (p1 | v_I > 0)")
        v = check_bounded(fig1, c0, f, ML_CONFIG, ML_CONFIG, Budget(150))
        j = v.as_json()
        assert j["verdict"] == "false"
        assert isinstance(j["counterexample"], list)
        assert "witness" not in j

    def test_deeper_budget_refines_unknown(self):
        m = one_agent_loop([("inc", 1)])
        c0 = Configuration("s", (F(0),))
        f = fml(m, "<<a>> F (v_a >= 10)")
        assert check_bounded(m, c0, f, budget=Budget(3)).value is None
        assert check_bounded(m, c0, f, budget=Budget(12)).value is True

    def test_equal_subformulas_share_the_memo(self, fig1, monkeypatch):
        # the node budget that just decides `A & true` also decides `A & A`
        c0 = Configuration("s1", (F(0), F(0)))
        single = fml(fig1, "(<<I>> X p1) & true")
        double = fml(fig1, "(<<I>> X p1) & (<<I>> X p1)")

        def value(f, nodes):
            monkeypatch.setattr(checker, "MAX_NODES", nodes)
            return check_bounded(fig1, c0, f, budget=Budget(2)).value

        n = next(n for n in itertools.count(1) if value(single, n) is not None)
        assert value(double, n) is True
        assert value(double, n - 1) is None


# Bounded-engine reports pinned byte for byte: sha256 of the sorted-key JSON
# of Verdict.as_json().  Search order, witnesses and counterexamples must not
# drift when the engine's representation changes.  "half" is fig1 with
# player I discounted by 1/2, so successors and memo entries are step-indexed.
BOUNDED_GOLDEN = [
    ("fig1", "<<I,II>>(true U (p1 & v_I > 20 & v_II > 20))", 60, "ml-config", "pr-state",
     "true", 16,
     "561d47520105bf3712ad2e76af4c1dfd3fccc8be55de79fec0768de407286eca"),
    ("fig1", "<<I,II>>(true U (p1 & v_I > 100 & v_II > 100))", 120, "ml-config", "ml-config",
     "true", 64,
     "08cb1dcd99802aefb98eeac84b37d032ce789718902a5c02e7b64adcccce5212"),
    ("fig1", "<<I,II>>(true U (p1 & v_I > 12 & v_II > 12))", 60, "pr-config", "pr-config",
     "true", 8,
     "83cd71c9f55f72d89b68b15c48a974cb366fd9aa9e193889ece8cd2bb000de78"),
    ("fig1", "<<I,II>>(true U (p1 & v_I > 12 & v_II > 12))", 60, "pr-state", "ml-state",
     "true", 8,
     "e6a62220283181f95bd60ffd967013257658e707b7fb039d8ed6459d47b48a97"),
    ("fig1", "<<I>> G (p1 | v_I > 0)", 150, "ml-config", "ml-config", "false", 8,
     "709ae6a14b1dcca3b70c07b3c666301e6233662992001919c40e1c988f468285"),
    ("fig1", "<<I>> G (p1 | v_I > 0)", 150, "pr-config", "ml-config", "false", 8,
     "77b7db1cd9b4351420c6520cd61d926df7e02154e2e6105a4e3d9f856bab0dc6"),
    ("fig1", "<<I,II>> G (v_I >= 0 & v_II >= 0)", 40, "ml-config", "ml-config", "true", 8,
     "f9c43a25a712033a6526a833939b5bdf7ddb4588a856c9e34ec794ae79ca0e30"),
    ("fig1", "(<<I>> X p1) & (<<I>> X p1)", 6, "ml-config", "ml-config", "true", 2,
     "f2f20ca26f50557922af05fe41499a7277b71b58cacd133eb70cdeaa82cd6c12"),
    ("fig1", "<<I,II>>(true U ((<<I>> X p1) & (<<I>> X p1) & v_I > 3))", 12,
     "ml-config", "ml-config", "true", 4,
     "b3248a2df6a0007c040476f3b25af987277498dbc763aba1f90c1f13f509bf70"),
    ("half", "<<I,II>>(true U (p2 & v_I > 1 & v_II > 4))", 12, "ml-config", "ml-config", "true", 4,
     "a010e8a1ba9bded9ef4e07a909cf5966b7bbf168fb8b17bd6a02eafbac27197a"),
    ("half", "<<I>> G (p1 | v_II < 2)", 8, "ml-config", "ml-config", "false", 4,
     "29d6a3b62a9de447136af9c0f6776d5e1614f756db50ca97759f58d791bff57e"),
    ("half", "<<I>> G (p1 | v_II < 2)", 8, "pr-config", "ml-config", "false", 4,
     "56d7ff7e303b4a295359e0d414f0886ade13a5b63e32b8f35a080d5d0eed14c6"),
    ("half", "<<I>> (true U p2)", 8, "pr-config", "ml-config", "true", 4,
     "b1ac05454d6d72c65efc8b28f52f6a5946ceaad3a2e849a2a643b2b736c64708"),
    ("half", "<<I>> G (p1 | v_I > 0)", 4, "ml-config", "ml-config", "unknown", 4,
     "e2cc2c9a46953d6bae1a814abdcd85579795ec46f4d0bf9baf4a87340dd5266a"),
    ("half", "!(<<I,II>> X (p2 & v_I > 0))", 6, "ml-config", "ml-config", "true", 2,
     "f2f20ca26f50557922af05fe41499a7277b71b58cacd133eb70cdeaa82cd6c12"),
]


@pytest.mark.parametrize("model, text, depth, sp, so, verdict, bound, digest", BOUNDED_GOLDEN)
def test_bounded_reports_are_pinned(fig1, model, text, depth, sp, so, verdict, bound, digest):
    if model == "half":
        fig1 = dataclasses.replace(fig1, discounts={"I": F(1, 2), "II": F(1)})
    v = check_bounded(
        fig1,
        Configuration("s1", (F(0), F(0))),
        fml(fig1, text),
        StrategyClassSpec.parse(sp),
        StrategyClassSpec.parse(so),
        Budget(depth),
    )
    doc = v.as_json()
    assert (doc["verdict"], doc.get("bound_used")) == (verdict, bound)
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == digest


def test_sweeps_resume_instead_of_replaying(fig1, monkeypatch):
    # the rich query's 12,050 sweeps walk about 16,000 nodes when each one
    # resumes at its backjump point, and 236,203 when each one starts again
    # from the root, which runs out of this node budget at bound 8
    monkeypatch.setattr(checker, "MAX_NODES", 20_000)
    v = check_bounded(
        fig1,
        Configuration("s1", (F(0), F(0))),
        fml(fig1, "<<I,II>>(true U (p1 & v_I > 100 & v_II > 100))"),
        ML_CONFIG,
        ML_CONFIG,
        Budget(120),
    )
    assert (v.value, v.bound_used) == (True, 64)


# The bounded engine's work per BOUNDED_GOLDEN row, over its whole deepening
# ladder: nodes entered (`_Ctx.tick` calls, which `checker.MAX_NODES` caps)
# and sweeps (`_CoopSolver._walk` calls, which `checker.MAX_SWEEPS` caps
# per solver).  A faster engine must walk exactly the same search.
BOUNDED_WORK_DIGEST = "1e2c30bbaf4c49a722d1f1c5342bef022ce11f3a49f2a31ae6d2155240820511"


def test_bounded_work_is_pinned(fig1, monkeypatch):
    work = [0, 0]
    tick, walk = checker._Ctx.tick, checker._CoopSolver._walk

    def counting_tick(self):
        work[0] += 1
        return tick(self)

    def counting_walk(self, start):
        work[1] += 1
        return walk(self, start)

    monkeypatch.setattr(checker._Ctx, "tick", counting_tick)
    monkeypatch.setattr(checker._CoopSolver, "_walk", counting_walk)
    half = dataclasses.replace(fig1, discounts={"I": F(1, 2), "II": F(1)})
    rows = []
    for model, text, depth, sp, so, *_ in BOUNDED_GOLDEN:
        m = half if model == "half" else fig1
        work[:] = [0, 0]
        check_bounded(m, Configuration("s1", (F(0), F(0))), fml(m, text),
                      StrategyClassSpec.parse(sp), StrategyClassSpec.parse(so), Budget(depth))
        rows.append(tuple(work))
    assert rows[1] == (16_226, 12_050)  # the rich query
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == BOUNDED_WORK_DIGEST


# --- play-value checks -------------------------------------------------------


class TestApcPlay:
    def _loop_play(self, m, profiles, loop=0):
        return lasso(m, Configuration("s", tuple(F(0) for _ in m.agents)), profiles, loop)

    def apc(self, text):
        return parse_formula(text).pc

    def test_mean_cycle(self):
        d = {
            "agents": ["I", "II"],
            "states": ["s"],
            "actions": {"I": ["go"], "II": ["go"]},
            "transitions": [
                {"from": "s", "profile": {"I": "go", "II": "go"}, "to": "s"}
            ],
            "payoffs": [
                {"state": "s", "profile": {"I": "go", "II": "go"},
                 "values": {"I": "1", "II": "2"}}
            ],
            "labels": {},
            "value_semantics": "mean",
        }
        m = mk(d)
        p = self._loop_play(m, [("go", "go")])
        assert check_apc_play(m, p, self.apc("w_II >= 3")) is False
        assert check_apc_play(m, p, self.apc("w_II >= 2")) is True

    def test_zero_payoff_total(self):
        m = one_agent_loop([("go", 0)], semantics="total")
        p = self._loop_play(m, [("go",)])
        assert check_apc_play(m, p, self.apc("w_a = 0")) is True

    def test_discounted_geometric(self):
        d = {
            "agents": ["a"],
            "states": ["s"],
            "actions": {"a": ["go"]},
            "transitions": [{"from": "s", "profile": {"a": "go"}, "to": "s"}],
            "payoffs": [
                {"state": "s", "profile": {"a": "go"}, "values": {"a": "2"}}
            ],
            "labels": {},
            "discounts": {"a": "1/2"},
            "value_semantics": "discounted",
        }
        m = mk(d)
        p = self._loop_play(m, [("go",)])
        assert check_apc_play(m, p, self.apc("w_a = 2")) is True

    def test_inexact_lasso_rejected(self):
        from gcgmp.errors import NotLasso

        m = one_agent_loop([("inc", 1)], semantics="total")
        p = self._loop_play(m, [("inc",)])
        with pytest.raises(NotLasso):
            check_apc_play(m, p, self.apc("w_a >= 0"))

    def test_divergent_total_propagates(self):
        # utilities oscillate 0,2,0,2,... -> no settled total value
        d = {
            "agents": ["a"],
            "states": ["up", "down"],
            "actions": {"a": ["go"]},
            "transitions": [
                {"from": "up", "profile": {"a": "go"}, "to": "down"},
                {"from": "down", "profile": {"a": "go"}, "to": "up"},
            ],
            "payoffs": [
                {"state": "up", "profile": {"a": "go"}, "values": {"a": "2"}},
                {"state": "down", "profile": {"a": "go"}, "values": {"a": "-2"}},
            ],
            "labels": {},
            "value_semantics": "total",
        }
        m = mk(d)
        p = lasso(m, Configuration("up", (F(0),)), [("go",), ("go",)])
        with pytest.raises(Divergent):
            check_apc_play(m, p, self.apc("w_a >= 0"))


# --- brute-force oracle -------------------------------------------------------


class TestOracle:
    def test_next_true(self):
        m = mk(CHAIN)
        v = enumerate_oracle(m, Configuration("s", (F(0),)), fml(m, "<<a>> X true"), depth=3)
        assert v.value is True

    def test_reach(self):
        m = mk(CHAIN)
        v = enumerate_oracle(m, Configuration("s", (F(0),)), fml(m, "<<a>> F q"), depth=4)
        assert v.value is True

    def test_size_guards(self):
        big = {
            "agents": ["a"],
            "states": [f"s{i}" for i in range(5)],
            "actions": {"a": ["x"]},
            "transitions": [
                {"from": f"s{i}", "profile": {"a": "x"}, "to": "s0"} for i in range(5)
            ],
            "payoffs": [
                {"state": f"s{i}", "profile": {"a": "x"}, "values": {"a": "0"}}
                for i in range(5)
            ],
            "labels": {},
        }
        m = mk(big)
        with pytest.raises(TooLarge):
            enumerate_oracle(m, Configuration("s0", (F(0),)), fml(m, "<<a>> X true"))
        m2 = one_agent_loop([("x", 0), ("y", 0), ("z", 0)])
        with pytest.raises(TooLarge):
            enumerate_oracle(m2, Configuration("s", (F(0),)), fml(m2, "<<a>> X true"))
        m3 = one_agent_loop([("x", 0)])
        with pytest.raises(TooLarge):
            enumerate_oracle(m3, Configuration("s", (F(0),)), fml(m3, "<<a>> X true"), depth=9)


# --- randomized cross-validation ----------------------------------------------


def random_model(rng, nonneg):
    agents = ["a", "b"]
    states = [f"s{i}" for i in range(rng.randint(1, 3))]
    actions = {ag: ["x", "y"][: rng.randint(1, 2)] for ag in agents}
    trans, pays = [], []
    for s in states:
        for prof in itertools.product(*(actions[a] for a in agents)):
            profile = dict(zip(agents, prof))
            trans.append({"from": s, "profile": profile, "to": rng.choice(states)})
            lo = 0 if nonneg else -2
            pays.append({
                "state": s,
                "profile": profile,
                "values": {a: str(rng.randint(lo, 2)) for a in agents},
            })
    labels = {s: [p for p in ["p", "q"] if rng.random() < 0.5] for s in states}
    guards = []
    for ag in agents:
        for s in states:
            for act in actions[ag]:
                if rng.random() < 0.6:
                    continue
                guards.append({
                    "agent": ag, "state": s, "action": act,
                    "formula": f"v_{ag} >= 0" if rng.random() < 0.5 else f"v_{ag} <= 3",
                })
    return model_from_dict(
        {
            "agents": agents,
            "states": states,
            "actions": actions,
            "transitions": trans,
            "payoffs": pays,
            "labels": labels,
            "guards": guards,
            "value_semantics": "mean",
        }
    )


def random_state_formula(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.35:
        if rng.random() < 0.4:
            return rng.choice(["p", "q", "true"])
        ag = rng.choice(["a", "b"])
        return f"v_{ag} {rng.choice(['<', '<=', '=', '>=', '>'])} {rng.randint(0, 3)}"
    if r < 0.5:
        return f"!({random_state_formula(rng, depth - 1)})"
    if r < 0.65:
        return (
            f"({random_state_formula(rng, depth - 1)})"
            f" & ({random_state_formula(rng, depth - 1)})"
        )
    coal = rng.choice(["", "a", "b", "a,b"])
    inner = random_state_formula(rng, depth - 1)
    b = rng.random()
    if b < 0.33:
        return f"<<{coal}>>X ({inner})"
    if b < 0.66:
        return f"<<{coal}>>G ({inner})"
    return f"<<{coal}>>(({inner}) U ({random_state_formula(rng, depth - 1)}))"


class TestEngineAgreement:
    DEPTHS = (1, 2, 4, 8)  # bounded horizons whose definite verdicts must all agree

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_definite_verdicts_agree(self, seed):
        rng = random.Random(seed)
        checked = 0
        while checked < 15:
            nonneg = checked % 2 == 0
            m = random_model(rng, nonneg)
            if validate(m):
                continue
            try:
                f = bind_formula(m, parse_formula(random_state_formula(rng, 2)))
            except GcgmpError:
                continue
            c0 = Configuration(m.states[0], (F(0), F(0)))
            verdicts = {}
            try:
                verdicts["oracle"] = enumerate_oracle(
                    m, c0, f, ML_CONFIG, ML_CONFIG, depth=4
                ).value
            except (TooLarge, FragmentError):
                continue
            for d in self.DEPTHS:  # deepening never contradicts itself
                verdicts[f"bounded@{d}"] = check_bounded(
                    m, c0, f, ML_CONFIG, ML_CONFIG, Budget(d)
                ).value
            if nonneg:
                try:
                    verdicts["saturated"] = check_saturated(m, c0, f).value
                except NotApplicable:
                    pass
            defs = {k: v for k, v in verdicts.items() if v is not None}
            assert len(set(defs.values())) <= 1, (verdicts, f)
            checked += 1

    @pytest.mark.parametrize(
        "sp,so", [(ML_STATE, ML_STATE), (PR_CONFIG, ML_CONFIG), (ML_CONFIG, PR_CONFIG)]
    )
    def test_agreement_across_strategy_classes(self, sp, so):
        rng = random.Random(f"{sp.short}/{so.short}")
        checked = 0
        while checked < 8:
            m = random_model(rng, False)
            if validate(m):
                continue
            try:
                f = bind_formula(m, parse_formula(random_state_formula(rng, 2)))
            except GcgmpError:
                continue
            c0 = Configuration(m.states[0], (F(0), F(0)))
            try:
                verdicts = {"oracle": enumerate_oracle(m, c0, f, sp, so, depth=4).value}
            except (TooLarge, FragmentError):
                continue
            for d in self.DEPTHS:
                verdicts[f"bounded@{d}"] = check_bounded(m, c0, f, sp, so, Budget(d)).value
            defs = {k: v for k, v in verdicts.items() if v is not None}
            assert len(set(defs.values())) <= 1, (verdicts, f)
            checked += 1

    def test_oracle_matches_qualitative_engine(self):
        # guard-free, zero-payoff models: the state graph is the whole story
        rng = random.Random(4242)
        compared = 0
        while compared < 25:
            agents = ["a", "b"]
            states = [f"s{i}" for i in range(rng.randint(1, 3))]
            actions = {ag: ["x", "y"][: rng.randint(1, 2)] for ag in agents}
            trans, pays = [], []
            for s in states:
                for prof in itertools.product(*(actions[a] for a in agents)):
                    profile = dict(zip(agents, prof))
                    trans.append({"from": s, "profile": profile, "to": rng.choice(states)})
                    pays.append({
                        "state": s,
                        "profile": profile,
                        "values": {a: "0" for a in agents},
                    })
            m = model_from_dict(
                {
                    "agents": agents,
                    "states": states,
                    "actions": actions,
                    "transitions": trans,
                    "payoffs": pays,
                    "labels": {
                        s: (["p"] if rng.random() < 0.5 else []) for s in states
                    },
                }
            )
            coal = rng.choice(["", "a", "a,b"])
            body = rng.choice([f"<<{coal}>>X p", f"<<{coal}>>G p", f"<<{coal}>>(true U p)"])
            f = fml(m, body)
            sset = check_atl(m, f)
            c0 = Configuration(states[0], (F(0), F(0)))
            try:
                got = enumerate_oracle(m, c0, f, ML_STATE, ML_STATE, depth=8).value
            except TooLarge:
                continue
            if got is not None:
                assert got == (states[0] in sset), (body, sset)
                compared += 1

    def test_saturation_agrees_with_oracle_on_growth(self):
        # the decidable engine must match brute force once the brute force
        # can actually see past the largest constant
        m = one_agent_loop([("inc", 1), ("skip", 0)])
        c0 = Configuration("s", (F(0),))
        for text in [
            "<<a>> F (v_a >= 3)",
            "<<a>> G (v_a <= 2)",
            "<<a>>((v_a <= 1) U (v_a >= 2))",
            "<<>> G (v_a <= 2)",
        ]:
            f = fml(m, text)
            sat = check_saturated(m, c0, f).value
            brute = enumerate_oracle(m, c0, f, ML_CONFIG, ML_CONFIG, depth=8).value
            if brute is not None:
                assert brute == sat, text

    def test_engines_agree_when_an_agent_has_no_enabled_action(self):
        # b's only action at s is guarded v_b > 0, so at s:0,0 b cannot
        # move: an opponent without moves refutes nothing, a member without
        # moves cannot win (a library call on a model validate refuses)
        m = model_from_dict(
            {
                "agents": ["a", "b"],
                "states": ["s", "t"],
                "actions": {"a": ["go"], "b": ["go"]},
                "transitions": {"s": {"go,go": "t"}, "t": {"go,go": "t"}},
                "payoffs": {"s": {"go,go": ["0", "0"]}, "t": {"go,go": ["0", "0"]}},
                "labels": {"t": ["p"]},
                "guards": {"b": {"s": {"go": "v_b > 0"}}},
            }
        )
        c0 = Configuration("s", (F(0), F(0)))
        cases = {
            "<<a>> X p": True,
            "<<b>> X p": False,
            "<<a>> X !p": True,
            "<<b>> G !p": False,
            "<<a,b>> X p": False,
            "<<>> X p": True,
        }
        for text, want in cases.items():
            f = fml(m, text)
            assert check_saturated(m, c0, f).value is want, text
            assert check_bounded(m, c0, f, budget=4).value is want, text
            assert enumerate_oracle(m, c0, f, depth=4).value is want, text


class TestCoalitionAroundAnOpponent:
    # three agents with the same two actions, so a profile woven in the wrong
    # order is still a legal profile.  From s the play goes to t (labelled q,
    # paying c 1) exactly when a plays x and c plays y; c's y needs v_c <= 0.
    # The coalition {a, c} has b between its members, and the coalition {b}
    # sits between its opponents.  Were a joint move and a response laid side
    # by side instead of woven into agent order, each verdict below would
    # flip, or the guarded step would refuse the profile as c's y at v_c = 1.
    @staticmethod
    def model():
        profiles = [",".join(p) for p in itertools.product("xy", repeat=3)]
        return mk({
            "agents": ["a", "b", "c"],
            "states": ["s", "t"],
            "actions": {ag: ["x", "y"] for ag in "abc"},
            "transitions": {"s": {p: "t" if p[0] + p[4] == "xy" else "s" for p in profiles},
                            "t": {p: "s" for p in profiles}},
            "payoffs": {"s": {p: ["0", "0", "1" if p[0] + p[4] == "xy" else "0"]
                              for p in profiles},
                        "t": {p: ["0", "0", "0"] for p in profiles}},
            "labels": {"t": ["q"]},
            "guards": {"c": {"s": {"y": "v_c <= 0"}}},
        })

    def test_state_graph(self):
        m = self.model()
        assert pre_states(m, frozenset("ac"), frozenset({"t"})) == {"s"}
        assert pre_states(m, frozenset("b"), frozenset({"s"})) == {"t"}
        assert check_atl(m, fml(m, "<<a,c>> X q")) == {"s"}
        assert check_atl(m, fml(m, "<<a,c>> (true U q)")) == {"s", "t"}
        assert check_atl(m, fml(m, "<<b>> G !q")) == set()

    @pytest.mark.parametrize("text, want", [
        ("<<a,c>> X q", True),
        ("<<a,c>> (true U v_c >= 1)", True),
        ("<<b>> G !q", False),
        ("<<b>> X !q", False),
    ])
    def test_every_engine(self, text, want):
        m = self.model()
        c0 = Configuration("s", (F(0), F(0), F(0)))
        f = fml(m, text)
        assert check_saturated(m, c0, f).value is want
        assert enumerate_oracle(m, c0, f, depth=4).value is want
        v = check_bounded(m, c0, f, budget=Budget(4))
        assert v.value is want
        if want:
            assert replay_strategy_table(m, c0, f, v.witness, ML_CONFIG, 4) is True
            # c giving up y at the start loses
            moves = {**v.witness.moves, "c": {**v.witness.moves["c"], "s|0,0,0": "x"}}
            table = StrategyTable(v.witness.spec, v.witness.coalition, moves)
            assert replay_strategy_table(m, c0, f, table, ML_CONFIG, 4) is False


# Oracle outcomes pinned over a seeded population: sha256 of the ordered
# outcomes, each True, False, None or the refusal with its message.  The
# oracle's caches may only memoise, so neither its verdicts nor its play
# accounting (which decides every TooLarge) may drift.  Every third random
# model, and one pinned loop, discount agent a by 1/2, so successors depend on
# the step index.  The last instance is the benchmark's wide one: both agents
# choose between two actions at one state and every profile pays both, so no
# configuration repeats and the oracle spends its whole play budget.
ORACLE_PAIRS = [
    (ML_STATE, ML_STATE), (ML_CONFIG, PR_CONFIG), (PR_STATE, ML_CONFIG), (PR_CONFIG, PR_STATE)
]
ORACLE_DIGEST = "47abef904f3ab56ac5b3e8178efe445040b6ddd6ddce8fb104581c32233cc460"
WIDE_PAYOFFS = {("x", "x"): ("1", "2"), ("x", "y"): ("3", "1"),
                ("y", "x"): ("2", "3"), ("y", "y"): ("1", "1")}


def _oracle_outcome(m, f, sp, so) -> str:
    c0 = Configuration(m.states[0], tuple(F(0) for _ in m.agents))
    try:
        return str(enumerate_oracle(m, c0, f, sp, so, depth=4).value)
    except GcgmpError as e:
        return f"{type(e).__name__}: {e}"


def _oracle_population_outcomes() -> list:
    rng = random.Random(20261018)
    outcomes = []
    for i in range(96):
        m = random_model(rng, i % 2 == 0)
        if i % 3 == 0:
            m = dataclasses.replace(m, discounts={"a": F(1, 2), "b": F(1)})
        try:
            f = fml(m, random_state_formula(rng, 2))
        except GcgmpError:
            continue
        outcomes.append(_oracle_outcome(m, f, *ORACLE_PAIRS[i % 4]))
    # (s, 0) is reached at step indices 1 and 2, where x pays 2 and 1
    half = dataclasses.replace(one_agent_loop([("x", 4), ("skip", 0)]), discounts={"a": F(1, 2)})
    f = fml(half, "<<a>> X (<<a>> X (v_a = 1))")
    outcomes.append(_oracle_outcome(half, f, ML_CONFIG, ML_CONFIG))
    wide = model_from_dict({
        "agents": ["a", "b"], "states": ["s0"],
        "actions": {"a": ["x", "y"], "b": ["x", "y"]},
        "transitions": [{"from": "s0", "profile": {"a": a, "b": b}, "to": "s0"}
                        for a, b in WIDE_PAYOFFS],
        "payoffs": [{"state": "s0", "profile": {"a": a, "b": b}, "values": {"a": u, "b": v}}
                    for (a, b), (u, v) in WIDE_PAYOFFS.items()],
        "labels": {"s0": ["p"]},
    })
    outcomes.append(_oracle_outcome(wide, fml(wide, "<<b>>X (v_b > 10)"), ML_CONFIG, ML_CONFIG))
    return outcomes


def test_oracle_outcomes_are_pinned():
    outcomes = _oracle_population_outcomes()
    assert outcomes[-1] == "TooLarge: oracle enumeration exceeded its play budget"
    blob = "\n".join(outcomes).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == ORACLE_DIGEST


# The oracle's work on criterion 4's stream of instances (seed 20250819,
# ml-config against ml-config, depth 4): per oracle call, the guarded `step`
# calls, the `Gcgmp.enabled_actions` calls and the nodes entered or charged
# (the `spend()` calls its literal checker makes), with the outcome.  The
# caches may make a call cheaper but never change which calls are made, so
# none of these may drift.  Fourteen calls of the stream spend the whole play
# budget and take most of its time: only the cheapest of them is run, the
# other thirteen are skipped.
ORACLE_WORK_TOO_LARGE = (4, 33, 44, 64, 74, 76, 95, 98, 109, 156, 173, 186, 196, 222)
ORACLE_WORK_RUN = 95
ORACLE_WORK_TOTALS = (3_729, 1_248, 195_623)
ORACLE_WORK_DIGEST = "7fa0fd6359b23e118c211eb15db024a3ac3fbbbea41dd76e64cc3568d2f17af3"


def _count_oracle_work(monkeypatch) -> list:
    """Counters, reset by the caller: guarded `step` calls, `Gcgmp.enabled_actions`
    calls and `spend()` calls of every `_Literal` made from now on."""
    work = [0, 0, 0]

    def counting(i, fn):
        def wrapped(*args):
            work[i] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(checker, "step", counting(0, checker.step))
    monkeypatch.setattr(Gcgmp, "enabled_actions", counting(1, Gcgmp.enabled_actions))
    init = checker._Literal.__init__
    monkeypatch.setattr(checker._Literal, "__init__", lambda self, m, so, depth, eval_sf, spend:
                        init(self, m, so, depth, eval_sf, counting(2, spend)))
    return work


def test_oracle_work_is_pinned(monkeypatch):
    work = _count_oracle_work(monkeypatch)
    rng = random.Random(20250819)
    rows = []
    checked = 0
    while checked < 205:
        m = random_model(rng, checked % 2 == 0)
        if validate(m):
            continue
        try:
            f = bind_formula(m, parse_formula(random_state_formula(rng, 2)))
        except GcgmpError:
            continue
        call = len(rows)
        if call in ORACLE_WORK_TOO_LARGE and call != ORACLE_WORK_RUN:
            rows.append(None)
            continue
        work[:] = [0, 0, 0]
        try:
            v = enumerate_oracle(m, Configuration(m.states[0], (F(0), F(0))), f, depth=4).value
        except GcgmpError as e:
            rows.append((*work, type(e).__name__))
            continue
        rows.append((*work, str(v)))
        checked += v is not None
    assert [i for i, r in enumerate(rows) if r is None or r[3] == "TooLarge"] == list(
        ORACLE_WORK_TOO_LARGE)
    assert rows[ORACLE_WORK_RUN] == (178, 45, 60_001, "TooLarge")
    ran = [r for r in rows if r is not None]
    assert tuple(sum(r[i] for r in ran) for i in range(3)) == ORACLE_WORK_TOTALS
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ORACLE_WORK_DIGEST


# The same counts under every strategy-class pair: 160 draws of seed
# 20261023 at depth 4, the 16 pairs in turn, every third model discounted by
# 1/2.  Proponents look their moves up by configuration (ml-config), by bare
# state (ml-state) or by history (pr-*), so the table grows through each of
# its branches.  The values were recorded on the enumeration that walked
# again from the root after every growth; many walks here meet two or more
# new points, where only the nodes a walk really entered may be charged.
ORACLE_PAIRS_WORK_TOO_LARGE = (106, 118, 135)
ORACLE_PAIRS_WORK_TOTALS = (2_963, 1_258, 199_011)
ORACLE_PAIRS_WORK_DIGEST = "9f85af7761834f700e40c05d6ee1edf4db0468f09c32cb360fd8572deea7f659"


def _oracle_pairs_work(work) -> list:
    rng = random.Random(20261023)
    rows = []
    for i in range(160):
        m = random_model(rng, i % 2 == 0)
        if i % 3 == 0:
            m = dataclasses.replace(m, discounts={"a": F(1, 2), "b": F(1)})
        try:
            f = fml(m, random_state_formula(rng, 2))
        except GcgmpError:
            continue
        work[:] = [0, 0, 0]
        c0 = Configuration(m.states[0], (F(0), F(0)))
        try:
            outcome = str(enumerate_oracle(m, c0, f, *CLASS_PAIRS[i % 16], depth=4).value)
        except GcgmpError as e:
            outcome = type(e).__name__
        rows.append((i, *work, outcome))
    return rows


def test_oracle_work_is_pinned_under_every_class_pair(monkeypatch):
    work = _count_oracle_work(monkeypatch)
    plays = checker._Literal.plays
    growths = []  # per walk, the lookups that grew the table (and so charged)

    def counting_plays(self, coop, croot, l0, move_of):
        grew = [0]

        def counting_move_of(configs):
            before = work[2]
            move = move_of(configs)
            grew[0] += work[2] > before
            return move

        try:
            return plays(self, coop, croot, l0, counting_move_of)
        finally:
            growths.append(grew[0])

    monkeypatch.setattr(checker._Literal, "plays", counting_plays)
    rows = _oracle_pairs_work(work)
    assert max(growths) >= 2
    assert {i % 16 for i, steps, _, _, _ in rows if steps} == set(range(16))
    assert tuple(i for i, *_, out in rows if out == "TooLarge") == ORACLE_PAIRS_WORK_TOO_LARGE
    assert tuple(sum(r[i] for r in rows) for i in (1, 2, 3)) == ORACLE_PAIRS_WORK_TOTALS
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ORACLE_PAIRS_WORK_DIGEST


def test_a_model_key_error_is_not_a_new_table_entry():
    # no payoffs: the model's own table raises KeyError at the first step,
    # and the oracle lets it out at once, as the bounded engine does
    m = model_from_dict({
        "agents": ["a", "b"], "states": ["s"], "actions": {"a": ["x", "y"], "b": ["x", "y"]},
        "transitions": [{"from": "s", "profile": {"a": a, "b": b}, "to": "s"}
                        for a in "xy" for b in "xy"],
        "labels": {"s": ["p"]},
    })
    assert {v.kind for v in validate(m)} == {"missing-payoff"}
    c0, f = Configuration("s", (F(0), F(0))), fml(m, "<<a>> G p")
    with pytest.raises(KeyError):
        enumerate_oracle(m, c0, f, depth=4)
    with pytest.raises(KeyError):
        check_bounded(m, c0, f, budget=Budget(4))


# Bounded reports pinned over a seeded population: sha256 of the ordered
# `Verdict.as_json()` documents (or the refusal) at depth 4, cycling through
# all 16 strategy-class pairs, every third model discounted by 1/2.  Witness
# tables, refutation traces and bounds all enter the digest, so any change to
# the order in which the search walks or backjumps shows here.
CLASSES = (ML_STATE, ML_CONFIG, PR_STATE, PR_CONFIG)
CLASS_PAIRS = list(itertools.product(CLASSES, CLASSES))
BOUNDED_POPULATION_DIGEST = "4ff30a33a3c090a47652cc427e7c550fb5cbbf006e7b629475d706fb32ae7a1c"


def _bounded_population_outcomes() -> list:
    rng = random.Random(20261020)
    outcomes = []
    for i in range(160):
        m = random_model(rng, i % 2 == 0)
        if i % 3 == 0:
            m = dataclasses.replace(m, discounts={"a": F(1, 2), "b": F(1)})
        try:
            f = fml(m, random_state_formula(rng, 2))
        except GcgmpError:
            continue
        c0 = Configuration(m.states[0], tuple(F(0) for _ in m.agents))
        try:
            doc = check_bounded(m, c0, f, *CLASS_PAIRS[i % 16], Budget(4)).as_json()
            outcomes.append(json.dumps(doc, sort_keys=True))
        except GcgmpError as e:
            outcomes.append(f"{type(e).__name__}: {e}")
    return outcomes


def test_bounded_reports_are_pinned_on_a_population():
    blob = "\n".join(_bounded_population_outcomes()).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == BOUNDED_POPULATION_DIGEST


# Witness replays pinned over a seeded population: every bounded True
# witness at depth 4, over all 16 strategy-class pairs, is replayed at its
# bound together with each table that flips one entry to another action or
# deletes it.  The digest is the sha256 of the ordered booleans, so the
# replay's verdict on a wrong table may not drift either.  The node budget
# only keeps the slowest searches of the population short.
#
# Until the bounded engine valued a prefix whose opponents are stuck as the
# literal checker does, it also gave a True witness for instance 2361,
# `<<a>> G (<<>> G (v_a < 3))` (pr-state against ml-config), where the
# opponent is stuck after three positions whose nested value is unknown.
# Its 9 replays, the witness and 8 mutants, sat at STUCK_WITNESS_AT and all
# failed; with them the digest was REPLAY_DIGEST_WITH_STUCK.  The recursive
# replay before the literal checker gave REPLAY_DIGEST_RECURSIVE on that
# sequence: it accepted the three replays of STUCK_AFTER_UNKNOWN too.
REPLAY_DIGEST = "f8074bbd216e8fbf4be246a247f407974e8462106b4831f1846de511c57006bf"
REPLAY_DIGEST_WITH_STUCK = "0519fbb0313a230b71ad3139b51c62f75c7511428c5367e3c9c31b6548501f44"
REPLAY_DIGEST_RECURSIVE = "b32a94b490f3b4cef03b2ca80fbe2acb6f51caeb85a9793611204f6f56045b52"
STUCK_WITNESS_AT = 629
STUCK_AFTER_UNKNOWN = (629, 630, 636)


def _replay_population_outcomes() -> list:
    rng = random.Random(20261022)
    outcomes = []
    for i in range(2400):
        m = random_model(rng, i % 2 == 0)
        if i % 3 == 0:
            m = dataclasses.replace(m, discounts={"a": F(1, 2), "b": F(1)})
        try:
            f = fml(m, random_state_formula(rng, 2))
        except GcgmpError:
            continue
        sp, so = CLASS_PAIRS[i % 16]
        c0 = Configuration(m.states[0], tuple(F(0) for _ in m.agents))
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(checker, "MAX_NODES", 20_000)
                v = check_bounded(m, c0, f, sp, so, Budget(4))
        except GcgmpError:
            continue
        if v.witness is None:
            continue
        tables = [v.witness.moves]
        for a, t in sorted(v.witness.moves.items()):
            for key, act in sorted(t.items()):
                tables += [{**v.witness.moves, a: {**t, key: x}} for x in m.actions[a] if x != act]
                tables.append({**v.witness.moves, a: {k: x for k, x in t.items() if k != key}})
        for moves in tables:
            table = StrategyTable(sp, v.witness.coalition, moves)
            outcomes.append(replay_strategy_table(m, c0, f, table, so, v.bound_used))
    return outcomes


def _digest(outcomes) -> str:
    return hashlib.sha256("".join("1" if ok else "0" for ok in outcomes).encode()).hexdigest()


def test_witness_replays_are_pinned_on_a_population():
    outcomes = _replay_population_outcomes()
    assert len(outcomes) == 632 and outcomes.count(True) == 351
    assert _digest(outcomes) == REPLAY_DIGEST
    outcomes[STUCK_WITNESS_AT:STUCK_WITNESS_AT] = [False] * 9
    assert _digest(outcomes) == REPLAY_DIGEST_WITH_STUCK
    for i in STUCK_AFTER_UNKNOWN:
        outcomes[i] = True
    assert _digest(outcomes) == REPLAY_DIGEST_RECURSIVE


# instance 2361 of the replay population: b has one action, and its guard
# at s1 fails once v_b < 0, which ends every play there
STUCK_DOC = {
    "agents": ["a", "b"], "states": ["s0", "s1"],
    "actions": {"a": ["x", "y"], "b": ["x"]},
    "transitions": {"s0": {"x,x": "s1", "y,x": "s1"}, "s1": {"x,x": "s0", "y,x": "s0"}},
    "payoffs": {"s0": {"x,x": ["2", "1"], "y,x": ["-2", "0"]},
                "s1": {"x,x": ["-1", "-2"], "y,x": ["2", "-1"]}},
    "labels": {"s0": ["p", "q"], "s1": ["q"]},
    "guards": {"a": {"s0": {"y": "v_a <= 3"}}, "b": {"s1": {"x": "v_b >= 0"}}},
    "discounts": {"a": "1/2", "b": "1"},
}


@pytest.mark.parametrize("text", [
    "<<a>>G (<<>>G (v_a < 3))",
    "<<a>>((<<>>G (v_a < 3)) U !true)",
    "<<a>>((<<>>G (v_a < 3)) U (v_b < 0))",
    "<<a>>X (<<>>G (v_a < 3))",
])
@pytest.mark.parametrize("sp", [PR_STATE, ML_CONFIG], ids=["pr-state", "ml-config"])
def test_stuck_opponents_keep_the_prefix_value(text, sp):
    # the nested value is unknown at every position before the opponent is
    # stuck, so G and U stay unknown there instead of holding; the engine
    # used to answer true for both
    m = model_from_dict(STUCK_DOC)
    c0 = Configuration("s0", (0, 0))
    f = fml(m, text)
    v = check_bounded(m, c0, f, sp, ML_CONFIG, Budget(4))
    assert v.value is None
    assert enumerate_oracle(m, c0, f, sp, ML_CONFIG, 4).value is None


def test_unknown_nested_values_are_solved_once_per_horizon(monkeypatch):
    # instance 312 of the replay population: the nested <<a>>U is unknown at
    # some configurations, and was solved again at each consultation
    m = model_from_dict({
        "agents": ["a", "b"], "states": ["s0", "s1", "s2"],
        "actions": {"a": ["x"], "b": ["x", "y"]},
        "transitions": {"s0": {"x,x": "s1", "x,y": "s2"}, "s1": {"x,x": "s2", "x,y": "s0"},
                        "s2": {"x,x": "s2", "x,y": "s2"}},
        "payoffs": {"s0": {"x,x": ["0", "0"], "x,y": ["0", "1"]},
                    "s1": {"x,x": ["0", "1"], "x,y": ["1", "1"]},
                    "s2": {"x,x": ["0", "2"], "x,y": ["0", "2"]}},
        "labels": {"s0": ["p"], "s1": ["p"], "s2": ["q"]},
        "guards": {"a": {"s0": {"x": "v_a <= 3"}, "s1": {"x": "v_a <= 3"}},
                   "b": {"s0": {"x": "v_b >= 0"}, "s2": {"x": "v_b >= 0", "y": "v_b <= 3"}}},
        "discounts": {"a": "1/2", "b": "1"},
    })
    solved = []
    solve = checker._CoopSolver.solve

    def counting(self):
        solved.append((self.coop, self.c0, self.l0, self.depth))
        return solve(self)

    monkeypatch.setattr(checker._CoopSolver, "solve", counting)
    f = fml(m, "<<b>>((<<a>>((v_b > 2) U (v_b <= 3))) U (v_a >= 2))")
    v = check_bounded(m, Configuration("s0", (0, 0)), f, PR_CONFIG, PR_CONFIG, Budget(3))
    assert (v.value, v.bound_used) == (None, 3)
    # horizons 2 and 3; solving each unknown again took 15 solves
    assert len(solved) == len(set(solved)) == 12


def test_a_deep_witness_replays():
    # one witness entry per step up to 1501; the replay walks 2,000 steps
    m = one_agent_loop([("pay", 1)])
    c0 = Configuration("s", (F(0),))
    f = fml(m, "<<a>>(true U v_a > 1500)")
    v = check_bounded(m, c0, f, budget=Budget(2000))
    assert (v.value, v.bound_used) == (True, 2000)
    assert replay_strategy_table(m, c0, f, v.witness, ML_CONFIG, 2000) is True


@pytest.mark.parametrize(
    "text, depth, verdict, traces",
    [
        # 269 sweeps are refuted on the way to a True verdict
        ("<<I,II>>(true U (p1 & v_I > 100 & v_II > 100))", 120, True, 0),
        # 59 sweeps are refuted over all horizons; the last one reports 33
        ("<<I>> G (p1 | v_I > 0)", 150, False, 33),
    ],
)
def test_traces_are_built_only_for_reported_refutations(fig1, monkeypatch, text, depth, verdict,
                                                         traces):
    built = []
    trace = checker._trace
    monkeypatch.setattr(checker, "_trace", lambda *args: built.append(1) or trace(*args))
    v = check_bounded(fig1, Configuration("s1", (F(0), F(0))), fml(fig1, text),
                      ML_CONFIG, ML_CONFIG, Budget(depth))
    assert v.value is verdict
    assert len(built) == traces == len(v.counterexample or [])


class TestPlaysThatStop:
    # a's state-based move at s dies one step later: "go" needs v_a >= 0 and
    # costs 1, "stay" needs v_a < 0.  A play stops where an agent's committed
    # move is disabled; its undetermined future is lost for a blocked
    # coalition and won for stuck opponents, but what its positions settled
    # stands.
    DOC = {
        "agents": ["a"],
        "states": ["s"],
        "actions": {"a": ["go", "stay"]},
        "transitions": [
            {"from": "s", "profile": {"a": act}, "to": "s"} for act in ("go", "stay")
        ],
        "payoffs": [
            {"state": "s", "profile": {"a": "go"}, "values": {"a": "-1"}},
            {"state": "s", "profile": {"a": "stay"}, "values": {"a": "0"}},
        ],
        "labels": {"s": ["q"]},
        "guards": [
            {"agent": "a", "state": "s", "action": "go", "formula": "v_a >= 0"},
            {"agent": "a", "state": "s", "action": "stay", "formula": "v_a < 0"},
        ],
    }

    @pytest.mark.parametrize(
        "text, want",
        [
            ("<<a>> X q", True),  # settled at position 1, blocked only after
            ("<<a>> G q", False),  # every state-based move is blocked in time
            ("<<a>> (true U q)", True),
            ("<<>> G !q", False),  # violated before the commitment dies
            ("<<>> X !q", False),
            ("<<>> G q", True),
        ],
    )
    def test_oracle_and_bounded_agree(self, text, want):
        m = mk(self.DOC)
        c0 = Configuration("s", (F(0),))
        f = fml(m, text)
        assert enumerate_oracle(m, c0, f, ML_STATE, ML_STATE, depth=4).value is want
        assert check_bounded(m, c0, f, ML_STATE, ML_STATE, Budget(4)).value is want


# --- the entry point and its strategy-class gate -----------------------------

PROFILES_2X2 = ["x,x", "x,y", "y,x", "y,y"]

# Three 2-state models on which an exact engine, run for a class pair it does
# not decide, contradicts both the oracle and the bounded engine.  In each,
# t is labelled q and loops with payoff 0.
CLASS_MODELS = {
    # a at s: x loops and pays 1 but needs v_a <= 0, y goes to t.  A
    # state-based a cannot play x and then y.
    "proponent-sees-states": ({
        "agents": ["a"], "states": ["s", "t"], "actions": {"a": ["x", "y"]},
        "transitions": {"s": {"x": "s", "y": "t"}, "t": {"x": "t", "y": "t"}},
        "payoffs": {"s": {"x": [1], "y": [0]}, "t": {"x": [0], "y": [0]}},
        "labels": {"t": ["q"]}, "guards": {"a": {"s": {"x": "v_a <= 0"}}},
    }, "<<a>>(true U (q & v_a = 1))"),
    # the same choice for the opponent b, against a coalition without moves
    "opponents-see-states": ({
        "agents": ["a", "b"], "states": ["s", "t"], "actions": {"a": ["n"], "b": ["x", "y"]},
        "transitions": {"s": {"n,x": "s", "n,y": "t"}, "t": {"n,x": "t", "n,y": "t"}},
        "payoffs": {"s": {"n,x": [0, 1], "n,y": [0, 0]},
                    "t": {"n,x": [0, 0], "n,y": [0, 0]}},
        "labels": {"t": ["q"]}, "guards": {"b": {"s": {"x": "v_b <= 0"}}},
    }, "<<a>> G !(q & v_b = 1)"),
    # matching pennies: equal actions go to t, unequal ones stay and pay b 1
    "matching-pennies": ({
        "agents": ["a", "b"], "states": ["s", "t"],
        "actions": {"a": ["x", "y"], "b": ["x", "y"]},
        "transitions": {"s": {p: "t" if p[0] == p[2] else "s" for p in PROFILES_2X2},
                        "t": {p: "t" for p in PROFILES_2X2}},
        "payoffs": {"s": {p: [0, 0 if p[0] == p[2] else 1] for p in PROFILES_2X2},
                    "t": {p: [0, 0] for p in PROFILES_2X2}},
        "labels": {"t": ["q"]},
    }, "<<a>>(true U q)"),
}
CLASSES = [ML_STATE, ML_CONFIG, PR_STATE, PR_CONFIG]


def class_model(name):
    doc, text = CLASS_MODELS[name]
    m = mk(doc)
    return m, Configuration("s", (0,) * len(m.agents)), fml(m, text)


class TestEntryPoint:
    def test_auto_takes_the_cheapest_engine_that_applies(self, fig1):
        m, c0, _ = class_model("matching-pennies")
        assert checker.check(m, c0, fml(m, "<<a>>(true U q)"))["engine"] == "atl"
        assert checker.check(m, c0, fml(m, "<<a>> G v_a = 0"))["engine"] == "saturated"
        got = checker.check(fig1, Configuration("s1", (0, 0)), fml(fig1, "<<I,II>> X p2"), budget=6)
        assert (got["engine"], got["verdict"], got["bounds"]["depth"]) == ("bounded", "false", 6)

    def test_every_report_names_its_class_pair(self):
        m, c0, f = class_model("matching-pennies")
        for engine in checker.ENGINES:
            got = checker.check(m, c0, f, PR_CONFIG, PR_CONFIG, budget=4, engine=engine)
            assert got["engine"] == engine
            assert got["strategy_class"] == {"proponents": "pr-config", "opponents": "pr-config"}

    def test_auto_falls_through_a_refused_class_pair(self):
        m, c0, f = class_model("matching-pennies")
        got = checker.check(m, c0, f, ML_CONFIG, ML_STATE, budget=8)
        assert (got["engine"], got["verdict"]) == ("bounded", "true")
        assert got["witness"]["moves"] == {"a": {"s|0,0": "x", "s|0,1": "y"}}

    @pytest.mark.parametrize("engine", ["atl", "saturated"])
    def test_a_forced_engine_refuses_a_pair_it_does_not_decide(self, engine):
        m, c0, f = class_model("matching-pennies")
        with pytest.raises(NotApplicable, match="proponents pr-state against opponents ml-state"):
            checker.check(m, c0, f, PR_STATE, ML_STATE, engine=engine)

    def test_the_last_refusal_is_raised(self, fig1):
        c0 = Configuration("s1", (0, 0))
        with pytest.raises(NotApplicable, match="^the bounded engine does not apply"):
            checker.check(fig1, c0, fml(fig1, "<<I>>G X p1"))
        with pytest.raises(NotApplicable, match="^the saturated engine does not apply"):
            checker.check(fig1, c0, fml(fig1, "<<I>> G v_I >= 0"), engine="saturated")
        with pytest.raises(ValueError):
            checker.check(fig1, c0, fml(fig1, "<<I>> X p1"), engine="fastest")

    @pytest.mark.parametrize("name, sp, so, want", [
        ("proponent-sees-states", ML_STATE, ML_CONFIG, False),
        ("opponents-see-states", ML_CONFIG, ML_STATE, True),
        ("matching-pennies", PR_STATE, ML_STATE, True),
        ("matching-pennies", ML_CONFIG, ML_STATE, True),
    ])
    def test_auto_agrees_with_the_oracle(self, name, sp, so, want):
        m, c0, f = class_model(name)
        assert enumerate_oracle(m, c0, f, sp, so, depth=4).value is want
        got = checker.check(m, c0, f, sp, so, budget=8)
        assert (got["engine"], got["verdict"]) == ("bounded", str(want).lower())

    def test_exact_engines_disagree_only_in_refused_cells(self):
        # every exact engine that accepts the instance, on all 16 class pairs,
        # against the depth-4 oracle or, where that is unknown, bounded at 8
        refused, admitted = [], []
        for name in CLASS_MODELS:
            m, c0, f = class_model(name)
            raw = {}
            with contextlib.suppress(NotApplicable):
                raw["saturated"] = check_saturated(m, c0, f).value
            if name == "matching-pennies":
                raw["atl"] = "s" in check_atl(m, f)
            for sp, so in itertools.product(CLASSES, CLASSES):
                want = enumerate_oracle(m, c0, f, sp, so, depth=4).value
                if want is None:
                    want = check_bounded(m, c0, f, sp, so, Budget(8)).value
                for engine, value in raw.items():
                    try:
                        checker.check(m, c0, f, sp, so, engine=engine)
                    except NotApplicable:
                        cell = refused
                    else:
                        cell = admitted
                    cell.append(want is None or value is want)
        assert admitted.count(False) == 0 and len(admitted) == 17
        assert refused.count(False) == 14 and len(refused) == 47
