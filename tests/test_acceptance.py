"""Acceptance run: one test per shipped guarantee, each on a wall-clock budget.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Every check here is an end-to-end exercise against an
independently computed expectation — frozen traces, independent graph
fixpoints, brute-force strategy enumeration, closed-form identities — never
against the code under test's own output.
"""

import dataclasses
import itertools
import json
import random
import time
from fractions import Fraction as F

import pytest

from test_checker import random_model, random_state_formula, run

from gcgmp import arith, dynamics
from gcgmp.arith import eval_acf, normalize_atom
from gcgmp.checker import (
    Budget,
    check_bounded,
    check_saturated,
    enumerate_oracle,
)
from gcgmp.cli import main
from gcgmp.dynamics import Configuration, Play, initial_config
from gcgmp.errors import FragmentError, GcgmpError, NotApplicable, TooLarge
from gcgmp.logic import (
    ML_CONFIG,
    Always,
    And,
    Constraint,
    Coop,
    Next,
    Not,
    Prop,
    Tru,
    Until,
    bind_formula,
    constraint_atoms,
    parse_formula,
)
from gcgmp.model import (
    ValueSemantics,
    builtin_fig1,
    model_from_dict,
    model_to_dict,
    validate,
)
from gcgmp.tcm import (
    VARIANTS,
    Halts,
    encode,
    halting_search,
    make_machine,
)
from test_tcm import HALTING_ZOO, NONHALTING_ZOO


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, _ = capsys.readouterr()
    return code, json.loads(out)


def test_criterion_1_simulate_reproduces_pinned_plays(capsys, tmp_path):
    """Three scripted runs on the bundled model match frozen traces exactly."""
    t0 = time.perf_counter()
    expected = {
        "C,C C,C": [
            {"state": "s1", "utilities": ["0", "0"]},
            {"state": "s1", "utilities": ["2", "2"]},
            {"state": "s1", "utilities": ["4", "4"]},
        ],
        "C,C D,D D,C C,D C,D C,D": [
            {"state": "s1", "utilities": ["0", "0"]},
            {"state": "s1", "utilities": ["2", "2"]},
            {"state": "s2", "utilities": ["1", "1"]},
            {"state": "s2", "utilities": ["0", "-1"]},
            {"state": "s2", "utilities": ["0", "1"]},
            {"state": "s2", "utilities": ["0", "3"]},
            {"state": "s2", "utilities": ["0", "5"]},
        ],
        "C,C D,C C,D C,D C,D C,D C,D C,D": [
            {"state": "s1", "utilities": ["0", "0"]},
            {"state": "s1", "utilities": ["2", "2"]},
            {"state": "s3", "utilities": ["5", "-2"]},
            {"state": "s3", "utilities": ["4", "-3"]},
            {"state": "s3", "utilities": ["3", "-4"]},
            {"state": "s3", "utilities": ["2", "-5"]},
            {"state": "s3", "utilities": ["1", "-6"]},
            {"state": "s3", "utilities": ["0", "-7"]},
            {"state": "s3", "utilities": ["-1", "-8"]},
        ],
    }
    for script, trace in expected.items():
        code, report = run_cli(
            capsys, "simulate", "builtin:fig1", "--init", "s1",
            "--profile-script", script,
        )
        assert code == 0
        assert report["trace"] == trace, script
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_guard_discipline_pins_actions():
    """Guards must enable exactly the pinned action sets at two checkpoints."""
    t0 = time.perf_counter()
    m = builtin_fig1()
    at_origin = Configuration("s1", (F(0), F(0)))
    assert dynamics.enabled_actions(m, at_origin, "I") == frozenset({"C"})
    assert dynamics.enabled_actions(m, at_origin, "II") == frozenset({"C"})
    in_debt = Configuration("s2", (F(0), F(-1)))
    assert dynamics.enabled_actions(m, in_debt, "I") == frozenset({"C"})
    assert dynamics.enabled_actions(m, in_debt, "II") == frozenset({"D"})
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_bounded_verdicts_on_the_bundled_model():
    """The two decided claims about the bundled model, at depth <= 150.

    Verified here: the grand coalition can push both running utilities
    past 100 while eventually sitting on p1 — true, with a replayable
    witness; and player I alone cannot keep "p1 or v_I > 0" invariant —
    false, with replayable refutations.

    The motivating story behind this model also suggests claims about
    long-run play values (w_I-style mean or total payoff guarantees
    combined with temporal operators).  Those need a play to close into a
    configuration-exact lasso before a value exists; on this model the
    interesting strategies keep growing the utilities, so the bounded
    engine honestly answers "unknown" at any tractable depth.  They are
    documented here as out of scope for this criterion — not asserted,
    and not silently marked as passing.  The engine-agreement and
    saturation criteria below cover play-value handling on models where
    values do resolve.
    """
    t0 = time.perf_counter()
    m = builtin_fig1()
    c0 = initial_config(m, "s1")

    rich = bind_formula(
        m, parse_formula("<<I,II>>(true U (p1 & v_I > 100 & v_II > 100))")
    )
    got = check_bounded(m, c0, rich, sp=ML_CONFIG, so=ML_CONFIG, budget=Budget(depth=120))
    assert got.value is True
    assert got.witness is not None

    safety = bind_formula(m, parse_formula("<<I>> G (p1 | v_I > 0)"))
    got = check_bounded(m, c0, safety, sp=ML_CONFIG, so=ML_CONFIG, budget=Budget(depth=150))
    assert got.value is False
    assert got.counterexample

    assert time.perf_counter() - t0 < 60.0


def test_criterion_4_engines_agree_with_the_enumeration_oracle():
    """>= 200 random instances: all definite verdicts match the oracle."""
    t0 = time.perf_counter()
    rng = random.Random(20250819)
    checked = 0
    disagreements = []
    while checked < 205:
        nonneg = checked % 2 == 0
        m = random_model(rng, nonneg)
        if validate(m):
            continue
        try:
            f = bind_formula(m, parse_formula(random_state_formula(rng, 2)))
        except GcgmpError:
            continue
        c0 = Configuration(m.states[0], (F(0), F(0)))
        try:
            oracle = enumerate_oracle(m, c0, f, ML_CONFIG, ML_CONFIG, depth=4).value
        except (TooLarge, FragmentError):
            continue
        if oracle is None:
            continue
        verdicts = {"oracle": oracle}
        verdicts["bounded"] = check_bounded(
            m, c0, f, ML_CONFIG, ML_CONFIG, Budget(4)
        ).value
        if nonneg:
            try:
                verdicts["saturated"] = check_saturated(m, c0, f).value
            except NotApplicable:
                pass
        definite = {k: v for k, v in verdicts.items() if v is not None}
        if len(set(definite.values())) > 1:
            disagreements.append((verdicts, f))
        checked += 1
    assert checked >= 200
    assert disagreements == []
    assert time.perf_counter() - t0 < 300.0


# --- criterion 5: an independent ground truth for the saturation engine ---


def _clamp_cap(m, f):
    cap = F(0)
    for atom in constraint_atoms(f, m):
        shape = normalize_atom(atom)
        if shape[0] == "sum":
            cap = max(cap, abs(shape[3]))
    return cap + 2


def _clamped_graph(m, c0, cap):
    """Reachable configurations with utilities clamped at ``cap``.

    Non-negative payoffs only ever push utilities up, and every constant
    mentioned by the formula or a guard lies strictly below ``cap``, so
    clamping never changes the truth of any atom along any play.
    """
    root = (c0.state, tuple(min(u, cap) for u in c0.utilities))
    succ = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node in succ:
            continue
        state, utils = node
        pools = []
        for i, ag in enumerate(m.agents):
            pools.append(
                [
                    act
                    for act in m.available_of(ag, state)
                    if eval_acf(m.guard_of(ag, state, act), {ag: utils[i]})
                ]
            )
        outs = []
        for prof in itertools.product(*pools):
            pay = m.payoffs[(state, prof)]
            nxt = (
                m.transitions[(state, prof)],
                tuple(min(u + p, cap) for u, p in zip(utils, pay)),
            )
            outs.append((prof, nxt))
            if nxt not in succ:
                stack.append(nxt)
        succ[node] = outs
    return root, succ


def _clamped_verdict(m, c0, f):
    """Decide ``f`` by explicit fixpoints over the clamped graph."""
    cap = _clamp_cap(m, f)
    root, succ = _clamped_graph(m, c0, cap)
    nodes = set(succ)

    def controllable_pre(coalition, target):
        idx = [i for i, ag in enumerate(m.agents) if ag in coalition]
        pre = set()
        for node, outs in succ.items():
            groups = {}
            for prof, nxt in outs:
                groups.setdefault(tuple(prof[i] for i in idx), []).append(nxt)
            if any(all(n in target for n in g) for g in groups.values()):
                pre.add(node)
        return pre

    def sat(g):
        if isinstance(g, Tru):
            return set(nodes)
        if isinstance(g, Prop):
            return {n for n in nodes if g.name in m.label_of(n[0])}
        if isinstance(g, Constraint):
            return {
                n
                for n in nodes
                if arith.eval_atom(
                    g.atom, dict(zip(m.agents, n[1]))
                )
            }
        if isinstance(g, Not):
            return nodes - sat(g.sub)
        if isinstance(g, And):
            return sat(g.left) & sat(g.right)
        assert isinstance(g, Coop)
        coalition = set(g.coalition)
        body = g.body
        if isinstance(body, Next):
            return controllable_pre(coalition, sat(body.sub))
        if isinstance(body, Always):
            z = sat(body.sub)
            while True:
                z2 = z & controllable_pre(coalition, z)
                if z2 == z:
                    return z
                z = z2
        assert isinstance(body, Until)
        hold, goal = sat(body.left), sat(body.right)
        z = set(goal)
        while True:
            z2 = z | (hold & controllable_pre(coalition, z))
            if z2 == z:
                return z
            z = z2

    return root in sat(f)


def test_criterion_5_saturation_matches_independent_clamped_fixpoint():
    """>= 100 monotone instances: engine verdict == clamped-graph fixpoint."""
    t0 = time.perf_counter()
    rng = random.Random(5150)
    checked = 0
    while checked < 105:
        m = random_model(rng, nonneg=True)
        if validate(m):
            continue
        try:
            f = bind_formula(m, parse_formula(random_state_formula(rng, 2)))
        except GcgmpError:
            continue
        if any(
            normalize_atom(a)[0] == "sum" and len(normalize_atom(a)[1]) > 1
            for a in constraint_atoms(f, m)
        ):
            continue
        c0 = Configuration(m.states[0], (F(0), F(0)))
        try:
            got = check_saturated(m, c0, f).value
        except NotApplicable:
            continue
        want = _clamped_verdict(m, c0, f)
        assert got is want, (f, got, want)
        checked += 1
    assert checked >= 100
    assert time.perf_counter() - t0 < 120.0


def _halt_reachable(enc):
    """Can a play of the encoded game reach a halt node within 18 steps?

    For the guard-based variant plain reachability is the right notion:
    guards force every dishonest claim into the err sink.  The state-based
    variant polices honesty through the formula instead, so there a halt
    node only counts when reached through configurations that keep the
    honesty invariant (utilities non-negative, zero-claim labels matched) —
    exactly the prefixes its until-formula quantifies over.
    """
    m = enc.model
    if enc.variant == "guard-based":
        graph = dynamics.explore(m, enc.initial, 17)
        return any("halt" in m.label_of(node.state) for node in graph.pools)

    def honest(c):
        labels = m.label_of(c.state)
        for i, name in enumerate(["e1", "e2"]):
            if c.utilities[i] < 0:
                return False
            if name in labels and c.utilities[i] != 0:
                return False
        return True

    seen = {enc.initial}
    frontier = [(enc.initial, 1)]
    while frontier:
        nxt = []
        for c, l in frontier:
            if "halt" in m.label_of(c.state):
                return True
            if not honest(c) or l > 18:
                continue
            for prof in itertools.product(*dynamics.enabled_pools(m, c)):
                c2 = dynamics.step(m, c, prof, l)
                if c2 not in seen:
                    seen.add(c2)
                    nxt.append((c2, l + 1))
        frontier = nxt
    return False


def _all_one_transition_machines():
    """Every machine with states {A, B, F}, initial A, finals {F}, and
    exactly one transition (225 in total)."""
    out = []
    for src in ["A", "B", "F"]:
        for e1, e2 in itertools.product([0, 1], repeat=2):
            c1s = [0, 1] if e1 == 0 else [-1, 0, 1]
            c2s = [0, 1] if e2 == 0 else [-1, 0, 1]
            for dst in ["A", "B", "F"]:
                for c1 in c1s:
                    for c2 in c2s:
                        out.append(
                            make_machine(
                                ["A", "B", "F"], "A", ["F"],
                                [(src, e1, e2, dst, c1, c2)],
                            )
                        )
    return out


def test_criterion_6_halting_reduction_three_ways():
    """Machine halts <=> halt node reachable <=> bounded check proves it.

    Population: all 225 one-transition machines over three states, plus
    hand-built chains with shortest halting times covering 1..8 and five
    non-halting shapes (loops, dead claims, a diverging pump).  For every
    machine and BOTH encoding variants, three independent routes must
    agree on the halting side: the machine-level breadth-first search, a
    reachability scan of the encoded game's configuration graph (through
    honesty-preserving prefixes where the variant polices honesty by
    formula rather than by guards), and the bounded strategy checker at
    depth 18.  Non-halting machines must never verify as true (a definite
    false or an honest unknown are both sound).
    """
    t0 = time.perf_counter()
    population = _all_one_transition_machines()
    population += list(HALTING_ZOO.values())
    population += list(NONHALTING_ZOO.values())
    times_covered = set()
    for m in population:
        search = halting_search(m, 8)
        halts = isinstance(search, Halts)
        if halts:
            times_covered.add(search.steps)
        for variant in VARIANTS:
            enc = encode(m, variant)
            reachable = _halt_reachable(enc)
            verdict = check_bounded(
                enc.model, enc.initial, enc.formula, budget=Budget(depth=18)
            ).value
            assert reachable == halts, (m, variant)
            assert (verdict is True) == halts, (m, variant, verdict)
    assert {1, 2, 3, 4, 5, 6, 7, 8} <= times_covered
    assert time.perf_counter() - t0 < 300.0


def test_criterion_7_numerical_identities():
    """Closed forms vs partial sums, cycle averages, and rescaling."""
    t0 = time.perf_counter()

    # discounted closed form vs 64-term partial sums
    rng = random.Random(764)
    for _ in range(25):
        d_choices = [F(1, 2), F(1, 3), F(2, 3), F(3, 4)]
        doc = {
            "agents": ["a", "b"],
            "states": ["s0", "s1"],
            "actions": {"a": ["x", "y"], "b": ["x"]},
            "transitions": {},
            "payoffs": {},
            "atoms": [],
            "labels": {},
            "discounts": {
                "a": str(rng.choice(d_choices)),
                "b": str(rng.choice(d_choices)),
            },
            "value_semantics": "discounted",
        }
        for s in ["s0", "s1"]:
            doc["transitions"][s] = {}
            doc["payoffs"][s] = {}
            for prof in ["x,x", "y,x"]:
                doc["transitions"][s][prof] = rng.choice(["s0", "s1"])
                doc["payoffs"][s][prof] = [rng.randint(-3, 3) for _ in "ab"]
        m = model_from_dict(doc)
        profiles = [
            (rng.choice(["x", "y"]), "x") for _ in range(rng.randint(2, 6))
        ]
        configs = run(m, initial_config(m, "s0"), profiles)
        while configs[-1].state not in {c.state for c in configs[:-1]}:
            profiles.append((rng.choice(["x", "y"]), "x"))
            configs.append(dynamics.step(m, configs[-1], profiles[-1], len(profiles)))
        last = configs[-1].state
        loop = next(i for i, c in enumerate(configs[:-1]) if c.state == last)
        play = Play(tuple(configs), tuple(profiles), loop)
        for agent in m.agents:
            d = m.discounts[agent]
            closed = dynamics.play_value(m, play, agent)
            partial = sum(
                (
                    d ** (1 + i)
                    * m.payoff_of(agent, play.state_at(i), play.profile_at(i))
                    for i in range(64)
                ),
                F(0),
            )
            pay_bound = max(
                abs(vec[m.agent_index(agent)]) for vec in m.payoffs.values()
            )
            assert abs(closed - partial) <= d ** 64 * pay_bound / (1 - d)

    # mean-limit equals the exact cycle average, read off accumulated utilities
    for _ in range(25):
        m = random_model(rng, nonneg=False)
        m = dataclasses.replace(m, value_semantics=ValueSemantics.MEAN_LIMIT)
        if validate(m):
            continue
        configs, profiles = [Configuration(m.states[0], (F(0), F(0)))], []
        while len(profiles) < 6 or configs[-1].state not in {c.state for c in configs[:-1]}:
            profiles.append(min(itertools.product(*dynamics.enabled_pools(m, configs[-1]))))
            configs.append(dynamics.step(m, configs[-1], profiles[-1], len(profiles)))
        last = configs[-1].state
        loop = next(i for i, c in enumerate(configs[:-1]) if c.state == last)
        play = Play(tuple(configs), tuple(profiles), loop)
        lap = len(configs) - 1 - loop
        for agent in m.agents:
            i = m.agent_index(agent)
            drift = configs[-1].utilities[i] - configs[loop].utilities[i]
            assert dynamics.play_value(m, play, agent) == drift / lap

    # the saturation verdict is invariant under rescaling all constants
    def scale_acf(g, k):
        if isinstance(g, arith.Atom):
            a = g.atom
            return arith.Atom(
                arith.AtomicConstraint(
                    arith.Term(
                        tuple(
                            s if isinstance(s, arith.UtilityVar) else s * k
                            for s in a.lhs.summands
                        )
                    ),
                    a.rel,
                    arith.Term(
                        tuple(
                            s if isinstance(s, arith.UtilityVar) else s * k
                            for s in a.rhs.summands
                        )
                    ),
                )
            )
        if isinstance(g, arith.Not):
            return arith.Not(scale_acf(g.sub, k))
        if isinstance(g, arith.And):
            return arith.And(scale_acf(g.left, k), scale_acf(g.right, k))
        if isinstance(g, arith.Or):
            return arith.Or(scale_acf(g.left, k), scale_acf(g.right, k))
        raise TypeError(g)

    def scale_formula(g, k):
        if isinstance(g, Constraint):
            return Constraint(scale_acf(arith.Atom(g.atom), k).atom)
        if isinstance(g, Not):
            return Not(scale_formula(g.sub, k))
        if isinstance(g, And):
            return And(scale_formula(g.left, k), scale_formula(g.right, k))
        if isinstance(g, Next):
            return Next(scale_formula(g.sub, k))
        if isinstance(g, Always):
            return Always(scale_formula(g.sub, k))
        if isinstance(g, Until):
            return Until(scale_formula(g.left, k), scale_formula(g.right, k))
        if isinstance(g, Coop):
            return Coop(g.coalition, scale_formula(g.body, k))
        return g  # Tru, Prop

    checked = 0
    while checked < 50:
        m = random_model(rng, nonneg=True)
        if validate(m):
            continue
        try:
            f = bind_formula(m, parse_formula(random_state_formula(rng, 2)))
        except GcgmpError:
            continue
        c0 = Configuration(m.states[0], (F(0), F(0)))
        try:
            base = check_saturated(m, c0, f).value
        except NotApplicable:
            continue
        k = rng.choice([2, 3, 5, 7])
        scaled_m = dataclasses.replace(
            m,
            payoffs={
                key: tuple(p * k for p in vec) for key, vec in m.payoffs.items()
            },
            guards={key: scale_acf(g, k) for key, g in m.guards.items()},
        )
        scaled_f = scale_formula(f, k)
        assert check_saturated(scaled_m, c0, scaled_f).value is base
        checked += 1

    assert time.perf_counter() - t0 < 120.0


def test_criterion_8_validator_catches_guard_gaps_with_witness():
    """Bundled model validates clean; a gapped mutant is rejected with a
    utility value at which no available action's guard holds."""
    t0 = time.perf_counter()
    m = builtin_fig1()
    assert validate(m) == []

    doc = model_to_dict(m)
    doc["guards"]["I"]["s1"]["C"] = "v_I > 0"  # kills the only action enabled at 0
    mutant = model_from_dict(doc)
    problems = validate(mutant)
    gaps = [v for v in problems if v.kind == "guard-gap"]
    assert gaps, problems
    gap = gaps[0]
    assert gap.subject == ("I", "s1")
    assert gap.witness is not None
    disjunction = None
    for act in mutant.available_of("I", "s1"):
        g = mutant.guard_of("I", "s1", act)
        disjunction = g if disjunction is None else arith.Or(disjunction, g)
    assert eval_acf(disjunction, {"I": gap.witness}) is False
    assert time.perf_counter() - t0 < 1.0
