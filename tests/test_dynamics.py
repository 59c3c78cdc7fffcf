import hashlib
import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from test_checker import lasso, random_model, random_state_formula, run

from gcgmp import checker, dynamics
from gcgmp.dynamics import (
    Configuration,
    Play,
    cycle_increments,
    dot_lines,
    enabled_actions,
    enabled_pools,
    explore,
    initial_config,
    is_exact_lasso,
    play_value,
    step,
)
from gcgmp.errors import (
    Divergent,
    GcgmpError,
    GuardViolation,
    IndexOutOfRange,
    InvalidState,
    NotLasso,
    TooLarge,
    UndiscountedDiscounted,
)
from gcgmp.logic import bind_formula, parse_formula
from gcgmp.model import ValueSemantics, builtin_fig1, model_from_dict, model_to_dict, validate


def loop_doc(pay="1", discount="1", semantics="mean"):
    """Single agent, single state, one self-looping action."""
    return {
        "agents": ["a"],
        "states": ["s"],
        "actions": {"a": ["go"]},
        "transitions": [{"from": "s", "profile": {"a": "go"}, "to": "s"}],
        "payoffs": [{"state": "s", "profile": {"a": "go"}, "values": {"a": pay}}],
        "labels": {},
        "discounts": {"a": discount},
        "value_semantics": semantics,
    }


def swing_doc(semantics="mean"):
    """Two states exchanging +1/-1; utilities return after a round trip."""
    return {
        "agents": ["a"],
        "states": ["s", "t"],
        "actions": {"a": ["go"]},
        "transitions": [
            {"from": "s", "profile": {"a": "go"}, "to": "t"},
            {"from": "t", "profile": {"a": "go"}, "to": "s"},
        ],
        "payoffs": [
            {"state": "s", "profile": {"a": "go"}, "values": {"a": "1"}},
            {"state": "t", "profile": {"a": "go"}, "values": {"a": "-1"}},
        ],
        "labels": {},
        "discounts": {"a": "1"},
        "value_semantics": semantics,
    }


class TestStep:
    def test_accumulates_payoff(self):
        m = builtin_fig1()
        c = step(m, initial_config(m, "s1"), ("C", "C"))
        assert c == Configuration("s1", (F(2), F(2)))

    def test_discount_exponent_uses_step_index(self):
        m = model_from_dict(loop_doc(pay="1", discount="1/2"))
        c0 = initial_config(m, "s")
        assert step(m, c0, ("go",), 1).utilities == (F(1, 2),)
        assert step(m, c0, ("go",), 3).utilities == (F(1, 8),)

    def test_zero_discount_freezes_utility(self):
        m = model_from_dict(loop_doc(pay="5", discount="0"))
        c = step(m, initial_config(m, "s"), ("go",), 1)
        assert c.utilities == (F(0),)

    def test_guard_violation(self):
        m = builtin_fig1()
        with pytest.raises(GuardViolation) as e:
            step(m, initial_config(m, "s1"), ("D", "C"))
        assert e.value.agent == "I"
        assert e.value.action == "D"
        assert e.value.step == 1

    def test_unavailable_action(self):
        m = builtin_fig1()
        with pytest.raises(GuardViolation):
            step(m, initial_config(m, "s1"), ("E", "C"))

    def test_wrong_arity(self):
        m = builtin_fig1()
        with pytest.raises(ValueError):
            step(m, initial_config(m, "s1"), ("C",))

    def test_initial_config_checks_state(self):
        m = builtin_fig1()
        with pytest.raises(InvalidState):
            initial_config(m, "s9")

    def test_enabled_profiles_at_origin(self):
        m = builtin_fig1()
        pools = enabled_pools(m, initial_config(m, "s1"))
        assert list(itertools.product(*pools)) == [("C", "C")]

    def test_simultaneous_violations_blame_least_agent(self):
        m = builtin_fig1()
        with pytest.raises(GuardViolation) as e:
            step(m, initial_config(m, "s1"), ("D", "D"))
        assert e.value.agent == "I"

    def test_enabled_actions_under_pressure(self):
        m = builtin_fig1()
        c = Configuration("s2", (F(0), F(-1)))
        assert enabled_actions(m, c, "I") == {"C"}
        assert enabled_actions(m, c, "II") == {"D"}
        assert enabled_actions(m, Configuration("s1", (F(5), F(5))), "I") == {"C", "D"}


class TestRuns:
    def test_cooperate_forever(self):
        m = builtin_fig1()
        configs = run(m, initial_config(m, "s1"), [("C", "C")] * 4)
        assert configs[-1] == Configuration("s1", (F(8), F(8)))

    def test_six_step_trace(self):
        m = builtin_fig1()
        configs = run(
            m,
            initial_config(m, "s1"),
            [("C", "C"), ("D", "D"), ("D", "C"), ("C", "D"), ("C", "D"), ("C", "D")],
        )
        assert [(c.state, tuple(int(u) for u in c.utilities)) for c in configs] == [
            ("s1", (0, 0)),
            ("s1", (2, 2)),
            ("s2", (1, 1)),
            ("s2", (0, -1)),
            ("s2", (0, 1)),
            ("s2", (0, 3)),
            ("s2", (0, 5)),
        ]

    def test_eight_step_trace_to_the_sink_of_blame(self):
        m = builtin_fig1()
        profs = [("C", "C"), ("D", "C")] + [("C", "D")] * 6
        assert run(m, initial_config(m, "s1"), profs)[-1] == Configuration("s3", (F(-1), F(-8)))


class TestPlayShape:
    def c(self, state, u):
        return Configuration(state, (F(u),))

    def test_loop_bounds(self):
        cs = (self.c("s", 0), self.c("s", 0))
        with pytest.raises(NotLasso):
            Play(cs, (("go",),), loop=1)

    def test_state_mismatch(self):
        cs = (self.c("s", 0), self.c("t", 1))
        with pytest.raises(NotLasso):
            Play(cs, (("go",),), loop=0)

    def test_cycle_length(self):
        cs = (self.c("s", 0), self.c("t", 1), self.c("s", 0))
        p = Play(cs, (("go",), ("go",)), loop=0)
        assert p.cycle_length == 2
        assert p.state_at(17) == "t"  # odd positions sit on t
        assert p.profile_at(5) == ("go",)

    def test_negative_position(self):
        cs = (self.c("s", 0), self.c("s", 0))
        p = Play(cs, (("go",),), loop=0)
        with pytest.raises(IndexOutOfRange):
            p.state_at(-1)


class TestPlayValues:
    def test_mean_of_swing_is_zero(self):
        m = model_from_dict(swing_doc())
        p = lasso(m, initial_config(m, "s"), [("go",)] * 2)
        assert is_exact_lasso(m, p)
        assert play_value(m, p, "a") == F(0)

    def test_mean_uses_raw_payoffs_even_when_frozen(self):
        # discount 0: utilities never move, yet the payoff stream is 7,7,7,...
        m = model_from_dict(loop_doc(pay="7", discount="0"))
        p = lasso(m, initial_config(m, "s"), [("go",)])
        assert is_exact_lasso(m, p)
        assert play_value(m, p, "a") == F(7)

    def test_total_of_frozen_loop_is_current_utility(self):
        m = model_from_dict(loop_doc(pay="7", discount="0", semantics="total"))
        p = lasso(m, initial_config(m, "s"), [("go",)])
        assert play_value(m, p, "a") == F(0)

    def test_total_diverges_when_cycle_oscillates(self):
        m = model_from_dict(swing_doc(semantics="total"))
        p = lasso(m, initial_config(m, "s"), [("go",)] * 2)
        assert cycle_increments(m, p, "a") == [F(1), F(-1)]
        with pytest.raises(Divergent):
            play_value(m, p, "a")

    def test_total_needs_exact_cycle(self):
        m = builtin_fig1()
        p = lasso(m, initial_config(m, "s1"), [("C", "C")])  # utilities do not repeat
        assert not is_exact_lasso(m, p)
        assert (p.state_at(7), p.profile_at(7)) == ("s1", ("C", "C"))  # yet states fold
        with pytest.raises(NotLasso):
            play_value(m, p, "I")

    def test_discounted_geometric_series(self):
        m = model_from_dict(loop_doc(pay="1", discount="1/2", semantics="discounted"))
        p = lasso(m, initial_config(m, "s"), [("go",)])
        assert play_value(m, p, "a") == F(1)  # sum of (1/2)^l for l >= 1

    def test_discounted_value_independent_of_cut(self):
        # same infinite run, cycle entered one step later: value must agree
        m = model_from_dict(loop_doc(pay="1", discount="1/2", semantics="discounted"))
        p = lasso(m, initial_config(m, "s"), [("go",)] * 2, loop=1)
        assert play_value(m, p, "a") == F(1)

    def test_discounted_rejects_unit_discount(self):
        m = model_from_dict(loop_doc(pay="1", discount="1", semantics="discounted"))
        p = lasso(m, initial_config(m, "s"), [("go",)])
        with pytest.raises(UndiscountedDiscounted):
            play_value(m, p, "a")

    def test_utilities_match_discounted_prefix_sums(self):
        # the step function itself is the closed form's ground truth
        m = model_from_dict(loop_doc(pay="3", discount="1/3"))
        acc = F(0)
        for l, c in enumerate(run(m, initial_config(m, "s"), [("go",)] * 5)[1:], start=1):
            acc += F(1, 3) ** l * 3
            assert c.utilities == (acc,)


class TestExplore:
    def test_depth_zero(self):
        m = builtin_fig1()
        r = explore(m, initial_config(m, "s1"), 0)
        assert len(r.pools) == 1
        assert r.succ == {}
        assert r.truncated

    def test_fig1_depth_two(self):
        m = builtin_fig1()
        r = explore(m, initial_config(m, "s1"), 2)
        assert not r.step_indexed
        assert len(r.pools) == 6
        assert len(r.succ) == 5
        assert r.truncated
        states = {c.state for c in r.pools}
        assert states == {"s1", "s2", "s3"}

    def test_fractional_discount_keys_by_depth(self):
        m = model_from_dict(loop_doc(pay="1", discount="1/2"))
        r = explore(m, initial_config(m, "s"), 3)
        assert r.step_indexed
        # configurations are all distinct anyway, but keys carry the index
        assert all(isinstance(k, tuple) and isinstance(k[1], int) for k in r.pools)

    def test_terminal_node_not_truncated(self):
        doc = loop_doc()
        doc["guards"] = [
            {"agent": "a", "state": "s", "action": "go", "formula": "v_a < 1/2"}
        ]
        m = model_from_dict(doc)
        # one step is allowed, after that the guard blocks everything
        r = explore(m, initial_config(m, "s"), 5)
        assert len(r.pools) == 2
        assert not r.truncated

    def test_closed_graph_stops_before_the_bound(self):
        # the zero-payoff loop closes on its root at once, so the search must
        # stop there rather than walk every remaining level of the bound
        m = model_from_dict(loop_doc(pay="0"))
        t0 = time.perf_counter()
        r = explore(m, initial_config(m, "s"), 10**9)
        assert time.perf_counter() - t0 < 1.0
        assert len(r.pools) == 1
        assert len(r.succ) == 1
        assert not r.truncated

    def test_a_graph_past_the_node_limit_is_too_large(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_GRAPH_NODES", 5)
        m = model_from_dict(loop_doc())
        assert len(explore(m, initial_config(m, "s"), 4).pools) == 5
        with pytest.raises(TooLarge, match="more than 5 nodes"):
            explore(m, initial_config(m, "s"), 5)
        with pytest.raises(TooLarge, match="more than 5 nodes"):
            explore(m, initial_config(m, "s"), cap=10)

    def test_no_depth_runs_until_the_graph_closes(self):
        m = model_from_dict(loop_doc(pay="0"))
        r = explore(m, initial_config(m, "s"))
        assert list(r.pools) == [r.root]
        assert list(r.succ.items()) == [((r.root, ("go",)), r.root)]
        assert not r.truncated

    def test_cap_clamps_every_utility(self):
        # the pay-1 loop grows without end; clamped at 3 it closes on (s, 3)
        m = model_from_dict(loop_doc(pay="1"))
        r = explore(m, initial_config(m, "s"), cap=3)
        assert [c.utilities for c in r.pools] == [(0,), (1,), (2,), (3,)]
        top = Configuration("s", (3,))
        assert r.succ[(top, ("go",))] == top
        assert not r.truncated
        # the start is clamped too
        assert explore(m, initial_config(m, "s", [5]), cap=3).root == top

    def test_negative_depth_is_refused(self):
        m = builtin_fig1()
        with pytest.raises(ValueError):
            explore(m, initial_config(m, "s1"), -1)

    def test_graph_carries_root_and_frontier(self):
        m = builtin_fig1()
        c0 = initial_config(m, "s1")
        r = explore(m, c0, 1)
        assert r.root == c0
        assert r.truncated == bool(r.unexpanded)
        assert r.unexpanded == {Configuration("s1", (F(2), F(2)))}

    @pytest.mark.parametrize("discount_i", [F(1), F(1, 2)], ids=["undiscounted", "half"])
    def test_every_edge_is_a_guarded_step(self, discount_i):
        # explore steps the enabled profiles without re-checking their guards
        m = replace(builtin_fig1(), discounts={"I": discount_i, "II": F(1)})
        r = explore(m, initial_config(m, "s1"), 8)
        assert len(r.succ) > 100
        for (src, prof), dst in r.succ.items():
            (c, l), c2 = (src, dst[0]) if r.step_indexed else ((src, 1), dst)
            assert step(m, c, prof, l) == c2

    @pytest.mark.parametrize("discount_i", [F(1), F(1, 2)], ids=["undiscounted", "half"])
    def test_edges_share_the_node_keys(self, discount_i):
        # every edge end is a stored node key itself, not an equal copy, so a
        # duplicate successor is freed as soon as it is found
        m = replace(builtin_fig1(), discounts={"I": discount_i, "II": F(1)})
        r = explore(m, initial_config(m, "s1"), 8)
        ids = {id(k) for k in r.pools}
        assert all(id(src) in ids and id(dst) in ids for (src, _), dst in r.succ.items())

    # sha256 of repr((pools items, succ items)), recorded before guards and
    # steps were compiled into the model's region and step tables: fig1 from
    # s1, and with discounts that take the step table's step-indexed and
    # discount-0 entries
    @pytest.mark.parametrize("discounts, depth, nodes, digest", [
        ((F(1), F(1)), 18, 5931,
         "e6edac7d3e17b9bde4ee011932544123cf7ac032fe5ff97f109c21f357ac86be"),
        ((F(1, 2), F(1)), 8, 10671,
         "e4d15f11243f748660df222c9e3394b6e7720f50e8fb1a181367d987775940cd"),
        ((F(0), F(1, 3)), 8, 256,
         "34241d60221fc90cee0f93e470e34f92e2b7b49b09cf2f5cf6d4ce6cf92e4893"),
    ], ids=["fig1", "half", "zero-third"])
    def test_graph_is_pinned(self, discounts, depth, nodes, digest):
        m = replace(builtin_fig1(), discounts=dict(zip(("I", "II"), discounts)))
        r = explore(m, initial_config(m, "s1"), depth)
        assert len(r.pools) == nodes
        blob = repr((list(r.pools.items()), list(r.succ.items()))).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_dot_output(self):
        m = builtin_fig1()
        r = explore(m, initial_config(m, "s1"), 1)
        dot = "".join(dot_lines(r))
        assert dot.startswith("digraph gcgmp {")
        assert 'label="s1 | 0,0"' in dot
        assert 'label="s1 | 2,2", style=dashed' in dot
        assert '[label="C,C"]' in dot
        assert dot.count(" -> ") == len(r.succ)


# --- exact rationals -----------------------------------------------------------


def _exact_population(seed, count):
    """Seeded ``random_model`` games read through the loader, with integral or
    half-integral payoffs, each agent's discount 1, 0 or 1/2 (every third game
    undiscounted, so saturation applies to some), and start utilities.  Each
    comes with a twin whose payoffs are all ``Fraction``."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        doc = model_to_dict(random_model(rng, rng.random() < 0.5))
        if rng.random() < 0.5:
            doc["payoffs"] = {
                s: {p: [str(F(x) / 2) for x in vec] for p, vec in row.items()}
                for s, row in doc["payoffs"].items()
            }
        undiscounted = len(out) % 3 == 0
        doc["discounts"] = {a: "1" if undiscounted else rng.choice(["1", "0", "1/2"])
                            for a in doc["agents"]}
        m = model_from_dict(doc)
        if validate(m):
            continue
        twin = replace(m, payoffs={k: tuple(map(F, v)) for k, v in m.payoffs.items()})
        start = [F(rng.choice(["0", "2", "3/2", "-1"])) for _ in m.agents]
        out.append((rng, m, twin, start))
    return out


def _exact(values) -> bool:
    # int or Fraction, never a float or a bool (type(True) is bool)
    return all(type(u) in (int, F) for u in values)


def _integral_run(m, start) -> bool:
    """Whether every utility of a run from ``start`` is integral: integral
    payoffs and start, and no discount strictly between 0 and 1."""
    return (not m.step_indexed and all(u.denominator == 1 for u in start)
            and all(p.denominator == 1 for vec in m.payoffs.values() for p in vec))


class TestExactRationals:
    """Payoffs and utilities stay exact rationals, kept as ``int`` when
    integral, and every value equals the one reached from ``Fraction`` inputs."""

    def test_configurations_compare_by_value_not_number_type(self):
        a, b = Configuration("s", (2, 0)), Configuration("s", (F(2), F(0)))
        assert a == b and hash(a) == hash(b) and {a: "a"}[b] == "a"
        c, d = Configuration("s", (F(1, 2), 0)), Configuration("s", (F(2, 4), F(0)))
        assert c == d and hash(c) == hash(d)
        assert a != Configuration("t", (2, 0)) and a != c

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_explored_utilities(self, seed):
        ints = 0
        for _, m, twin, start in _exact_population(seed, 40):
            s0 = m.states[0]
            assert _exact(initial_config(m, s0).utilities)
            assert all(type(u) is int for u in initial_config(m, s0).utilities)
            c0 = initial_config(m, s0, start)
            assert _exact(c0.utilities)
            assert all(type(u) is int for u in c0.utilities if u.denominator == 1)
            r = explore(m, c0, 5)
            ref = explore(twin, Configuration(s0, tuple(start)), 5)
            assert list(r.pools.items()) == list(ref.pools.items())
            assert list(r.succ.items()) == list(ref.succ.items())
            configs = [k[0] if r.step_indexed else k for k in r.pools]
            assert all(_exact(c.utilities) for c in configs)
            if _integral_run(m, start):
                ints += 1
                assert all(type(u) is int for c in configs for u in c.utilities)
        assert ints >= 3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_play_values(self, seed):
        semantics = list(ValueSemantics)
        for rng, m, twin, start in _exact_population(seed, 40):
            c0 = initial_config(m, m.states[0], start)
            profiles = []
            c = c0
            for _ in range(6):
                enabled = sorted(itertools.product(*enabled_pools(m, c)))
                if not enabled:
                    break
                profiles.append(rng.choice(enabled))
                c = step(m, c, profiles[-1], len(profiles))
            configs = tuple(run(m, c0, profiles))
            ref = tuple(run(twin, Configuration(c0.state, tuple(start)), profiles))
            assert configs == ref
            assert all(_exact(c.utilities) for c in configs)
            if _integral_run(m, start):
                assert all(type(u) is int for c in configs for u in c.utilities)
            n = len(profiles)
            for j in range(n):
                if configs[j].state != configs[n].state:
                    continue
                for sem in semantics:
                    for a in m.agents:
                        got, want = (
                            _value_or_error(replace(g, value_semantics=sem),
                                            Play(x, tuple(profiles), j), a)
                            for g, x in ((m, configs), (twin, ref))
                        )
                        assert got == want
                        if not isinstance(got, type):
                            assert _exact([got])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_saturated_clamp(self, seed, monkeypatch):
        seen = []
        pools = dynamics.enabled_pools

        def recording(m, c):
            seen.append(c)
            return pools(m, c)

        monkeypatch.setattr(dynamics, "enabled_pools", recording)
        applied = 0
        for rng, m, twin, start in _exact_population(seed, 40):
            text = random_state_formula(rng, 2)
            try:
                f = bind_formula(m, parse_formula(text))
            except GcgmpError:
                continue
            # both from Fraction start utilities, as library callers pass them
            c0 = Configuration(m.states[0], tuple(start))
            runs = []
            for g in (m, twin):
                seen.clear()
                try:
                    runs.append((checker.check_saturated(g, c0, f).value, list(seen)))
                except GcgmpError as e:
                    runs.append((type(e), []))
            assert runs[0] == runs[1]
            applied += bool(runs[0][1])
            assert all(_exact(c.utilities) for c in runs[0][1])
            if _integral_run(m, start):
                assert all(type(u) is int for c in runs[0][1] for u in c.utilities)
        assert applied >= 3


def _value_or_error(m, play, agent):
    try:
        return play_value(m, play, agent)
    except GcgmpError as e:
        return type(e)
