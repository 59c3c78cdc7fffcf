"""Counter machines, their halting search, and the game encodings.

The load-bearing property is the two-step simulation: a machine run of n
steps corresponds to a game play of 2n steps whose even positions carry
the machine state and, as the players' utilities, the exact counter
values — and dishonest transition choices are visible (blocked by guards
in one variant, exposed by a dipped utility or a zero-claim label in the
other).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcgmp import dynamics
from gcgmp.checker import Budget, check_bounded
from gcgmp.errors import GuardViolation
from gcgmp.logic import FragmentTag, classify
from gcgmp.model import validate
from gcgmp.tcm import (
    GUARD_BASED,
    STATE_BASED,
    VARIANTS,
    Halts,
    NoWithinBudget,
    TcmConfiguration,
    enabled_transitions,
    encode,
    halting_search,
    initial_tcm_config,
    load_tcm,
    make_machine,
    tcm_from_dict,
    tcm_step,
    tcm_to_dict,
)


def machine(transitions, states=("A", "B", "F"), initial="A", finals=("F",)):
    return make_machine(states, initial, finals, transitions)


# Deterministic chains visiting k distinct (state, zero-pattern) phases, so
# the shortest (indeed only) halting run takes exactly k steps.
HALTING_ZOO = {
    1: machine([("A", 0, 0, "F", 0, 0)], states=("A", "F")),
    2: machine([("A", 0, 0, "B", 1, 0), ("B", 1, 0, "F", -1, 0)]),
    3: machine(
        [("A", 0, 0, "B", 1, 0), ("B", 1, 0, "B", -1, 0), ("B", 0, 0, "F", 0, 0)]
    ),
    4: machine(
        [
            ("A", 0, 0, "A", 1, 0),
            ("A", 1, 0, "A", 0, 1),
            ("A", 1, 1, "A", -1, 0),
            ("A", 0, 1, "F", 0, -1),
        ],
        states=("A", "F"),
    ),
    5: machine(
        [
            ("A", 0, 0, "A", 1, 0),
            ("A", 1, 0, "A", 0, 1),
            ("A", 1, 1, "A", -1, 0),
            ("A", 0, 1, "B", 0, -1),
            ("B", 0, 0, "F", 0, 0),
        ]
    ),
    6: machine(
        [
            ("A", 0, 0, "A", 1, 0),
            ("A", 1, 0, "A", 0, 1),
            ("A", 1, 1, "A", -1, 0),
            ("A", 0, 1, "B", 0, -1),
            ("B", 0, 0, "B", 1, 0),
            ("B", 1, 0, "F", -1, 0),
        ]
    ),
    7: machine(
        [
            ("A", 0, 0, "A", 1, 0),
            ("A", 1, 0, "A", 0, 1),
            ("A", 1, 1, "A", -1, 0),
            ("A", 0, 1, "B", 0, -1),
            ("B", 0, 0, "B", 1, 0),
            ("B", 1, 0, "B", 0, 1),
            ("B", 1, 1, "F", -1, -1),
        ]
    ),
    8: machine(
        [
            ("A", 0, 0, "A", 1, 0),
            ("A", 1, 0, "A", 0, 1),
            ("A", 1, 1, "A", -1, 0),
            ("A", 0, 1, "B", 0, -1),
            ("B", 0, 0, "B", 1, 0),
            ("B", 1, 0, "B", 0, 1),
            ("B", 1, 1, "B", -1, 0),
            ("B", 0, 1, "F", 0, -1),
        ]
    ),
}

NONHALTING_ZOO = {
    "self-loop": machine([("A", 0, 0, "A", 0, 0)], states=("A", "F")),
    "stuck": machine([], states=("A", "F")),
    # claims counter 1 nonzero at the very start, so nothing ever fires
    "dead-claim": machine([("A", 1, 0, "F", 0, 0)], states=("A", "F")),
    "pump": machine(
        [("A", 0, 0, "A", 1, 0), ("A", 1, 0, "A", 1, 0)], states=("A", "F")
    ),
    "two-state-loop": machine(
        [("A", 0, 0, "B", 1, 1), ("B", 1, 1, "A", -1, -1), ("A", 0, 0, "A", 0, 0)]
    ),
}


def machine_runs(tcm, length):
    """Every run of at most ``length`` steps as (trace, transition indices)."""
    layer = [((initial_tcm_config(tcm),), ())]
    out = list(layer)
    for _ in range(length):
        nxt = []
        for trace, taken in layer:
            conf = trace[-1]
            if conf.state in tcm.finals:
                continue
            for i in enabled_transitions(tcm, conf):
                t = tcm.transitions[i]
                c2 = TcmConfiguration(
                    t.target,
                    (
                        conf.counters[0] + t.effects[0],
                        conf.counters[1] + t.effects[1],
                    ),
                )
                nxt.append((trace + (c2,), taken + (i,)))
        out.extend(nxt)
        layer = nxt
    return out


def drive_game(enc, taken):
    """Push the machine's transition choices through the encoded game."""
    confirm = ("ok", "ok") if enc.variant == GUARD_BASED else ("go", "go")
    c = enc.initial
    configs = [c]
    l = 1
    for i in taken:
        c = dynamics.step(enc.model, c, (f"t{i}", "go"), l)
        configs.append(c)
        l += 1
        c = dynamics.step(enc.model, c, confirm, l)
        configs.append(c)
        l += 1
    return configs


class TestMachineBasics:
    def test_step_follows_zero_patterns(self):
        m = HALTING_ZOO[3]
        c0 = initial_tcm_config(m)
        assert c0 == TcmConfiguration("A", (0, 0))
        assert enabled_transitions(m, c0) == [0]
        (c1,) = tcm_step(m, c0)
        assert c1 == TcmConfiguration("B", (1, 0))
        assert enabled_transitions(m, c1) == [1]
        (c2,) = tcm_step(m, c1)
        assert c2 == TcmConfiguration("B", (0, 0))
        assert enabled_transitions(m, c2) == [2]

    def test_step_is_nondeterministic_in_transition_order(self):
        m = machine(
            [("A", 0, 0, "B", 1, 0), ("A", 0, 0, "F", 0, 0)],
        )
        succ = tcm_step(m, initial_tcm_config(m))
        assert succ == [
            TcmConfiguration("B", (1, 0)),
            TcmConfiguration("F", (0, 0)),
        ]

    def test_mismatched_patterns_do_not_fire(self):
        m = NONHALTING_ZOO["dead-claim"]
        assert tcm_step(m, initial_tcm_config(m)) == []

    @pytest.mark.parametrize(
        "doc_patch, complaint",
        [
            ({"initial": "Z"}, "initial"),
            ({"finals": ["Z"]}, "final"),
            (
                {"transitions": [{"from": "Z", "e1": 0, "e2": 0, "to": "A", "c1": 0, "c2": 0}]},
                "source",
            ),
            (
                {"transitions": [{"from": "A", "e1": 0, "e2": 0, "to": "Z", "c1": 0, "c2": 0}]},
                "target",
            ),
            (
                {"transitions": [{"from": "A", "e1": 2, "e2": 0, "to": "A", "c1": 0, "c2": 0}]},
                "test",
            ),
            (
                {"transitions": [{"from": "A", "e1": 0, "e2": 0, "to": "A", "c1": 2, "c2": 0}]},
                "effect",
            ),
            (
                {"transitions": [{"from": "A", "e1": 0, "e2": 0, "to": "A", "c1": -1, "c2": 0}]},
                "zero",
            ),
            ({"states": ["A", "A", "F"]}, "duplicate"),
        ],
    )
    def test_rejects_malformed_machines(self, doc_patch, complaint):
        doc = {"states": ["A", "F"], "initial": "A", "finals": ["F"], "transitions": []}
        doc.update(doc_patch)
        with pytest.raises(ValueError, match=complaint):
            tcm_from_dict(doc)

    def test_decrementing_an_asserted_zero_is_rejected_per_counter(self):
        # the same effect is fine on the counter asserted nonzero
        machine([("A", 1, 0, "F", -1, 0)], states=("A", "F"))
        with pytest.raises(ValueError):
            machine([("A", 1, 0, "F", 0, -1)], states=("A", "F"))

    def test_json_round_trip(self, tmp_path):
        m = HALTING_ZOO[6]
        assert tcm_from_dict(tcm_to_dict(m)) == m
        path = tmp_path / "m.json"
        from gcgmp.tcm import dump_tcm

        dump_tcm(m, path)
        assert load_tcm(path) == m

    def test_bundled_drain_machine(self):
        from importlib import resources

        path = resources.files("gcgmp.data").joinpath("tcm_drain.json")
        with resources.as_file(path) as p:
            m = load_tcm(p)
        assert m == HALTING_ZOO[3]


class TestHaltingSearch:
    def test_initial_final_halts_in_zero_steps(self):
        m = machine([], states=("A",), initial="A", finals=("A",))
        got = halting_search(m, 5)
        assert isinstance(got, Halts)
        assert got.steps == 0
        assert got.trace == (TcmConfiguration("A", (0, 0)),)

    @pytest.mark.parametrize("steps", sorted(HALTING_ZOO))
    def test_zoo_halting_times(self, steps):
        got = halting_search(HALTING_ZOO[steps], 12)
        assert isinstance(got, Halts)
        assert got.steps == steps
        assert got.trace[0] == TcmConfiguration("A", (0, 0))
        assert got.trace[-1].state == "F"
        # the trace replays through tcm_step
        for k, i in enumerate(got.transitions):
            assert got.trace[k + 1] in tcm_step(HALTING_ZOO[steps], got.trace[k])

    def test_trace_is_shortest(self):
        m = machine(
            [("A", 0, 0, "B", 1, 0), ("B", 1, 0, "F", -1, 0), ("A", 0, 0, "F", 0, 0)],
        )
        got = halting_search(m, 10)
        assert got.steps == 1
        assert got.transitions == (2,)

    def test_budget_boundary(self):
        m = HALTING_ZOO[5]
        assert isinstance(halting_search(m, 5), Halts)
        missed = halting_search(m, 4)
        assert isinstance(missed, NoWithinBudget)
        assert missed.budget == 4

    @pytest.mark.parametrize("name", sorted(NONHALTING_ZOO))
    def test_nonhalting_zoo(self, name):
        assert isinstance(halting_search(NONHALTING_ZOO[name], 30), NoWithinBudget)


class TestEncoding:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_encodings_are_wellformed(self, variant):
        for m in [*HALTING_ZOO.values(), *NONHALTING_ZOO.values()]:
            enc = encode(m, variant)
            assert validate(enc.model) == []
            assert enc.initial.state == m.initial
            assert set(enc.initial.utilities) == {Fraction(0)}

    def test_halt_labels_exactly_the_finals(self):
        m = HALTING_ZOO[3]
        for variant in VARIANTS:
            g = encode(m, variant).model
            halted = {s for s in g.states if "halt" in g.label_of(s)}
            assert halted == set(m.finals)
            for s in m.finals:
                for prof in g.available_profiles(s):
                    assert g.transitions[(s, prof)] == s
                    assert set(g.payoffs[(s, prof)]) == {Fraction(0)}

    def test_checkpoints_advertise_zero_claims(self):
        m = machine([("A", 0, 1, "B", 1, -1), ("B", 1, 0, "F", -1, 1)])
        for variant in VARIANTS:
            g = encode(m, variant).model
            assert g.label_of("step0") == frozenset({"e1"})
            assert g.label_of("step1") == frozenset({"e2"})

    def test_guard_variant_polices_claims_with_own_variable_guards(self):
        from gcgmp.arith import format_acf

        m = machine([("A", 0, 1, "B", 1, -1)])
        g = encode(m, GUARD_BASED).model
        assert format_acf(g.guard_of("p1", "step0", "ok")) == "v_p1 = 0"
        assert format_acf(g.guard_of("p2", "step0", "ok")) == "v_p2 >= 1"
        assert format_acf(g.guard_of("p1", "step0", "bail")) == "v_p1 > 0 | v_p1 < 0"
        assert format_acf(g.guard_of("p2", "step0", "bail")) == "v_p2 < 1"
        assert "err" in g.states

    def test_state_variant_has_no_guards_and_no_sink(self):
        m = machine([("A", 0, 1, "B", 1, -1)])
        g = encode(m, STATE_BASED).model
        assert g.guards == {}
        assert "err" not in g.states

    def test_formula_fragments(self):
        m = HALTING_ZOO[1]
        guard_enc = encode(m, GUARD_BASED)
        state_enc = encode(m, STATE_BASED)
        assert classify(guard_enc.formula) is FragmentTag.ATL_PURE
        assert classify(state_enc.formula) is FragmentTag.NGL
        assert "halt" in guard_enc.formula_text
        assert "v_p1 >= 0" in state_enc.formula_text

    def test_reserved_names_are_refused(self):
        for bad in ["err", "step0", "step12"]:
            m = make_machine([bad, "F"], bad, ["F"], [])
            with pytest.raises(ValueError, match="reserved"):
                encode(m, GUARD_BASED)

    def test_unknown_variant_is_refused(self):
        with pytest.raises(ValueError, match="variant"):
            encode(HALTING_ZOO[1], "telepathic")

    def test_exits_from_final_states_are_dead(self):
        m = machine(
            [("A", 0, 0, "F", 0, 0), ("F", 0, 0, "A", 1, 0)],
            states=("A", "F"),
        )
        for variant in VARIANTS:
            g = encode(m, variant).model
            assert "step1" not in g.states
            assert g.available_of("p1", "F") == ("go",)


class TestSimulation:
    """Machine runs of n steps are game plays of 2n steps, counters on even."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_runs_embed_into_plays(self, variant):
        sample = [HALTING_ZOO[3], HALTING_ZOO[8], NONHALTING_ZOO["pump"],
                  NONHALTING_ZOO["two-state-loop"]]
        for m in sample:
            enc = encode(m, variant)
            for trace, taken in machine_runs(m, 4):
                configs = drive_game(enc, taken)
                assert len(configs) == 2 * len(taken) + 1
                for k, conf in enumerate(trace):
                    game = configs[2 * k]
                    assert game.state == conf.state
                    assert game.utilities == (
                        Fraction(conf.counters[0]),
                        Fraction(conf.counters[1]),
                    )

    def test_honest_checkpoints_force_the_confirming_move(self):
        m = HALTING_ZOO[3]
        enc = encode(m, GUARD_BASED)
        g = enc.model
        for trace, taken in machine_runs(m, 4):
            configs = drive_game(enc, taken)
            for k in range(1, len(configs), 2):
                c = configs[k]
                for agent in g.agents:
                    assert set(dynamics.enabled_actions(g, c, agent)) == {"ok"}

    def test_false_nonzero_claim_blocks_the_guard_variant(self):
        m = NONHALTING_ZOO["dead-claim"]
        enc = encode(m, GUARD_BASED)
        c = dynamics.step(enc.model, enc.initial, ("t0", "go"), 1)
        assert c.state == "step0"
        assert set(dynamics.enabled_actions(enc.model, c, "p1")) == {"bail"}
        with pytest.raises(GuardViolation):
            dynamics.step(enc.model, c, ("ok", "ok"), 2)
        sunk = dynamics.step(enc.model, c, ("bail", "ok"), 2)
        assert sunk.state == "err"

    def test_false_nonzero_claim_dips_below_zero_in_state_variant(self):
        m = NONHALTING_ZOO["dead-claim"]
        enc = encode(m, STATE_BASED)
        c = dynamics.step(enc.model, enc.initial, ("t0", "go"), 1)
        assert c.state == "step0"
        assert c.utilities == (Fraction(-1), Fraction(0))

    def test_false_zero_claim_is_visible_in_state_variant(self):
        # counter 1 is pumped to 1, then a transition claims it is zero
        m = machine(
            [("A", 0, 0, "B", 1, 0), ("B", 0, 0, "F", 0, 0)],
        )
        enc = encode(m, STATE_BASED)
        c = enc.initial
        for i, prof in enumerate([("t0", "go"), ("go", "go"), ("t1", "go")], start=1):
            c = dynamics.step(enc.model, c, prof, i)
        assert c.state == "step1"
        assert "e1" in enc.model.label_of("step1")
        assert c.utilities[0] == Fraction(1)  # labelled zero-claim, utility says no

    def test_honest_dip_is_repaid_at_the_apply_step(self):
        m = HALTING_ZOO[2]
        enc = encode(m, STATE_BASED)
        configs = drive_game(enc, (0, 1))
        assert [c.utilities[0] for c in configs] == [
            Fraction(0),  # at A, counter 0
            Fraction(0),  # zero-claim costs nothing
            Fraction(1),  # at B, counter 1
            Fraction(0),  # nonzero-claim dips
            Fraction(0),  # repaid with the decrement applied
        ]


class TestHaltingEquivalence:
    @pytest.mark.parametrize("steps", sorted(HALTING_ZOO))
    def test_halting_machines_verify_true(self, steps):
        m = HALTING_ZOO[steps]
        budget = Budget(depth=2 * steps + 2)
        for variant in VARIANTS:
            enc = encode(m, variant)
            got = check_bounded(enc.model, enc.initial, enc.formula, budget=budget)
            assert got.value is True, (steps, variant)

    @pytest.mark.parametrize("name", sorted(NONHALTING_ZOO))
    def test_nonhalting_machines_never_verify_true(self, name):
        m = NONHALTING_ZOO[name]
        verdicts = []
        for variant in VARIANTS:
            enc = encode(m, variant)
            got = check_bounded(enc.model, enc.initial, enc.formula, budget=Budget(depth=18))
            assert got.value is not True, (name, variant)
            verdicts.append(got.value)
        assert verdicts[0] == verdicts[1], name

    def test_loop_machines_refute_definitely(self):
        for name in ["self-loop", "stuck", "dead-claim"]:
            for variant in VARIANTS:
                enc = encode(NONHALTING_ZOO[name], variant)
                got = check_bounded(
                    enc.model, enc.initial, enc.formula, budget=Budget(depth=18)
                )
                assert got.value is False, (name, variant)


@st.composite
def random_machines(draw):
    n_states = draw(st.integers(1, 3))
    states = ["A", "B", "C"][:n_states]
    finals = draw(st.sets(st.sampled_from(states), max_size=n_states))
    n_trans = draw(st.integers(0, 4))
    transitions = []
    for _ in range(n_trans):
        e1, e2 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        c1 = draw(st.integers(0 if e1 == 0 else -1, 1))
        c2 = draw(st.integers(0 if e2 == 0 else -1, 1))
        transitions.append(
            (draw(st.sampled_from(states)), e1, e2, draw(st.sampled_from(states)), c1, c2)
        )
    return make_machine(states, "A", finals, transitions)


class TestRandomMachines:
    @settings(max_examples=25, deadline=None)
    @given(random_machines(), st.sampled_from(VARIANTS))
    def test_encodings_validate_and_simulate(self, m, variant):
        enc = encode(m, variant)
        assert validate(enc.model) == []
        for trace, taken in machine_runs(m, 3):
            configs = drive_game(enc, taken)
            for k, conf in enumerate(trace):
                assert configs[2 * k].state == conf.state
                assert configs[2 * k].utilities == (
                    Fraction(conf.counters[0]),
                    Fraction(conf.counters[1]),
                )
