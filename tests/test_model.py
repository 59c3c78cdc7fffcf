import dataclasses
import hashlib
import random
import re
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcgmp import arith
from gcgmp.checker import Budget, check_atl, check_bounded, enumerate_oracle
from gcgmp.dynamics import Configuration, enabled_pools, explore, initial_config
from gcgmp.logic import bind_formula, parse_formula
from gcgmp.errors import InvalidState, ParseError, UnknownAgent, UnknownIdentifier
from gcgmp.model import (
    ValueSemantics,
    _rational,
    builtin_fig1,
    dump_model,
    load_model,
    model_from_dict,
    model_to_dict,
    validate,
)


def tiny_doc():
    """One agent, one state, self-loop; minimal well-formed model."""
    return {
        "agents": ["a"],
        "states": ["s"],
        "actions": {"a": ["go"]},
        "transitions": [{"from": "s", "profile": {"a": "go"}, "to": "s"}],
        "payoffs": [{"state": "s", "profile": {"a": "go"}, "values": {"a": "1"}}],
        "labels": {},
        "discounts": {"a": "1"},
    }


class TestLoading:
    def test_defaults(self):
        m = model_from_dict(tiny_doc())
        assert m.available_of("a", "s") == ("go",)
        assert m.guard_of("a", "s", "go") == arith.ACF_TRUE
        assert m.discounts["a"] == F(1)
        assert m.value_semantics is ValueSemantics.TOTAL
        assert validate(m) == []

    def test_atoms_are_the_label_union(self):
        doc = tiny_doc()
        doc["labels"] = {"s": ["q", "p"]}
        assert model_from_dict(doc).atoms == ("p", "q")

    def test_unknown_field_rejected(self):
        doc = tiny_doc()
        doc["payofs"] = doc.pop("payoffs")
        with pytest.raises(ValueError, match="payofs"):
            model_from_dict(doc)

    def test_atom_declarations_rejected(self):
        doc = tiny_doc()
        doc["atoms"] = ["p"]
        with pytest.raises(ValueError, match="atoms"):
            model_from_dict(doc)

    def test_duplicate_state_id_rejected(self):
        doc = tiny_doc()
        doc["states"] = ["s", "s"]
        with pytest.raises(ParseError, match="duplicate state"):
            model_from_dict(doc)

    def test_duplicate_agent_id_rejected(self):
        doc = tiny_doc()
        doc["agents"] = ["a", "a"]
        with pytest.raises(ParseError, match="duplicate agent"):
            model_from_dict(doc)

    def test_profile_must_cover_every_agent(self):
        doc = tiny_doc()
        doc["transitions"][0]["profile"] = {}
        with pytest.raises(ParseError, match="misses"):
            model_from_dict(doc)

    def test_profile_with_undeclared_agent(self):
        doc = tiny_doc()
        doc["transitions"][0]["profile"] = {"a": "go", "b": "go"}
        with pytest.raises(UnknownIdentifier, match="b"):
            model_from_dict(doc)

    def test_values_for_undeclared_agent(self):
        doc = tiny_doc()
        doc["payoffs"][0]["values"] = {"a": "1", "b": "1"}
        with pytest.raises(UnknownIdentifier, match="b"):
            model_from_dict(doc)

    def test_comma_in_action_name_rejected(self):
        # profiles are written comma-joined, so such a model could not be reloaded
        doc = tiny_doc()
        doc["actions"] = {"a": ["go", "x,y"]}
        with pytest.raises(ParseError, match="','"):
            model_from_dict(doc)

    @pytest.mark.parametrize("target", [["s"], {"s": 1}, 1, None])
    def test_transition_target_must_be_a_name(self, target):
        rows = tiny_doc()
        rows["transitions"][0]["to"] = target
        nested = model_to_dict(model_from_dict(tiny_doc()))
        nested["transitions"]["s"]["go"] = target
        for doc in (rows, nested):
            with pytest.raises(ParseError, match="is not a name"):
                model_from_dict(doc)

    @pytest.mark.parametrize("number", [0.5, 1.0, True, False])
    def test_floats_and_booleans_are_not_rationals(self, number):
        doc = tiny_doc()
        doc["payoffs"][0]["values"] = {"a": number}
        with pytest.raises(ParseError, match='is not exact, write a string such as "1/10"'):
            model_from_dict(doc)
        doc = tiny_doc()
        doc["discounts"] = {"a": number}
        with pytest.raises(ParseError, match="discount of 'a'"):
            model_from_dict(doc)

    def test_json_integers_are_rationals(self):
        doc = tiny_doc()
        doc["payoffs"][0]["values"] = {"a": -3}
        doc["discounts"] = {"a": 0}
        m = model_from_dict(doc)
        assert m.payoffs[("s", ("go",))] == (-3,) and type(m.payoffs[("s", ("go",))][0]) is int
        assert m.discounts == {"a": F(0)} and type(m.discounts["a"]) is F

    def test_bad_guard_surfaces_parse_error(self):
        doc = tiny_doc()
        doc["guards"] = [{"agent": "a", "state": "s", "action": "go", "formula": "v_a >"}]
        with pytest.raises(ParseError):
            model_from_dict(doc)

    def test_round_trip(self, tmp_path):
        m = builtin_fig1()
        p = tmp_path / "m.json"
        dump_model(m, str(p))
        assert load_model(str(p)) == m

    def test_dict_round_trip_small(self):
        m = model_from_dict(tiny_doc())
        assert model_from_dict(model_to_dict(m)) == m


class TestAccessors:
    def test_profiles_in_agent_order(self):
        m = builtin_fig1()
        assert list(m.available_profiles("s1")) == [
            ("C", "C"), ("C", "D"), ("D", "C"), ("D", "D"),
        ]

    def test_payoff_lookup(self):
        m = builtin_fig1()
        assert m.payoff_of("I", "s1", ("D", "C")) == F(3)
        assert m.payoff_of("II", "s1", ("D", "C")) == F(-4)

    def test_unknown_agent(self):
        m = builtin_fig1()
        with pytest.raises(UnknownAgent):
            m.payoff_of("III", "s1", ("C", "C"))

    def test_label_of_unknown_state(self):
        m = builtin_fig1()
        with pytest.raises(InvalidState):
            m.label_of("s9")

    def test_enabled_actions_at_zero(self):
        m = builtin_fig1()
        assert m.enabled_actions("I", "s1", F(0)) == ("C",)
        assert m.enabled_actions("II", "s1", F(0)) == ("C",)

    def test_enabled_actions_off_zero(self):
        m = builtin_fig1()
        assert m.enabled_actions("I", "s2", F(0)) == ("C",)
        assert m.enabled_actions("II", "s2", F(-1)) == ("D",)
        assert m.enabled_actions("I", "s1", F(5)) == ("C", "D")
        assert m.enabled_actions("I", "s1", F(-2)) == ("D",)


class TestValidate:
    def test_builtin_is_clean(self):
        assert validate(builtin_fig1()) == []

    def test_missing_transition(self):
        doc = tiny_doc()
        doc["transitions"] = []
        kinds = {v.kind for v in validate(model_from_dict(doc))}
        assert "missing-transition" in kinds

    def test_extraneous_transition(self):
        doc = tiny_doc()
        doc["actions"] = {"a": ["go", "stay"]}
        doc["available"] = {"s": {"a": ["go"]}}
        doc["transitions"].append({"from": "s", "profile": {"a": "stay"}, "to": "s"})
        doc["payoffs"].append(
            {"state": "s", "profile": {"a": "stay"}, "values": {"a": "0"}}
        )
        kinds = {v.kind for v in validate(model_from_dict(doc))}
        assert "extraneous-transition" in kinds
        assert "extraneous-payoff" in kinds

    def test_transition_to_nowhere(self):
        doc = tiny_doc()
        doc["transitions"] = [{"from": "s", "profile": {"a": "go"}, "to": "t"}]
        kinds = {v.kind for v in validate(model_from_dict(doc))}
        assert "unknown-state" in kinds

    def test_payoff_arity(self):
        doc = tiny_doc()
        doc["payoffs"][0]["values"] = {}
        kinds = {v.kind for v in validate(model_from_dict(doc))}
        assert "payoff-arity" in kinds

    def test_unknown_atom_in_label(self):
        # not constructible through a file (atoms are the label union), but a
        # hand-built model can still label with an undeclared atom
        m = model_from_dict(tiny_doc())
        m = dataclasses.replace(m, labels={"s": frozenset({"p"})})
        kinds = {v.kind for v in validate(m)}
        assert "unknown-atom" in kinds

    def test_guard_gap_with_witness(self):
        doc = tiny_doc()
        doc["guards"] = [
            {"agent": "a", "state": "s", "action": "go", "formula": "v_a > 0 | v_a < 0"}
        ]
        vs = validate(model_from_dict(doc))
        gaps = [v for v in vs if v.kind == "guard-gap"]
        assert len(gaps) == 1
        assert gaps[0].witness == F(0)
        assert not arith.eval_acf(
            model_from_dict(doc).guard_of("a", "s", "go"), {"a": gaps[0].witness}
        )

    def test_guards_jointly_total_across_actions(self):
        doc = tiny_doc()
        doc["actions"] = {"a": ["go", "stay"]}
        doc["transitions"].append({"from": "s", "profile": {"a": "stay"}, "to": "s"})
        doc["payoffs"].append(
            {"state": "s", "profile": {"a": "stay"}, "values": {"a": "0"}}
        )
        doc["guards"] = [
            {"agent": "a", "state": "s", "action": "go", "formula": "v_a >= 1/2"},
            {"agent": "a", "state": "s", "action": "stay", "formula": "v_a < 1"},
        ]
        assert validate(model_from_dict(doc)) == []

    def test_guard_on_foreign_utility(self):
        doc = tiny_doc()
        doc["guards"] = [
            {"agent": "a", "state": "s", "action": "go", "formula": "v_b >= 0"}
        ]
        kinds = {v.kind for v in validate(model_from_dict(doc))}
        assert "guard-foreign-variable" in kinds
        assert "guard-gap" not in kinds  # totality skipped, not crashed

    def test_discount_out_of_range(self):
        doc = tiny_doc()
        doc["discounts"] = {"a": "3/2"}
        kinds = {v.kind for v in validate(model_from_dict(doc))}
        assert "bad-discount" in kinds

    def test_discounted_semantics_needs_contraction(self):
        doc = tiny_doc()
        doc["value_semantics"] = "discounted"
        kinds = {v.kind for v in validate(model_from_dict(doc))}
        assert "discount-not-contractive" in kinds
        doc["discounts"] = {"a": "1/2"}
        assert validate(model_from_dict(doc)) == []

    def test_total_semantics_allows_discount_one(self):
        doc = tiny_doc()
        doc["value_semantics"] = "total"
        doc["payoffs"][0]["values"] = {"a": "0"}
        assert validate(model_from_dict(doc)) == []

    def test_empty_available(self):
        doc = tiny_doc()
        doc["available"] = {"s": {"a": []}}
        kinds = {v.kind for v in validate(model_from_dict(doc))}
        assert "empty-available" in kinds

    def test_duplicate_names_in_a_built_model(self):
        m = model_from_dict(tiny_doc())
        m = dataclasses.replace(m, states=("s", "s"))
        kinds = {v.kind for v in validate(m)}
        assert "duplicate-state" in kinds


class TestBuiltinModel:
    """Freeze the bundled model's full matrices so edits are deliberate."""

    def test_shape(self):
        m = builtin_fig1()
        assert m.agents == ("I", "II")
        assert m.states == ("s1", "s2", "s3")
        assert m.atoms == ("p1", "p2", "p3")
        assert m.labels == {
            "s1": frozenset({"p1"}),
            "s2": frozenset({"p2"}),
            "s3": frozenset({"p3"}),
        }
        assert m.value_semantics is ValueSemantics.TOTAL
        assert m.discounts == {"I": F(1), "II": F(1)}

    def test_transition_matrix(self):
        m = builtin_fig1()
        t = {
            (s, p): m.transitions[(s, p)]
            for s in m.states
            for p in m.available_profiles(s)
        }
        assert t == {
            ("s1", ("C", "C")): "s1", ("s1", ("C", "D")): "s2",
            ("s1", ("D", "C")): "s3", ("s1", ("D", "D")): "s2",
            ("s2", ("C", "C")): "s1", ("s2", ("C", "D")): "s2",
            ("s2", ("D", "C")): "s2", ("s2", ("D", "D")): "s1",
            ("s3", ("C", "C")): "s2", ("s3", ("C", "D")): "s3",
            ("s3", ("D", "C")): "s3", ("s3", ("D", "D")): "s2",
        }

    def test_payoff_matrix(self):
        m = builtin_fig1()
        pay = {
            (s, p): tuple(int(x) for x in m.payoffs[(s, p)])
            for s in m.states
            for p in m.available_profiles(s)
        }
        assert pay == {
            ("s1", ("C", "C")): (2, 2), ("s1", ("C", "D")): (-2, 3),
            ("s1", ("D", "C")): (3, -4), ("s1", ("D", "D")): (-1, -1),
            ("s2", ("C", "C")): (2, 3), ("s2", ("C", "D")): (0, 2),
            ("s2", ("D", "C")): (-1, -2), ("s2", ("D", "D")): (3, 2),
            ("s3", ("C", "C")): (2, 2), ("s3", ("C", "D")): (-1, -1),
            ("s3", ("D", "C")): (-1, -1), ("s3", ("D", "D")): (1, 1),
        }

    def test_guard_text(self):
        m = builtin_fig1()
        fmt = lambda a, s, act: arith.format_acf(m.guard_of(a, s, act))
        assert fmt("I", "s1", "C") == "v_I >= 0"
        assert fmt("I", "s1", "D") == "v_I > 0 | v_I < 0"
        assert fmt("I", "s2", "C") == "v_I >= 0 | v_I < 0"
        assert fmt("I", "s2", "D") == "v_I > 0"
        assert fmt("II", "s2", "C") == "v_II >= 0"
        assert fmt("II", "s2", "D") == "v_II > 0 | v_II < 0"
        assert fmt("I", "s3", "C") == "v_I >= 0 | v_I < 0"
        assert fmt("II", "s3", "D") == "v_II > 0 | v_II < 0"


# --- validate's output, pinned on a seeded population ------------------------

VIOLATION_KINDS = {
    "no-agents", "no-states", "duplicate-agent", "duplicate-state", "duplicate-atom",
    "no-actions", "unknown-agent", "unknown-state", "empty-available", "unknown-action",
    "missing-transition", "missing-payoff", "extraneous-transition", "extraneous-payoff",
    "payoff-arity", "unknown-atom", "guard-foreign-variable", "guard-gap",
    "missing-discount", "bad-discount", "discount-not-contractive",
}


def two_agent_doc():
    """Agents a, b at states s, t, u; guarded at s (a) and t (b); labelled."""
    acts = {"a": ["inc", "skip"], "b": ["go", "wait"]}
    trans, pays = {}, {}
    for i, s in enumerate(["s", "t", "u"]):
        for x in acts["a"]:
            for y in acts["b"]:
                trans.setdefault(s, {})[f"{x},{y}"] = ["s", "t", "u"][(i + (y == "go")) % 3]
                pays.setdefault(s, {})[f"{x},{y}"] = [str(i + (x == "inc")), "-1/2"]
    return {
        "agents": ["a", "b"], "states": ["s", "t", "u"],
        "actions": {"a": ["inc", "skip", "stop"], "b": ["go", "wait"]},
        "available": {st: acts for st in ["s", "t", "u"]},
        "transitions": trans, "payoffs": pays,
        "labels": {"s": ["p"], "t": ["p", "q"]},
        "guards": {"a": {"s": {"inc": "v_a >= 1", "skip": "v_a < 1"}},
                   "b": {"t": {"go": "v_b > 0", "wait": "v_b <= 0"}}},
        "discounts": {"a": "1/2", "b": "1"},
        "value_semantics": "total",
    }


def _corrupt(m, rng):
    """``m`` with one more defect of a kind `validate` reports, picked by ``rng``."""
    pick = rng.choice
    a, s = pick(m.agents or ("a",)), pick(m.states or ("s",))
    act = pick(["inc", "skip", "go", "fly"])
    kind = rng.randrange(13)
    if kind == 0:  # a name declared twice, or no names at all
        field = pick(["agents", "states", "atoms"])
        seq = getattr(m, field)
        return dataclasses.replace(m, **{field: seq + seq[:1] if rng.random() < 0.8 else ()})
    if kind == 1:  # an empty alphabet, maybe of an unknown agent
        return dataclasses.replace(m, actions={**m.actions, pick(["z", a]): ()})
    if kind == 2:  # an entry dropped from some table
        table = pick(["transitions", "payoffs", "available", "guards", "labels", "discounts"])
        rows = dict(getattr(m, table))
        if rows:
            rows.pop(pick(sorted(rows, key=repr)))
        return dataclasses.replace(m, **{table: rows})
    if kind == 3:  # availability of unknown agents, states or actions, or of none
        key = (pick(["z", a]), pick(["nowhere", s]))
        acts = pick([(), (act,), ("inc", "skip")])
        return dataclasses.replace(m, available={**m.available, key: acts})
    if kind == 4:  # a transition and a payoff for a profile that may not exist
        prof = (act, pick(["go", "wait", "fly"]), *(["x"] if rng.random() < 0.2 else []))
        key = (pick([s, "nowhere"]), prof)
        return dataclasses.replace(m, transitions={**m.transitions, key: pick([s, "nowhere"])},
                                   payoffs={**m.payoffs, key: (1,) * rng.randrange(4)})
    if kind == 5 and m.payoffs:  # a payoff vector one entry too long
        key = pick(sorted(m.payoffs))
        vec = m.payoffs[key]
        return dataclasses.replace(m, payoffs={**m.payoffs, key: vec[:1] + vec})
    if kind == 6:  # labels with undeclared atoms, maybe at an unknown state
        lab = frozenset(pick([["p"], ["r"], [], ["q", "r"]]))
        return dataclasses.replace(m, labels={**m.labels, pick([s, "nowhere"]): lab})
    if kind in (7, 8):  # one guard, maybe foreign, gapped or misplaced
        key = (pick([a, a, "z"]), pick([s, s, "nowhere"]), pick([act, "inc", "go"]))
        return dataclasses.replace(m, guards={**m.guards, key: arith.parse_acf(pick(GUARDS))})
    if kind == 9:  # a discount out of range, or for an unknown agent
        d = pick([F(3, 2), F(-1), F(0), F(1), F(1, 3)])
        return dataclasses.replace(m, discounts={**m.discounts, pick([a, "z"]): d})
    if kind == 10:  # a discount missing
        return dataclasses.replace(m, discounts={k: d for k, d in m.discounts.items() if k != a})
    if kind == 11:
        return dataclasses.replace(m, value_semantics=pick(list(ValueSemantics)))
    # every available action guarded on the agent's own utility: a gap or not
    own = [t.replace("v_a", f"v_{a}") for t in GUARDS if "v_b" not in t]
    guards = {(a, s, x): arith.parse_acf(pick(own)) for x in m.available_of(a, s)}
    return dataclasses.replace(m, guards={**m.guards, **guards})


GUARDS = ["v_a > 0", "v_a <= 2", "v_b >= 1", "v_a < 0 | v_a > 1", "v_a + v_b > 0",
          "v_a + v_a = 1", "0 = 0", "v_b < 1/2"]


def corrupted_models(seed, count):
    rng = random.Random(seed)
    base = model_from_dict(two_agent_doc())
    for _ in range(count):
        m = base
        for _ in range(rng.randint(1, 4)):
            m = _corrupt(m, rng)
        yield m


def violations_digest(models):
    h = hashlib.sha256()
    for m in models:
        rows = [(v.kind, v.subject, v.message, v.witness) for v in validate(m)]
        h.update(repr(rows).encode())
    return h.hexdigest()


# recorded on the tuple-scanning validate that the set lookups replaced
VALIDATE_DIGEST = "df302aa66da2da86600cedcf52dc5aac224083bb09e98de20888e707f393954c"


class TestValidatePinned:
    def test_base_model_is_clean(self):
        assert validate(model_from_dict(two_agent_doc())) == []

    def test_population_covers_every_kind(self):
        seen = {v.kind for m in corrupted_models(7, 400) for v in validate(m)}
        assert seen == VIOLATION_KINDS

    def test_violations_are_pinned(self):
        assert violations_digest(corrupted_models(7, 400)) == VALIDATE_DIGEST


# --- rationals: the integer fast path agrees with Fraction ---------------------

_NUMERALS = st.lists(
    st.sampled_from(["-", "+", " ", "\t", "0", "1", "7", "12", "_", "1_000", "e", "e2",
                     ".", "/", "/0", "٣", "１", "²", "①", "Ⅻ", "x", "nan", "inf"]),
    max_size=6,
).map("".join)


# a written exponent, as Fraction reads one
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


@settings(max_examples=400, deadline=None)
@given(text=_NUMERALS)
@example(text="٣")  # an Arabic-Indic digit: accepted as 3 by both
@example(text="²")  # isdigit() but not isdecimal(): both refuse
@example(text="1" * 5000)  # past int()'s digit limit: both refuse
@example(text="1/0")
@example(text="1e4300")  # the largest exponent read
@example(text="1e-4301")  # past it: refused, like a numeral past int()'s limit
@example(text="-١e1_0001_0001_000")  # refused without expanding 10**100010001000
def test_rationals_agree_with_fraction(text):
    exponent = _EXPONENT.search(text)
    try:
        if exponent and abs(int(exponent[1])) > 4300:
            raise ValueError
        want = F(text)
    except (ValueError, ZeroDivisionError):
        want = None
    try:
        got = _rational(text, "here")
    except ParseError:
        got = None
    assert got == want
    if want is not None:
        assert type(got) is (int if want.denominator == 1 else F)


# --- region tables: compiled guards agree with literal evaluation -------------

_CONSTANTS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_REL = st.sampled_from(arith.RELS)
# atoms over v_a alone: against a constant either way round, v_a counted
# twice, and variable-free ones; then negation, conjunction and disjunction
_GUARDS = st.recursive(
    st.builds("v_a {} {}".format, _REL, _CONSTANTS)
    | st.builds("{} {} v_a".format, _CONSTANTS, _REL)
    | st.builds("v_a + v_a {} {}".format, _REL, _CONSTANTS)
    | st.builds("{} {} {}".format, _CONSTANTS, _REL, _CONSTANTS),
    lambda kids: st.builds("!({})".format, kids)
    | st.builds("({}) & ({})".format, kids, kids)
    | st.builds("({}) | ({})".format, kids, kids),
    max_leaves=4,
)


def _probes(guards) -> list:
    """Every place a guard's truth can change, found without the model: each
    constant c and c/2 (for v_a + v_a), the midpoints between consecutive
    ones, and a point beyond each extreme."""
    cuts = sorted({q for g in guards if g is not None
                   for a in arith.acf_atoms(arith.parse_acf(g))
                   for x in a.lhs.summands + a.rhs.summands if isinstance(x, F)
                   for q in (x, x / 2)})
    mids = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
    return cuts + mids + ([cuts[0] - 1, cuts[-1] + 1] if cuts else [F(0)])


@settings(max_examples=300, deadline=None)
@given(guards=st.lists(st.none() | _GUARDS, min_size=3, max_size=3),
       extra=st.lists(st.integers(-7, 7) | st.fractions(-7, 7, max_denominator=9), max_size=6))
@example(guards=["v_a = 1 | v_a < -1/2", "!(v_a + v_a > 3/2)", "1 < 2 & !(0 = 1)"], extra=[])
@example(guards=["v_a >= 0", None, "2 < 1"], extra=[0, -1, F(1, 2)])
def test_region_tables_agree_with_literal_guards(guards, extra):
    doc = tiny_doc()
    doc["actions"] = {"a": ["x", "y", "z"]}
    doc["guards"] = [{"agent": "a", "state": "s", "action": act, "formula": g}
                     for act, g in zip("xyz", guards) if g is not None]
    m = model_from_dict(doc)
    for u in _probes(guards) + extra:
        want = m.enabled_actions("a", "s", u)
        assert enabled_pools(m, Configuration("s", (u,))) == (want,)
        assert enabled_pools(m, Configuration("s", (arith.exact(u),))) == (want,)


# --- scale: the model layer is linear in the model's size ----------------------


def ring_doc(n):
    """Turn-based ring r0..r{n-1} in the row dialect: A may stay or advance
    everywhere but at two states owned by B; r0 is labelled ``goal``."""
    owner_b = {n // 2, 3 * n // 4}
    avail, trans, pays = {}, [], []
    for i in range(n):
        s, nxt = f"r{i}", f"r{(i + 1) % n}"
        moves = {"A": ["stay", "go"], "B": ["wait"]}
        if i in owner_b:
            moves = {"A": ["wait"], "B": ["stay", "go"]}
        avail[s] = moves
        for a_act in moves["A"]:
            for b_act in moves["B"]:
                prof = {"A": a_act, "B": b_act}
                trans.append({"from": s, "profile": prof,
                              "to": nxt if "go" in (a_act, b_act) else s})
                pays.append({"state": s, "profile": prof, "values": {"A": "0", "B": "0"}})
    return {
        "agents": ["A", "B"], "states": [f"r{i}" for i in reversed(range(n))],
        "actions": {"A": ["go", "stay", "wait"], "B": ["go", "stay", "wait"]},
        "available": avail, "transitions": trans, "payoffs": pays,
        "labels": {"r0": ["goal"]}, "guards": [], "value_semantics": "total",
    }


def test_a_large_ring_loads_validates_and_checks_in_linear_time():
    doc = ring_doc(10_000)
    tracer = sys.gettrace()  # a coverage collector would slow the timed calls
    sys.settrace(None)
    try:
        start = time.perf_counter()
        m = model_from_dict(doc)
        assert validate(m) == []
        goal = check_atl(m, bind_formula(m, parse_formula("goal")))
        elapsed = time.perf_counter() - start
    finally:
        sys.settrace(tracer)
    assert goal == {"r0"}
    assert elapsed < 3.0, f"{elapsed:.2f} s for 10,000 states"


class TestDiscountKinds:
    def test_a_missing_discount_constructs_and_is_reported(self):
        m = dataclasses.replace(builtin_fig1(), discounts={"I": F(1)})
        assert (m.discount_kinds, m.step_indexed) == (("one", "step"), True)
        assert [v.kind for v in validate(m)] == ["missing-discount"]

    @pytest.mark.parametrize("discounts", [{"I": F(1), "II": F(0)}, {"I": F(1, 2), "II": F(1)}])
    def test_the_engines_write_nothing_into_a_model(self, discounts):
        # anything written into a model's __dict__ after construction makes
        # every later attribute read on it slower (CPython 3.11)
        m = dataclasses.replace(builtin_fig1(), discounts=discounts)
        before = set(vars(m))
        c0 = initial_config(m, "s1")
        f = bind_formula(m, parse_formula("<<I>> G (p1 | v_I > 0)"))
        check_bounded(m, c0, f, budget=Budget(3))
        enumerate_oracle(m, c0, f, depth=3)
        explore(m, c0, 3)
        assert set(vars(m)) == before
