from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcgmp import logic as lg
from gcgmp.arith import AtomicConstraint, PathConstraint, term
from gcgmp.errors import FragmentError, ParseError, UnknownAgent
from gcgmp.logic import (
    TRUE,
    And,
    Apc,
    Always,
    Constraint,
    Coop,
    FragmentTag,
    Next,
    Not,
    Prop,
    Until,
    bind_formula,
    classify,
    constraint_atoms,
    format_formula,
    formula_agents,
    formula_props,
    is_state_formula,
    parse_formula,
)
from gcgmp.model import builtin_fig1


def con(s):
    f = parse_formula(s)
    assert isinstance(f, Constraint)
    return f


class TestParsing:
    def test_next(self):
        assert parse_formula("<<I>>X p1") == Coop(frozenset({"I"}), Next(Prop("p1")))

    def test_coalition_of_two(self):
        f = parse_formula("<<I,II>>G (p1 & p2)")
        assert f == Coop(
            frozenset({"I", "II"}), Always(And(Prop("p1"), Prop("p2")))
        )

    def test_empty_coalition(self):
        assert parse_formula("<<>>X p1") == Coop(frozenset(), Next(Prop("p1")))

    def test_numeric_agent_names(self):
        assert parse_formula("<<1>>F halt") == Coop(
            frozenset({"1"}), Until(TRUE, Prop("halt"))
        )

    def test_eventually_is_until_true(self):
        assert parse_formula("F p") == Until(TRUE, Prop("p"))

    def test_false_is_negated_true(self):
        assert parse_formula("false") == Not(TRUE)

    def test_or_desugars(self):
        assert parse_formula("p | q") == Not(And(Not(Prop("p")), Not(Prop("q"))))

    def test_until_binds_tighter_than_and(self):
        f = parse_formula("p & q U r")
        assert f == And(Prop("p"), Until(Prop("q"), Prop("r")))

    def test_until_right_associative(self):
        f = parse_formula("p U q U r")
        assert f == Until(Prop("p"), Until(Prop("q"), Prop("r")))

    def test_negation_inside_until(self):
        assert parse_formula("!p U q") == Until(Not(Prop("p")), Prop("q"))

    def test_coalition_swallows_the_rest(self):
        f = parse_formula("<<I>>G p & q")
        assert f == Coop(frozenset({"I"}), And(Always(Prop("p")), Prop("q")))

    def test_conjoining_outside_a_modality_needs_parens(self):
        f = parse_formula("(<<I>>G p) & q")
        assert f == And(Coop(frozenset({"I"}), Always(Prop("p"))), Prop("q"))

    def test_until_body_binds_without_parens(self):
        f = parse_formula("<<I>>(p U q)")
        assert f == Coop(frozenset({"I"}), Until(Prop("p"), Prop("q")))
        assert parse_formula("<<I>>p U q") == f
        assert is_state_formula(f)
        # a parenthesised modality leaves the U outside: a path formula
        g = parse_formula("(<<I>>p) U q")
        assert g == Until(Coop(frozenset({"I"}), Prop("p")), Prop("q"))
        assert not is_state_formula(g)

    def test_constraint_atom_inline(self):
        f = parse_formula("v_I > 0 & p1")
        assert f == And(
            Constraint(AtomicConstraint(term("I"), ">", term(0))), Prop("p1")
        )

    def test_constraint_atom_number_first(self):
        assert con("3 < v_I + v_II").atom.rel == "<"

    def test_play_value_atom(self):
        f = parse_formula("<<I>>w_I >= 5")
        assert f == Coop(frozenset({"I"}), Apc(PathConstraint("I", ">=", F(5))))

    def test_reserved_words_rejected_as_names(self):
        for bad in ["U", "X & p", "<<I>>G U"]:
            with pytest.raises(ParseError):
                parse_formula(bad)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_formula("p q")

    def test_unclosed_coalition(self):
        with pytest.raises(ParseError):
            parse_formula("<<I p")


class TestStateLevel:
    def test_temporal_is_path_level(self):
        assert not is_state_formula(parse_formula("X p"))
        assert not is_state_formula(parse_formula("w_I > 0"))

    def test_modality_closes_path(self):
        assert is_state_formula(parse_formula("<<I>>X p"))
        assert is_state_formula(parse_formula("!(p & <<I>>G q)"))


class TestClassify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p1", FragmentTag.ATL_PURE),
            ("<<I>>X p1", FragmentTag.ATL_PURE),
            ("<<I>>G p1", FragmentTag.ATL_PURE),
            ("<<I>>F p1", FragmentTag.ATL_PURE),
            ("<<I,II>>(p1 U (p2 & p3))", FragmentTag.ATL_PURE),
            ("<<I>>G (p1 & <<II>>X p2)", FragmentTag.ATL_PURE),
            ("v_I > 0", FragmentTag.NGL),
            ("<<I>>G (p1 | v_I > 0)", FragmentTag.NGL),
            ("<<I>>(p1 U v_I + v_II > 3)", FragmentTag.NGL),
            ("<<I>>w_I >= 5", FragmentTag.NGL_STAR),
            ("<<I>>X X p1", FragmentTag.NGL_STAR),
            ("<<I>>!G p1", FragmentTag.NGL_STAR),
            ("<<I>>(G p1 & F p2)", FragmentTag.NGL_STAR),
            ("<<I>>p1", FragmentTag.NGL_STAR),
            ("<<I>>(X p1 U p2)", FragmentTag.NGL_STAR),
            ("<<I>>X (<<II>>w_I >= 5)", FragmentTag.NGL_STAR),
            ("!(<<I>>G (<<II>>X v_I > 0))", FragmentTag.NGL),
            ("(v_I > 0) & <<I>>(X p1 & G p2)", FragmentTag.NGL_STAR),
            ("<<I>>G ((<<II>>(p1 U p2)) & v_II > 1)", FragmentTag.NGL),
        ],
    )
    def test_examples(self, text, expected):
        assert classify(parse_formula(text)) is expected

    def test_path_formula_rejected(self):
        with pytest.raises(FragmentError):
            classify(parse_formula("X p"))

    def test_g_false_sugar_still_atl(self):
        assert classify(parse_formula("<<I>>G false")) is FragmentTag.ATL_PURE


class TestStrategyClasses:
    def test_parse_and_short_names(self):
        for name in ("ml-state", "ml-config", "pr-state", "pr-config"):
            assert lg.StrategyClassSpec.parse(name).short == name

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            lg.StrategyClassSpec.parse("clairvoyant")

    def test_default_pieces(self):
        spec = lg.ML_CONFIG
        assert spec.memory is lg.StrategyMemory.MEMORYLESS
        assert spec.observation is lg.StrategyObservation.CONFIGURATION_BASED


class TestQueries:
    def test_constraint_atoms_in_order(self):
        f = parse_formula("v_I > 0 & <<I>>(v_I < 5 U v_II = 2)")
        assert [a.rel for a in constraint_atoms(f)] == [">", "<", "="]
        f = parse_formula("!(v_I > 0) & <<I>>X ((<<II>>G v_II < 5) & v_I = 2)")
        assert [a.rel for a in constraint_atoms(f)] == [">", "<", "="]

    def test_props_inside_nested_modalities(self):
        f = parse_formula("(<<I>>X (<<II>>G !p2)) & p3")
        assert formula_props(f) == {"p2", "p3"}

    def test_agents(self):
        f = parse_formula("<<I>>(p U v_II > 0) & <<>>w_III = 1")
        assert formula_agents(f) == {"I", "II", "III"}


class TestBinding:
    def test_good(self):
        m = builtin_fig1()
        f = parse_formula("<<I>>G (p1 | v_I > 0)")
        assert bind_formula(m, f) is f

    def test_undeclared_prop_is_fine(self):
        # an atom that labels no state is just false everywhere
        m = builtin_fig1()
        f = parse_formula("<<I>>X p9")
        assert bind_formula(m, f) is f

    def test_unknown_coalition_member(self):
        with pytest.raises(UnknownAgent):
            bind_formula(builtin_fig1(), parse_formula("<<III>>X p1"))

    def test_unknown_utility_variable(self):
        with pytest.raises(UnknownAgent):
            bind_formula(builtin_fig1(), parse_formula("v_Z > 0"))

    def test_unknown_play_value_agent(self):
        with pytest.raises(UnknownAgent):
            bind_formula(builtin_fig1(), parse_formula("<<I>>w_Z > 0"))


class TestFormatting:
    @pytest.mark.parametrize(
        "text,printed",
        [
            ("p | q", "!(!p & !q)"),
            ("F p", "F p"),
            ("true U p", "F p"),
            ("<<I>>X p1", "<<I>>X p1"),
            ("<<II,I>>G p", "<<I,II>>G p"),
            ("<<I>>(p U q)", "<<I>>p U q"),
            ("p & q U r", "p & q U r"),
            ("(p & q) U r", "(p & q) U r"),
            ("!(v_I > 0)", "!(v_I > 0)"),
            ("v_I > 0", "v_I > 0"),
            ("<<I>>w_I >= 5", "<<I>>w_I >= 5"),
            ("(<<I>>G p) & q", "(<<I>>G p) & q"),
            ("<<I>>G (v_I + v_II = 1/2)", "<<I>>G (v_I + v_II = 1/2)"),
        ],
    )
    def test_examples(self, text, printed):
        assert format_formula(parse_formula(text)) == printed


# --- random round trips ---------------------------------------------------

_atoms = st.one_of(
    st.sampled_from([Prop("p"), Prop("q"), Prop("halt"), TRUE]),
    st.builds(
        lambda rel, c: Constraint(AtomicConstraint(term("I"), rel, term(c))),
        st.sampled_from(("<", "<=", "=", ">=", ">")),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    ),
    st.builds(
        lambda rel, c: Apc(PathConstraint("II", rel, c)),
        st.sampled_from(("<", "<=", "=", ">=", ">")),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    ),
)

_formulas = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Next, sub),
        st.builds(Always, sub),
        st.builds(Until, sub, sub),
        st.builds(
            lambda ags, body: Coop(frozenset(ags), body),
            st.lists(st.sampled_from(["I", "II", "1"]), max_size=2),
            sub,
        ),
    ),
    max_leaves=8,
)


@given(_formulas)
def test_format_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


@given(_formulas)
def test_formatting_is_stable(f):
    once = format_formula(f)
    assert format_formula(parse_formula(once)) == once
