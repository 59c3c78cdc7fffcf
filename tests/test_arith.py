from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcgmp import arith
from gcgmp.arith import (
    ACF_TRUE,
    And,
    Atom,
    AtomicConstraint,
    Not,
    Or,
    PathConstraint,
    Term,
    UtilityVar,
    eval_acf,
    eval_term,
    format_acf,
    format_term,
    normalize_atom,
    parse_acf,
    term,
    validity_counterexample,
)
from gcgmp.errors import MultiVariable, ParseError, UnboundVariable
from gcgmp.logic import Apc, format_formula, parse_formula


def atom(s: str) -> AtomicConstraint:
    f = parse_acf(s)
    assert isinstance(f, Atom)
    return f.atom


class TestTerms:
    def test_eval_sum(self):
        t = term("I", 3)
        assert eval_term(t, {"I": F(2)}) == F(5)

    def test_eval_repeated_variable(self):
        t = term("I", "I", F(1, 2))
        assert eval_term(t, {"I": F(3, 2)}) == F(7, 2)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_term(term("I"), {"II": F(0)})

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            Term(())

    def test_format(self):
        assert format_term(term("I", -2, F(1, 3))) == "v_I + -2 + 1/3"


class TestEvalAcf:
    def test_atom_relations(self):
        v = {"I": F(1)}
        for rel, expect in [("<", True), ("<=", True), ("=", False), (">=", False), (">", False)]:
            a = AtomicConstraint(term("I"), rel, term(2))
            assert eval_acf(Atom(a), v) is expect

    def test_boolean_connectives(self):
        v = {"I": F(0)}
        t = Atom(atom("v_I = 0"))
        f = Atom(atom("v_I > 0"))
        assert eval_acf(Not(f), v)
        assert eval_acf(And(t, Not(f)), v)
        assert not eval_acf(And(t, f), v)
        assert eval_acf(Or(f, t), v)
        assert not eval_acf(Or(f, f), v)

    def test_acf_true(self):
        assert eval_acf(ACF_TRUE, {})


class TestNormalize:
    def test_plain_sum(self):
        assert normalize_atom(atom("v_I + v_I >= 7")) == ("sum", {"I": 2}, ">=", F(7))

    def test_move_constants(self):
        assert normalize_atom(atom("v_I + 1 < v_II + 3")) == ("mixed", None)
        assert normalize_atom(atom("v_I + 1 < 3")) == ("sum", {"I": 1}, "<", F(2))

    def test_flip_when_variable_on_right(self):
        assert normalize_atom(atom("3 >= v_I + v_I")) == ("sum", {"I": 2}, "<=", F(3))

    def test_same_variable_both_sides_cancels(self):
        assert normalize_atom(atom("v_I + 1 = v_I + 1")) == ("const", True)
        assert normalize_atom(atom("v_I > v_I")) == ("const", False)

    def test_constant_atom(self):
        assert normalize_atom(atom("2 >= 1")) == ("const", True)
        assert normalize_atom(atom("1/2 > 2/3")) == ("const", False)

    def test_multi_agent_same_side_is_sum(self):
        assert normalize_atom(atom("v_I + v_II > 0")) == (
            "sum",
            {"I": 1, "II": 1},
            ">",
            F(0),
        )


class TestValidity:
    def test_sign_cover_is_valid(self):
        assert validity_counterexample(parse_acf("v_I >= 0 | v_I < 0")) is None

    def test_strict_signs_miss_zero(self):
        f = parse_acf("v_I > 0 | v_I < 0")
        assert validity_counterexample(f) == F(0)

    def test_counterexample_falsifies(self):
        f = parse_acf("v_I < 5 | v_I > 5")
        cx = validity_counterexample(f)
        assert cx == F(5)

    def test_needs_interior_point(self):
        # holds at every threshold and outside, fails strictly between 0 and 1
        f = parse_acf("v_I <= 0 | v_I >= 1 | v_I = 0 | v_I = 1")
        cx = validity_counterexample(f)
        assert cx is not None and F(0) < cx < F(1)

    def test_scaled_thresholds(self):
        # 2x >= 7 fails below 7/2; threshold is the normalized constant's ratio
        f = parse_acf("v_I + v_I >= 7 | v_I < 7/2")
        assert validity_counterexample(f) is None
        g = parse_acf("v_I + v_I >= 7 | v_I < 3")
        assert validity_counterexample(g) is not None

    def test_variable_free(self):
        assert validity_counterexample(parse_acf("0 = 0")) is None
        assert validity_counterexample(parse_acf("1 > 2")) is not None

    def test_two_variables_rejected(self):
        with pytest.raises(MultiVariable):
            validity_counterexample(parse_acf("v_I > 0 | v_II < 1"))

    def test_tautology_from_negation(self):
        assert validity_counterexample(parse_acf("!(v_I > 3 & v_I < 2)")) is None


class TestParsing:
    def test_rationals(self):
        f = parse_formula("w_I >= -3/2")
        assert f == Apc(PathConstraint("I", ">=", F(-3, 2)))

    def test_precedence_and_binds_tighter(self):
        f = parse_acf("v_I > 0 | v_I < 0 & v_I = 1")
        assert isinstance(f, Or)
        assert isinstance(f.right, And)

    def test_parens_override(self):
        f = parse_acf("(v_I > 0 | v_I < 0) & v_I = 1")
        assert isinstance(f, And)
        assert isinstance(f.left, Or)

    def test_negation(self):
        f = parse_acf("!(v_I = 0)")
        assert f == Not(Atom(atom("v_I = 0")))

    def test_apc_round_trip(self):
        for s in ["w_I > 0", "w_a <= 5/3", "w_II = -2"]:
            assert format_formula(parse_formula(s)) == s

    def test_error_position(self):
        with pytest.raises(ParseError) as e:
            parse_acf("v_I >")
        assert "end of input" in str(e.value)
        with pytest.raises(ParseError):
            parse_acf("v_I > 0 extra")
        with pytest.raises(ParseError):
            parse_formula("w_I > v_I")  # a play value compares with a number

    def test_dangling_minus(self):
        with pytest.raises(ParseError):
            parse_acf("v_I > -")

    def test_bare_prefix_is_identifier_not_variable(self):
        with pytest.raises(ParseError):
            parse_acf("v_ > 0")

    @pytest.mark.parametrize(
        "parse, text, col",
        [(parse_acf, "v_a >= 1/0", 9), (parse_acf, "2/00 * v_a > 1", 2),
         (parse_formula, "w_I >= -3/0", 10)],
    )
    def test_zero_denominator(self, parse, text, col):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert "zero denominator" in str(e.value)
        assert e.value.col == col


# --- properties ---------------------------------------------------------

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=8)
agents = st.sampled_from(["I", "II"])


@st.composite
def terms(draw, agent_pool=("I",)):
    n = draw(st.integers(min_value=1, max_value=4))
    parts = []
    for _ in range(n):
        if draw(st.booleans()):
            parts.append(UtilityVar(draw(st.sampled_from(agent_pool))))
        else:
            parts.append(draw(rationals))
    return Term(tuple(parts))


def acfs(agent_pool=("I",)):
    atoms = st.builds(
        lambda l, rel, r: Atom(AtomicConstraint(l, rel, r)),
        terms(agent_pool),
        st.sampled_from(arith.RELS),
        terms(agent_pool),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)
        ),
        max_leaves=6,
    )


@given(terms(("I", "II")), st.fractions(max_denominator=8), st.fractions(max_denominator=8))
def test_term_eval_additive_in_each_variable(t, x, y):
    base = eval_term(t, {"I": x, "II": y})
    shifted = eval_term(t, {"I": x + 1, "II": y})
    n_i = sum(1 for s in t.summands if s == UtilityVar("I"))
    assert shifted - base == n_i


@given(acfs(("I", "II")), rationals, rationals)
def test_de_morgan(f, x, y):
    v = {"I": x, "II": y}
    lhs = Not(And(f, Not(f)))
    assert eval_acf(lhs, v) is True
    assert eval_acf(Or(f, Not(f)), v) is True
    assert eval_acf(And(f, Not(f)), v) is False


@given(acfs())
@settings(max_examples=200)
def test_validity_decision_matches_sampling(f):
    cx = validity_counterexample(f)
    if cx is not None:
        assert eval_acf(f, {"I": cx}) is False
    else:
        for p in [F(-17), F(-1), F(0), F(1, 3), F(1), F(7, 2), F(23)]:
            assert eval_acf(f, {"I": p}) is True


@given(acfs(("I", "II")))
def test_format_parse_round_trip(f):
    assert parse_acf(format_acf(f)) == f


@given(
    st.sampled_from(arith.RELS),
    st.integers(min_value=1, max_value=3),
    st.fractions(min_value=-5, max_value=12, max_denominator=4),
    st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4), min_size=1, max_size=12),
)
def test_monotone_inputs_flip_sum_atom_at_most_twice(rel, count, d, increments):
    # along a non-decreasing utility trajectory the truth of n*v rel d
    # changes at most twice (once for inequalities, twice for equality)
    a = AtomicConstraint(Term(tuple(UtilityVar("I") for _ in range(count))), rel, term(d))
    x = F(-6)
    truths = [eval_acf(Atom(a), {"I": x})]
    for inc in increments:
        x += inc
        truths.append(eval_acf(Atom(a), {"I": x}))
    flips = sum(1 for p, q in zip(truths, truths[1:]) if p != q)
    assert flips <= (2 if rel == "=" else 1)
