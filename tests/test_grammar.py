"""The guard and formula grammars, pinned text by text.

``PARSE_DIGEST`` hashes what both parsers make of a seeded population of
texts: trees printed with ``repr``, refusals as ``type: message`` (the
message carries the column).  The boundary tests pin the nesting limit
(``arith.MAX_NESTING``) for every construct that counts one level, in the
parsers and through the command line.
"""

import functools
import hashlib
import json
import random
import re

import pytest

from gcgmp.arith import MAX_NESTING, parse_acf
from gcgmp.cli import main
from gcgmp.errors import ParseError
from gcgmp.logic import parse_formula

_FORMULA_LEAVES = ["p1", "q", "true", "false", "v_a + 1 <= 3/2", "(w_b > -2)",
                   "2 = v_a", "w_a>=0", "X", "1/0 < v_a"]
_GUARD_LEAVES = ["v_a >= 1", "v_a + v_a < 2/3", "0 = 0", "1/2 > v_b", "v_a+-1=v_a", "v_a"]
_TOKENS = ["(", ")", "!", "&", "|", "<<", ">>", ",", "X", "G", "F", "U", "true", "false",
           "p", "v_a", "w_a", "1", "-2/3", "<", "<=", "=", ">=", ">", "+", "1/0", "-", "/",
           "@", "v_", "w_", "a"]


def _formula(r: random.Random, depth: int) -> str:
    """A text from a walk over the formula grammar, mostly well formed."""
    pick = r.randrange(9) if depth > 0 else 0
    sep = r.choice([" ", " ", ""])
    if pick == 0:
        return r.choice(_FORMULA_LEAVES)
    if pick <= 2:
        return r.choice(["!", "X ", "G ", "F "]) + sep + _formula(r, depth - 1)
    if pick <= 5:
        op = r.choice(["&", "|", "U"])
        return f"{_formula(r, depth - 1)}{sep}{op}{sep}{_formula(r, depth - 1)}"
    if pick <= 6:
        return f"({sep}{_formula(r, depth - 1)}{sep})"
    coalition = r.choice(["", "a", "a,b", "1", "a b", "a,"])
    return f"<<{coalition}>>{sep}{_formula(r, depth - 1)}"


def _guard(r: random.Random, depth: int) -> str:
    """A text from a walk over the guard grammar, mostly well formed."""
    pick = r.randrange(6) if depth > 0 else 0
    sep = r.choice([" ", ""])
    if pick == 0:
        return r.choice(_GUARD_LEAVES)
    if pick == 1:
        return "!" + sep + _guard(r, depth - 1)
    if pick <= 4:
        op = r.choice(["&", "|"])
        return f"{_guard(r, depth - 1)}{sep}{op}{sep}{_guard(r, depth - 1)}"
    return f"({sep}{_guard(r, depth - 1)}{sep})"


def _mutate(r: random.Random, text: str) -> str:
    """``text`` with one character deleted, replaced or inserted."""
    i = r.randrange(len(text) + 1)
    ch = r.choice("()!&|<>,=+-/ 0v_wXU")
    how = r.randrange(3)
    if how == 0:
        return text[:i] + text[i + 1:]
    if how == 1:
        return text[:i] + ch + text[i + 1:]
    return text[:i] + ch + text[i:]


# (name, text nested n levels deep, column of the refusal at n = MAX_NESTING + 1)
FORMULA_NESTINGS = [
    ("negation", lambda n: "!" * n + "p1", lambda n: n),
    ("next", lambda n: "X " * n + "p1", lambda n: 2 * n),
    ("always", lambda n: "G " * n + "p1", lambda n: 2 * n),
    ("eventually", lambda n: "F " * n + "p1", lambda n: 2 * n),
    ("parenthesis", lambda n: "(" * n + "p1" + ")" * n, lambda n: n),
    ("and", lambda n: "p1" + " & p1" * n, lambda n: 5 * n),
    ("or", lambda n: "p1" + " | p1" * n, lambda n: 5 * n),
    ("until", lambda n: "p1" + " U p1" * n, lambda n: 5 * n),
    ("coalition", lambda n: "<<I>>" * n + "p1", lambda n: 5 * n - 3),
    ("mixed", lambda n: "!(" * (n // 2) + "X " * (n % 2) + "p1" + ")" * (n // 2),
     lambda n: n + 1),  # n odd: the last level is the X
]

GUARD_NESTINGS = [
    ("negation", lambda n: "!" * n + "v_a >= 0", lambda n: n),
    ("parenthesis", lambda n: "(" * n + "v_a >= 0" + ")" * n, lambda n: n),
    ("and", lambda n: "v_a >= 0" + " & 0 = 0" * n, lambda n: 8 * n + 3),
    ("or", lambda n: "v_a >= 0" + " | 0 = 0" * n, lambda n: 8 * n + 3),
    ("mixed", lambda n: "!(" * (n // 2) + "!" * (n % 2) + "v_a >= 0" + ")" * (n // 2),
     lambda n: n),
]


@functools.lru_cache(maxsize=1)
def parse_population(seed: int = 27):
    """Every (parser, text) pair the digest covers, about 20,000 of them."""
    r = random.Random(seed)
    out = []
    for _ in range(7000):
        out.append(("formula", _formula(r, r.randrange(1, 6))))
    for _ in range(4000):
        out.append(("guard", _guard(r, r.randrange(1, 6))))
    for _ in range(2000):
        out.append(("formula", _mutate(r, _formula(r, r.randrange(1, 5)))))
    for _ in range(2000):
        out.append(("guard", _mutate(r, _guard(r, r.randrange(1, 5)))))
    for _ in range(2500):
        text = r.choice(["", " "]).join(r.choice(_TOKENS) for _ in range(r.randrange(11)))
        out.append(("formula", text))
        out.append(("guard", text))
    for n in range(MAX_NESTING - 2, MAX_NESTING + 3):
        out.extend(("formula", build(n)) for _, build, _ in FORMULA_NESTINGS)
        out.extend(("guard", build(n)) for _, build, _ in GUARD_NESTINGS)
    return tuple(out)


def _sorted_set(match: re.Match) -> str:
    return "frozenset({" + ", ".join(sorted(match[1].split(", "))) + "})"


def outcome(kind: str, text: str) -> str:
    """The tree's ``repr``, coalitions listed in order whatever the hash
    seed; or the refusal."""
    try:
        tree = (parse_formula if kind == "formula" else parse_acf)(text)
        return re.sub(r"frozenset\(\{([^}]*)\}\)", _sorted_set, repr(tree))
    except ParseError as e:
        return f"{type(e).__name__}: {e}"


# recorded on the parsers that count nesting inside every grammar function
PARSE_DIGEST = "865143cb7c18cb2a175c9a45098fff58aeb64259b43b5cf6fa359ac37cd80d04"


@functools.lru_cache(maxsize=1)
def population_outcomes():
    return tuple((kind, text, outcome(kind, text)) for kind, text in parse_population())


def test_parse_outcomes_are_pinned():
    rows = population_outcomes()
    assert len(rows) > 20_000
    h = hashlib.sha256()
    for kind, text, result in rows:
        h.update(f"{kind}\0{text}\0{result}\n".encode())
    assert h.hexdigest() == PARSE_DIGEST


def test_the_population_reaches_every_outcome():
    outcomes = [result for _, _, result in population_outcomes()]
    refused = [o for o in outcomes if o.startswith("ParseError")]
    assert 0.2 < len(refused) / len(outcomes) < 0.8
    for message in ("nested more than", "expected comparison", "unexpected end of input",
                    "trailing input", "bad coalition member", "misplaced", "zero denominator",
                    "dangling '-'", "bad rational", "unexpected character"):
        assert any(message in o for o in refused), message


def _refusal(parse, text: str) -> ParseError:
    with pytest.raises(ParseError) as ex:
        parse(text)
    return ex.value


class TestNestingLimit:
    @pytest.mark.parametrize("name, build, col", FORMULA_NESTINGS,
                             ids=[c[0] for c in FORMULA_NESTINGS])
    def test_formula_at_the_limit(self, name, build, col):
        parse_formula(build(MAX_NESTING))
        e = _refusal(parse_formula, build(MAX_NESTING + 1))
        assert str(e).startswith(f"nested more than {MAX_NESTING} levels deep")
        assert e.col == col(MAX_NESTING + 1)

    @pytest.mark.parametrize("name, build, col", GUARD_NESTINGS,
                             ids=[c[0] for c in GUARD_NESTINGS])
    def test_guard_at_the_limit(self, name, build, col):
        parse_acf(build(MAX_NESTING))
        e = _refusal(parse_acf, build(MAX_NESTING + 1))
        assert str(e).startswith(f"nested more than {MAX_NESTING} levels deep")
        assert e.col == col(MAX_NESTING + 1)

    @pytest.mark.parametrize("parse, part, op", [
        (parse_formula, "(!X p1 U <<I>>G (p1 | p2 & p1))", " & "),
        (parse_formula, "(<<I>>(p1 U !p2))", " | "),
        (parse_acf, "(!(v_a >= 0) & (0 = 0 | !!v_a < 1))", " | "),
        (parse_acf, "!(v_a >= 0 | 0 = 0)", " & "),
    ])
    def test_a_level_ends_with_its_construct(self, parse, part, op):
        # ninety siblings, each a few levels deep: only the chain's levels add up
        parse(op.join([part] * 90))

    def test_the_limit_is_one_hundred(self):
        assert MAX_NESTING == 100


def _cli(capsys, *argv):
    code = main(list(argv))  # an escaping exception fails the test
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if out.strip():
        json.loads(out)
    return code, err


def _guarded_model(tmp_path, guard: str) -> str:
    doc = {
        "agents": ["a"],
        "states": ["s"],
        "actions": {"a": ["inc", "skip"]},
        "transitions": {"s": {"inc": "s", "skip": "s"}},
        "payoffs": {"s": {"inc": [1], "skip": [0]}},
        "guards": {"a": {"s": {"inc": guard}}},
        "atoms": [],
        "labels": {},
        "value_semantics": "total",
    }
    path = tmp_path / "guarded.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestNestingLimitOnTheCommandLine:
    @pytest.mark.parametrize("name, build, col", FORMULA_NESTINGS,
                             ids=[c[0] for c in FORMULA_NESTINGS])
    def test_formula(self, capsys, name, build, col):
        _cli(capsys, "check", "builtin:fig1", "--depth", "2", "--", build(MAX_NESTING))
        code, err = _cli(capsys, "check", "builtin:fig1", "--", build(MAX_NESTING + 1))
        assert code == 2
        assert err.count("\n") == 1 and f"nested more than {MAX_NESTING} levels deep" in err

    @pytest.mark.parametrize("name, build, col", GUARD_NESTINGS,
                             ids=[c[0] for c in GUARD_NESTINGS])
    def test_guard(self, capsys, tmp_path, name, build, col):
        _cli(capsys, "validate", _guarded_model(tmp_path, build(MAX_NESTING)))
        code, err = _cli(capsys, "validate", _guarded_model(tmp_path, build(MAX_NESTING + 1)))
        assert code == 2
        assert err.count("\n") == 1 and f"nested more than {MAX_NESTING} levels deep" in err
