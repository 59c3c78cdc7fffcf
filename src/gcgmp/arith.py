"""Terms, arithmetic constraints and their evaluation.

The vocabulary here is shared by the whole package:

* a *term* is a non-empty sum of utility variables ``v_<agent>`` and rational
  constants;
* an *atomic constraint* compares two terms with one of ``< <= = >= >``;
* a *constraint formula* is a Boolean combination of atomic constraints
  (negation, conjunction, with disjunction kept as first-class sugar);
* a *path constraint* compares the long-run value ``w_<agent>`` of a play
  against a rational bound.

All arithmetic is on exact rationals: ``int`` when integral, else
`fractions.Fraction` (see ``exact``); nothing here ever touches floats.  The
grammar, shared with model files and the strategy-logic parser, is::

    term     := atom ('+' atom)*
    atom     := VAR | RATIONAL
    acf      := or ;  or := and ('|' and)* ;  and := unary ('&' unary)*
    unary    := '!' unary | '(' or ')' | term REL term
    apc      := WVAR REL RATIONAL
    VAR      := 'v_' IDENT        WVAR := 'w_' IDENT
    RATIONAL := ['-'] DIGITS ['/' DIGITS]
    REL      := '<' | '<=' | '=' | '>=' | '>'

``&`` binds tighter than ``|`` and ``!`` binds tightest.  Identifiers that
begin with ``v_`` or ``w_`` are reserved for variables.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import MultiVariable, ParseError, UnboundVariable, echo

RELS = ("<", "<=", "=", ">=", ">")

_REL_FN = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}

_REL_FLIP = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}


@dataclass(frozen=True)
class UtilityVar:
    """The running utility of one agent, written ``v_<agent>``."""

    agent: str


Summand = Union[UtilityVar, Fraction]


@dataclass(frozen=True)
class Term:
    """A sum of utility variables and rational constants (at least one summand)."""

    summands: tuple[Summand, ...]

    def __post_init__(self):
        if not self.summands:
            raise ValueError("a term needs at least one summand")

    def variables(self) -> set[str]:
        return {s.agent for s in self.summands if isinstance(s, UtilityVar)}


def term(*parts) -> Term:
    """Convenience builder: ints/Fractions become constants, strings variables."""
    summands = []
    for p in parts:
        if isinstance(p, UtilityVar):
            summands.append(p)
        elif isinstance(p, str):
            summands.append(UtilityVar(p))
        else:
            summands.append(Fraction(p))
    return Term(tuple(summands))


@dataclass(frozen=True)
class AtomicConstraint:
    lhs: Term
    rel: str
    rhs: Term

    def __post_init__(self):
        if self.rel not in RELS:
            raise ValueError(f"unknown relation {self.rel!r}")

    def variables(self) -> set[str]:
        return self.lhs.variables() | self.rhs.variables()


# --- constraint formulas ----------------------------------------------------


@dataclass(frozen=True)
class Atom:
    atom: AtomicConstraint


@dataclass(frozen=True)
class Not:
    sub: "ConstraintFormula"


@dataclass(frozen=True)
class And:
    left: "ConstraintFormula"
    right: "ConstraintFormula"


@dataclass(frozen=True)
class Or:
    """Stored as written; semantically ``!(!left & !right)``."""

    left: "ConstraintFormula"
    right: "ConstraintFormula"


ConstraintFormula = Union[Atom, Not, And, Or]

#: The always-true guard: 0 = 0.  Variable-free, hence state-based.
ACF_TRUE: ConstraintFormula = Atom(AtomicConstraint(term(0), "=", term(0)))


@dataclass(frozen=True)
class PathConstraint:
    """``w_<agent> REL bound`` — constrains the value of a whole play."""

    agent: str
    rel: str
    bound: Fraction

    def __post_init__(self):
        if self.rel not in RELS:
            raise ValueError(f"unknown relation {self.rel!r}")


Rational = Union[int, Fraction]  # exact; an int when integral
Valuation = Mapping[str, Rational]


# --- evaluation -------------------------------------------------------------


def exact(q) -> Rational:
    """``q`` as an exact rational: ``int`` when integral, else ``Fraction``.
    Both compare and hash alike, but ``int`` arithmetic runs in C."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def eval_term(t: Term, v: Valuation) -> Rational:
    """Exact value of ``t`` under ``v``; raises UnboundVariable on a gap."""
    total = 0
    for s in t.summands:
        if isinstance(s, UtilityVar):
            if s.agent not in v:
                raise UnboundVariable(s.agent)
            total += v[s.agent]
        else:
            total += s.numerator if s.denominator == 1 else s
    return total


def eval_atom(a: AtomicConstraint, v: Valuation) -> bool:
    return _REL_FN[a.rel](eval_term(a.lhs, v), eval_term(a.rhs, v))


def eval_acf(f: ConstraintFormula, v: Valuation) -> bool:
    if isinstance(f, Atom):
        return eval_atom(f.atom, v)
    if isinstance(f, Not):
        return not eval_acf(f.sub, v)
    if isinstance(f, And):
        return eval_acf(f.left, v) and eval_acf(f.right, v)
    if isinstance(f, Or):
        return eval_acf(f.left, v) or eval_acf(f.right, v)
    raise TypeError(f"not a constraint formula: {f!r}")


def acf_atoms(f: ConstraintFormula) -> list[AtomicConstraint]:
    """All atomic constraints of ``f``, left to right."""
    if isinstance(f, Atom):
        return [f.atom]
    if isinstance(f, Not):
        return acf_atoms(f.sub)
    return acf_atoms(f.left) + acf_atoms(f.right)


def acf_variables(f: ConstraintFormula) -> set[str]:
    out: set[str] = set()
    for a in acf_atoms(f):
        out |= a.variables()
    return out


# --- atom normal form -------------------------------------------------------


def normalize_atom(a: AtomicConstraint):
    """Rewrite ``a`` as a sum of variables against one constant.

    Returns one of::

        ("const", truth)             # no variables left: a fixed truth value
        ("sum", counts, rel, d)      # sum(counts[x] * v_x) rel d, counts > 0
        ("mixed", None)              # variables on both sides; not sum-vs-const

    where ``counts`` maps agents to positive integer multiplicities.
    """
    counts: dict[str, int] = {}
    const = Fraction(0)
    for s in a.lhs.summands:
        if isinstance(s, UtilityVar):
            counts[s.agent] = counts.get(s.agent, 0) + 1
        else:
            const -= s
    for s in a.rhs.summands:
        if isinstance(s, UtilityVar):
            counts[s.agent] = counts.get(s.agent, 0) - 1
        else:
            const += s
    counts = {x: n for x, n in counts.items() if n != 0}
    if not counts:
        return ("const", _REL_FN[a.rel](Fraction(0), const))
    signs = {n > 0 for n in counts.values()}
    if len(signs) > 1:
        return ("mixed", None)
    rel = a.rel
    if not signs.pop():  # every multiplicity negative: flip the comparison
        counts = {x: -n for x, n in counts.items()}
        const = -const
        rel = _REL_FLIP[rel]
    return ("sum", counts, rel, const)


# --- single-variable validity ----------------------------------------------


def regions(f: ConstraintFormula, x: str | None) -> tuple[list, list]:
    """Sorted thresholds of ``f`` in ``x``, and one sample point per region of
    constant truth, ascending: the thresholds, the midpoints between them and
    a point beyond each extreme, so ``points[2*i + 1]`` is ``thresholds[i]``
    (just 0 when there is none).  ``f`` may mention no variable but ``x``
    (MultiVariable otherwise), so every atom reduces to ``n*x rel d``, whose
    truth changes only at ``d/n``."""
    others = acf_variables(f) - {x}
    if others:
        raise MultiVariable(f"expected only v_{x}, got {sorted(others)}")
    ts = sorted({Fraction(shape[3], shape[1][x])
                 for shape in map(normalize_atom, acf_atoms(f)) if shape[0] == "sum"})
    inner = [p for lo, hi in zip(ts, ts[1:]) for p in (lo, (lo + hi) / 2)]
    return ts, ([ts[0] - 1, *inner, ts[-1], ts[-1] + 1] if ts else [Fraction(0)])


def validity_counterexample(f: ConstraintFormula):
    """A rational point falsifying ``f``, or None when ``f`` is valid: the first
    of its ``regions`` sample points where it fails.  ``f`` may mention at most
    one utility variable (MultiVariable otherwise)."""
    x = min(acf_variables(f), default=None)
    return next((p for p in regions(f, x)[1] if not eval_acf(f, {x: p})), None)


# --- concrete syntax --------------------------------------------------------

_PUNCT = ("<<", ">>", "<=", ">=", "<", ">", "=", "(", ")", "!", "&", "|", "+", ",")


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'number' | 'var' | 'wvar' | one of _PUNCT
    text: str
    value: object
    pos: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" or ch.isdecimal():
            j = i + 1 if ch == "-" else i
            if j >= n or not text[j].isdecimal():
                raise ParseError("dangling '-'", col=i, expected="digits")
            while j < n and text[j].isdecimal():
                j += 1
            num, den, slash = text[i:j], "1", j
            if j < n and text[j] == "/":
                k = j + 1
                if k >= n or not text[k].isdecimal():
                    raise ParseError("bad rational", col=j, expected="digits after '/'")
                while k < n and text[k].isdecimal():
                    k += 1
                den = text[j + 1:k]
                j = k
            try:  # int() refuses more digits than sys.get_int_max_str_digits()
                value = Fraction(int(num), int(den))
            except ValueError:
                raise ParseError("number too long", col=i) from None
            except ZeroDivisionError:
                raise ParseError("zero denominator", col=slash + 1) from None
            toks.append(Token("number", text[i:j], value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word.startswith("v_") and len(word) > 2:
                toks.append(Token("var", word, word[2:], i))
            elif word.startswith("w_") and len(word) > 2:
                toks.append(Token("wvar", word, word[2:], i))
            else:
                toks.append(Token("ident", word, word, i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, p, i))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {echo(ch)}", col=i)
    return toks


#: Deepest nesting a guard or formula may have: each prefix operator,
#: parenthesis, coalition modality, ``U`` and chained binary operator is one
#: level.  Parsing and checking recurse over the tree and overflow Python's
#: stack near 600 levels.
MAX_NESTING = 100


class TokenStream:
    """Cursor over a token list; shared by the constraint and formula parsers.

    ``chain`` and ``inside`` are the only places that nest, so ``depth``
    counts levels for both grammars and ``MAX_NESTING`` is checked once."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0  # operator nesting at the cursor

    def _deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nested more than {MAX_NESTING} levels deep", col=self.col())

    def chain(self, op: str, operand, join):
        """A left-folded ``operand (op operand)*``.  The tree it builds is
        left deep, so each ``op`` nests one level more, until the chain ends."""
        level = self.depth
        f = operand(self)
        while self.at(op):
            self.take()
            self._deeper()
            f = join(f, operand(self))
        self.depth = level
        return f

    def inside(self, parse, close: str | None = None):
        """``parse(self)`` one level deeper, then the ``close`` token if one is
        given: the inside of a bracket just opened, or the operand of a prefix
        operator, a ``U`` or a coalition modality."""
        self._deeper()
        f = parse(self)
        if close is not None:
            self.take(close)
        self.depth -= 1
        return f

    def col(self) -> int:
        """Position of the next token, or the end of the text."""
        tok = self.peek()
        return tok.pos if tok else len(self.text)

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", col=len(self.text), expected=kind)
        if kind is not None and tok.kind != kind:
            raise ParseError(f"unexpected {echo(tok.text)}", col=tok.pos, expected=kind)
        self.i += 1
        return tok

    def at(self, *kinds: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind in kinds

    def relation(self) -> str:
        """Take a comparison, one of ``RELS``."""
        if not self.at(*RELS):
            raise ParseError("expected comparison", col=self.col(),
                             expected="one of " + " ".join(RELS))
        return self.take().kind

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {echo(tok.text)}", col=tok.pos, expected="end of input")


def parse_term_tokens(ts: TokenStream) -> Term:
    summands: list[Summand] = [_parse_summand(ts)]
    while ts.at("+"):
        ts.take()
        summands.append(_parse_summand(ts))
    return Term(tuple(summands))


def _parse_summand(ts: TokenStream) -> Summand:
    tok = ts.peek()
    if tok is None:
        raise ParseError("unexpected end of input", col=len(ts.text), expected="term")
    if tok.kind not in ("var", "number"):
        raise ParseError(f"unexpected {echo(tok.text)}", col=tok.pos, expected="variable or rational")
    ts.take()
    return UtilityVar(tok.value) if tok.kind == "var" else tok.value


def _parse_acf_or(ts: TokenStream) -> ConstraintFormula:
    return ts.chain("|", _parse_acf_and, Or)


def _parse_acf_and(ts: TokenStream) -> ConstraintFormula:
    return ts.chain("&", _parse_acf_unary, And)


def _parse_acf_unary(ts: TokenStream) -> ConstraintFormula:
    if ts.at("!"):
        ts.take()
        return Not(ts.inside(_parse_acf_unary))
    if ts.at("("):
        ts.take()
        return ts.inside(_parse_acf_or, ")")
    return Atom(parse_atom_tokens(ts))


def parse_atom_tokens(ts: TokenStream) -> AtomicConstraint:
    lhs = parse_term_tokens(ts)
    rel = ts.relation()
    return AtomicConstraint(lhs, rel, parse_term_tokens(ts))


def parse_acf(text: str) -> ConstraintFormula:
    ts = TokenStream(text)
    f = _parse_acf_or(ts)
    ts.expect_end()
    return f


def parse_apc_tokens(ts: TokenStream) -> PathConstraint:
    agent = ts.take("wvar").value
    rel = ts.relation()
    return PathConstraint(agent, rel, ts.take("number").value)


# --- printing ---------------------------------------------------------------


def format_term(t: Term) -> str:
    return " + ".join(
        f"v_{s.agent}" if isinstance(s, UtilityVar) else str(s) for s in t.summands
    )


def format_atom(a: AtomicConstraint) -> str:
    return f"{format_term(a.lhs)} {a.rel} {format_term(a.rhs)}"


def format_acf(f: ConstraintFormula) -> str:
    return _fmt_acf(f, 0)


def _fmt_acf(f: ConstraintFormula, parent_level: int) -> str:
    # levels: 0 = or, 1 = and, 2 = unary/atom
    if isinstance(f, Atom):
        return format_atom(f.atom)
    if isinstance(f, Not):
        return "!" + _wrap(_fmt_acf(f.sub, 2), not isinstance(f.sub, Not))
    if isinstance(f, And):
        # the right operand gets parens when it is itself &/| so the printed
        # form reparses to this exact tree, not a left-rotated one
        s = f"{_fmt_acf(f.left, 1)} & {_fmt_acf(f.right, 2)}"
        return _wrap(s, parent_level > 1)
    if isinstance(f, Or):
        s = f"{_fmt_acf(f.left, 0)} | {_fmt_acf(f.right, 1)}"
        return _wrap(s, parent_level > 0)
    raise TypeError(f"not a constraint formula: {f!r}")


def _wrap(s: str, need: bool) -> str:
    return f"({s})" if need else s


def format_apc(pc: PathConstraint) -> str:
    return f"w_{pc.agent} {pc.rel} {pc.bound}"
