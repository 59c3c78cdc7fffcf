"""Strategy-logic formulas: syntax, parsing, fragment classification.

State formulas talk about a configuration: atomic propositions, arithmetic
constraints over current utilities, Boolean combinations, and coalition
modalities ``<<A,B>>body`` ("the coalition has strategies so that every
resulting play satisfies *body*").  Bodies are path formulas: temporal
operators ``X`` (next), ``G`` (always), ``U`` (until), the derived ``F p``
= ``true U p``, Boolean combinations of path formulas, play-value atoms
``w_<agent> REL bound``, and state formulas read at the first position.

One node set covers both levels; a formula is state-level when no temporal
operator or play-value atom occurs outside a coalition modality.  ``|`` is
accepted and immediately rewritten to ``!(!a & !b)``, and ``F p`` to
``true U p``, so engines only ever see the core connectives.
``CHILDREN`` names each connective's formula-valued fields, and every
structural query (fragment, atoms, propositions, agents) walks them through
``subformulas``.

Concrete syntax, loosest to tightest: ``|``, ``&``, ``U`` (right
associative), then the unary ``! X G F``.  A coalition modality binds the
*whole* path formula to its right: ``<<I>>p U q`` is ``<<I>>(p U q)``, so
conjoining outside a modality needs parentheses, as in ``(<<I>>G p) & q``.
``true``, ``false``, ``X``, ``G``, ``F`` and ``U`` are reserved words; bare
comparisons and play-value atoms are parenthesised when nested, e.g.
``!(v_I > 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

from . import arith
from .arith import AtomicConstraint, PathConstraint, TokenStream
from .errors import FragmentError, ParseError, UnknownAgent, echo
from .model import Gcgmp


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class Constraint:
    atom: AtomicConstraint


@dataclass(frozen=True)
class Tru:
    pass


TRUE = Tru()


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Next:
    sub: "Formula"


@dataclass(frozen=True)
class Always:
    sub: "Formula"


@dataclass(frozen=True)
class Until:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Apc:
    """Play-value atom ``w_<agent> REL bound``; only meaningful on paths."""

    pc: PathConstraint


@dataclass(frozen=True)
class Coop:
    coalition: frozenset[str]
    body: "Formula"


Formula = Union[Prop, Constraint, Tru, Not, And, Next, Always, Until, Apc, Coop]


# In reading order; the leaves Prop, Constraint, Tru and Apc have none.
CHILDREN: dict[type, tuple[str, ...]] = {
    Not: ("sub",),
    Next: ("sub",),
    Always: ("sub",),
    And: ("left", "right"),
    Until: ("left", "right"),
    Coop: ("body",),
}


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every node of ``f``, parent first and left to right, into coalition bodies."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        for k in reversed(CHILDREN.get(type(g), ())):
            stack.append(getattr(g, k))


def is_state_formula(f: Formula) -> bool:
    """No temporal operator or play-value atom outside a coalition modality."""
    if isinstance(f, (Prop, Constraint, Tru, Coop)):
        return True
    if isinstance(f, Not):
        return is_state_formula(f.sub)
    if isinstance(f, And):
        return is_state_formula(f.left) and is_state_formula(f.right)
    return False


class FragmentTag(Enum):
    """Nested fragments, smallest first.

    ATL_PURE   coalition bodies are exactly X/G/U over state formulas, and
               atoms are propositions only
    NGL        like ATL_PURE but utility comparisons may appear in state
               formulas
    NGL_STAR   everything else: play-value atoms, Boolean structure or
               nesting inside coalition bodies, bare state bodies
    """

    ATL_PURE = "ATL-pure"
    NGL = "NGL"
    NGL_STAR = "NGLstar"


def classify(f: Formula) -> FragmentTag:
    """The smallest fragment containing ``f`` (a state formula)."""
    if not is_state_formula(f):
        raise FragmentError("only state formulas can be classified and checked")
    tag = FragmentTag.ATL_PURE
    for g in subformulas(f):
        if isinstance(g, Coop) and not is_xgu_body(g.body):
            return FragmentTag.NGL_STAR
        if isinstance(g, Constraint):
            tag = FragmentTag.NGL
    return tag


def is_xgu_body(body: Formula) -> bool:
    """X, G or U directly over state formulas: an ATL coalition body."""
    return isinstance(body, (Next, Always, Until)) and all(
        is_state_formula(getattr(body, k)) for k in CHILDREN[type(body)]
    )


# --- strategy classes ------------------------------------------------------


class StrategyMemory(Enum):
    MEMORYLESS = "memoryless"
    PERFECT_RECALL = "perfect-recall"


class StrategyObservation(Enum):
    STATE_BASED = "state-based"
    CONFIGURATION_BASED = "configuration-based"


@dataclass(frozen=True)
class StrategyClassSpec:
    """What a strategy may look at: memory discipline times observation.

    Memoryless strategies are tables over the current observation;
    perfect-recall strategies may branch on the entire observation history.
    Observations are either the bare state or the full configuration
    (state plus utilities).
    """

    memory: StrategyMemory
    observation: StrategyObservation

    @property
    def short(self) -> str:
        return next(name for name, spec in STRATEGY_CLASSES.items() if spec == self)

    @staticmethod
    def parse(text: str) -> "StrategyClassSpec":
        if not isinstance(text, str) or text not in STRATEGY_CLASSES:
            raise ValueError(
                f"unknown strategy class {echo(text)}; pick one of {sorted(STRATEGY_CLASSES)}"
            )
        return STRATEGY_CLASSES[text]


ML_STATE = StrategyClassSpec(StrategyMemory.MEMORYLESS, StrategyObservation.STATE_BASED)
ML_CONFIG = StrategyClassSpec(
    StrategyMemory.MEMORYLESS, StrategyObservation.CONFIGURATION_BASED
)
PR_STATE = StrategyClassSpec(
    StrategyMemory.PERFECT_RECALL, StrategyObservation.STATE_BASED
)
PR_CONFIG = StrategyClassSpec(
    StrategyMemory.PERFECT_RECALL, StrategyObservation.CONFIGURATION_BASED
)

# the one table of strategy-class names, in the order the command line lists them
STRATEGY_CLASSES = {
    "ml-state": ML_STATE, "ml-config": ML_CONFIG, "pr-state": PR_STATE, "pr-config": PR_CONFIG,
}


# --- structure queries --------------------------------------------------


def constraint_atoms(f: Formula, m: Gcgmp | None = None) -> list[AtomicConstraint]:
    """Every utility comparison in the formula, in syntactic order.

    With a model, the comparisons inside its guards are appended too (the
    saturation bound has to cover both sources of constants).
    """
    out = [g.atom for g in subformulas(f) if isinstance(g, Constraint)]
    if m is not None:
        for guard in m.guards.values():
            out.extend(arith.acf_atoms(guard))
    return out


def formula_props(f: Formula) -> set[str]:
    return {g.name for g in subformulas(f) if isinstance(g, Prop)}


def formula_agents(f: Formula) -> set[str]:
    """Agents the formula talks about: coalitions, utilities, play values."""
    out: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, Constraint):
            out |= g.atom.variables()
        elif isinstance(g, Apc):
            out.add(g.pc.agent)
        elif isinstance(g, Coop):
            out |= g.coalition
    return out


def bind_formula(m: Gcgmp, f: Formula) -> Formula:
    """Check every agent name in ``f`` against the model; returns ``f`` unchanged.

    Propositions need no declaration here: one that labels no state is
    simply false everywhere.  The command line is stricter and refuses a
    formula naming a proposition the model does not declare, since that is
    almost always a typo.
    """
    for a in sorted(formula_agents(f)):
        if a not in m.agents:
            raise UnknownAgent(f"agent {echo(a)} is not in the model")
    return f


# --- parsing --------------------------------------------------------------

# the reserved words: two constants, and four operators that never name a proposition
_CONSTANTS = {"true": TRUE, "false": Not(TRUE)}
_OPERATORS = {"X", "G", "F", "U"}


def parse_formula(text: str) -> Formula:
    ts = TokenStream(text)
    f = _parse_or(ts)
    ts.expect_end()
    return f


def _mk_or(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


# Nesting is counted by ``TokenStream.chain`` and ``TokenStream.inside``.


def _parse_or(ts: TokenStream) -> Formula:
    return ts.chain("|", _parse_and, _mk_or)


def _parse_and(ts: TokenStream) -> Formula:
    return ts.chain("&", _parse_until, And)


def _parse_until(ts: TokenStream) -> Formula:
    f = _parse_unary(ts)
    tok = ts.peek()
    if tok is not None and tok.kind == "ident" and tok.value == "U":
        ts.take()
        f = Until(f, ts.inside(_parse_until))
    return f


# the prefix operators, by token text; no other token has one of these texts
_PREFIX = {"!": Not, "X": Next, "G": Always, "F": lambda sub: Until(TRUE, sub)}


def _parse_unary(ts: TokenStream) -> Formula:
    tok = ts.peek()
    if tok is None:
        raise ParseError("unexpected end of input", col=len(ts.text), expected="formula")
    make = _PREFIX.get(tok.text)
    if make is None:
        return _parse_primary(ts)
    ts.take()
    return make(ts.inside(_parse_unary))


def _parse_coop(ts: TokenStream) -> Formula:
    agents = []
    while not ts.at(">>"):
        if not ts.at("ident", "number"):
            raise ParseError("bad coalition member", col=ts.col(), expected="agent name")
        agents.append(ts.take().text)
        if ts.at(","):
            ts.take()
    ts.take(">>")
    return Coop(frozenset(agents), _parse_or(ts))  # the modality swallows the whole path formula


def _parse_primary(ts: TokenStream) -> Formula:
    tok = ts.peek()  # never None: _parse_unary has refused the end of input
    if tok.kind == "(":
        ts.take()
        return ts.inside(_parse_or, ")")
    if tok.kind == "<<":
        ts.take()
        return ts.inside(_parse_coop)
    if tok.kind == "wvar":
        return Apc(arith.parse_apc_tokens(ts))
    if tok.kind in ("var", "number"):
        return Constraint(arith.parse_atom_tokens(ts))
    if tok.kind == "ident":
        if tok.value in _OPERATORS:
            raise ParseError(f"misplaced {echo(tok.value)}", col=tok.pos, expected="formula")
        ts.take()
        return _CONSTANTS[tok.value] if tok.value in _CONSTANTS else Prop(tok.value)
    raise ParseError(f"unexpected {echo(tok.text)}", col=tok.pos, expected="formula")


# --- printing --------------------------------------------------------------

# precedence levels: 0 loosest (a coalition modality swallows everything to
# its right, so it only prints bare at level 0), 1 &, 2 U, 3 prefix
# operators; comparison atoms also wrap when nested.


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, min_level: int) -> str:
    if isinstance(f, Tru):
        return "true"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Constraint):
        return arith._wrap(arith.format_atom(f.atom), min_level > 0)
    if isinstance(f, Apc):
        return arith._wrap(arith.format_apc(f.pc), min_level > 0)
    if isinstance(f, Not):
        return "!" + _fmt(f.sub, 3)
    if isinstance(f, And):
        return arith._wrap(f"{_fmt(f.left, 1)} & {_fmt(f.right, 2)}", min_level > 1)
    if isinstance(f, Until):
        if f.left == TRUE:
            return "F " + _fmt(f.right, 3)
        return arith._wrap(f"{_fmt(f.left, 3)} U {_fmt(f.right, 2)}", min_level > 2)
    if isinstance(f, Next):
        return "X " + _fmt(f.sub, 3)
    if isinstance(f, Always):
        return "G " + _fmt(f.sub, 3)
    if isinstance(f, Coop):
        s = f"<<{','.join(sorted(f.coalition))}>>" + _fmt(f.body, 0)
        return arith._wrap(s, min_level > 0)
    raise TypeError(f"not a formula: {f!r}")
