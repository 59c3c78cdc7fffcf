"""Exception taxonomy shared across the package.

Everything raised on purpose derives from GcgmpError so callers (and the CLI)
can distinguish domain failures from genuine bugs.
"""


class GcgmpError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GcgmpError):
    """Bad concrete syntax: formulas, constraint text, or model/machine files."""

    def __init__(self, message, line=None, col=None, expected=None):
        self.line = line
        self.col = col
        self.expected = expected
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        elif col is not None:
            where = f" at position {col}"
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message}{where}{hint}")


class UnboundVariable(GcgmpError):
    """A term mentions a utility variable the valuation does not cover."""

    def __init__(self, agent):
        self.agent = agent
        super().__init__(f"no value bound for utility variable v_{agent}")


class MultiVariable(GcgmpError):
    """A single-variable analysis was handed a formula over several variables."""


class UnknownIdentifier(GcgmpError):
    """A file or query refers to a state/action/atom that was never declared."""


class UnknownAgent(GcgmpError):
    """A formula or guard mentions an agent the model does not have."""


class InvalidState(GcgmpError):
    """A configuration names a state outside the model."""


class GuardViolation(GcgmpError):
    """An action profile includes a component its guard does not enable."""

    def __init__(self, agent, action, step=None, reason=None):
        self.agent = agent
        self.action = action
        self.step = step
        at = f" (step {step})" if step is not None else ""
        why = f": {reason}" if reason else ""
        super().__init__(f"agent {agent} may not play {action} here{at}{why}")


class IndexOutOfRange(GcgmpError):
    """Projection index beyond the stored prefix of a history or play."""


class NotLasso(GcgmpError):
    """A play value was requested for a play without a closed cycle."""


class Divergent(GcgmpError):
    """Total play value does not exist: the cycle keeps moving the account."""

    def __init__(self, agent):
        self.agent = agent
        super().__init__(f"accumulated payoff of agent {agent} has no limit on this play")


class UndiscountedDiscounted(GcgmpError):
    """Discounted play value requested for an agent whose discount is 1."""


class NotApplicable(GcgmpError):
    """A checking engine declines an instance it does not decide."""


class FragmentError(NotApplicable):
    """A checking engine was handed a formula outside its fragment."""


class NotMonotone(NotApplicable):
    """The saturation engine needs non-negative payoffs and unit discounts."""


class VariableVsVariableAtom(NotApplicable):
    """Constraint atom compares two variable sums; saturation cannot decide it."""


class TooLarge(GcgmpError):
    """Instance exceeds the brute-force oracle's hard size limits."""
