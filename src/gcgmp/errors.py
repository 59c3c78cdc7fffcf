"""Exception taxonomy shared across the package.

Everything raised on purpose derives from GcgmpError so callers (and the CLI)
can distinguish domain failures from genuine bugs.
"""

ECHO_LIMIT = 100  # the most characters of one input that a diagnostic quotes


def echo(x, show=repr) -> str:
    """``show(x)``, its middle cut out past ``ECHO_LIMIT`` characters."""
    text, keep = show(x), (ECHO_LIMIT - 3) // 2
    return text if len(text) <= ECHO_LIMIT else f"{text[:keep]}...{text[-keep:]}"


class GcgmpError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GcgmpError):
    """Bad concrete syntax: formulas, constraint text, or model/machine files."""

    def __init__(self, message, col=None, expected=None):
        self.col = col
        self.expected = expected
        where = f" at position {col}" if col is not None else ""
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
    """A negative position in a play."""


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
    """Instance exceeds a hard size limit: the brute-force oracle's, or the
    configuration graph's node limit."""
