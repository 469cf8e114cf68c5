"""Exception types shared across the package.

Solvers raise a ``NoSolution`` subclass when the queried equation has no
solution of the required shape; that is a normal, catchable outcome.
``ConsistencyError`` is different: it marks a situation that the theory
says cannot happen, so it is either a bug or a genuine counterexample.
The command line maps it (and a positive counterexample count) to exit
code 2.
"""


class AntipalError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AntipalError):
    """Malformed textual input (word or morphism)."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EmptyWordError(AntipalError):
    """An operation that needs a nonempty word received the empty word."""


class NotInThetaImage(AntipalError):
    """The word is not the doubling-morphism image of any word."""


class NoSolution(AntipalError):
    """The equation has no solution of the required shape."""


class NotCommuting(NoSolution):
    pass


class EquationFails(NoSolution):
    pass


class NotAntipalindrome(NoSolution):
    pass


class HypothesisNotMet(NoSolution):
    pass


class NoCommonRoot(NoSolution):
    pass


class NoNormalForm(NoSolution):
    pass


class PreconditionViolated(AntipalError):
    """Arguments violate a stated precondition."""


class BadBounds(PreconditionViolated):
    pass


class NotPrimitive(AntipalError):
    pass


class NotProlongable(AntipalError):
    pass


class CyclicMorphism(AntipalError):
    pass


class ConsistencyError(AntipalError):
    """A property the theory guarantees failed to hold."""
