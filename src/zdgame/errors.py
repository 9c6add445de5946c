"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the model's domain (payoff constraints, probabilities, discount range)."""


class NumericalError(ArithmeticError):
    """A numerical operation left its guaranteed-valid regime (vanishing normalizer, failed solve)."""


class InfeasibleError(ValueError):
    """A requested enforcer strategy has no representation inside the probability cube.

    ``violations`` lists ``(entry_name, value)`` pairs for every coordinate
    that fell outside [0, 1].
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class DegenerateError(ValueError):
    """The recovered enforcer has a vanishing own-payoff coefficient (equalizer branch)."""


class NotRelayError(ValueError):
    """The supplied strategy does not satisfy the stalled-coordinate precondition."""


class MaxStepsError(RuntimeError):
    """Gradient ascent hit the iteration cap; ``path`` holds the partial trajectory."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path
