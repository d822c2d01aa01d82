"""Exception types shared across the package."""


class RadwalkError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(RadwalkError, ValueError):
    """A parameter violates its documented domain; message names the constraint."""


class PreconditionError(RadwalkError):
    """An operation's stated precondition does not hold for the given input."""


class DecompositionError(RadwalkError):
    """Prefix cannot be run-length decomposed; carries the offending index."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class SupportBudgetError(RadwalkError):
    """An exact computation would exceed the support budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class OverflowRefusal(RadwalkError):
    """A quantity is too large to materialize; carries the symbolic exponent."""

    def __init__(self, message: str, exponent: int):
        super().__init__(message)
        self.exponent = exponent


class PositionOverflowError(RadwalkError):
    """A walk position left the configured integer width; carries the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class CoprimalityError(RadwalkError):
    """Two integers expected to be coprime are not; carries their gcd."""

    def __init__(self, message: str, gcd: int):
        super().__init__(message)
        self.gcd = gcd


class ExhaustionError(RadwalkError):
    """A finite prefix ran out of usable elements."""
