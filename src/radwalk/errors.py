"""Exception types shared across the package, its one rule for counts, and
its one wording for integers past the interpreter's digit limit."""

import numbers
import sys


class RadwalkError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(RadwalkError, ValueError):
    """A parameter violates its documented domain; message names the constraint."""


def _int_param(value, name: str, low: int | None = None) -> int:
    """``value`` as an int of at least ``low``: every count the package takes
    (a horizon, a trial count, an index, a modulus, a radius) passes here once,
    where it enters.  A bool, a non-integer (numpy ints pass) or a smaller value
    fails by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def _past_digit_limit(where: str) -> ParameterError:
    """The refusal of an int past ``sys.get_int_max_str_digits()`` in ``where``."""
    return ParameterError(f"{where} holds an integer of over {sys.get_int_max_str_digits()} digits")


def _digit_limit(exc: ValueError, where: str) -> ParameterError | None:
    """:func:`_past_digit_limit` of ``where``, if that is what ``exc`` reports:
    an int read from text or JSON, or written to a report."""
    return _past_digit_limit(where) if "integer string conversion" in str(exc) else None


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
