"""Planar Rademacher-walk toolkit.

Simulation of the four-direction walk with deterministic step-size sequences,
exact convolution oracles for its signed-sum laws, anti-concentration and
drift checks, and a round-based construction of origin-revisiting sequences.
"""

from . import construction, exact, sequences, verify, walk
from .errors import (
    CoprimalityError,
    DecompositionError,
    ExhaustionError,
    OverflowRefusal,
    ParameterError,
    PositionOverflowError,
    PreconditionError,
    RadwalkError,
    SupportBudgetError,
)
from .rng import RNG_ID, SEED_RULE_ID, trial_generator, wilson_interval

__version__ = "0.1.0"

__all__ = [
    "construction",
    "exact",
    "sequences",
    "verify",
    "walk",
    "RNG_ID",
    "SEED_RULE_ID",
    "trial_generator",
    "wilson_interval",
    "RadwalkError",
    "ParameterError",
    "PreconditionError",
    "DecompositionError",
    "SupportBudgetError",
    "OverflowRefusal",
    "PositionOverflowError",
    "CoprimalityError",
    "ExhaustionError",
    "__version__",
]
