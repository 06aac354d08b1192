"""Exception hierarchy.

Validation problems (bad inputs, malformed configs) are kept separate from
numerical failures (non-convergence, exhausted budgets) so the CLI can map
them to distinct exit codes.
"""

import math


class ThermoshiftError(Exception):
    """Base class for all package errors."""


class ValidationError(ThermoshiftError, ValueError):
    """Malformed or inconsistent input."""


class UnsupportedEnumeration(ValidationError):
    """An operation that needs a finite truncation was given a countable rule."""


class NumericalError(ThermoshiftError, RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class ConstructionFailure(NumericalError):
    """A combinatorial construction (connector search, level build) failed."""


class BudgetExceeded(NumericalError):
    """An enumeration or search exceeded its configured budget."""


class ConditionNotMet(NumericalError):
    """An applicability condition of an estimate does not hold for the inputs."""


_KINDS = {int: "an integer", float: "a finite number"}


def config_number(value, kind, name: str):
    """``value`` converted by ``kind`` (int or float) to a finite number;
    a ValidationError naming the config field ``name`` otherwise.

    Booleans are not numbers, and an int field takes only whole numbers
    (``int`` would truncate 1.7 to 1)."""
    try:
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if kind is int and isinstance(value, float) and number != value:
        number = None
    if number is None or not math.isfinite(number):
        raise ValidationError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return number
