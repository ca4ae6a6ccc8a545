"""Error taxonomy shared across the package, and the rules for integers, arrays and exponents.

The CLI maps each class to a distinct exit code, so library code should
raise the most specific class that applies.
"""

import numbers

import numpy as np


class SparselabError(Exception):
    """Base class for all package-specific errors."""


class InstanceParseError(SparselabError):
    """An instance file could not be parsed; message names the offending field."""


class ParameterError(SparselabError):
    """Exponents or arguments violate a stated precondition."""


class DegenerateInstanceError(SparselabError):
    """An instance has zero mass where positive mass is required."""


class BaselineViolationError(SparselabError):
    """A verification suite produced ratios outside the frozen baselines."""


def integer(value, name: str) -> int:
    """value as a Python int; ParameterError naming the input unless it is an integer, not a bool."""
    if type(value) is int:  # the common case, without the slower abstract-class check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, not a bool, got {value!r}")
    return int(value)


def finite_nonnegative(values, name: str) -> np.ndarray:
    """values as a float array; ParameterError naming the input if an entry is < 0, inf or NaN."""
    arr = np.asarray(values, dtype=float)
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < np.inf):
        raise ParameterError(f"{name} must be finite and nonnegative")
    return arr


def finite_exponent(p: float) -> None:
    """ParameterError unless 1 < p < inf, which a NaN fails."""
    if not 1.0 < p < np.inf:
        raise ParameterError("need 1 < p < inf")


# Exit codes used by the command line front end.
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PARAMETER = 3
EXIT_DEGENERATE = 4
EXIT_BASELINE = 5
