"""Error taxonomy shared across the package.

Parameter and data problems derive from ValueError so callers doing plain
``except ValueError`` keep working; runtime failures derive from RuntimeError.
_integer is the one rule for sizes and counts that every parameter check
applies.
"""

from numbers import Integral


def _integer(value) -> bool:
    """Whether value is an integer, bool excluded."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class BmtiError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(BmtiError, ValueError):
    """An argument is out of its documented range or of the wrong shape."""


class DataError(BmtiError, ValueError):
    """The input data violates a precondition (duplicates, empty, non-finite)."""


class StateError(BmtiError, RuntimeError):
    """An operation was called on an object in an unusable state."""


class ConvergenceError(BmtiError, RuntimeError):
    """An iterative solve exhausted its budget without reaching tolerance."""


class NumericalError(BmtiError, RuntimeError):
    """A computation produced NaN or Inf where a finite value is required."""


class CapabilityError(BmtiError, RuntimeError):
    """The request exceeds a documented size or feature limit."""
