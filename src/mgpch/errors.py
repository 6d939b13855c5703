"""Exception types shared across the package, and the argument checks that raise them."""

import math
from numbers import Integral, Real

import numpy as np


class MgpchError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(MgpchError, ValueError):
    """An argument violates a documented precondition."""


class NumericalDomainError(MgpchError, ArithmeticError):
    """A quantity left the domain where the computation is defined."""


class IllConditionedError(MgpchError, ArithmeticError):
    """A matrix factorization failed; carries the offending context."""


class DivergedFitError(MgpchError, RuntimeError):
    """An iterative fit produced a non-finite objective.

    Attributes
    ----------
    iteration : int
        Iteration index at which the objective became non-finite.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class ModelStateError(MgpchError, RuntimeError):
    """An operation was called on a model in the wrong lifecycle state."""


class DegenerateMarginalsError(MgpchError, RuntimeError):
    """Marginal cdf values make the copula objective non-finite at the start."""


class QuadratureWarning(RuntimeWarning):
    """Doubling the quadrature nodes still moved the result noticeably."""


class FormatError(MgpchError, ValueError):
    """An input file violates the documented format.

    Attributes
    ----------
    line : int or None
        1-based line number of the offending record, if known.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

    def __str__(self):
        base = super().__str__()
        return base if self.line is None else f"line {self.line}: {base}"


class InsufficientDataError(MgpchError, ValueError):
    """Too few observations survived parsing to proceed."""


def _check_integer(name, value, least):
    """Raise InvalidArgumentError naming ``name`` unless ``value`` is an integer >= ``least``; a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise InvalidArgumentError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_real(name, value):
    """Raise InvalidArgumentError naming ``name`` unless ``value`` is a finite real number; a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise InvalidArgumentError(f"{name} must be a finite number, got {value!r}")


def _as_real_array(name, value):
    """``value`` as a float array; raise InvalidArgumentError naming ``name`` unless it is a regular array of integers or floats."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:  # ragged nesting, say
        raise InvalidArgumentError(f"{name} must be a regular array of numbers: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"{name} must hold real numbers, got {value!r:.80}")
    return arr.astype(float, copy=False)
