"""Exception types shared across the package, and the argument checks that raise them."""

import math
from numbers import Integral, Real


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


class GarchFitError(MgpchError, RuntimeError):
    """GARCH maximum likelihood failed to converge.

    Attributes
    ----------
    params : GarchParams or None
        Best parameters found before the failure, if any.
    """

    def __init__(self, message, params=None):
        super().__init__(message)
        self.params = params


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
