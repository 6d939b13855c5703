"""Cholesky-based helpers shared by the regression modules.

All positive definite solves in the package go through these wrappers;
nothing forms an explicit matrix inverse of a covariance.  Every factor the
solves receive comes from :func:`cholesky_factor`, which checks its input
for non-finite entries, so the solves skip scipy's rescan of the factor.
"""

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import IllConditionedError

__all__ = [
    "cholesky_factor",
    "cholesky_solve",
    "solve_lower",
    "solve_lower_transpose",
    "logdet_from_factor",
]


def cholesky_factor(A, context=""):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises
    ------
    IllConditionedError
        If the factorization fails.
    """
    try:
        return cholesky(A, lower=True)
    except np.linalg.LinAlgError as exc:
        label = context or "matrix"
        raise IllConditionedError(f"Cholesky factorization of {label} failed: {exc}") from exc


def cholesky_solve(L, b):
    """Solve ``A x = b`` given the lower factor of A from :func:`cholesky_factor`."""
    return cho_solve((L, True), b, check_finite=False)


def solve_lower(L, b):
    """Solve ``L x = b`` for a lower factor L from :func:`cholesky_factor`."""
    return solve_triangular(L, b, lower=True, check_finite=False)


def solve_lower_transpose(L, b):
    """Solve ``L' x = b`` for a lower factor L from :func:`cholesky_factor`."""
    return solve_triangular(L, b, lower=True, trans="T", check_finite=False)


def logdet_from_factor(L):
    """Log determinant of A from its lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))
