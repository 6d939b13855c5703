"""Cholesky-based helpers shared by the regression modules.

All positive definite solves in the package go through these wrappers;
nothing forms an explicit matrix inverse of a covariance.  Every factor the
solves receive comes from :func:`cholesky_factor`, which checks its input
for non-finite entries, so the solves skip a rescan of the factor.

The wrappers call the LAPACK routines that ``scipy.linalg.cholesky``,
``cho_solve`` and ``solve_triangular`` call, with the same arguments and
memory layouts, so they return the same bits without scipy's per-call
argument handling, a large share of the cost at the block sizes of a fit.
"""

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

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
        If A has a non-finite entry or the factorization fails.
    """
    A = np.asarray(A)
    label = context or "matrix"
    if not np.isfinite(A).all():
        raise IllConditionedError(f"Cholesky factorization of {label} failed: the matrix has non-finite entries")
    L, info = dpotrf(A, lower=1, clean=1)
    if info != 0:
        raise IllConditionedError(
            f"Cholesky factorization of {label} failed: {info}-th leading minor is not positive definite"
        )
    return L


def cholesky_solve(L, b):
    """Solve ``A x = b`` given the lower factor of A from :func:`cholesky_factor`."""
    return _checked(dpotrs(L, b, lower=1), "Cholesky solve")


def solve_lower(L, b):
    """Solve ``L x = b`` for a lower factor L from :func:`cholesky_factor`."""
    return _triangular_solve(L, b, trans=0)


def solve_lower_transpose(L, b):
    """Solve ``L' x = b`` for a lower factor L from :func:`cholesky_factor`."""
    return _triangular_solve(L, b, trans=1)


def _triangular_solve(L, b, trans):
    # a factor not in Fortran order is passed as its transpose, the upper
    # factor of the same matrix, as solve_triangular passes it
    if L.flags.f_contiguous:
        return _checked(dtrtrs(L, b, lower=1, trans=trans), "triangular solve")
    return _checked(dtrtrs(L.T, b, lower=0, trans=1 - trans), "triangular solve")


def _checked(result, what):
    x, info = result
    if info != 0:
        raise IllConditionedError(f"{what} failed: LAPACK info {info}")
    return x


def logdet_from_factor(L):
    """Log determinant of A from its lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))
