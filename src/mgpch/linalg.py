"""Cholesky-based helpers shared by the regression modules.

All positive definite solves in the package go through these wrappers;
nothing forms an explicit matrix inverse of a covariance.  Every factor the
solves receive comes from :func:`cholesky_factor`, which checks its input
for non-finite entries, so the solves skip a rescan of the factor.  LAPACK
``dpotrf`` returns that factor in Fortran order for input in either order,
and the solves take it in that layout only.

The wrappers call the LAPACK routines that ``scipy.linalg.cholesky``,
``cho_solve`` and ``solve_triangular`` call, with the same arguments and
memory layouts, so they return the same bits without scipy's per-call
argument handling, a large share of the cost at the block sizes of a fit.

:func:`solve_lower_packed` serves a factor that grows one row at a time, as
``simulate``'s paths grow theirs.  It keeps the lower factor row by row in
packed storage, row k at offset k(k+1)/2, so the leading k rows are a
contiguous prefix and the new row is solved in place; BLAS ``dtpsv`` reads
that prefix directly, with no copy of a k x k block.

:func:`_log1p_excess` is the one helper that factors nothing: the KL cores
of the dense bound factors (:mod:`mgpch.model`) and of the scalar scan
(:mod:`mgpch.ou`) both sum it near the prior.
"""

import numpy as np
from scipy.linalg.blas import dtpsv
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import IllConditionedError

__all__ = [
    "cholesky_factor",
    "cholesky_solve",
    "solve_lower",
    "solve_lower_transpose",
    "solve_lower_packed",
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
    """Solve ``A x = b`` given the Fortran-ordered lower factor of A from :func:`cholesky_factor`."""
    return _checked(dpotrs(L, b, lower=1), "Cholesky solve")


def solve_lower(L, b):
    """Solve ``L x = b`` for a Fortran-ordered lower factor L from :func:`cholesky_factor`."""
    return _checked(dtrtrs(L, b, lower=1, trans=0), "triangular solve")


def solve_lower_transpose(L, b):
    """Solve ``L' x = b`` for a Fortran-ordered lower factor L from :func:`cholesky_factor`."""
    return _checked(dtrtrs(L, b, lower=1, trans=1), "triangular solve")


def solve_lower_packed(packed, b, n):
    """Solve ``L x = b`` in place for the leading n x n block of a row-packed lower factor.

    ``packed`` holds row k of L at ``packed[k(k+1)/2 : (k+1)(k+2)/2]``, the
    column-packed upper factor L', which ``dtpsv`` solves transposed.  b is
    a contiguous float vector of length n, overwritten with x and returned.
    BLAS checks no pivot, and none is needed: the factors handed in are
    Cholesky factors of jittered kernel matrices whose every pivot is the
    square root of a conditional variance floored at the jitter, so at
    least sqrt(jitter) > 0.
    """
    return dtpsv(n, packed, b, lower=0, trans=1, overwrite_x=1)


def _checked(result, what):
    x, info = result
    if info != 0:
        raise IllConditionedError(f"{what} failed: LAPACK info {info}")
    return x


def logdet_from_factor(L):
    """Log determinant of A from its lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def _log1p_excess(x):
    """``f(x) = log1p(x) - x / (1 + x) >= 0`` for x >= 0, to full relative accuracy.

    Below 0.01, where the difference cancels, f is summed from its series
    ``sum_{k>=2} (-1)^k (k - 1) / k x^k``, truncated past x^10 (2e-18 of f).
    """
    out = np.log1p(x) - x / (1.0 + x)
    small = x < 0.01
    xs = x[small]
    acc = np.full_like(xs, 0.9)  # the x^10 coefficient
    for k in range(9, 1, -1):
        acc *= xs
        acc += (-1) ** k * (k - 1) / k
    acc *= xs * xs
    out[small] = acc
    return out
