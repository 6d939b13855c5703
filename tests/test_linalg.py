"""The Cholesky helpers against the scipy.linalg functions they replace."""

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from mgpch.errors import IllConditionedError
from mgpch.linalg import cholesky_factor, cholesky_solve, solve_lower, solve_lower_transpose


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes(order="A") == b.tobytes(order="A")


def spd(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    # not symmetric in its last bits, like the bound matrices: only the lower half is read
    return (A @ A.T + n * np.eye(n)) * (1.0 + 1e-15 * np.triu(rng.random((n, n)), 1))


@pytest.mark.parametrize("n", [1, 2, 7, 60])
@pytest.mark.parametrize("order", ["C", "F"])
def test_factor_equals_scipy_bit_for_bit(n, order):
    A = np.array(spd(n), order=order)
    L = cholesky_factor(A)
    want = cholesky(A, lower=True)
    assert same_bits(L, want) and L.flags.f_contiguous == want.flags.f_contiguous


@pytest.mark.parametrize("n", [1, 2, 7, 60])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rhs", ["vector", "column", "matrix C", "matrix F"])
def test_solves_equal_scipy_bit_for_bit(n, order, rhs):
    rng = np.random.default_rng(n)
    # the solves take the factors cholesky_factor returns, in Fortran order for input in either order
    L = cholesky_factor(np.array(spd(n), order=order))
    assert L.flags.f_contiguous
    b = {
        "vector": rng.standard_normal(n),
        "column": rng.standard_normal((n, 1)),
        "matrix C": rng.standard_normal((n, 5)),
        "matrix F": np.asfortranarray(rng.standard_normal((n, 5))),
    }[rhs]
    assert same_bits(solve_lower(L, b), solve_triangular(L, b, lower=True, check_finite=False))
    assert same_bits(solve_lower_transpose(L, b), solve_triangular(L, b, lower=True, trans="T", check_finite=False))
    assert same_bits(cholesky_solve(L, b), cho_solve((L, True), b, check_finite=False))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_matrix_raises_with_its_label(bad):
    A = spd(4)
    A[3, 1] = bad
    with pytest.raises(IllConditionedError, match="noise bound matrix"):
        cholesky_factor(A, context="noise bound matrix")


def test_an_indefinite_matrix_raises_with_its_label():
    with pytest.raises(IllConditionedError, match="mean bound matrix"):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), context="mean bound matrix")
