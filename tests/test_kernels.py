import numpy as np
import pytest
from numpy.testing import assert_allclose

from mgpch.errors import InvalidArgumentError
from mgpch.kernels import (
    Ar1Kernel,
    ZeroKernel,
    ar1_jitter,
    design_matrix,
)


def at(kernel, x, x2):
    """The kernel between two single points, as a 1 x 1 design matrix."""
    return design_matrix(kernel, np.atleast_1d(x)[None, :], np.atleast_1d(x2)[None, :])[0, 0]


class TestPointPairs:
    def test_ar1_marginal_variance_at_zero_distance(self):
        k = Ar1Kernel(phi=0.5, sigma0_sq=1.0)
        assert_allclose(at(k, 0.0, 0.0), 1.0 / (1.0 - 0.25), rtol=1e-12)
        assert at(k, 0.7, 0.7) == k.marginal_variance

    def test_zero_kernel_is_zero_everywhere(self):
        assert at(ZeroKernel(), 3.0, -1.0) == 0.0

    def test_ar1_at_distance_two(self):
        k = Ar1Kernel(phi=0.5, sigma0_sq=0.75)
        assert_allclose(at(k, 0.0, 2.0), 0.25, rtol=1e-12)

    def test_multivariate_distance_is_euclidean(self):
        k = Ar1Kernel(phi=0.5, sigma0_sq=0.75)
        # distance sqrt(3^2 + 4^2) = 5
        val = at(k, np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert_allclose(val, 1.0 * 0.5**5, rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError, match="dimensions differ"):
            at(Ar1Kernel(0.5, 1.0), np.zeros(2), np.zeros(3))
        with pytest.raises(InvalidArgumentError, match="dimensions differ"):
            design_matrix(Ar1Kernel(0.5, 1.0), np.zeros((4, 2)), np.zeros((1, 3)))


class TestParameterValidation:
    @pytest.mark.parametrize("phi", [0.0, 1.0, -0.2, 1.3])
    def test_phi_outside_open_unit_interval(self, phi):
        with pytest.raises(InvalidArgumentError):
            Ar1Kernel(phi=phi, sigma0_sq=1.0)

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_nonpositive_sigma0_sq(self, s):
        with pytest.raises(InvalidArgumentError):
            Ar1Kernel(phi=0.5, sigma0_sq=s)


class TestDesignMatrix:
    def test_two_point_example(self):
        k = Ar1Kernel(phi=0.5, sigma0_sq=1.0)
        K = design_matrix(k, np.array([[0.0], [1.0]]))
        assert_allclose(K, [[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 4.0 / 3.0]], rtol=1e-9)

    def test_symmetry_on_random_inputs(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(17, 3))
        K = design_matrix(Ar1Kernel(0.8, 0.5), X)
        assert_allclose(K, K.T, atol=0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(9, 2))
        k = Ar1Kernel(0.6, 1.2)
        assert_allclose(design_matrix(k, X), design_matrix(k, X + 4.2), rtol=1e-12)

    def test_jittered_matrix_has_positive_cholesky_pivots(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(2, 21))
            X = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-3, 2)
            k = Ar1Kernel(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.1, 2.0)))
            K = design_matrix(k, X) + ar1_jitter(k) * np.eye(n)
            L = np.linalg.cholesky(K)
            assert np.all(np.diag(L) > 0.0)

    def test_zero_kernel_design_is_zero(self):
        K = design_matrix(ZeroKernel(), np.zeros((4, 1)))
        assert_allclose(K, np.zeros((4, 4)), atol=0.0)


class TestCrossMatrix:
    def test_midpoint_example(self):
        k = Ar1Kernel(phi=0.5, sigma0_sq=1.0)
        ks = design_matrix(k, np.array([[0.0], [2.0]]), np.array([[1.0]]))
        assert ks.shape == (2, 1)
        assert_allclose(ks[:, 0], [2.0 / 3.0, 2.0 / 3.0], rtol=1e-9)

    def test_matches_pointwise_eval(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 3))
        xs = rng.normal(size=(2, 3))
        k = Ar1Kernel(0.7, 0.9)
        expected = [[at(k, row, x) for x in xs] for row in X]
        assert_allclose(design_matrix(k, X, xs), expected, rtol=1e-12)

    def test_second_set_defaults_to_the_first(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 2))
        k = Ar1Kernel(0.4, 1.3)
        assert np.array_equal(design_matrix(k, X), design_matrix(k, X, X))

    def test_zero_kernel_cross_is_zero(self):
        K = design_matrix(ZeroKernel(), np.zeros((4, 1)), np.ones((3, 1)))
        assert_allclose(K, np.zeros((4, 3)), atol=0.0)


def test_jitter_scales_with_marginal_variance():
    k = Ar1Kernel(phi=0.5, sigma0_sq=0.75)
    assert_allclose(ar1_jitter(k), 1e-8 * 1.0, rtol=1e-12)
    assert ar1_jitter(ZeroKernel()) == 0.0


@pytest.mark.parametrize("kernel", [object(), None, 0.5])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda k: at(k, 0.0, 1.0),
        lambda k: design_matrix(k, np.zeros((3, 1))),
        lambda k: design_matrix(k, np.zeros((3, 1)), np.zeros((1, 1))),
        ar1_jitter,
    ],
    ids=["point_pair", "design_matrix", "cross_matrix", "ar1_jitter"],
)
def test_process_kernels_are_zero_or_autoregressive(kernel, evaluate):
    with pytest.raises(InvalidArgumentError, match="zero or autoregressive"):
        evaluate(kernel)
