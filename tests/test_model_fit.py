"""End-to-end behavior of the coordinate-ascent fit and the sampler."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mgpch.errors import InvalidArgumentError
from mgpch.kernels import Ar1Kernel, RbfKernel
from mgpch.model import MgpchConfig, expected_noise_variance, fit, simulate
from mgpch.pyp import PypConfig

from test_model_updates import latent_covariances


def two_regime_draw(n_points=300, seed=9):
    """Series whose conditional variance switches between two levels."""
    phi = 0.5 ** (1.0 / 0.06)
    gen = MgpchConfig(
        pyp=PypConfig(delta=0.0, eta1=4.0, eta2=2.0, truncation=2),
        noise_kernels=(Ar1Kernel(phi=phi, sigma0_sq=(1 - phi**2) * 0.5),) * 2,
        m_tilde=np.array([[np.log(1e-4)], [np.log(1e-3)]]),
    )
    return simulate(gen, n_points, 1, seed=seed)


def smooth_kernel(X, lengthscale_factor, marginal):
    """Correlation 1/2 at a multiple of the median pairwise distance."""
    d = np.abs(X[:, None, 0] - X[None, :, 0])
    med = np.median(d[np.triu_indices(len(X), 1)])
    phi = float(np.exp(np.log(0.5) / (lengthscale_factor * med)))
    return Ar1Kernel(phi=phi, sigma0_sq=float((1 - phi**2) * marginal))


class TestFit:
    def test_constant_variance_recovery(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(121)
        X, Y = y[:-1, None], y[1:, None]
        config = MgpchConfig(pyp=PypConfig(truncation=1), seed=0)
        model = fit(X, Y, config)
        fitted = expected_noise_variance(model.state.m, model.state.s_diag)[0, 0]
        frac = np.mean((fitted >= 0.5) & (fitted <= 2.0))
        assert frac >= 0.9, f"only {frac:.0%} of fitted variances near truth"

    def test_two_regime_pruning(self):
        draw = two_regime_draw()
        kern = smooth_kernel(draw.X, 3.0, 0.5)
        config = MgpchConfig(
            pyp=PypConfig(delta=0.5, eta1=1.0, eta2=1.0, truncation=5),
            noise_kernels=(kern,) * 5,
            max_iters=200,
            seed=0,
        )
        model = fit(draw.X, draw.Y, config)
        mass = model.state.R.sum(axis=0) / draw.X.shape[0]
        live = int(np.sum(mass > 0.01))
        assert 2 <= live <= 3, f"expected pruning to 2-3 components, got masses {mass}"

    def test_max_iters_zero_returns_initialized_model(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 1))
        Y = rng.standard_normal((12, 1))
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=3), max_iters=0))
        assert len(model.free_energy_trace) == 1
        assert model.trace_labels == ["init"]
        assert model.state.R.shape == (12, 3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_free_energy_trace_is_monotone(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 2))
        Y = 0.1 * rng.standard_normal((40, 2))
        config = MgpchConfig(pyp=PypConfig(truncation=3), max_iters=30, seed=seed)
        model = fit(X, Y, config)
        trace = np.array(model.free_energy_trace)
        floor = -1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) >= floor)
        assert len(model.trace_labels) == len(model.free_energy_trace)

    def test_converges_before_iteration_cap(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(80)
        config = MgpchConfig(pyp=PypConfig(truncation=1), max_iters=200)
        model = fit(y[:-1, None], y[1:, None], config)
        assert len(model.free_energy_trace) < 1 + 4 * 200

    def test_posterior_covariances_stay_positive_definite(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((25, 1))
        Y = 0.3 * rng.standard_normal((25, 1))
        config = MgpchConfig(
            pyp=PypConfig(truncation=2),
            mean_kernels=(Ar1Kernel(phi=0.5, sigma0_sq=0.4),) * 2,
            max_iters=15,
            seed=5,
        )
        model = fit(X, Y, config)
        S, Sigma = model.state.S, latent_covariances(model.state, model._ctx)
        for c in range(2):
            np.linalg.cholesky(S[c, 0])
            np.linalg.cholesky(Sigma[c, 0])

    def test_responsibilities_normalized_after_fit(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 1))
        Y = rng.standard_normal((30, 1))
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=4), max_iters=10))
        assert_allclose(model.state.R.sum(axis=1), np.ones(30), atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(InvalidArgumentError):
            fit(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(InvalidArgumentError):
            fit(np.zeros((4, 1)), np.zeros((5, 1)))
        with pytest.raises(InvalidArgumentError):
            fit(np.array([[np.nan], [0.0]]), np.zeros((2, 1)))

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            MgpchConfig(max_iters=-1)
        with pytest.raises(InvalidArgumentError):
            MgpchConfig(tol=0.0)
        with pytest.raises(InvalidArgumentError):
            MgpchConfig(pyp=PypConfig(truncation=2), noise_kernels=(Ar1Kernel(0.5, 1.0),))
        # the mean update needs an AR(1) or zero kernel; others fail here, not inside fit
        with pytest.raises(InvalidArgumentError, match="mean kernels"):
            MgpchConfig(pyp=PypConfig(truncation=2), mean_kernels=(RbfKernel(1.0),) * 2)


class TestSimulate:
    def test_deterministic_given_seed(self):
        config = MgpchConfig(pyp=PypConfig(truncation=3))
        a = simulate(config, 50, 2, seed=7)
        b = simulate(config, 50, 2, seed=7)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.variances, b.variances)
        assert np.array_equal(a.assignments, b.assignments)
        c = simulate(config, 50, 2, seed=8)
        assert not np.array_equal(a.Y, c.Y)

    def test_shapes_and_feedback_structure(self):
        draw = simulate(MgpchConfig(pyp=PypConfig(truncation=2)), 40, 3, seed=0)
        assert draw.X.shape == (40, 3)
        assert draw.Y.shape == (40, 3)
        assert draw.variances.shape == (40, 3)
        assert draw.assignments.shape == (40,)
        assert_allclose(draw.X[0], np.zeros(3))
        assert np.array_equal(draw.X[1:], draw.Y[:-1])
        assert np.all(draw.variances > 0.0)
        assert np.all((draw.assignments >= 0) & (draw.assignments < 2))
        assert_allclose(draw.weights.sum(), 1.0, atol=1e-12)

    def test_zero_mean_kernel_outputs_center_on_zero(self):
        draw = simulate(MgpchConfig(pyp=PypConfig(truncation=2)), 4000, 1, seed=2)
        standardized = draw.Y[:, 0] / np.sqrt(draw.variances[:, 0])
        assert abs(standardized.mean()) < 3.0 / np.sqrt(4000)

    def test_tiny_innovation_collapses_to_first_component(self):
        config = MgpchConfig(pyp=PypConfig(delta=0.0, eta1=1e-3, eta2=1e3, truncation=4))
        draw = simulate(config, 200, 1, seed=11)
        assert np.all(draw.assignments == 0)
        assert draw.weights[0] > 1.0 - 1e-6

    def test_regime_levels_respect_m_tilde(self):
        draw = two_regime_draw(n_points=400, seed=10)
        low = draw.variances[draw.assignments == 0, 0]
        high = draw.variances[draw.assignments == 1, 0]
        assert min(len(low), len(high)) > 30
        assert np.median(low) < np.median(high)
        # prior levels 1e-4 and 1e-3; paths wander but stay in the decade
        assert 1e-6 < np.median(low) < 1e-2
        assert 1e-5 < np.median(high) < 1e-1

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            simulate(MgpchConfig(), 0, 1, seed=0)
        with pytest.raises(InvalidArgumentError):
            simulate(MgpchConfig(m_tilde=np.zeros((3, 2))), 5, 1, seed=0)
