"""Predictive moments against explicit-inverse oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from mgpch.errors import InvalidArgumentError, ModelStateError
from mgpch.kernels import Ar1Kernel, ZeroKernel, ar1_jitter, design_matrix
from mgpch.model import (
    MgpchConfig,
    _init_state,
    _make_context,
    fit,
    predict,
    predict_batch,
    refresh_caches,
)
from mgpch.pyp import PypConfig

from oracles import latent_function_posterior


def manual_scalar_model():
    """One observation, one component, bound parameter pinned at 0.4."""
    kernel = Ar1Kernel(phi=0.5, sigma0_sq=0.75)
    config = MgpchConfig(
        pyp=PypConfig(truncation=1), noise_kernels=(kernel,), m_tilde=-9.0, max_iters=0
    )
    X = np.array([[0.0]])
    Y = np.array([[0.01]])
    model = _make_context(X, Y, config)
    state = _init_state(model)
    state.Q = np.array([[[0.4]]])
    state.t = state.Q - 0.5 * state.R.T[:, None, :]
    refresh_caches(state, model)
    model.state, model.free_energy_trace, model.trace_labels = state, [0.0], ["init"]
    return model


class TestScalarOracle:
    def test_noise_moments_match_hand_computation(self):
        model = manual_scalar_model()
        out = predict(model, np.array([1.0]))

        # marginal 0.75 / (1 - 0.25) = 1, correlation 0.5 at distance 1
        assert_allclose(out.noise_log_mean, 0.5 * (0.4 - 0.5) - 9.0, rtol=1e-12)
        jitter = ar1_jitter(model.noise_kernels[0])
        phi = 1.0 - 0.25 / ((1.0 + jitter) + 1.0 / 0.4)
        assert_allclose(out.noise_log_var, phi, rtol=1e-12)
        assert_allclose(out.component_noise_vars, np.exp(-9.05 + 0.5 * phi), rtol=1e-12)

    def test_zero_mean_kernel_gives_zero_mean(self):
        model = manual_scalar_model()
        out = predict(model, np.array([1.0]))
        assert out.mean == 0.0
        assert np.all(out.component_means == 0.0)
        assert np.all(out.component_mean_vars == 0.0)
        assert_allclose(out.weights, [1.0])
        assert_allclose(out.variance, out.component_noise_vars[0], rtol=1e-15)


def explicit_moments(model, xstar):
    """Direct solve of the predictive equations with dense inverses."""
    state = model.state
    X, Y = model.X, model.Y
    C, D, n = state.m.shape
    tau = np.empty((C, D))
    phi = np.empty((C, D))
    a = np.zeros((C, D))
    svar = np.zeros((C, D))
    xs = xstar[None, :]
    for c in range(C):
        nk = model.noise_kernels[c]
        lam = design_matrix(nk, X) + ar1_jitter(nk) * np.eye(n)
        lam_cross = design_matrix(nk, X, xs)[:, 0]
        lam_ss = design_matrix(nk, xs)[0, 0]
        mk = model.mean_kernels[c]
        for d in range(D):
            Q = state.Q[c, d]
            tau[c, d] = lam_cross @ np.linalg.inv(lam) @ (state.m[c, d] - model.m_tilde[c, d]) + model.m_tilde[c, d]
            phi[c, d] = lam_ss - lam_cross @ np.linalg.inv(lam + np.diag(1.0 / Q)) @ lam_cross
            if not isinstance(mk, ZeroKernel):
                K = design_matrix(mk, X) + ar1_jitter(mk) * np.eye(n)
                k_cross = design_matrix(mk, X, xs)[:, 0]
                B = state.R[:, c] * state.inv_noise[c, d]
                gain = np.linalg.inv(K + np.diag(1.0 / B))
                a[c, d] = k_cross @ gain @ Y[:, d]
                svar[c, d] = design_matrix(mk, xs)[0, 0] - k_cross @ gain @ k_cross
    psi = np.exp(tau + 0.5 * phi)
    weights = np.asarray(predict(model, xstar).weights)
    return weights @ a, (weights**2) @ (svar + psi), tau, phi, a, svar


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(4)
    X = np.sort(rng.standard_normal(20))[:, None]
    Y = 0.2 * rng.standard_normal((20, 1))
    config = MgpchConfig(
        pyp=PypConfig(truncation=1),
        mean_kernels=(Ar1Kernel(phi=0.6, sigma0_sq=0.3),),
        max_iters=12,
        seed=4,
    )
    return fit(X, Y, config)


class TestFittedModel:
    def test_matches_explicit_inverses(self, fitted):
        for xs in (np.array([0.3]), np.array([-2.0])):
            out = predict(fitted, xs)
            mean, var, tau, phi, a, svar = explicit_moments(fitted, xs)
            assert_allclose(out.noise_log_mean, tau, rtol=1e-9)
            assert_allclose(out.noise_log_var, phi, rtol=1e-7, atol=1e-12)
            assert_allclose(out.component_means, a, rtol=1e-9)
            assert_allclose(out.component_mean_vars, svar, rtol=1e-7, atol=1e-12)
            assert_allclose(out.mean, mean, rtol=1e-9)
            assert_allclose(out.variance, var, rtol=1e-7)

    def test_single_component_variance_decomposition(self, fitted):
        out = predict(fitted, np.array([0.0]))
        assert_allclose(out.weights, [1.0])
        assert_allclose(
            out.variance,
            out.component_mean_vars[0] + out.component_noise_vars[0],
            rtol=1e-15,
        )


def gp_conditional(model, xstar):
    """GP conditional of each log-variance posterior at xstar, with scipy.

    tau = m_tilde + k*' Lam^-1 (m - m_tilde) and
    phi = k** - k*' Lam^-1 k* + k*' Lam^-1 S Lam^-1 k*.
    """
    state = model.state
    X = model.X
    C, D, n = state.m.shape
    S = state.S
    tau = np.empty((C, D))
    phi = np.empty((C, D))
    for c in range(C):
        nk = model.noise_kernels[c]
        marginal = nk.sigma0_sq / (1.0 - nk.phi**2)
        lam = marginal * nk.phi ** cdist(X, X) + ar1_jitter(nk) * np.eye(n)
        k_star = marginal * nk.phi ** cdist(X, xstar[None, :])[:, 0]
        factor = cho_factor(lam, lower=True)
        v = cho_solve(factor, k_star)
        for d in range(D):
            alpha = cho_solve(factor, state.m[c, d] - model.m_tilde[c, d])
            tau[c, d] = model.m_tilde[c, d] + k_star @ alpha
            phi[c, d] = marginal - k_star @ v + v @ S[c, d] @ v
    return tau, phi


class TestThreeComponentNoiseForecast:
    def test_noise_moments_equal_the_gp_conditional(self):
        rng = np.random.default_rng(8)
        r = 0.01 * rng.standard_normal(61) * np.repeat([1.0, 3.0, 0.5], [20, 21, 20])
        X, Y = r[:-1, None], r[1:, None]
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=3), max_iters=20, seed=1))
        assert np.min(model.state.R) < 0.5  # responsibilities below one in every component
        for xs in (Y[-1], np.array([0.0]), np.array([0.03])):
            out = predict(model, xs)
            tau, phi = gp_conditional(model, xs)
            assert_allclose(out.noise_log_mean, tau, rtol=1e-9)
            assert_allclose(out.noise_log_var, phi, rtol=1e-7, atol=1e-12)
            assert_allclose(out.component_noise_vars, np.exp(tau + 0.5 * phi), rtol=1e-7)


def mean_conditional(model, xstar):
    """q(f) predictive of each component's mean, with scipy.

    mean = k*' K^-1 mu and var = k** - k*' K^-1 k* + k*' K^-1 Sigma K^-1 k*.
    """
    state = model.state
    C, D, n = state.mu.shape
    mean = np.empty((C, D))
    var = np.empty((C, D))
    for c, mk in enumerate(model.mean_kernels):
        marginal = mk.sigma0_sq / (1.0 - mk.phi**2)
        K = marginal * mk.phi ** cdist(model.X, model.X) + ar1_jitter(mk) * np.eye(n)
        k_star = marginal * mk.phi ** cdist(model.X, xstar[None, :])[:, 0]
        v = cho_solve(cho_factor(K, lower=True), k_star)
        for d in range(D):
            _, Sigma = latent_function_posterior(K, state.B[c, d], model.Y[:, d])
            mean[c, d] = v @ state.mu[c, d]
            var[c, d] = marginal - k_star @ v + v @ Sigma @ v
    return mean, var


class TestThreeComponentMeanForecast:
    def test_component_means_are_the_q_f_predictive(self):
        rng = np.random.default_rng(8)
        r = 0.01 * rng.standard_normal(61) * np.repeat([1.0, 3.0, 0.5], [20, 21, 20])
        X, Y = r[:-1, None], r[1:, None]
        kernel = Ar1Kernel(phi=float(np.exp(np.log(0.5) / 0.01)), sigma0_sq=1e-5)
        config = MgpchConfig(pyp=PypConfig(truncation=3), mean_kernels=(kernel,) * 3, max_iters=20, seed=1)
        model = fit(X, Y, config)
        # the last responsibility update moved R after the mean update's B
        assert not np.allclose(model.state.B, model.state.R.T[:, None, :] * model.state.inv_noise, rtol=1e-6)
        for xs in (Y[-1], np.array([0.0]), np.array([0.03])):
            out = predict(model, xs)
            mean, var = mean_conditional(model, xs)
            assert_allclose(out.component_means, mean, rtol=1e-10)
            assert_allclose(out.component_mean_vars, var, rtol=1e-10)


class TestMixtureWeights:
    def test_weights_normalized_and_variance_positive(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 2))
        Y = 0.5 * rng.standard_normal((30, 2))
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=4), max_iters=8))
        out = predict(model, np.array([0.2, -0.4]))
        assert_allclose(out.weights.sum(), 1.0, atol=1e-12)
        assert np.all(out.weights >= 0.0)
        assert np.all(out.variance > 0.0)
        assert out.mean.shape == (2,)
        assert out.component_noise_vars.shape == (4, 2)


class TestValidation:
    def test_unfitted_model_rejected(self):
        model = manual_scalar_model()
        model.state = None
        with pytest.raises(ModelStateError):
            predict(model, np.array([0.0]))

    def test_wrong_input_dimension_rejected(self):
        model = manual_scalar_model()
        with pytest.raises(InvalidArgumentError):
            predict(model, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((16, 1))
        Y = 0.05 * rng.standard_normal((16, 1))
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=2), max_iters=3, seed=5))
        with pytest.raises(InvalidArgumentError, match="finite"):
            predict(model, np.array([bad]))


class TestPredictBatch:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(2, 12),
        p=st.sampled_from([1, 2]),
        C=st.integers(1, 3),
        mean_kernel=st.booleans(),
        extra=st.integers(-1, 2),
        seed=st.integers(0, 2**16),
    )
    def test_rows_equal_single_input_forecasts(self, n, p, C, mean_kernel, extra, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        Y = 0.05 * rng.standard_normal((n, 2))
        config = MgpchConfig(
            pyp=PypConfig(truncation=C),
            mean_kernels=[Ar1Kernel(0.5, 0.4)] * C if mean_kernel else None,
            max_iters=3,
            seed=seed,
        )
        model = fit(X, Y, config)
        # M from 1 to N + 2: training inputs, new inputs and repeated rows
        M = max(1, n + extra)
        pool = np.vstack([X, rng.standard_normal((n, p))])
        Xstar = pool[rng.integers(0, 2 * n, size=M)]
        batch = predict_batch(model, Xstar)
        assert batch.mean.shape == (M, 2)
        assert batch.component_noise_vars.shape == (M, C, 2)
        assert batch.weights.shape == (C,)
        # a posterior variance is its prior variance less a solve-based term,
        # so it is compared on the prior's scale, and so is the mixture
        # variance, which blends the regression variances with the squared
        # weights; everything else relatively
        mean_prior = 0.4 / 0.75 if mean_kernel else 0.0
        prior = {
            "noise_log_var": model.noise_kernels[0].marginal_variance,
            "component_mean_vars": mean_prior,
            "variance": mean_prior * float(np.sum(batch.weights**2)),
        }
        for i, x in enumerate(Xstar):
            row = predict(model, x)
            assert np.array_equal(batch.weights, row.weights)
            for f in dataclasses.fields(row):
                if f.name != "weights":
                    atol = 1e-12 * prior.get(f.name, 0.0)
                    assert_allclose(getattr(batch, f.name)[i], getattr(row, f.name), rtol=1e-12, atol=atol, err_msg=f.name)

    def test_rejects_malformed_inputs(self):
        model = manual_scalar_model()
        for bad in (np.zeros(1), np.zeros((0, 1)), np.zeros((2, 2))):
            with pytest.raises(InvalidArgumentError):
                predict_batch(model, bad)
        with pytest.raises(InvalidArgumentError, match="finite"):
            predict_batch(model, np.array([[0.0], [np.nan]]))
