"""Oracle tests for the coordinate updates and the free energy.

The closed-form posteriors are checked against explicit matrix-inverse
computations, and the free energy against a looped direct summation of
every term using scipy's special functions.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.special import betaln as sp_betaln
from scipy.special import digamma as sp_digamma
from scipy.special import gammaln as sp_gammaln

import mgpch.model as model_module
from mgpch.errors import InvalidArgumentError
from mgpch.kernels import Ar1Kernel, ZeroKernel, ar1_jitter, design_matrix
from mgpch.model import (
    MgpchConfig,
    _diag_precision_posterior,
    _init_state,
    _latent_candidate,
    _make_context,
    _noise_candidate,
    _ou_moments,
    _ou_transitions,
    _posterior_cov,
    expected_noise_variance,
    fit,
    free_energy,
    latent_function_posterior,
    noise_posterior_given_q,
    refresh_caches,
    update_latent_functions,
    update_noise_processes,
    update_responsibilities,
)
from mgpch.pyp import InnovationPosterior, PypConfig


def random_spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T + n * np.eye(n))


def latent_covariances(state, ctx):
    """Sigma of every block from the public closed form at the stored B; zero for zero-kernel components."""
    C, D, n = state.mu.shape
    Sigma = np.zeros((C, D, n, n))
    for c in range(C):
        if ctx.K[c] is not None:
            for d in range(D):
                Sigma[c, d] = latent_function_posterior(ctx.K[c], state.B[c, d], ctx.Y[:, d])[1]
    return Sigma


def brute_force_free_energy(state, ctx):
    """Direct summation of every free-energy term with explicit inverses."""
    C, D, n = state.m.shape
    cfg = ctx.config.pyp
    Y = ctx.Y
    S_all, Sigma = state.S, latent_covariances(state, ctx)
    total = 0.0
    for c in range(C):
        lam_inv = np.linalg.inv(ctx.lam[c])
        lam_logdet = np.linalg.slogdet(ctx.lam[c])[1]
        for d in range(D):
            S = S_all[c, d]
            diff = state.m[c, d] - ctx.m_tilde[c, d]
            total -= 0.5 * (
                np.trace(lam_inv @ S)
                + diff @ lam_inv @ diff
                - n
                + lam_logdet
                - np.linalg.slogdet(S)[1]
            )
            if ctx.K[c] is not None:
                K_inv = np.linalg.inv(ctx.K[c])
                mu = state.mu[c, d]
                total -= 0.5 * (
                    np.trace(K_inv @ Sigma[c, d])
                    + mu @ K_inv @ mu
                    - n
                    + np.linalg.slogdet(ctx.K[c])[1]
                    - np.linalg.slogdet(Sigma[c, d])[1]
                )

    a, b = state.innovation.eta1_hat, state.innovation.eta2_hat
    elog_alpha = sp_digamma(a) - np.log(b)
    ealpha = a / b
    total += (
        cfg.eta1 * np.log(cfg.eta2)
        - sp_gammaln(cfg.eta1)
        + (cfg.eta1 - 1.0) * elog_alpha
        - cfg.eta2 * ealpha
    )
    total += a - np.log(b) + sp_gammaln(a) + (1.0 - a) * sp_digamma(a)

    b1, b2 = state.sticks.beta1, state.sticks.beta2
    elogv = sp_digamma(b1) - sp_digamma(b1 + b2)
    elog1mv = sp_digamma(b2) - sp_digamma(b1 + b2)
    for i in range(b1.size):
        entropy = (
            sp_betaln(b1[i], b2[i])
            - (b1[i] - 1.0) * sp_digamma(b1[i])
            - (b2[i] - 1.0) * sp_digamma(b2[i])
            + (b1[i] + b2[i] - 2.0) * sp_digamma(b1[i] + b2[i])
        )
        total += (
            elog_alpha
            - cfg.delta * elogv[i]
            + (ealpha + cfg.delta * (i + 1) - 1.0) * elog1mv[i]
            + entropy
        )

    elogw = np.zeros(C)
    for c in range(C):
        if c < b1.size:
            elogw[c] = elogv[c]
        elogw[c] += elog1mv[:c].sum()

    for row in range(n):
        for c in range(C):
            r = state.R[row, c]
            if r > 0.0:
                total += r * (elogw[c] - np.log(r))
            ell = 0.0
            for d in range(D):
                m_n = state.m[c, d, row]
                s_nn = S_all[c, d, row, row]
                resid2 = (Y[row, d] - state.mu[c, d, row]) ** 2 + Sigma[c, d, row, row]
                ell += -0.5 * (
                    np.log(2.0 * np.pi) + m_n + resid2 * np.exp(-m_n + 0.5 * s_nn)
                )
            total += r * ell
    return total


class TestNoisePosterior:
    def test_unit_scalar_frozen_values(self):
        m, S = noise_posterior_given_q(
            np.array([[1.0]]), np.array([1.0]), np.array([1.0]), 0.0
        )
        assert_allclose(S, [[0.5]], rtol=1e-12)
        assert_allclose(m, [0.5], rtol=1e-12)
        assert_allclose(expected_noise_variance(m, np.diagonal(S)), [np.exp(0.25)], rtol=1e-12)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(2, 8)
            lam = random_spd(rng, n)
            Q = rng.uniform(0.0, 2.0, size=n)
            Q[rng.integers(n)] = 0.0
            qz = rng.uniform(0.0, 1.0, size=n)
            m_tilde = rng.normal()
            m, S = noise_posterior_given_q(lam, Q, qz, m_tilde)
            S_ref = np.linalg.inv(np.linalg.inv(lam) + np.diag(Q))
            m_ref = lam @ (Q - 0.5 * qz) + m_tilde
            assert_allclose(S, S_ref, rtol=1e-9, atol=1e-12)
            assert_allclose(m, m_ref, rtol=1e-9, atol=1e-12)

    def test_zero_q_returns_prior(self):
        rng = np.random.default_rng(3)
        lam = random_spd(rng, 5)
        qz = np.zeros(5)
        m, S = noise_posterior_given_q(lam, np.zeros(5), qz, -2.0)
        assert_allclose(S, lam, rtol=1e-12)
        assert_allclose(m, np.full(5, -2.0), rtol=1e-12)

    def test_negative_q_rejected(self):
        with pytest.raises(InvalidArgumentError):
            noise_posterior_given_q(np.eye(2), np.array([1.0, -0.1]), np.zeros(2), 0.0)


class TestLatentFunctionPosterior:
    def test_unit_scalar_frozen_values(self):
        mu, Sigma = latent_function_posterior(
            np.array([[1.0]]), np.array([1.0]), np.array([2.0])
        )
        assert_allclose(Sigma, [[0.5]], rtol=1e-12)
        assert_allclose(mu, [1.0], rtol=1e-12)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 8)
            K = random_spd(rng, n)
            B = rng.uniform(0.0, 3.0, size=n)
            B[rng.integers(n)] = 0.0
            y = rng.standard_normal(n)
            mu, Sigma = latent_function_posterior(K, B, y)
            Sigma_ref = np.linalg.inv(np.linalg.inv(K) + np.diag(B))
            mu_ref = Sigma_ref @ (B * y)
            assert_allclose(Sigma, Sigma_ref, rtol=1e-9, atol=1e-12)
            assert_allclose(mu, mu_ref, rtol=1e-9, atol=1e-12)

    def test_zero_precision_returns_prior(self):
        rng = np.random.default_rng(5)
        K = random_spd(rng, 4)
        mu, Sigma = latent_function_posterior(K, np.zeros(4), rng.standard_normal(4))
        assert_allclose(Sigma, K, rtol=1e-12)
        assert_allclose(mu, np.zeros(4), atol=1e-15)


def assert_rel(actual, desired, tol=1e-10):
    """Agreement to ``tol`` relative to the largest entry of ``desired``."""
    desired = np.asarray(desired, dtype=float)
    scale = max(float(np.max(np.abs(desired))), 1e-300)
    assert float(np.max(np.abs(np.asarray(actual) - desired))) <= tol * scale


def prior_kl(mean_diff, cov, prior):
    """KL(N(mean, cov) || N(prior_mean, prior)) from full Cholesky factors of both matrices."""
    L = cholesky(prior, lower=True)
    Ls = cholesky(0.5 * (cov + cov.T), lower=True)
    w = solve_triangular(L, mean_diff, lower=True)
    logdets = 2.0 * np.sum(np.log(np.diag(L))) - 2.0 * np.sum(np.log(np.diag(Ls)))
    return 0.5 * (np.trace(cho_solve((L, True), cov)) + w @ w - cov.shape[0] + logdets)


class TestFastCandidate:
    """One factorization per candidate against explicit inverses and full-matrix KLs."""

    def test_noise_candidate_matches_full_posterior(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            lam = random_spd(rng, n, scale=rng.uniform(0.1, 3.0))
            Q = rng.uniform(0.0, 2.0, size=n)
            Q[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
            qz = rng.uniform(0.0, 1.0, size=n)
            m_tilde = rng.normal()
            m, s_diag, kl, _, W = _noise_candidate(lam, Q, qz, m_tilde)
            S_ref = np.linalg.inv(np.linalg.inv(lam) + np.diag(Q))
            m_ref = m_tilde + lam @ (Q - 0.5 * qz)
            m_pub, S_pub = noise_posterior_given_q(lam, Q, qz, m_tilde)
            assert_rel(m, m_ref)
            assert_rel(m, m_pub)
            assert_rel(s_diag, np.diagonal(S_ref))
            assert_rel(_posterior_cov(lam, W, s_diag), S_ref)
            assert_rel(S_pub, S_ref)
            assert_rel(kl, prior_kl(m_ref - m_tilde, S_ref, lam))

    def test_latent_candidate_matches_full_posterior(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            K = random_spd(rng, n, scale=rng.uniform(0.1, 3.0))
            B = rng.uniform(0.0, 3.0, size=n)
            B[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
            y = rng.standard_normal(n)
            mu, Sigma, diag, kl_core = _latent_candidate(K, B, y)
            Sigma_ref = np.linalg.inv(np.linalg.inv(K) + np.diag(B))
            mu_ref = Sigma_ref @ (B * y)
            mu_pub, Sigma_pub = latent_function_posterior(K, B, y)
            assert_rel(mu, mu_ref)
            assert_rel(mu_pub, mu_ref)
            assert_rel(Sigma, Sigma_ref)
            assert_rel(Sigma_pub, Sigma_ref)
            assert_rel(diag, np.diagonal(Sigma_ref))
            quad = float(mu_ref @ np.linalg.solve(K, mu_ref))
            assert_rel(0.5 * (quad + kl_core), prior_kl(mu_ref, Sigma_ref, K))

    @pytest.mark.parametrize("p", [1, 2])
    def test_updated_blocks_match_public_posteriors_with_more_components_than_points(self, p):
        ctx = small_context(seed=6, n=3, n_components=4, mean_kernel=Ar1Kernel(phi=0.5, sigma0_sq=1.0), p=p)
        assert (ctx.ou is None) == (p > 1)
        state = _init_state(ctx)
        for _ in range(3):
            update_noise_processes(state, ctx)
            update_latent_functions(state, ctx)
            C, D, _ = state.m.shape
            S_state = state.S
            for c in range(C):
                for d in range(D):
                    qz = state.R[:, c]
                    m, S = noise_posterior_given_q(ctx.lam[c], state.Q[c, d], qz, ctx.m_tilde[c, d])
                    assert_rel(state.m[c, d], m)
                    assert_rel(S_state[c, d], S)
                    assert np.array_equal(np.diagonal(S_state[c, d]), state.s_diag[c, d])
                    assert_rel(state.g_kl[c, d], prior_kl(m - ctx.m_tilde[c, d], S, ctx.lam[c]))
                    mu, Sigma = latent_function_posterior(
                        ctx.K[c], qz * state.inv_noise[c, d], ctx.Y[:, d]
                    )
                    assert_rel(state.mu[c, d], mu)
                    assert_rel(state.omega[c, d], (ctx.Y[:, d] - mu) ** 2 + np.diagonal(Sigma))
                    assert_rel(state.f_kl[c, d], prior_kl(mu, Sigma, ctx.K[c]))
            update_responsibilities(state, ctx)

    def test_rebuilt_caches_equal_the_updated_ones_bit_for_bit(self):
        ctx = small_context(seed=2, n=8, n_components=3, mean_kernel=Ar1Kernel(phi=0.4, sigma0_sq=0.8))
        state = _init_state(ctx)
        for _ in range(3):
            update_noise_processes(state, ctx)
            update_latent_functions(state, ctx)
            update_responsibilities(state, ctx)
        names = ("s_diag", "inv_noise", "omega", "f_kl")
        updated = {name: getattr(state, name).copy() for name in names}
        chol, g_kl = state.noise_chol, state.g_kl.copy()
        refresh_caches(state, ctx)
        for name in names:
            assert np.array_equal(getattr(state, name), updated[name]), name
        for row, row_updated in zip(state.noise_chol, chol):
            assert all(np.array_equal(a, b) for a, b in zip(row, row_updated))
        # the rebuild takes the quadratic term as (m - m~)' Lam^-1 (m - m~), the update as t' Lam t
        assert_allclose(state.g_kl, g_kl, rtol=1e-10)


def small_context(seed=0, n=6, n_components=2, mean_kernel=None, p=1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    Y = 0.05 * rng.standard_normal((n, 1))
    kernels = None
    if mean_kernel is not None:
        kernels = (mean_kernel,) * n_components
    config = MgpchConfig(
        pyp=PypConfig(delta=0.25, truncation=n_components),
        mean_kernels=kernels,
        noise_kernels=(Ar1Kernel(phi=0.6, sigma0_sq=0.5),) * n_components,
        m_tilde=np.log(0.05**2),
        max_iters=0,
        seed=seed,
    )
    return _make_context(X, Y, config)


class TestPriorRecovery:
    def test_zero_responsibility_component_reverts_to_prior(self):
        ctx = small_context(mean_kernel=Ar1Kernel(phi=0.5, sigma0_sq=1.0))
        state = _init_state(ctx)
        state.R = np.column_stack([np.ones(6), np.zeros(6)])
        refresh_caches(state, ctx)
        update_noise_processes(state, ctx)
        update_latent_functions(state, ctx)
        assert_allclose(state.m[1, 0], np.full(6, ctx.m_tilde[1, 0]), rtol=1e-12)
        assert_allclose(state.S[1, 0], ctx.lam[1], rtol=1e-10, atol=1e-14)
        assert_allclose(state.mu[1, 0], np.zeros(6), atol=1e-12)
        assert_allclose(latent_covariances(state, ctx)[1, 0], ctx.K[1], rtol=1e-10, atol=1e-14)
        assert_allclose(state.g_kl[1, 0], 0.0, atol=1e-10)
        assert_allclose(state.f_kl[1, 0], 0.0, atol=1e-10)


class TestResponsibilities:
    def test_rows_normalized_and_match_brute_force(self):
        ctx = small_context(seed=4)
        state = _init_state(ctx)
        update_noise_processes(state, ctx)
        update_responsibilities(state, ctx)
        assert_allclose(state.R.sum(axis=1), np.ones(6), rtol=0, atol=1e-12)

        from mgpch.pyp import expected_log_weights

        elogw = expected_log_weights(state.sticks)
        n, C = state.R.shape
        S, Sigma = state.S, latent_covariances(state, ctx)
        logits = np.empty((n, C))
        for row in range(n):
            for c in range(C):
                acc = 0.0
                for d in range(state.m.shape[1]):
                    m_n = state.m[c, d, row]
                    s_nn = S[c, d, row, row]
                    resid2 = (
                        ctx.Y[row, d] - state.mu[c, d, row]
                    ) ** 2 + Sigma[c, d, row, row]
                    acc += resid2 * np.exp(-m_n + 0.5 * s_nn) + m_n
                logits[row, c] = elogw[c] - 0.5 * acc
        expected = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert_allclose(state.R, expected, rtol=1e-10, atol=1e-14)


class TestFreeEnergy:
    def test_prior_state_has_zero_kl_terms(self):
        ctx = small_context(mean_kernel=Ar1Kernel(phi=0.5, sigma0_sq=1.0))
        state = _init_state(ctx)
        C, D, n = state.m.shape
        for c in range(C):
            for d in range(D):
                state.Q[c, d] = np.zeros(n)
                state.m[c, d] = np.full(n, ctx.m_tilde[c, d])
                state.mu[c, d] = np.zeros(n)
        state.innovation = InnovationPosterior(ctx.config.pyp.eta1, ctx.config.pyp.eta2)
        refresh_caches(state, ctx)
        assert_allclose(state.g_kl, np.zeros((C, D)), atol=1e-10)
        assert_allclose(state.f_kl, np.zeros((C, D)), atol=1e-10)
        value = free_energy(state, ctx)
        assert_allclose(value, brute_force_free_energy(state, ctx), rtol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_direct_summation_after_updates(self, seed):
        ctx = small_context(seed=seed, n_components=3)
        state = _init_state(ctx)
        from mgpch.model import update_mixture_posteriors

        update_noise_processes(state, ctx)
        update_responsibilities(state, ctx)
        update_mixture_posteriors(state, ctx)
        assert_allclose(
            free_energy(state, ctx), brute_force_free_energy(state, ctx), rtol=1e-10
        )

    def test_direct_summation_with_mean_kernels(self):
        ctx = small_context(seed=9, mean_kernel=Ar1Kernel(phi=0.4, sigma0_sq=0.8))
        state = _init_state(ctx)
        update_noise_processes(state, ctx)
        update_latent_functions(state, ctx)
        update_responsibilities(state, ctx)
        assert_allclose(
            free_energy(state, ctx), brute_force_free_energy(state, ctx), rtol=1e-10
        )


class TestMonotonicity:
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_coordinate_updates_never_decrease_free_energy(self, seed):
        from mgpch.model import update_mixture_posteriors

        ctx = small_context(seed=seed, n=10, n_components=3)
        state = _init_state(ctx)
        values = [free_energy(state, ctx)]
        for _ in range(5):
            update_noise_processes(state, ctx)
            values.append(free_energy(state, ctx))
            update_latent_functions(state, ctx)
            values.append(free_energy(state, ctx))
            update_responsibilities(state, ctx)
            values.append(free_energy(state, ctx))
            update_mixture_posteriors(state, ctx)
            values.append(free_energy(state, ctx))
        values = np.array(values)
        drops = np.diff(values)
        floor = -1e-8 * np.maximum(1.0, np.abs(values[:-1]))
        assert np.all(drops >= floor), f"free energy decreased: {values}"

    @pytest.mark.parametrize("p", [1, 2])
    def test_noise_update_keeps_blocks_whose_candidates_overflow(self, p):
        # zero outputs pull Q to zero, and a prior variance of 1e6 then sends
        # every candidate's mean so low that exp(S/2 - m) overflows
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, p))
        config = MgpchConfig(
            pyp=PypConfig(truncation=2),
            noise_kernels=(Ar1Kernel(phi=0.9, sigma0_sq=0.19e6),) * 2,
            m_tilde=0.0,
            seed=0,
        )
        ctx = _make_context(X, np.zeros((6, 1)), config)
        assert (ctx.ou is None) == (p > 1)
        state = _init_state(ctx)
        before = {k: np.copy(getattr(state, k)) for k in ("m", "S", "Q", "g_kl", "inv_noise")}
        chol = [list(row) for row in state.noise_chol]
        for c in range(2):
            gentlest = (1.0 - model_module._BACKTRACK_STEPS[-1]) * state.Q[c, 0]
            m, s_diag, _, _, _ = _noise_candidate(ctx.lam[c], gentlest, state.R[:, c], 0.0)
            assert np.max(0.5 * s_diag - m) > np.log(np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            update_noise_processes(state, ctx)
        for k, value in before.items():
            assert np.array_equal(getattr(state, k), value), k
        assert all(a is b for row, old in zip(state.noise_chol, chol) for a, b in zip(row, old))


@st.composite
def scalar_input_blocks(draw):
    """One-column inputs with ties at scales 1e-9..1, per-component AR(1) kernels, and Q rows with zeros."""
    n = draw(st.integers(1, 40))
    C = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = 10.0 ** draw(st.floats(-9.0, 0.0))
    X = scale * rng.standard_normal((n, 1))
    ties = draw(st.integers(0, n - 1))
    X[rng.integers(n, size=ties), 0] = X[rng.integers(n, size=ties), 0]
    phis = draw(st.lists(st.floats(1e-12, 1.0 - 1e-6), min_size=C, max_size=C))
    marginals = draw(st.lists(st.floats(0.1, 3.0), min_size=C, max_size=C))
    kernels = tuple(Ar1Kernel(phi=p, sigma0_sq=(1.0 - p * p) * v) for p, v in zip(phis, marginals))
    rows = draw(st.integers(1, 2 * C))
    comp = rng.integers(C, size=rows)
    Q = rng.uniform(0.0, 5.0, size=(rows, n))
    Q[rng.random((rows, n)) < draw(st.floats(0.0, 1.0))] = 0.0
    return X, kernels, comp, Q


class TestScalarInputPath:
    """The Kalman-filter noise moments on one-column inputs against the dense factor."""

    @settings(max_examples=200, deadline=None)
    @given(scalar_input_blocks())
    @example((np.zeros((3, 1)), (Ar1Kernel(1e-12, 1.0),) * 4, np.arange(4), np.array([[0.0, 1.0, 0.0]] * 4)))
    def test_moments_match_the_dense_factor(self, case):
        X, kernels, comp, Q = case
        ou = _ou_transitions(X, kernels)
        s_diag, kl_core = _ou_moments(ou, comp, Q)
        for row, c in enumerate(comp):
            lam = design_matrix(kernels[c], X) + ar1_jitter(kernels[c]) * np.eye(X.shape[0])
            _, _, diag_ref, kl_ref = _diag_precision_posterior(lam, Q[row], "noise bound matrix")
            assert_allclose(s_diag[row], diag_ref, rtol=1e-10, atol=0.0)
            # relative to the size of log|A| and Q . diag(S), whose difference kl_core is
            assert abs(kl_core[row] - kl_ref) <= 1e-10 * (abs(kl_ref) + float(Q[row] @ diag_ref))

    def test_fit_matches_the_dense_evaluator(self, monkeypatch):
        rng = np.random.default_rng(12)
        r = 0.01 * rng.standard_normal(81) * np.repeat([1.0, 2.5, 0.6], 27)
        r[rng.integers(81, size=8)] = 0.0  # tied inputs
        X, Y = r[:-1, None], r[1:, None]
        config = MgpchConfig(pyp=PypConfig(truncation=3), seed=3)
        markov = fit(X, Y, config)
        assert markov._ctx.ou is not None
        monkeypatch.setattr(model_module, "_ou_transitions", lambda X, kernels: None)
        dense = fit(X, Y, config)
        assert dense._ctx.ou is None
        assert len(markov.free_energy_trace) == len(dense.free_energy_trace)
        assert markov.free_energy_trace[-1] == pytest.approx(dense.free_energy_trace[-1], rel=1e-12, abs=0.0)
