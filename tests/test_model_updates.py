"""Oracle tests for the coordinate updates and the free energy.

The closed-form posteriors are checked against explicit matrix-inverse
computations, and the free energy against a looped direct summation of
every term using scipy's special functions.
"""

import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.special import betaln as sp_betaln
from scipy.special import digamma as sp_digamma
from scipy.special import gammaln as sp_gammaln

import mgpch.model as model_module
from mgpch.errors import InvalidArgumentError
from mgpch.kernels import Ar1Kernel
from mgpch.model import (
    MgpchConfig,
    _diag_precision_posterior,
    _init_state,
    _latent_candidate,
    _make_context,
    _posterior_cov,
    fit,
    free_energy,
    refresh_caches,
    update_latent_functions,
    update_mixture_posteriors,
    update_noise_processes,
    update_responsibilities,
)
from mgpch.pyp import InnovationPosterior, PypConfig

from oracles import expected_noise_variance, latent_function_posterior, noise_posterior_given_q


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


def mp_matrix(a):
    """An mpmath matrix, or column vector for 1-d input, holding the doubles of ``a`` exactly."""
    return mp.matrix(np.asarray(a, dtype=float).tolist())


def exact_kl(prior, prec, alpha):
    """KL of ``N(prior alpha, (prior^-1 + diag prec)^-1)`` from ``N(0, prior)`` in mpmath.

    ``alpha`` is the natural mean, an mpmath vector.  The core ``log|A| -
    trace(A^-1 B)``, with ``B = sqrt(P) prior sqrt(P)`` and ``A = I + B``, is
    second order in B, so the working precision gains the digits of ``trace(B)^-2``.
    """
    n = len(prec)
    trace = float(np.sum(prec * np.diagonal(prior)))
    digits = 50 + (2 * int(-math.log10(trace)) if 0.0 < trace < 1.0 else 0)
    with mp.workdps(digits):
        root = mp.diag([mp.sqrt(mp.mpf(float(p))) for p in prec])
        P = mp_matrix(prior)
        B = root * P * root
        A = mp.eye(n) + B
        core = mp.log(mp.det(A)) - sum((mp.inverse(A) * B)[i, i] for i in range(n))
        quad = (alpha.T * P * alpha)[0, 0]
        return float(0.5 * (quad + core))


def exact_natural_step(before, ctx, c, d, s, Q):
    """Natural mean ``t + s (grad - Q S grad)`` of block (c, d) after step s to bound parameter Q, in mpmath.

    ``grad = Q_hat - R_c / 2 - t`` is formed from the state ``before`` the
    update, ``S = (Lam^-1 + diag Q)^-1`` from explicit inverses.
    """
    with mp.workdps(60):
        qz, t = mp_matrix(before["R"][:, c]), mp_matrix(before["t"][c, d])
        omega, inv_noise = mp_matrix(before["omega"][c, d]), mp_matrix(before["inv_noise"][c, d])
        q_hat = mp.matrix([0.5 * qz[i] * omega[i] * inv_noise[i] for i in range(len(Q))])
        grad = q_hat - 0.5 * qz - t
        Qd = mp.diag([mp.mpf(float(q)) for q in Q])
        S = mp.inverse(mp.inverse(mp_matrix(ctx.lam[c])) + Qd)
        return t + mp.mpf(s) * (grad - Qd * S * grad)


def exact_latent_gain(K, B, y):
    """``K^-1 mu`` of the latent posterior mean ``mu = (K^-1 + diag B)^-1 (B y)``, in mpmath."""
    with mp.workdps(60):
        K_inv = mp.inverse(mp_matrix(K))
        Bd = mp.diag([mp.mpf(float(b)) for b in B])
        return K_inv * mp.inverse(K_inv + Bd) * (Bd * mp_matrix(y))


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
            _, W, s_diag, kl_core = _diag_precision_posterior(lam, Q, "noise bound matrix")
            S_ref = np.linalg.inv(np.linalg.inv(lam) + np.diag(Q))
            m_ref = m_tilde + lam @ (Q - 0.5 * qz)
            m_pub, S_pub = noise_posterior_given_q(lam, Q, qz, m_tilde)
            assert_rel(m_pub, m_ref)
            assert_rel(s_diag, np.diagonal(S_ref))
            assert_rel(_posterior_cov(lam, W, s_diag), S_ref)
            assert_rel(S_pub, S_ref)
            assert_rel(0.5 * kl_core, prior_kl(np.zeros(n), S_ref, lam))

    def test_latent_candidate_matches_full_posterior(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            K = random_spd(rng, n, scale=rng.uniform(0.1, 3.0))
            B = rng.uniform(0.0, 3.0, size=n)
            B[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
            y = rng.standard_normal(n)
            mu, diag, kl, _ = _latent_candidate(K, B, y)
            Sigma_ref = np.linalg.inv(np.linalg.inv(K) + np.diag(B))
            mu_ref = Sigma_ref @ (B * y)
            mu_pub, Sigma_pub = latent_function_posterior(K, B, y)
            assert_rel(mu, mu_ref)
            assert_rel(mu_pub, mu_ref)
            assert_rel(Sigma_pub, Sigma_ref)
            assert_rel(diag, np.diagonal(Sigma_ref))
            assert_rel(kl, prior_kl(mu_ref, Sigma_ref, K))

    @pytest.mark.parametrize("p", [1, 2])
    def test_updated_blocks_match_public_posteriors_with_more_components_than_points(self, p):
        ctx = small_context(seed=6, n=3, n_components=4, mean_kernel=Ar1Kernel(phi=0.5, sigma0_sq=1.0), p=p)
        assert (ctx.ou is None) == (p > 1)
        state = _init_state(ctx)
        for _ in range(3):
            before = noise_snapshot(state)
            update_noise_processes(state, ctx)
            update_latent_functions(state, ctx)
            C, D, _ = state.m.shape
            S_state = state.S
            for c in range(C):
                for d in range(D):
                    qz = state.R[:, c]
                    s, m = accepted_step(before, ctx, state, c, d)
                    S = noise_posterior_given_q(ctx.lam[c], state.Q[c, d], qz, ctx.m_tilde[c, d])[1]
                    assert_rel(state.m[c, d], m)
                    assert_rel(S_state[c, d], S)
                    assert np.array_equal(np.diagonal(S_state[c, d]), state.s_diag[c, d])
                    t = exact_natural_step(before, ctx, c, d, s, state.Q[c, d])
                    assert_rel(state.g_kl[c, d], exact_kl(ctx.lam[c], state.Q[c, d], t))
                    B = qz * state.inv_noise[c, d]
                    mu, Sigma = latent_function_posterior(ctx.K[c], B, ctx.Y[:, d])
                    assert_rel(state.mu[c, d], mu)
                    assert_rel(state.omega[c, d], (ctx.Y[:, d] - mu) ** 2 + np.diagonal(Sigma))
                    assert_rel(state.f_kl[c, d], exact_kl(ctx.K[c], B, exact_latent_gain(ctx.K[c], B, ctx.Y[:, d])))
            update_responsibilities(state, ctx)

    def test_rebuilt_caches_equal_the_updated_ones_bit_for_bit(self, monkeypatch):
        sweeps = count_sweeps(monkeypatch)
        for p in (1, 2):  # the scalar-input and the dense noise path
            ctx = small_context(seed=2, n=8, n_components=3, mean_kernel=Ar1Kernel(phi=0.4, sigma0_sq=0.8), p=p)
            sweeps.clear()
            model = fit(ctx.X, ctx.Y, replace(ctx.config, max_iters=3, tol=1e-300))
            assert len(sweeps) == 3  # plain sweeps and extrapolation tries alike
            state, ctx = model.state, model
            names = ("m", "mu", "s_diag", "inv_noise", "omega", "g_kl", "f_kl")
            updated = {name: getattr(state, name).copy() for name in names}
            refresh_caches(state, ctx)
            for name in names:
                assert np.array_equal(getattr(state, name), updated[name]), (p, name)


def count_sweeps(monkeypatch):
    """A list that grows by one entry per noise update, plain or in an extrapolation's sweep."""
    calls = []
    update = model_module.update_noise_processes
    monkeypatch.setattr(model_module, "update_noise_processes", lambda state, ctx: calls.append(1) or update(state, ctx))
    return calls


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


def noise_snapshot(state):
    """Copies of the arrays a noise update reads."""
    return {k: np.copy(getattr(state, k)) for k in ("R", "t", "m", "Q", "omega", "inv_noise")}


def cvi_ladder(before, ctx, c, d):
    """``(s, Q_s, m_s)`` of every damping step of block (c, d), in closed form with explicit inverses.

    From the state ``before`` a noise update: ``Q_s = (1 - s) Q + s Q_hat`` with
    ``Q_hat = R_c omega E[exp(-g)] / 2``, and ``m_s = m + s (Lam^-1 + diag Q_s)^-1 grad``
    with ``grad = Q_hat - R_c / 2 - t``.
    """
    qz = before["R"][:, c]
    q_hat = 0.5 * qz * before["omega"][c, d] * before["inv_noise"][c, d]
    grad = q_hat - 0.5 * qz - before["t"][c, d]
    lam_inv = np.linalg.inv(ctx.lam[c])
    ladder = []
    for s in model_module._BACKTRACK_STEPS:
        Q = (1.0 - s) * before["Q"][c, d] + s * q_hat
        ladder.append((s, Q, before["m"][c, d] + s * np.linalg.solve(lam_inv + np.diag(Q), grad)))
    return ladder


def accepted_step(before, ctx, state, c, d):
    """``(s, m_s)`` of the step block (c, d) took in the update after ``before``; s = 0 for a kept block."""
    for s, Q, m in cvi_ladder(before, ctx, c, d):
        if np.array_equal(Q, state.Q[c, d]):
            return s, m
    assert np.array_equal(state.Q[c, d], before["Q"][c, d]) and np.array_equal(state.t[c, d], before["t"][c, d])
    return 0.0, before["m"][c, d]


class TestNaturalMean:
    """q(g) keeps its natural mean t as the primal array; m is derived and no prior is factorized."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("with_mean_kernel", [False, True])
    def test_t_is_the_prior_solve_of_m_after_a_fit(self, p, with_mean_kernel):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((30, p))
        Y = 0.05 * rng.standard_normal((30, 2)) * np.repeat([1.0, 3.0], 15)[:, None]
        config = MgpchConfig(
            pyp=PypConfig(truncation=3),
            mean_kernels=(Ar1Kernel(phi=0.5, sigma0_sq=0.4),) * 3 if with_mean_kernel else None,
            max_iters=15,
            seed=2,
        )
        model = fit(X, Y, config)
        state, ctx = model.state, model
        assert (ctx.ou is None) == (p > 1)
        assert np.any(state.t != 0.0)
        C, D, _ = state.t.shape
        solved = 0
        for c, d in np.ndindex(C, D):
            diff = state.m[c, d] - ctx.m_tilde[c, d]
            if np.any(diff != 0.0):
                assert_rel(state.t[c, d], np.linalg.solve(ctx.lam[c], diff))
                solved += 1
            else:
                # an emptied component: Lam t is below the resolution of m_tilde,
                # so m holds no more than m_tilde + Lam t rounded
                assert np.array_equal(ctx.m_tilde[c, d] + ctx.lam[c] @ state.t[c, d], state.m[c, d])
        assert solved >= D

    @pytest.mark.parametrize("p", [1, 2])
    def test_only_bound_matrices_are_factorized(self, monkeypatch, p):
        labels = []
        factor = model_module.cholesky_factor

        def counted(A, context=""):
            labels.append(context)
            return factor(A, context=context)

        monkeypatch.setattr(model_module, "cholesky_factor", counted)
        ctx = small_context(seed=3, n=8, mean_kernel=Ar1Kernel(phi=0.5, sigma0_sq=1.0), p=p)
        assert labels == []
        state = _init_state(ctx)
        update_noise_processes(state, ctx)
        update_latent_functions(state, ctx)
        refresh_caches(state, ctx)
        assert labels and set(labels) <= {"noise bound matrix", "mean bound matrix"}


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
                state.t[c, d] = np.zeros(n)
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
        # zero outputs give Q_hat = 0, so with Q = 0 every step keeps S = Lam,
        # a prior variance of 1e6; with m just above diag(Lam) / 2, a step of
        # s pulls m down by about s diag(Lam) / 2, and exp(S/2 - m) overflows
        # from the gentlest step on
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
        state.Q[:] = 0.0
        for c in range(2):
            state.t[c, 0] = np.linalg.solve(ctx.lam[c], 0.5 * np.diagonal(ctx.lam[c]) + 10.0)
        refresh_caches(state, ctx)
        assert np.all(np.isfinite(state.inv_noise))
        before = {k: np.copy(getattr(state, k)) for k in ("t", "m", "S", "Q", "g_kl", "inv_noise")}
        for c in range(2):
            s, Q, m = cvi_ladder(noise_snapshot(state), ctx, c, 0)[-1]
            assert s == model_module._BACKTRACK_STEPS[-1] and np.all(Q == 0.0)
            assert np.max(0.5 * np.diagonal(ctx.lam[c]) - m) > np.log(np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            update_noise_processes(state, ctx)
        for k, value in before.items():
            assert np.array_equal(getattr(state, k), value), k


class TestNaturalGradientStep:
    """The noise update is a damped natural-gradient (CVI) step from the current state."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_a_block_with_a_gradient_moves_in_one_update(self, p):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, p))
        Y = 0.05 * rng.standard_normal((30, 1)) * np.repeat([1.0, 3.0], 15)[:, None]
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=3), max_iters=10, seed=1))
        state, ctx = model.state, model
        # the responsibilities moved after the last noise update, so no block is stationary
        before = noise_snapshot(state)
        update_noise_processes(state, ctx)
        C, D, _ = state.t.shape
        for c, d in np.ndindex(C, D):
            _, Q_hat, _ = cvi_ladder(before, ctx, c, d)[0]
            grad = Q_hat - 0.5 * before["R"][:, c] - before["t"][c, d]
            assert np.any(grad != 0.0)
            assert np.any(state.Q[c, d] != before["Q"][c, d]), (c, d)
            assert np.any(state.t[c, d] != before["t"][c, d]), (c, d)

    @pytest.mark.parametrize("p", [1, 2])
    def test_accepted_mean_is_the_damped_newton_step(self, p):
        ctx = small_context(seed=7, n=10, n_components=3, mean_kernel=Ar1Kernel(phi=0.5, sigma0_sq=0.6), p=p)
        state = _init_state(ctx)
        steps = []
        for _ in range(4):
            before = noise_snapshot(state)
            update_noise_processes(state, ctx)
            for c, d in np.ndindex(state.t.shape[:2]):
                s, m = accepted_step(before, ctx, state, c, d)
                assert_rel(state.m[c, d], m)
                steps.append(s)
            update_latent_functions(state, ctx)
            update_responsibilities(state, ctx)
            update_mixture_posteriors(state, ctx)
        assert min(steps) > 0.0
