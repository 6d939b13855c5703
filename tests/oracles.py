"""Dense reference posteriors the tests check the fit's updates against.

The fit itself never forms these: it keeps only the primal arrays and
the diagonals it needs.  Each function here builds the full Gaussian
posterior of one (component, output) block from the same factor helpers
the fit uses, so a test can compare the two.
"""

import numpy as np

from mgpch.model import _diag_precision_posterior, _latent_candidate, _posterior_cov


def expected_noise_variance(m, s_diag):
    """Expected noise variance ``exp(m_n - S_nn / 2)`` from ``s_diag = diag(S)``, the reciprocal precision up to rounding."""
    return np.exp(m - 0.5 * s_diag)


def noise_posterior_given_q(lam, Q, qz, m_tilde):
    """Gaussian posterior of one log-variance process for a fixed bound parameter.

    Evaluates ``S = (Lam^-1 + Q)^-1`` and
    ``m = Lam (Q - diag(qz) / 2) 1 + m_tilde 1`` through the symmetric
    root identity, which stays exact when entries of Q are zero.  This is
    the posterior at a fixed point of ``update_noise_processes``, where
    the natural mean t equals ``Q - qz / 2``; between fixed points the
    fit's t is its own primal array.

    Parameters
    ----------
    lam : ndarray, shape (N, N)
        Prior covariance of g (jitter included).
    Q : ndarray, shape (N,)
        Non-negative diagonal bound parameters.
    qz : ndarray, shape (N,)
        Responsibilities of this component.
    m_tilde : float
        Prior mean of g.

    Returns
    -------
    (m, S) : posterior mean vector and covariance matrix.
    """
    _, W, s_diag, _ = _diag_precision_posterior(lam, Q, "noise bound matrix")
    return m_tilde + lam @ (Q - 0.5 * qz), _posterior_cov(lam, W, s_diag)


def latent_function_posterior(K, B, y):
    """Gaussian posterior of one latent mean function.

    Evaluates ``Sigma = (K^-1 + B)^-1`` and ``mu = Sigma B y`` with
    ``B = diag(b)`` through the symmetric root identity.

    Parameters
    ----------
    K : ndarray, shape (N, N)
        Prior covariance (jitter included).
    B : ndarray, shape (N,)
        Non-negative effective precisions ``q_nc * E[exp(-g_n)]``.
    y : ndarray, shape (N,)

    Returns
    -------
    (mu, Sigma)
    """
    mu, diag, _, W = _latent_candidate(K, B, y)
    return mu, _posterior_cov(K, W, diag)
