"""Dense references the tests check the fit's updates and the copula quadrature against.

The fit itself never forms the posteriors here: it keeps only the primal
arrays and the diagonals it needs.  Each posterior function builds the
full Gaussian posterior of one (component, output) block from the same
factor helpers the fit uses, so a test can compare the two.

The copula reads one term per family for its cdf and its log density,
in the exchangeable form of Clayton and Gumbel, and the covariance
quadrature takes the per-argument terms once per node.  The grid
oracles take every term at every point, in the usual rearrangement of
each family's cdf and density, so a test can check that the two agree
bit for bit.
"""

import math

import numpy as np
from scipy.special import ndtr

from mgpch.copula import FRANK_INDEPENDENCE_BAND, QUADRATURE_SPAN, Clayton, Frank, Gumbel
from mgpch.kernels import ar1_jitter, design_matrix
from mgpch.model import _diag_precision_posterior, _latent_candidate, _posterior_cov


def expected_noise_variance(m, s_diag):
    """Expected noise variance ``exp(m_n - S_nn / 2)`` from ``s_diag = diag(S)``, the reciprocal precision up to rounding."""
    return np.exp(m - 0.5 * s_diag)


def dense_noise_prior(kernel, X):
    """The jittered noise prior Lam of ``kernel`` at inputs X, the matrix the dense path factors."""
    return design_matrix(kernel, X) + ar1_jitter(kernel) * np.eye(X.shape[0])


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


def _log1mexp(x):
    """``log(1 - e^x)`` for x <= 0 with both branches formed at every point."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > -math.log(2.0), np.log(-np.expm1(x)), np.log1p(-np.exp(x)))


def _log_abs_expm1(y):
    return np.maximum(y, 0.0) + _log1mexp(-np.abs(y))


def _frank_log1p_r(th, U, V):
    """Frank's ``log(1 + r)`` and ``log|e^-th - 1|`` with th, U and V of one shape, every term at every point."""
    log_g1 = _log_abs_expm1(-th)
    log_r = (_log_abs_expm1(-th * U) - log_g1) + _log_abs_expm1(-th * V)
    with np.errstate(invalid="ignore"):  # the branch of the other sign of th
        return np.where(th > 0.0, _log1mexp(log_r), np.logaddexp(0.0, log_r)), log_g1


def per_node_frank_cdf(theta, U, V):
    """The Frank cdf with log|e^-theta - 1| taken at every node and both branches of log(1 - e^x) formed."""
    th = np.full(U.shape, theta)
    return -_frank_log1p_r(th, U, V)[0] / th


def grid_cdf(family, theta, U, V):
    """Copula cdf at equal-shape arguments, every term taken at every point.

    C(u, 0) = C(0, v) = 0, C(1, v) = v and C(u, 1) = u are exact.
    Interior points use the usual rearrangements: Clayton's
    ``exp(-(M + log1p(e^(m-M) (1 - e^-m))) / theta)`` with
    ``a = -theta log u``, ``b = -theta log v``, ``M = max(a, b)`` and
    ``m = min(a, b)``, ``1 - e^-m`` taken as ``-expm1(-m)``;
    Gumbel's ``exp(-M ((a/M)^theta + (b/M)^theta)^(1/theta))`` with
    ``a = -log u`` and ``b = -log v`` for theta > 1 and uv at theta = 1;
    :func:`per_node_frank_cdf` outside Frank's independence band and uv
    inside it.
    """
    U, V = np.broadcast_arrays(np.asarray(U, dtype=float), np.asarray(V, dtype=float))
    th = np.broadcast_to(np.asarray(theta, dtype=float), U.shape)
    at_zero = (U <= 0.0) | (V <= 0.0)
    top_u = ~at_zero & (U >= 1.0)
    top_v = ~at_zero & ~top_u & (V >= 1.0)
    mid = ~(at_zero | top_u | top_v)
    out = np.zeros(U.shape)
    out[top_u] = V[top_u]
    out[top_v] = U[top_v]
    th, u, v = th[mid], U[mid], V[mid]
    if isinstance(family, Clayton):
        a = -th * np.log(u)
        b = -th * np.log(v)
        M, m = np.maximum(a, b), np.minimum(a, b)
        out[mid] = np.exp(-(M + np.log1p(np.exp(m - M) * -np.expm1(-m))) / th)
    elif isinstance(family, Frank):
        live = np.abs(th) >= FRANK_INDEPENDENCE_BAND
        c = u * v
        for t in np.unique(th[live]):
            at = th == t
            c[at] = per_node_frank_cdf(t, u[at], v[at])
        out[mid] = c
    else:
        a, b = -np.log(u), -np.log(v)
        M = np.maximum(a, b)
        c = np.exp(-M * ((a / M) ** th + (b / M) ** th) ** (1.0 / th))
        out[mid] = np.where(th > 1.0, c, u * v)
    return out


def grid_log_density(family, theta, U, V):
    """Copula log density at strictly interior equal-shape arguments, theta an array of their shape.

    Every family's term is taken in the usual rearrangement at the points
    where the density is not 0: Clayton's
    ``M + log1p(e^(m-M) (1 - e^-m))`` with ``a = -theta log u``,
    ``b = -theta log v``, ``M = max(a, b)`` and ``m = min(a, b)``,
    ``1 - e^-m`` taken as ``-expm1(-m)``; Gumbel's
    ``M ((a/M)^theta + (b/M)^theta)^(1/theta)`` with ``a = -log u`` and
    ``b = -log v`` where theta > 1; Frank's ``log(1 + r)`` outside its
    independence band.
    """
    lu, lv = np.log(U), np.log(V)
    if isinstance(family, Clayton):
        a, b = -theta * lu, -theta * lv
        M, m = np.maximum(a, b), np.minimum(a, b)
        L = M + np.log1p(np.exp(m - M) * -np.expm1(-m))
        return np.log1p(theta) - (theta + 1.0) * (lu + lv) - (2.0 + 1.0 / theta) * L
    out = np.zeros(U.shape)
    live = (theta > 1.0) if isinstance(family, Gumbel) else (np.abs(theta) >= FRANK_INDEPENDENCE_BAND)
    th, u, v, lu, lv = theta[live], U[live], V[live], lu[live], lv[live]
    if isinstance(family, Gumbel):
        a, b = -lu, -lv
        M = np.maximum(a, b)
        A = M * ((a / M) ** th + (b / M) ** th) ** (1.0 / th)
        out[live] = -A - lu - lv + (1.0 - 2.0 * th) * np.log(A) + (th - 1.0) * (np.log(a) + np.log(b)) + np.log(A + th - 1.0)
    else:
        log1p_r, log_g1 = _frank_log1p_r(th, u, v)
        out[live] = np.log(np.abs(th)) - log_g1 - th * (u + v) - 2.0 * log1p_r
    return out


def grid_covariance(family, theta, var_i, var_j, nodes):
    """Covariance of two Gaussian marginals joined by the copula, by Gauss-Legendre quadrature on the full node grid.

    Integrates ``C(F_k, F_l) - F_k F_l`` over mean +/- 8 std of each
    marginal, as ``predictive_covariance`` does at one node count, with
    :func:`grid_cdf` on the full ``nodes x nodes`` grids and the same
    clipping at zero for Clayton and Gumbel.
    """
    t, wq = np.polynomial.legendre.leggauss(nodes)
    F = ndtr(QUADRATURE_SPAN * t)
    U, V = np.broadcast_arrays(F[:, None], F[None, :])
    gap = grid_cdf(family, theta, U, V) - U * V
    if not isinstance(family, Frank):
        gap = np.maximum(gap, 0.0)
    return QUADRATURE_SPAN**2 * math.sqrt(var_i * var_j) * float(wq @ gap @ wq)
