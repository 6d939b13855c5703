"""Mixture of Gaussian process regressions with log-Gaussian-process noise.

Each mixture component c pairs a latent mean function f_d^c (one per
output dimension d, often pinned to zero through the zero kernel) with
a latent log-variance function g_d^c, so the conditional variance
``exp(g_d^c(x))`` moves with the input.  Component membership follows a
truncated Pitman-Yor prior.  Inference is mean-field coordinate ascent:
Gaussian factors for f and g, Beta factors for the sticks, a Gamma
factor for the innovation parameter, and a categorical factor per
observation, all driven by a single free-energy objective.

The posterior over each g keeps the conjugate form

    S = (Lam^-1 + Q)^-1,
    m = m_tilde 1 + Lam t,  t = Q - diag(r_c) / 2 1,

where Q is a diagonal free parameter of the bound.  The expected
noise precision is ``E[exp(-g_n)] = exp(S_nn / 2 - m_n)``.  S is a
function of Q alone, and the latent mean covariance Sigma of the
effective precisions B of the last mean update, so the primal state is
R, mu, the natural mean t, Q, B and the mixture factors; m is derived,
and :func:`refresh_caches` rebuilds it and everything else with the
fit's own expressions, so a model rebuilt from its primal state forecasts
bit for bit like the one in memory.  No prior is ever factorized: t is
``Lam^-1 (m - m_tilde)``, and ``K^-1 mu`` comes from the bound factor.
Q itself is moved toward its stationary value
``q_nc * omega_n * E[exp(-g_n)] / 2`` with a backtracking safeguard
that only ever accepts free-energy improvements.
Each candidate costs one Cholesky factor La of ``A = I + sqrt(Q) Lam
sqrt(Q)`` and one triangular solve ``W = La^-1 sqrt(Q) Lam``:
``diag(S) = diag(Lam) - colsum(W o W)`` and, by Woodbury,
``trace(Lam^-1 S) = N - Q . diag(S)``.  The mean update uses the same
algebra.  The fit, the free energy and forecasts need no full S or Sigma,
so neither is stored (:attr:`VariationalState.S` rebuilds S on demand).

For one-column inputs the noise prior ``s phi^|x - x'|`` is the
covariance of an Ornstein-Uhlenbeck process, which is Markov in sorted
input order, so diag(S) and the KL of every candidate of every block come
from one batched Kalman filter and smoother pass instead
(:func:`_ou_moments`, O(N log N) arithmetic in log2(N) vectorized steps);
the dense factor is then built for accepted candidates only.  Inputs with
more columns take the dense path.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.spatial.distance import cdist, pdist
from scipy.special import betaln, gammaln

from .errors import (
    DivergedFitError,
    InvalidArgumentError,
    ModelStateError,
    NumericalDomainError,
)
from .kernels import Ar1Kernel, ZeroKernel, ar1_jitter, cross_vector, design_matrix, kernel_eval
from .linalg import cholesky_factor, cholesky_solve, logdet_from_factor, solve_lower
from .pyp import (
    InnovationPosterior,
    PypConfig,
    digamma,
    expected_log_weights,
    expected_weights,
    stick_log_moments,
    update_innovation_posterior,
    update_stick_posteriors,
)

__all__ = [
    "MgpchConfig",
    "VariationalState",
    "MgpchModel",
    "PredictiveMoments",
    "SimulationDraw",
    "expected_noise_variance",
    "expected_noise_precision",
    "noise_posterior_given_q",
    "latent_function_posterior",
    "update_noise_processes",
    "update_latent_functions",
    "update_responsibilities",
    "update_mixture_posteriors",
    "free_energy",
    "fit",
    "predict",
    "predict_batch",
    "simulate",
]

LOG_2PI = np.log(2.0 * np.pi)

# Damping ladder for the safeguarded Q step; 0 falls back to the current state.
_BACKTRACK_STEPS = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
_ACCEPT_SLACK = 1e-12


@dataclass
class MgpchConfig:
    """Model and fit settings.

    Parameters
    ----------
    pyp : PypConfig
        Mixture prior; its truncation fixes the component count C.
    mean_kernels : sequence of ZeroKernel or Ar1Kernel, or None
        Per-component kernel of the latent mean.  None means the zero
        kernel everywhere, which removes the mean update entirely.
    noise_kernels : sequence of Ar1Kernel or None
        Per-component kernel of the latent log variance.  None selects
        a data-driven default at fit time: correlation 1/2 at the
        median pairwise input distance and unit marginal variance.
        Kernels and m_tilde stay fixed for the whole fit.
    m_tilde : float, array or None
        Prior mean of the log variance, broadcast to shape (C, D).
        None uses the log of the empirical variance of each output.
    max_iters : int
        Coordinate-ascent iteration cap.
    tol : float
        Relative free-energy change that declares convergence.
    seed : int
        Seed for the k-means responsibility initialization.
    """

    pyp: PypConfig = field(default_factory=PypConfig)
    mean_kernels: object = None
    noise_kernels: object = None
    m_tilde: object = None
    max_iters: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise InvalidArgumentError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.tol <= 0.0:
            raise InvalidArgumentError(f"tol must be positive, got {self.tol}")
        for name in ("mean_kernels", "noise_kernels"):
            kernels = getattr(self, name)
            if kernels is not None:
                kernels = tuple(kernels)
                if len(kernels) != self.pyp.truncation:
                    raise InvalidArgumentError(
                        f"{name} must have one entry per component "
                        f"({self.pyp.truncation}), got {len(kernels)}"
                    )
                setattr(self, name, kernels)
        if self.mean_kernels is not None:
            for k in self.mean_kernels:
                if not isinstance(k, (ZeroKernel, Ar1Kernel)):
                    raise InvalidArgumentError(f"mean kernels must be zero or autoregressive, got {k!r}")
        if self.noise_kernels is not None:
            for k in self.noise_kernels:
                if not isinstance(k, Ar1Kernel):
                    raise InvalidArgumentError("noise kernels must be autoregressive")


@dataclass
class VariationalState:
    """Mean-field factors of the mixture posterior.

    Shapes use N observations, C components and D output dimensions.
    The trailing fields are derived caches that :func:`refresh_caches`
    rebuilds from the primal arrays; none is N x N (see :attr:`S`).
    """

    R: np.ndarray  # (N, C) responsibilities
    mu: np.ndarray  # (C, D, N) latent mean posterior means
    t: np.ndarray  # (C, D, N) natural means Lam^-1 (m - m_tilde) of q(g), the primal
    Q: np.ndarray  # (C, D, N) diagonal bound parameters of q(g)
    B: np.ndarray  # (C, D, N) effective precisions of the last mean update
    sticks: object
    innovation: object
    m: np.ndarray = None  # (C, D, N) log-variance posterior means m_tilde + Lam t
    s_diag: np.ndarray = None  # (C, D, N) log-variance posterior variances diag(S)
    omega: np.ndarray = None  # (C, D, N) expected squared residuals
    inv_noise: np.ndarray = None  # (C, D, N) expected noise precisions
    g_kl: np.ndarray = None  # (C, D) KL of each q(g) from its prior
    f_kl: np.ndarray = None  # (C, D) KL of each q(f) from its prior
    # innovation and stick terms of the free energy, set with the mixture factors
    mixture_terms: tuple = None
    # per (c, d) factor of I + sqrt(Q) Lam sqrt(Q), reused by forecasts
    noise_chol: object = None
    noise_priors: object = None  # per component Lam the caches were built with (shared)

    @property
    def n_components(self):
        return self.R.shape[1]

    @property
    def S(self):
        """(C, D, N, N) log-variance posterior covariances, built from Q and ``s_diag`` on each access."""
        if self.s_diag is None:
            raise ModelStateError("S needs the caches that refresh_caches builds")
        C, D, n = self.Q.shape
        S = np.empty((C, D, n, n))
        for c, d in np.ndindex(C, D):
            W = _diag_precision_posterior(self.noise_priors[c], self.Q[c, d], "noise bound matrix")[1]
            S[c, d] = _posterior_cov(self.noise_priors[c], W, self.s_diag[c, d])
        return S


@dataclass
class _FitContext:
    """Resolved kernels and jittered design matrices for one dataset; no prior is factorized."""

    X: np.ndarray
    Y: np.ndarray
    config: MgpchConfig
    mean_kernels: tuple
    noise_kernels: tuple
    m_tilde: np.ndarray  # (C, D)
    lam: tuple  # per component: jittered noise design matrix, shared by equal kernels
    K: tuple  # per component: jittered mean design matrix or None, shared likewise
    ou: object  # _OuTransitions for one-column inputs, else None


@dataclass(frozen=True)
class _OuTransitions:
    """Sorted-input transitions of every component's noise prior.

    On one-column inputs the prior g = h + e splits into an Ornstein-Uhlenbeck
    process h of marginal variance s, with ``h[n+1] = a[n] h[n]`` plus noise
    of variance ``s (1 - a[n]^2)`` and ``a[n] = phi^(x[n+1] - x[n])`` between
    sorted neighbours, and the jitter e kept as an explicit nugget of
    variance eps.  So ``cov(g)`` is Lam exactly, and tied inputs (a = 1)
    need no special case.
    """

    order: np.ndarray  # (N,) stable sort of the inputs
    a2: np.ndarray  # (N - 1, C) squared transition coefficients
    q: np.ndarray  # (N - 1, C) transition variances s (1 - a^2)
    s: np.ndarray  # (C,) marginal variances
    eps: np.ndarray  # (C,) jitter variances


@dataclass
class MgpchModel:
    """Fitted mixture model.

    Carries the training design, the resolved per-component kernels and
    the variational state, plus the free-energy trace recorded after
    every coordinate update (``trace_labels`` names each entry).
    """

    config: MgpchConfig
    X: np.ndarray
    Y: np.ndarray
    mean_kernels: tuple
    noise_kernels: tuple
    m_tilde: np.ndarray
    state: VariationalState
    free_energy_trace: list
    trace_labels: list
    _ctx: object = field(default=None, repr=False, compare=False)
    _factors: object = field(default=None, repr=False, compare=False)

    def predict(self, xstar):
        return predict(self, xstar)

    def predict_batch(self, Xstar):
        return predict_batch(self, Xstar)


@dataclass(frozen=True)
class PredictiveMoments:
    """Mixture predictive moments at one input, or at M inputs.

    ``mean`` blends the per-component regression means with the
    posterior mean weights; ``variance`` blends the squared weights
    against the per-component mean uncertainty plus the predictive mean
    of the component noise variance.  The shapes below are those of
    :func:`predict`; :func:`predict_batch` puts a leading M axis on every
    field except ``weights``, which does not depend on the input.
    """

    mean: np.ndarray  # (D,)
    variance: np.ndarray  # (D,)
    weights: np.ndarray  # (C,)
    component_means: np.ndarray  # (C, D) regression means
    component_mean_vars: np.ndarray  # (C, D) regression variances
    noise_log_mean: np.ndarray  # (C, D) predictive mean of g
    noise_log_var: np.ndarray  # (C, D) predictive variance of g
    component_noise_vars: np.ndarray  # (C, D) predictive mean of exp(g)


@dataclass(frozen=True)
class SimulationDraw:
    """Forward draw from the generative model with feedback inputs."""

    X: np.ndarray  # (N, D) inputs; row n + 1 repeats output row n
    Y: np.ndarray  # (N, D) outputs
    variances: np.ndarray  # (N, D) realized noise variances
    assignments: np.ndarray  # (N,) component of each observation
    weights: np.ndarray  # (C,) sampled stick weights


def expected_noise_variance(m, s_diag):
    """Expected noise variance ``exp(m_n - S_nn / 2)`` from ``s_diag = diag(S)``, the reciprocal precision up to rounding."""
    return np.exp(m - 0.5 * s_diag)


def expected_noise_precision(m, s_diag):
    """Expected noise precision ``E[exp(-g_n)] = exp(S_nn / 2 - m_n)`` from ``s_diag = diag(S)``."""
    return np.exp(0.5 * s_diag - m)


def noise_posterior_given_q(lam, Q, qz, m_tilde):
    """Gaussian posterior of one log-variance process for a fixed bound parameter.

    Evaluates ``S = (Lam^-1 + Q)^-1`` and
    ``m = Lam (Q - diag(qz) / 2) 1 + m_tilde 1`` through the symmetric
    root identity, which stays exact when entries of Q are zero.

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
    _, m, s_diag, _, _, W = _noise_candidate(lam, Q, qz, m_tilde)
    return m, _posterior_cov(lam, W, s_diag)


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


def _bound_factor(prior, prec, label):
    """``sqrt(prec)`` and the lower factor of ``A = I + sqrt(P) prior sqrt(P)``."""
    if np.any(prec < 0.0):
        raise InvalidArgumentError(f"diagonal precisions of the {label} must be non-negative")
    root = np.sqrt(prec)
    A = root[:, None] * prior * root[None, :] + np.eye(prior.shape[0])
    return root, cholesky_factor(A, context=label)


def _diag_precision_posterior(prior, prec, label):
    """Posterior ``(prior^-1 + diag(prec))^-1`` without forming it.

    Returns the factor La of :func:`_bound_factor` and ``W = La^-1
    sqrt(P) prior``, so the posterior is ``prior - W'W``; the posterior
    diagonal ``diag(prior) - colsum(W o W)``; and ``log|A| - prec . diag``,
    which is ``trace(prior^-1 cov) - N + log|prior| - log|cov|`` by
    Woodbury, the KL from the prior without its mean term.
    """
    root, La = _bound_factor(prior, prec, label)
    W = solve_lower(La, root[:, None] * prior)
    diag = np.diagonal(prior) - np.einsum("ij,ij->j", W, W)
    return La, W, diag, logdet_from_factor(La) - float(prec @ diag)


def _posterior_cov(prior, W, diag):
    """``prior - W'W`` whose diagonal is the ``diag`` the candidate was judged by, bit for bit."""
    cov = prior - W.T @ W
    cov = 0.5 * (cov + cov.T)
    np.fill_diagonal(cov, diag)
    return cov


def _ou_moments(ou, comp, Q):
    """diag(S) and ``log|A| - Q . diag(S)`` for every row of Q, by Kalman filtering and smoothing.

    Row b of Q (B, N) holds the bound parameters of a block of component
    ``comp[b]``.  S = (Lam^-1 + diag(Q))^-1 is the posterior covariance of
    g = h + e (see :class:`_OuTransitions`) given pseudo-observations of
    precision Q, where Q = 0 means no observation.  Integrating out the
    nugget leaves observations of h with precision ``rho = Q / (1 + eps Q)``.
    Over the sorted inputs the filter predicts ``pred[i+1] = a^2 filt[i] +
    q`` from ``filt = pred / (1 + rho pred)``, the Rauch-Tung-Striebel
    smoother gives the posterior variances P of h, and ``diag(S) = w^2 P +
    eps w`` with ``w = 1 / (1 + eps Q)``.  The prediction-error
    decomposition gives ``log|A| = sum log1p(eps Q) + sum log1p(rho pred)``.

    Both recursions run as prefix scans of associative maps (Sarkka and
    Garcia-Fernandez, IEEE TAC 2021), in log2(N) vectorized steps instead
    of N interpreted ones: ``pred[i] -> pred[i+1]`` is the Moebius map of the
    non-negative matrix [[a^2 + q rho, q], [rho, 1]], and a smoother step is
    an affine map with non-negative coefficients, so no product cancels.
    Every operation is elementwise, so a row gets the same bits in any batch.
    """
    Qs = Q[:, ou.order].T  # (N, B), sorted
    s, eps = ou.s[comp], ou.eps[comp]
    a2, q = ou.a2[:, comp], ou.q[:, comp]
    w = 1.0 / (1.0 + eps * Qs)
    rho = Qs * w
    n = Qs.shape[0]
    # prefix products M[i] ... M[0], rescaled at each step (only ratios matter)
    r = rho[:-1]
    maps = [a2 + q * r, q.copy(), r.copy(), np.ones_like(q)]
    k = 1
    while k < n - 1:
        a00, a01, a10, a11 = (e[k:] for e in maps)
        b00, b01, b10, b11 = (e[:-k] for e in maps)
        prod = (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
        scale = 1.0 / (prod[0] + prod[1] + prod[2] + prod[3])
        for e, v in zip(maps, prod):
            e[k:] = v * scale
        k *= 2
    pred = np.empty_like(Qs)
    pred[0] = s
    pred[1:] = (maps[0] * s + maps[1]) / (maps[2] * s + maps[3])
    filt = pred / (1.0 + rho * pred)
    # RTS: smooth[i] = filt[i] + G^2 (smooth[i+1] - pred[i+1]) with gain
    # G = a filt[i] / pred[i+1]; as pred[i+1] - a^2 filt[i] = q, that is
    # the affine map smooth[i] = filt[i] q / pred[i+1] + G^2 smooth[i+1]
    ratio = filt[:-1] / pred[1:]
    gain2 = ratio * ratio * a2
    offset = ratio * q
    k = 1
    while k < n - 1:
        offset[:-k] += gain2[:-k] * offset[k:]
        gain2[:-k] *= gain2[k:]
        k *= 2
    smooth = filt.copy()
    smooth[:-1] = offset + gain2 * filt[-1]
    diag = w * w * smooth + eps * w
    # summed along (B, N) rows, as numpy sums a lone (N, 1) column differently
    terms = np.log1p(eps * Qs) + np.log1p(rho * pred) - Qs * diag
    s_diag = np.empty_like(Q)
    s_diag[:, ou.order] = diag.T
    return s_diag, np.ascontiguousarray(terms.T).sum(axis=1)


def _prior_mean_terms(lam, t):
    """``Lam t`` and ``t . Lam t`` of every row of t (..., N), a stacked product per row: the same bits in any batch."""
    lam_t = np.matmul(lam, t[..., None])[..., 0]
    return lam_t, np.matmul(t[..., None, :], lam_t[..., None])[..., 0, 0]


def _noise_candidate(lam, Q, qz, m_tilde):
    """Natural mean, mean, posterior variances, KL, bound factor and ``W`` of one noise block at bound parameter Q."""
    La, W, s_diag, kl_core = _diag_precision_posterior(lam, Q, "noise bound matrix")
    t = Q - 0.5 * qz
    lam_t, quad = _prior_mean_terms(lam, t)
    return t, m_tilde + lam_t, s_diag, 0.5 * (float(quad) + kl_core), La, W


def _latent_gain(B, La, y):
    """``K^-1 mu = sqrt(B) A^-1 sqrt(B) y`` of the posterior mean mu at precisions B, from the factor La of A."""
    root = np.sqrt(B)
    return root * cholesky_solve(La, root * y)


def _latent_candidate(K, B, y):
    """Mean, diag(Sigma), KL and ``W`` of one latent mean block.

    The mean ``Sigma (B y)`` is taken as ``K (B y) - W'(W (B y))``, so no
    N x N Sigma is formed, and the KL's ``K^-1 mu`` from the bound factor.
    """
    La, W, diag, kl_core = _diag_precision_posterior(K, B, "mean bound matrix")
    by = B * y
    mu = K @ by - W.T @ (W @ by)
    return mu, diag, 0.5 * (float(mu @ _latent_gain(B, La, y)) + kl_core), W


# ---------------------------------------------------------------------------
# context construction and initialization


def _validate_data(X, Y, min_points=1):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2:
        raise InvalidArgumentError("X and Y must be two-dimensional arrays")
    if X.shape[0] != Y.shape[0]:
        raise InvalidArgumentError(
            f"X and Y must agree on N, got {X.shape[0]} and {Y.shape[0]}"
        )
    if X.shape[0] < min_points:
        raise InvalidArgumentError(f"at least {min_points} observations are required")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise InvalidArgumentError("inputs must be finite")
    return X, Y


def _default_noise_kernel(X):
    dists = pdist(X)
    positive = dists[dists > 0.0]
    if positive.size == 0:
        phi = 0.5
    else:
        med = float(np.median(positive))
        # correlation 1/2 at the median distance; tiny input scales push
        # phi itself extremely close to zero, which is fine
        phi = float(np.clip(np.exp(np.log(0.5) / med), 1e-280, 1.0 - 1e-12))
    return Ar1Kernel(phi=phi, sigma0_sq=1.0 - phi**2)


def _resolve_m_tilde(m_tilde, Y, C):
    D = Y.shape[1]
    if m_tilde is None:
        var = np.var(Y, axis=0)
        if np.any(var <= 0.0):
            raise InvalidArgumentError("outputs with zero variance need an explicit m_tilde")
        return np.tile(np.log(var), (C, 1))
    arr = np.asarray(m_tilde, dtype=float)
    if arr.ndim == 0:
        return np.full((C, D), float(arr))
    if arr.shape != (C, D):
        raise InvalidArgumentError(f"m_tilde must broadcast to ({C}, {D}), got {arr.shape}")
    return arr.copy()


def _ou_transitions(X, noise_kernels):
    """Sort order and per-component transitions of the noise priors on one-column inputs."""
    order = np.argsort(X[:, 0], kind="stable")
    log_phi = np.log([k.phi for k in noise_kernels])
    log_a2 = 2.0 * np.diff(X[order, 0])[:, None] * log_phi[None, :]
    s = np.array([k.marginal_variance for k in noise_kernels])
    eps = np.array([ar1_jitter(k) for k in noise_kernels])
    return _OuTransitions(order, np.exp(log_a2), -s * np.expm1(log_a2), s, eps)


def _make_context(X, Y, config):
    X, Y = _validate_data(X, Y)
    C = config.pyp.truncation
    n = X.shape[0]
    mean_kernels = (
        tuple(config.mean_kernels) if config.mean_kernels is not None else (ZeroKernel(),) * C
    )
    if config.noise_kernels is not None:
        noise_kernels = tuple(config.noise_kernels)
    else:
        noise_kernels = (_default_noise_kernel(X),) * C
    m_tilde = _resolve_m_tilde(config.m_tilde, Y, C)

    built = {}  # components with equal kernels share one matrix

    def jittered(kernel):
        if not isinstance(kernel, ZeroKernel) and kernel not in built:
            built[kernel] = design_matrix(kernel, X) + ar1_jitter(kernel) * np.eye(n)
        return built.get(kernel)

    lam = tuple(jittered(k) for k in noise_kernels)
    K = tuple(jittered(k) for k in mean_kernels)
    # the one place the noise path is chosen: O(N) recursions on scalar inputs
    ou = _ou_transitions(X, noise_kernels) if X.shape[1] == 1 else None
    return _FitContext(X, Y, config, mean_kernels, noise_kernels, m_tilde, lam, K, ou)


def _kmeans_labels(Z, C, rng):
    """Seeded k-means++ plus Lloyd iterations on standardized features."""
    n = Z.shape[0]
    std = Z.std(axis=0)
    std[std == 0.0] = 1.0
    W = (Z - Z.mean(axis=0)) / std
    if C >= n:
        return np.arange(n) % C
    centers = np.empty((C, W.shape[1]))
    centers[0] = W[rng.integers(n)]
    d2 = np.sum((W - centers[0]) ** 2, axis=1)
    for c in range(1, C):
        total = d2.sum()
        if total <= 0.0:
            centers[c:] = W[rng.integers(n, size=C - c)]
            break
        centers[c] = W[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((W - centers[c]) ** 2, axis=1))
    labels = np.full(n, -1, dtype=int)
    for _sweep in range(100):
        dists = np.sum((W[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(C):
            mask = labels == c
            if np.any(mask):
                centers[c] = W[mask].mean(axis=0)
    return labels


def _init_state(ctx):
    config = ctx.config
    n, D = ctx.Y.shape
    C = config.pyp.truncation
    rng = np.random.default_rng(config.seed)

    labels = _kmeans_labels(np.hstack([ctx.X, ctx.Y]), C, rng)
    R = np.full((n, C), 0.1 / C)
    R[np.arange(n), labels] += 0.9

    sticks = update_stick_posteriors(R, config.pyp.delta, config.pyp.eta1 / config.pyp.eta2, C)
    innovation = update_innovation_posterior(sticks, config.pyp.eta1, config.pyp.eta2)

    mu = np.zeros((C, D, n))
    B = np.zeros((C, D, n))
    # at Q = R / 2 the natural mean t = Q - R / 2 is zero: q(g) has the prior mean
    Q = np.repeat(0.5 * R.T[:, None, :], D, axis=1)
    t = np.zeros((C, D, n))
    state = VariationalState(R, mu, t, Q, B, sticks, innovation)
    refresh_caches(state, ctx)
    return state


# ---------------------------------------------------------------------------
# cache maintenance


def refresh_caches(state, ctx):
    """Rebuild every derived array from the primal ones with the fit's own expressions.

    Per (c, d) block, m = m_tilde + Lam t, and one factor of ``I + sqrt(Q)
    Lam sqrt(Q)`` gives diag(S), the expected noise precisions, the KL of
    q(g) and the bound factor that forecasts reuse; on one-column inputs
    diag(S) and the KL's core come from :func:`_ou_moments`, as in the fit.
    One factor of ``I + sqrt(B) K sqrt(B)`` gives diag(Sigma) for the
    expected squared residuals, and the KL of q(f).  The innovation and
    stick terms of the free energy come from the mixture factors.
    """
    C, D, n = state.t.shape
    state.noise_priors = ctx.lam
    state.m = np.empty((C, D, n))
    state.inv_noise = np.empty((C, D, n))
    state.omega = (ctx.Y.T[None, :, :] - state.mu) ** 2
    state.g_kl = np.empty((C, D))
    state.f_kl = np.zeros((C, D))
    state.noise_chol = [[None] * D for _ in range(C)]
    state.mixture_terms = _mixture_terms(state, ctx.config.pyp)
    if ctx.ou is None:
        state.s_diag = np.empty((C, D, n))
    else:
        ou_diag, ou_kl = _ou_moments(ctx.ou, np.repeat(np.arange(C), D), state.Q.reshape(C * D, n))
        state.s_diag = ou_diag.reshape(C, D, n)
    for c in range(C):
        lam_t, quad = _prior_mean_terms(ctx.lam[c], state.t[c])
        for d in range(D):
            if ctx.ou is None:
                La, _, state.s_diag[c, d], kl_core = _diag_precision_posterior(
                    ctx.lam[c], state.Q[c, d], "noise bound matrix"
                )
            else:
                _, La = _bound_factor(ctx.lam[c], state.Q[c, d], "noise bound matrix")
                kl_core = ou_kl[c * D + d]
            state.m[c, d] = ctx.m_tilde[c, d] + lam_t[d]
            state.inv_noise[c, d] = expected_noise_precision(state.m[c, d], state.s_diag[c, d])
            state.g_kl[c, d] = 0.5 * (float(quad[d]) + kl_core)
            state.noise_chol[c][d] = La
            if ctx.K[c] is not None:
                _, diag, state.f_kl[c, d], _ = _latent_candidate(ctx.K[c], state.B[c, d], ctx.Y[:, d])
                state.omega[c, d] += diag


# ---------------------------------------------------------------------------
# coordinate updates


def update_noise_processes(state, ctx):
    """Safeguarded coordinate update of every log-variance posterior.

    For each (c, d) block the bound parameter Q is pulled toward its
    stationary value ``q_nc * omega_n * E[exp(-g_n)] / 2`` and the
    posterior is rebuilt from the closed forms.  Candidates are damped
    geometrically until the block's free-energy contribution does not
    decrease; if every candidate fails the block keeps its current
    state, so the step never lowers the objective.  A candidate whose
    objective is not finite (its precisions overflow) is rejected.  On
    one-column inputs every candidate of every block is judged up front by
    :func:`_ou_ladder`, and only an accepted candidate is factorized.
    """
    C, D, _ = state.m.shape
    steps = np.array(_BACKTRACK_STEPS)[:, None, None, None]
    target = 0.5 * state.R.T[:, None, :] * state.omega * state.inv_noise
    ladder = (1.0 - steps) * state.Q + steps * target  # (L, C, D, N) candidate Q
    judged = None if ctx.ou is None else _ou_ladder(state, ctx, ladder)
    for c in range(C):
        qz = state.R[:, c]
        for d in range(D):
            omega = state.omega[c, d]
            old_obj = -state.g_kl[c, d] - 0.5 * float(
                qz @ (state.m[c, d] + omega * state.inv_noise[c, d])
            )
            for k, Q in enumerate(ladder[:, c, d]):
                if judged is None:
                    t, m, s_diag, kl, La, _ = _noise_candidate(ctx.lam[c], Q, qz, ctx.m_tilde[c, d])
                else:
                    t, m, s_diag, kl = (part[k, c, d] for part in judged)
                    La = None
                with np.errstate(over="ignore", invalid="ignore"):
                    inv_noise = expected_noise_precision(m, s_diag)
                    obj = -kl - 0.5 * float(qz @ (m + omega * inv_noise))
                if math.isfinite(obj) and obj >= old_obj - _ACCEPT_SLACK * (1.0 + abs(old_obj)):
                    if La is None:
                        _, La = _bound_factor(ctx.lam[c], Q, "noise bound matrix")
                    state.t[c, d] = t
                    state.m[c, d] = m
                    state.s_diag[c, d] = s_diag
                    state.Q[c, d] = Q
                    state.g_kl[c, d] = kl
                    state.inv_noise[c, d] = inv_noise
                    state.noise_chol[c][d] = La
                    break
            # every candidate rejected: keep the current block unchanged


def _ou_ladder(state, ctx, ladder):
    """Natural mean, mean, diag(S) and KL of every candidate in ``ladder`` (L, C, D, N).

    One :func:`_ou_moments` pass judges all L * C * D candidates, and
    ``m = m_tilde + Lam t`` with ``t = Q - R_c / 2`` takes one stacked
    product per component.
    """
    L, C, D, n = ladder.shape
    comp = np.broadcast_to(np.arange(C)[None, :, None], (L, C, D)).ravel()
    s_diag, kl_core = _ou_moments(ctx.ou, comp, ladder.reshape(-1, n))
    t = ladder - 0.5 * state.R.T[None, :, None, :]
    lam_t = np.empty_like(t)
    quad = np.empty((L, C, D))
    for c in range(C):
        lam_t[:, c], quad[:, c] = _prior_mean_terms(ctx.lam[c], t[:, c])
    kl = 0.5 * (quad + kl_core.reshape(L, C, D))
    return t, ctx.m_tilde[None, :, :, None] + lam_t, s_diag.reshape(L, C, D, n), kl


def update_latent_functions(state, ctx):
    """Closed-form update of every latent mean posterior.

    Components with the zero kernel are left untouched: their mean is
    identically zero and carries no free-energy terms.
    """
    C, D, _ = state.m.shape
    for c in range(C):
        if ctx.K[c] is None:
            continue
        qz = state.R[:, c]
        for d in range(D):
            state.B[c, d] = qz * state.inv_noise[c, d]
            mu, diag, state.f_kl[c, d], _ = _latent_candidate(ctx.K[c], state.B[c, d], ctx.Y[:, d])
            state.mu[c, d] = mu
            state.omega[c, d] = (ctx.Y[:, d] - mu) ** 2 + diag


def _responsibility_logits(state, ctx):
    """Unnormalized log responsibilities: prior log weights plus data fit."""
    n, C = state.R.shape
    elogw = expected_log_weights(state.sticks)
    fit_term = -0.5 * np.sum(
        state.omega * state.inv_noise + state.m, axis=1
    )  # (C, N), summed over D
    return elogw[None, :] + fit_term.T


def update_responsibilities(state, ctx):
    """Closed-form categorical update with log-sum-exp normalization."""
    logits = _responsibility_logits(state, ctx)
    if not np.all(np.isfinite(np.max(logits, axis=1))):
        raise NumericalDomainError("every component underflowed for some observation")
    shifted = logits - logits.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    R = w / w.sum(axis=1, keepdims=True)
    state.R = R


def update_mixture_posteriors(state, ctx):
    """Stick Beta updates followed by the innovation Gamma update."""
    config = ctx.config.pyp
    state.sticks = update_stick_posteriors(
        state.R, config.delta, state.innovation.mean, config.truncation
    )
    state.innovation = update_innovation_posterior(state.sticks, config.eta1, config.eta2)
    state.mixture_terms = _mixture_terms(state, config)


# ---------------------------------------------------------------------------
# free energy


def _alpha_term(innovation, eta1, eta2):
    a, b = innovation.eta1_hat, innovation.eta2_hat
    elog = innovation.log_mean
    emean = innovation.mean
    elogp = eta1 * np.log(eta2) - gammaln(eta1) + (eta1 - 1.0) * elog - eta2 * emean
    entropy = a - np.log(b) + gammaln(a) + (1.0 - a) * digamma(a)
    return float(elogp + entropy)


def _stick_term(sticks, innovation, delta):
    n_sticks = sticks.beta1.shape[0]
    if n_sticks == 0:
        return 0.0
    elogv, elog1mv = stick_log_moments(sticks)
    b1, b2 = sticks.beta1, sticks.beta2
    entropy = (
        betaln(b1, b2)
        - (b1 - 1.0) * digamma(b1)
        - (b2 - 1.0) * digamma(b2)
        + (b1 + b2 - 2.0) * digamma(b1 + b2)
    )
    c = np.arange(1, n_sticks + 1, dtype=float)
    cross = (
        innovation.log_mean
        - delta * elogv
        + (innovation.mean + delta * c - 1.0) * elog1mv
    )
    return float(np.sum(cross + entropy))


def _mixture_terms(state, config):
    """Innovation and stick terms of the free energy; only the mixture factors move them."""
    return (
        _alpha_term(state.innovation, config.eta1, config.eta2),
        _stick_term(state.sticks, state.innovation, config.delta),
    )


def _assignment_terms(state, R):
    elogw = expected_log_weights(state.sticks)
    mixing = float(np.sum(R @ elogw))
    mask = R > 0.0
    entropy = -float(np.sum(R[mask] * np.log(R[mask])))
    return mixing + entropy


def _expected_log_lik(state, R):
    D = state.m.shape[1]
    inner = np.sum(state.omega * state.inv_noise + state.m, axis=1)  # (C, N)
    per_point = -0.5 * (D * LOG_2PI + inner)  # (C, N)
    return float(np.sum(R * per_point.T))


def free_energy(state, ctx):
    """Variational free energy of the current state.

    Sums the negated KL of every Gaussian factor from its prior, the
    innovation and stick terms in the form whose exact coordinate
    maximizers are the closed-form updates, the assignment cross
    entropy, and the expected log likelihood.
    """
    if state.g_kl is None:
        refresh_caches(state, ctx)
    alpha_term, stick_term = state.mixture_terms
    value = -float(np.sum(state.g_kl)) - float(np.sum(state.f_kl))
    value += alpha_term
    value += stick_term
    # sums over R follow its memory order: the fit leaves R in Fortran order
    R = np.asfortranarray(state.R)
    value += _assignment_terms(state, R)
    value += _expected_log_lik(state, R)
    return value


# ---------------------------------------------------------------------------
# fit


def fit(X, Y, config=None):
    """Fit the mixture by free-energy coordinate ascent.

    Parameters
    ----------
    X : array_like, shape (N, p)
        Conditioning inputs; for return series, the previous day's
        return vector.
    Y : array_like, shape (N, D)
        Outputs; for return series, the next day's return vector.
    config : MgpchConfig, optional

    Returns
    -------
    MgpchModel
        Fitted model with ``free_energy_trace`` recording the objective
        after initialization and after every coordinate update.

    Raises
    ------
    DivergedFitError
        If the free energy becomes non-finite.
    """
    if config is None:
        config = MgpchConfig()
    _validate_data(X, Y, min_points=2)
    ctx = _make_context(X, Y, config)
    state = _init_state(ctx)

    trace = [free_energy(state, ctx)]
    labels = ["init"]
    if not math.isfinite(trace[0]):
        raise DivergedFitError("free energy non-finite at initialization", iteration=0)

    def record(label, iteration):
        value = free_energy(state, ctx)
        if not math.isfinite(value):
            raise DivergedFitError(f"free energy non-finite after {label}", iteration=iteration)
        trace.append(value)
        labels.append(label)
        return value

    previous = trace[0]
    for it in range(config.max_iters):
        update_noise_processes(state, ctx)
        record("noise", it)
        update_latent_functions(state, ctx)
        record("mean", it)
        update_responsibilities(state, ctx)
        record("responsibilities", it)
        update_mixture_posteriors(state, ctx)
        current = record("mixture", it)
        if abs(current - previous) <= config.tol * max(abs(previous), abs(current), 1.0):
            break
        previous = current

    model = MgpchModel(
        config=ctx.config,
        X=ctx.X,
        Y=ctx.Y,
        mean_kernels=ctx.mean_kernels,
        noise_kernels=ctx.noise_kernels,
        m_tilde=ctx.m_tilde,
        state=state,
        free_energy_trace=trace,
        trace_labels=labels,
    )
    model._ctx = ctx
    return model


def _model_context(model):
    if model._ctx is None:
        config = replace(
            model.config,
            noise_kernels=model.noise_kernels,
            mean_kernels=model.mean_kernels,
            m_tilde=model.m_tilde,
        )
        model._ctx = _make_context(model.X, model.Y, config)
        if model.state is not None and model.state.g_kl is None:
            refresh_caches(model.state, model._ctx)
    return model._ctx


# ---------------------------------------------------------------------------
# prediction


def _model_factors(model, ctx):
    """Per-model mean factors, built from the stored state on first use.

    Per (c, d) with a mean kernel: ``sqrt(B)``, the factor of ``I +
    sqrt(B) K sqrt(B)`` and ``K^-1 mu``, with the stored B of the mean
    update that produced mu and Sigma, so a component's forecast is the
    q(f) predictive ``k*' K^-1 mu``.  The noise side uses the stored t and
    the state's bound factors: the fit keeps the accepted candidate's, and
    :func:`refresh_caches` builds the same one from the stored Q, so a
    loaded model forecasts the same bits as after :func:`fit`.
    """
    if model._factors is None:
        state = model.state
        C, D, _ = state.t.shape
        mean = [[None] * D for _ in range(C)]
        for c in range(C):
            for d in range(D):
                if ctx.K[c] is not None:
                    root, La = _bound_factor(ctx.K[c], state.B[c, d], "mean bound matrix")
                    mean[c][d] = (root, La, _latent_gain(state.B[c, d], La, ctx.Y[:, d]))
        model._factors = mean
    return model._factors


def _row_dots(A, B):
    """Dot product of each row of A (M, N) with the matching row of B, or with B's one row.

    numpy takes each stacked (1, N) @ (N, 1) product as one dot product, so a
    row gets the same bits for any M; a matrix-vector product groups rows
    differently for different M and moves the last bits.
    """
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def predict(model, xstar):
    """Mixture predictive moments at a single input point.

    The M = 1 row of :func:`predict_batch`: fields have the shapes listed
    on :class:`PredictiveMoments`.
    """
    xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
    if xstar.ndim != 1:
        raise InvalidArgumentError(f"xstar must be a single input point, got shape {xstar.shape}")
    batch = predict_batch(model, xstar[None, :])
    return replace(batch, **{f.name: getattr(batch, f.name)[0] for f in fields(batch) if f.name != "weights"})


def predict_batch(model, Xstar):
    """Mixture predictive moments at every row of ``Xstar`` (M, p).

    Per component, the regression moments come from the noisy-kernel
    solve against the training targets, and the noise moments from the
    GP conditional of the log-variance posterior at each new input,
    ``m_tilde + k*' Lam^-1 (m - m_tilde) = m_tilde + k*' t``; the mixture blends
    components with the posterior mean weights (squared for the
    variance).  Factorizations are built once per model, on the first
    call; a call computes one input-distance matrix and one triangular
    solve per (c, d) block against all M inputs.

    Returns
    -------
    PredictiveMoments
        ``mean`` and ``variance`` are (M, D), the per-component fields
        (M, C, D), and ``weights`` (C,).
    """
    if model.state is None:
        raise ModelStateError("predict requires a fitted model")
    state = model.state
    ctx = _model_context(model)
    Xstar = np.asarray(Xstar, dtype=float)
    p = ctx.X.shape[1]
    if Xstar.ndim != 2 or Xstar.shape[0] < 1 or Xstar.shape[1] != p:
        raise InvalidArgumentError(f"inputs must be an (M, {p}) array with M >= 1, got shape {Xstar.shape}")
    if not np.all(np.isfinite(Xstar)):
        raise InvalidArgumentError("inputs must be finite")
    mean_factors = _model_factors(model, ctx)
    C, D, _ = state.t.shape
    M = Xstar.shape[0]
    weights = expected_weights(state.sticks)

    dist = cdist(Xstar, ctx.X)  # (M, N)
    cross = {}  # (M, N) cross covariances per distinct kernel

    def cross_cov(kernel):
        if kernel not in cross:
            cross[kernel] = kernel.marginal_variance * kernel.phi**dist
        return cross[kernel]

    a = np.zeros((M, C, D))
    svar = np.zeros((M, C, D))
    tau = np.empty((M, C, D))
    phi_star = np.empty((M, C, D))
    for c in range(C):
        nk, mk = ctx.noise_kernels[c], ctx.mean_kernels[c]
        lam_cross = cross_cov(nk)
        for d in range(D):
            tau[:, c, d] = ctx.m_tilde[c, d] + _row_dots(lam_cross, state.t[c, d][None, :])
            w = solve_lower(state.noise_chol[c][d], (lam_cross * np.sqrt(state.Q[c, d])).T).T
            phi_star[:, c, d] = np.maximum(nk.marginal_variance - _row_dots(w, w), 0.0)
            if mean_factors[c][d] is not None:
                k_cross = cross_cov(mk)
                root, La, inner = mean_factors[c][d]
                a[:, c, d] = _row_dots(k_cross, inner[None, :])
                wk = solve_lower(La, (k_cross * root).T).T
                svar[:, c, d] = np.maximum(mk.marginal_variance - _row_dots(wk, wk), 0.0)
    psi = np.exp(tau + 0.5 * phi_star)
    return PredictiveMoments(
        mean=weights @ a,
        variance=(weights**2) @ (svar + psi),
        weights=weights,
        component_means=a,
        component_mean_vars=svar,
        noise_log_mean=tau,
        noise_log_var=phi_star,
        component_noise_vars=psi,
    )


# ---------------------------------------------------------------------------
# simulation


class _LazyGpPath:
    """Sequentially conditioned draw of one Gaussian process path of at most ``size`` points in ``dim`` dimensions.

    The history's inputs, the Cholesky factor L of its jittered kernel
    matrix and the solve u of its centered values against L fill
    preallocated buffers row by row; the zero kernel gets none.
    """

    def __init__(self, kernel, mean, size, dim):
        self.kernel = kernel
        self.mean = mean
        self.jitter = ar1_jitter(kernel) + 1e-12
        self.k = 0  # points drawn so far
        if isinstance(kernel, ZeroKernel):
            size = 0
        self.points = np.empty((size, dim))
        self.L = np.zeros((size, size))
        self.u = np.empty(size)

    def sample(self, x, rng):
        if isinstance(self.kernel, ZeroKernel):
            return 0.0
        k = self.k
        k_self = kernel_eval(self.kernel, x, x) + self.jitter
        if k == 0:
            mean, var = self.mean, k_self
            w = np.empty(0)
        else:
            k_cross = cross_vector(self.kernel, self.points[:k], x)
            w = solve_lower(self.L[:k, :k], k_cross)
            mean = self.mean + float(w @ self.u[:k])
            var = max(k_self - float(w @ w), self.jitter)
        value = mean + math.sqrt(var) * rng.standard_normal()
        # grow the Cholesky factor by one row; the new solve entry only
        # needs the conditional residual over the pivot
        pivot = math.sqrt(var)
        self.L[k, :k] = w
        self.L[k, k] = pivot
        self.u[k] = (value - mean) / pivot
        self.points[k] = x
        self.k = k + 1
        return value


def simulate(config, n_points, n_dims, seed=0):
    """Forward draw from the generative model.

    Samples the innovation parameter, the stick weights, i.i.d.
    component assignments, and per-(component, dimension) paths of the
    latent mean and log-variance processes; outputs are Gaussian with
    variance ``exp(g)``.  Inputs feed back: row n + 1 of X equals row n
    of Y, starting from the origin, which mirrors how return series are
    paired for fitting.

    Returns
    -------
    SimulationDraw
    """
    if n_points < 1 or n_dims < 1:
        raise InvalidArgumentError("n_points and n_dims must be positive")
    C = config.pyp.truncation
    rng = np.random.default_rng(seed)
    delta = config.pyp.delta

    # tiny shapes can underflow the Gamma draw to exactly zero
    alpha = max(rng.gamma(config.pyp.eta1, 1.0 / config.pyp.eta2), 1e-300)
    v = np.ones(C)
    for c in range(C - 1):
        v[c] = rng.beta(1.0 - delta, alpha + delta * (c + 1))
    survival = np.concatenate([[1.0], np.cumprod(1.0 - v[:-1])])
    weights = v * survival

    mean_kernels = (
        tuple(config.mean_kernels) if config.mean_kernels is not None else (ZeroKernel(),) * C
    )
    if config.noise_kernels is not None:
        noise_kernels = tuple(config.noise_kernels)
    else:
        noise_kernels = (Ar1Kernel(phi=0.5, sigma0_sq=0.75),) * C
    # with no outputs to take a variance from, the prior mean defaults to zero
    m_tilde = _resolve_m_tilde(0.0 if config.m_tilde is None else config.m_tilde, np.empty((0, n_dims)), C)

    assignments = rng.choice(C, size=n_points, p=weights)
    # a path draws once per observation of its component
    counts = np.bincount(assignments, minlength=C)
    g_paths = [
        [_LazyGpPath(noise_kernels[c], m_tilde[c, d], counts[c], n_dims) for d in range(n_dims)]
        for c in range(C)
    ]
    f_paths = [[_LazyGpPath(mean_kernels[c], 0.0, counts[c], n_dims) for d in range(n_dims)] for c in range(C)]

    X = np.zeros((n_points, n_dims))
    Y = np.empty((n_points, n_dims))
    variances = np.empty((n_points, n_dims))
    for n in range(n_points):
        c = assignments[n]
        x = X[n]
        for d in range(n_dims):
            g = g_paths[c][d].sample(x, rng)
            f = f_paths[c][d].sample(x, rng)
            variances[n, d] = np.exp(g)
            Y[n, d] = f + math.sqrt(variances[n, d]) * rng.standard_normal()
        if n + 1 < n_points:
            X[n + 1] = Y[n]
    return SimulationDraw(X, Y, variances, assignments.astype(int), weights)
