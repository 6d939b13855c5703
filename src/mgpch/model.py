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
    m = m_tilde 1 + Lam t,

where Q is a diagonal free parameter of the bound and t = Lam^-1 (m -
m_tilde) the natural mean.  The expected noise precision is
``E[exp(-g_n)] = exp(S_nn / 2 - m_n)``.  S is a function of Q alone, and
the latent mean covariance Sigma of the effective precisions B of the
last mean update, so the primal state is R, t, Q, B and the mixture
factors; m and mu are derived, and :func:`refresh_caches` rebuilds them and
everything else with the updates' own block code, so a model rebuilt from
its primal state scores bit for bit like the one in memory.  No prior
is ever factorized: ``K^-1 mu`` comes from the bound factor.

The updates, :func:`refresh_caches` and :func:`free_energy` take the state
first and the :class:`MgpchModel` second.  The model holds the fit's data,
its resolved kernels and m_tilde, and builds the jittered priors on first
use, so a fitted and a loaded model alike are their own fit context:
``free_energy(model.state, model)``.

q(g) moves by a damped natural-gradient step (the conjugate-computation
step of Khan and Lin, AISTATS 2017): Q toward the curvature ``Q_hat =
q_nc * omega_n * E[exp(-g_n)] / 2`` of the expected log likelihood, and m
by the gradient ``Q_hat - q_c / 2 - t`` preconditioned by the new S.
Step 0 is the current state and step 1 a Newton step, and a backtracking
safeguard only ever accepts free-energy improvements.  At a fixed point
``t = Q - q_c / 2``, so that ``m = m_tilde + Lam (Q - q_c / 2)``.
Each candidate costs one Cholesky factor La of ``A = I + sqrt(Q) Lam
sqrt(Q)`` and one triangular solve ``W = La^-1 sqrt(Q) Lam``:
``diag(S) = diag(Lam) - colsum(W o W)``, by Woodbury ``trace(Lam^-1 S) = N
- Q . diag(S)``, and the step's ``Q S grad = sqrt(Q) La^-T (W grad)``
comes from the same factor.
The KL's core ``log|A| - Q . diag(S)`` is second order in Q near the
prior, where it is summed from second-order terms
(:func:`_diag_precision_posterior`).  The mean update uses the same
algebra.  The fit, the free energy and forecasts need no full S or
Sigma, so neither is stored (:attr:`VariationalState.S` rebuilds S on
demand).

For one-column inputs diag(S), the KL and the step ``S grad`` of every
block come from one batched Kalman filter and smoother scan instead, the
scalar Markov path of :mod:`mgpch.ou`; inputs with more columns take the
dense path.  :attr:`MgpchModel.ou` chooses the path, and
:func:`_noise_steps` is the only code that reads the choice.

A forecast reads only t, Q, B and the sticks, and one bound factor per
block: :attr:`MgpchModel.factors` builds them from the stored Q and B, on
either path, once at the end of :func:`fit` or on a loaded model's first
forecast, so a loaded model forecasts the same bits without rebuilding
the caches; :func:`free_energy` rebuilds those when it needs them.

Most sweeps of a fit drain responsibility mass between components at a
nearly constant rate, a linearly converging fixed-point map.  So after
every two plain sweeps :func:`fit` extrapolates the whole sweep map along
the path of the primal state (log R, t, log Q, log B and the logs of the
mixture factors' parameters) with the squared step of SQUAREM (Varadhan and
Roland, Scand. J. Statist. 2008).  The caches a sweep reads, log omega and
log diag(S), move along the same path, so a try factorizes nothing before
its sweep.  The try starts with infinite KLs of q(g), so that sweep takes
each block's finite Newton noise step, which reads neither Q nor a KL, and
leaves every cache exact.  The result is kept only if its free energy is
finite and at least that of the second sweep; a shorter step is tried
otherwise, and after three tries the fit goes on from the second sweep's
state, untouched.  A kept step enters the free-energy trace as one
``"extrapolation"`` entry, so the trace stays non-decreasing, and only a
plain sweep's gain is tested for convergence; on the benchmark panels the
step halves the sweeps per fit and reaches the same optimum.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import (
    DivergedFitError,
    IllConditionedError,
    InvalidArgumentError,
    ModelStateError,
    NumericalDomainError,
    _as_real_array,
    _check_integer,
    _check_real,
)
from .kernels import Ar1Kernel, ZeroKernel, _default_noise_kernel, _resolve_m_tilde, ar1_jitter, design_matrix
from .linalg import (
    _log1p_excess,
    cholesky_factor,
    cholesky_solve,
    logdet_from_factor,
    solve_lower,
    solve_lower_transpose,
)
from .ou import _ou_moments, _ou_transitions
from .pyp import (
    InnovationPosterior,
    PypConfig,
    StickPosterior,
    _mixture_terms,
    expected_log_weights,
    expected_weights,
    update_innovation_posterior,
    update_stick_posteriors,
)
# re-exported: callers import the sampler from here as from the package
from .simulation import SimulationDraw, simulate

__all__ = [
    "MgpchConfig",
    "VariationalState",
    "MgpchModel",
    "PredictiveMoments",
    "SimulationDraw",
    "expected_noise_precision",
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

# Damping ladder of the noise step; a block that rejects every step keeps its state (s = 0).
_BACKTRACK_STEPS = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
_ACCEPT_SLACK = 1e-12
# Step lengths an extrapolation tries, each halfway back to the plain sweeps' point from the last.
_EXTRAPOLATION_TRIES = 3


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
        _check_integer("max_iters", self.max_iters, 0)
        _check_integer("seed", self.seed, 0)
        _check_real("tol", self.tol)
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
    t: np.ndarray  # (C, D, N) natural means Lam^-1 (m - m_tilde) of q(g), the primal
    Q: np.ndarray  # (C, D, N) diagonal bound parameters of q(g)
    B: np.ndarray  # (C, D, N) effective precisions of the last mean update, which fix q(f)
    sticks: object
    innovation: object
    mu: np.ndarray = None  # (C, D, N) latent mean posterior means Sigma B y, zero without a mean kernel
    m: np.ndarray = None  # (C, D, N) log-variance posterior means m_tilde + Lam t
    s_diag: np.ndarray = None  # (C, D, N) log-variance posterior variances diag(S)
    omega: np.ndarray = None  # (C, D, N) expected squared residuals
    inv_noise: np.ndarray = None  # (C, D, N) expected noise precisions
    g_kl: np.ndarray = None  # (C, D) KL of each q(g) from its prior
    f_kl: np.ndarray = None  # (C, D) KL of each q(f) from its prior
    # innovation and stick terms of the free energy, set with the mixture factors
    mixture_terms: tuple = None
    noise_priors: object = None  # per component Lam the caches were built with (shared)

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
class MgpchModel:
    """Mixture model: the inputs of one fit and, once fitted, its result.

    Carries the training design, the resolved per-component kernels and
    m_tilde, the variational state (None before the fit), and the
    free-energy trace recorded after every coordinate update and every
    kept extrapolation (``trace_labels`` names each entry).  The priors
    ``lam``, ``K`` and ``ou`` are built on first use, alike for a fitted
    and a loaded model, and so are the forecast ``factors`` of a loaded one.
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

    @cached_property
    def _jittered(self):
        """Jittered design matrix of each distinct non-zero kernel, so components with equal kernels share one."""
        n = self.X.shape[0]
        kernels = dict.fromkeys(k for k in (*self.noise_kernels, *self.mean_kernels) if not isinstance(k, ZeroKernel))
        return {k: design_matrix(k, self.X) + ar1_jitter(k) * np.eye(n) for k in kernels}

    @cached_property
    def lam(self):
        """Per component: the jittered noise design matrix."""
        return tuple(self._jittered[k] for k in self.noise_kernels)

    @cached_property
    def K(self):
        """Per component: the jittered mean design matrix, or None for the zero kernel."""
        return tuple(self._jittered.get(k) for k in self.mean_kernels)

    @cached_property
    def ou(self):
        """:class:`~mgpch.ou._OuTransitions` on one-column inputs, else None: the one place the noise path is chosen."""
        return _ou_transitions(self.X, self.noise_kernels) if self.X.shape[1] == 1 else None

    @cached_property
    def factors(self):
        """Per (c, d) block, the noise and mean forecast factors of the stored Q and B.

        Noise: ``sqrt(Q)`` and the factor of ``I + sqrt(Q) Lam sqrt(Q)``.  Mean
        (None for the zero kernel): ``sqrt(B)``, the factor of ``I + sqrt(B) K
        sqrt(B)`` and ``K^-1 mu``, so a component's forecast is the q(f)
        predictive ``k*' K^-1 mu``.  :func:`fit` builds them at its end and a
        loaded model on its first forecast, so both forecast the same bits.
        """
        C, D, _ = self.state.t.shape
        noise = [[None] * D for _ in range(C)]
        mean = [[None] * D for _ in range(C)]
        for c, d in np.ndindex(C, D):
            noise[c][d] = _bound_factor(self.lam[c], self.state.Q[c, d], "noise bound matrix")
            if self.K[c] is not None:
                root, La = _bound_factor(self.K[c], self.state.B[c, d], "mean bound matrix")
                mean[c][d] = (root, La, _latent_gain(self.state.B[c, d], La, self.Y[:, d]))
        return noise, mean


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


def expected_noise_precision(m, s_diag):
    """Expected noise precision ``E[exp(-g_n)] = exp(S_nn / 2 - m_n)`` from ``s_diag = diag(S)``."""
    return np.exp(0.5 * s_diag - m)


def _bound_factor(prior, prec, label):
    """``sqrt(prec)`` and the lower factor of ``A = I + sqrt(P) prior sqrt(P)``."""
    if np.any(prec < 0.0):
        raise InvalidArgumentError(f"diagonal precisions of the {label} must be non-negative")
    root = np.sqrt(prec)
    A = root[:, None] * prior
    A *= root
    A.flat[:: A.shape[0] + 1] += 1.0
    return root, cholesky_factor(A, context=label)


def _diag_precision_posterior(prior, prec, label):
    """Posterior ``(prior^-1 + diag(prec))^-1`` without forming it.

    Returns the factor La of :func:`_bound_factor` and ``W = La^-1
    sqrt(P) prior``, so the posterior is ``prior - W'W``; the posterior
    diagonal ``diag(prior) - colsum(W o W)``; and ``log|A| - prec . diag``,
    which is ``trace(prior^-1 cov) - N + log|prior| - log|cov|`` by
    Woodbury, the KL from the prior without its mean term.

    That KL core is ``sum f(lambda)`` over the eigenvalues lambda of ``B =
    sqrt(P) prior sqrt(P)``, with ``f(x) = log1p(x) - x / (1 + x)``: second
    order in B, while log|A| and ``prec . diag`` are first order.  Near the
    prior, once ``trace(B) < 1``, it is therefore summed from second-order
    terms: ``La_ii^2 = 1 + delta_i`` with ``delta_i = B_ii - off_i`` and
    ``off_i = sum_{k<i} La_ik^2``, and ``prec . diag = trace(B) - prec .
    colsum(W o W)``, so the core is ``sum (f(delta) - delta^2 / (1 +
    delta)) + prec . colsum(W o W) - sum off``, each term of order B^2.
    """
    root, La = _bound_factor(prior, prec, label)
    W = solve_lower(La, root[:, None] * prior)
    lost = np.einsum("ij,ij->j", W, W)
    diag = np.diagonal(prior) - lost
    b = root * np.diagonal(prior) * root
    if b.sum() >= 1.0:
        return La, W, diag, logdet_from_factor(La) - float(prec @ diag)
    sq = La * La  # La is zero above its diagonal
    np.fill_diagonal(sq, 0.0)
    off = sq.sum(axis=1)
    delta = b - off
    core = float(np.sum(_log1p_excess(delta) - delta * delta / (1.0 + delta)) + prec @ lost - off.sum())
    return La, W, diag, core


def _posterior_cov(prior, W, diag):
    """``prior - W'W`` whose diagonal is the ``diag`` the candidate was judged by, bit for bit."""
    cov = prior - W.T @ W
    cov = 0.5 * (cov + cov.T)
    np.fill_diagonal(cov, diag)
    return cov


def _prior_mean_terms(lam, t):
    """``Lam t`` and ``t . Lam t`` of every row of t (..., N), a stacked product per row: the same bits in any batch."""
    lam_t = np.matmul(lam, t[..., None])[..., 0]
    return lam_t, np.matmul(t[..., None, :], lam_t[..., None])[..., 0, 0]


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
    X = _as_real_array("X", X)
    Y = _as_real_array("Y", Y)
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


def _make_context(X, Y, config):
    """The unfitted model of validated data (see :func:`_validate_data`): kernels and m_tilde resolved, state None."""
    C = config.pyp.truncation
    # the config holds None or a tuple of C >= 1 kernels
    mean_kernels = config.mean_kernels or (ZeroKernel(),) * C
    noise_kernels = config.noise_kernels or (_default_noise_kernel(X),) * C
    m_tilde = _resolve_m_tilde(config.m_tilde, Y, C)
    return MgpchModel(config, X, Y, mean_kernels, noise_kernels, m_tilde, state=None, free_energy_trace=[], trace_labels=[])


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


def _init_state(model):
    config = model.config
    n, D = model.Y.shape
    C = config.pyp.truncation
    rng = np.random.default_rng(config.seed)

    labels = _kmeans_labels(np.hstack([model.X, model.Y]), C, rng)
    R = np.full((n, C), 0.1 / C)
    R[np.arange(n), labels] += 0.9

    sticks = update_stick_posteriors(R, config.pyp.delta, config.pyp.eta1 / config.pyp.eta2, C)
    innovation = update_innovation_posterior(sticks, config.pyp.eta1, config.pyp.eta2)

    B = np.zeros((C, D, n))
    # at Q = R / 2 the natural mean t = Q - R / 2 is zero: q(g) has the prior mean
    Q = np.repeat(0.5 * R.T[:, None, :], D, axis=1)
    t = np.zeros((C, D, n))
    state = VariationalState(R, t, Q, B, sticks, innovation)
    refresh_caches(state, model)
    return state


# ---------------------------------------------------------------------------
# cache maintenance


def refresh_caches(state, model):
    """Rebuild every derived array of ``state`` from its primal ones and ``model`` with the updates' own block code.

    :func:`_noise_steps` gives diag(S) and the KL's core of every (c, d)
    block at its stored Q, and :func:`_noise_moments` m, the KL of q(g) and
    the expected noise precisions from t, as in the noise update.
    mu is zero, and :func:`_mean_block` gives mu, the expected squared
    residuals and the KL of q(f) of every block with a mean kernel from its
    stored B, as in the mean update.  The innovation and stick terms of the
    free energy come from the mixture factors.
    """
    C, D, n = state.t.shape
    rows = _block_rows(C, D)
    s_diag, kl_core = _noise_steps(model, rows, state.Q.reshape(C * D, n))
    m, g_kl, inv_noise = _noise_moments(model, rows, state.t.reshape(C * D, n), s_diag, kl_core)
    state.noise_priors = model.lam
    state.s_diag, state.m, state.inv_noise = (a.reshape(C, D, n) for a in (s_diag, m, inv_noise))
    state.g_kl = g_kl.reshape(C, D)
    state.mu = np.zeros_like(state.t)
    state.omega = (model.Y.T[None, :, :] - state.mu) ** 2
    state.f_kl = np.zeros((C, D))
    for c, d in np.ndindex(C, D):
        if model.K[c] is not None:
            _mean_block(state, model, c, d)
    state.mixture_terms = _mixture_terms(state.sticks, state.innovation, model.config.pyp)


def _block_rows(C, D):
    """Component and output index of every (c, d) block, in row order of a (C * D, N) reshape."""
    return np.repeat(np.arange(C), D), np.tile(np.arange(D), C)


# ---------------------------------------------------------------------------
# coordinate updates


def update_noise_processes(state, model):
    """Damped natural-parameter (CVI) update of every log-variance posterior of ``state`` under ``model``.

    Per (c, d) block the step of Khan and Lin (AISTATS 2017) moves the
    bound parameter to ``Q_s = (1 - s) Q + s Q_hat``, where ``Q_hat =
    q_nc * omega_n * E[exp(-g_n)] / 2`` is the curvature of the expected
    log likelihood, and the mean along the gradient ``grad = Q_hat - q_c / 2
    - t`` of the block's free energy in m, preconditioned by the new
    covariance: ``m_s = m + s S_s grad``.  In the stored natural mean that is
    ``t_s = t + s (grad - Q_s S_s grad)``, since ``Lam^-1 S_s = I - Q_s S_s``,
    taken as ``(1 - s) t + s (Q_hat - q_c / 2 - Q_s S_s grad)`` so that the
    Newton step does not pass through ``t - t``.
    Step 0 is the current state and s = 1 a Newton step; ``t = Q - q_c / 2``
    holds only at a fixed point.

    The ladder of steps is judged one step at a time, for the blocks still
    pending, until the block's free-energy contribution does not decrease;
    a block that rejects every step keeps its current state, so the update
    never lowers the objective.  A candidate whose objective is not finite
    (its precisions overflow) is rejected.  A step judges each pending
    block with one factor, or all of them with one scan on one-column
    inputs (:func:`_noise_steps`), and :func:`_noise_moments` gives their
    m, KL and expected precisions.
    """
    qz = state.R.T[:, None, :]
    target = 0.5 * qz * state.omega * state.inv_noise
    base = target - 0.5 * qz
    grad = base - state.t
    pending = list(np.ndindex(state.t.shape[:2]))
    old_obj = {b: _block_objective(state, b, state.g_kl[b], state.m[b], state.inv_noise[b]) for b in pending}
    for step in _BACKTRACK_STEPS:
        rows = tuple(np.array(pending).T)
        Q = (1.0 - step) * state.Q[rows] + step * target[rows]
        s_diag, kl_core, q_v = _noise_steps(model, rows, Q, grad[rows])
        t = (1.0 - step) * state.t[rows] + step * (base[rows] - q_v)
        rejected = []
        with np.errstate(over="ignore", invalid="ignore"):
            m, kl, inv_noise = _noise_moments(model, rows, t, s_diag, kl_core)
            objs = [_block_objective(state, b, kl[i], m[i], inv_noise[i]) for i, b in enumerate(pending)]
        for i, (c, d) in enumerate(pending):
            obj, old = objs[i], old_obj[c, d]
            if math.isfinite(obj) and obj >= old - _ACCEPT_SLACK * (1.0 + abs(old)):
                state.t[c, d], state.m[c, d], state.s_diag[c, d] = t[i], m[i], s_diag[i]
                state.Q[c, d], state.g_kl[c, d], state.inv_noise[c, d] = Q[i], kl[i], inv_noise[i]
            else:
                rejected.append((c, d))
        pending = rejected
        if not pending:
            break
    # blocks still pending rejected every step and keep their current state


def _block_objective(state, block, kl, m, inv_noise):
    """The free-energy terms of q(g) in one (c, d) block: its negated KL and its expected log likelihood."""
    qz = state.R[:, block[0]]
    return -kl - 0.5 * float(qz @ (m + state.omega[block] * inv_noise))


def _noise_steps(model, rows, Q, grad=None):
    """diag(S), ``log|A| - Q . diag(S)`` and, given ``grad``, ``Q S grad`` of blocks ``rows``.

    Row i of Q and grad (P, N) belongs to block ``(rows[0][i],
    rows[1][i])``.  On one-column inputs one :func:`_ou_moments` scan serves
    every row.  The dense path factors each row's ``A = I + sqrt(Q) Lam
    sqrt(Q)`` once for diag(S) and takes ``Q S grad = sqrt(Q) La^-T (W
    grad)`` with ``W = La^-1 sqrt(Q) Lam`` from the same factor.  This is
    the only code that reads which path the inputs take.
    """
    if model.ou is not None:
        if grad is None:
            return _ou_moments(model.ou, rows[0], Q)
        s_diag, kl_core, v = _ou_moments(model.ou, rows[0], Q, grad)
        return s_diag, kl_core, Q * v
    s_diag = np.empty_like(Q)
    kl_core = np.empty(Q.shape[0])
    q_v = np.empty_like(Q)
    for i, c in enumerate(rows[0]):
        La, W, s_diag[i], kl_core[i] = _diag_precision_posterior(model.lam[c], Q[i], "noise bound matrix")
        if grad is not None:
            q_v[i] = np.sqrt(Q[i]) * solve_lower_transpose(La, W @ grad[i])
    return (s_diag, kl_core) if grad is None else (s_diag, kl_core, q_v)


def _noise_moments(model, rows, t, s_diag, kl_core):
    """m = m_tilde + Lam t, the KL of q(g) and the expected noise precisions of blocks ``rows``."""
    m = np.empty_like(t)
    kl = np.empty(t.shape[0])
    for i, (c, d) in enumerate(zip(*rows)):
        lam_t, quad = _prior_mean_terms(model.lam[c], t[i])
        m[i] = model.m_tilde[c, d] + lam_t
        kl[i] = 0.5 * (float(quad) + kl_core[i])
    return m, kl, expected_noise_precision(m, s_diag)


def update_latent_functions(state, model):
    """Closed-form update of every latent mean posterior of ``state`` under ``model``.

    Components with the zero kernel are left untouched: their mean is
    identically zero and carries no free-energy terms.
    """
    for c, d in np.ndindex(state.m.shape[:2]):
        if model.K[c] is not None:
            state.B[c, d] = state.R[:, c] * state.inv_noise[c, d]
            _mean_block(state, model, c, d)


def _mean_block(state, model, c, d):
    """mu, the expected squared residuals and the KL of q(f) of block (c, d) from its stored B."""
    mu, diag, state.f_kl[c, d], _ = _latent_candidate(model.K[c], state.B[c, d], model.Y[:, d])
    state.mu[c, d] = mu
    state.omega[c, d] = (model.Y[:, d] - mu) ** 2 + diag


def update_responsibilities(state, model):
    """Closed-form categorical update of ``state.R`` with log-sum-exp normalization; ``model`` is not read."""
    fit_term = -0.5 * np.sum(state.omega * state.inv_noise + state.m, axis=1)  # (C, N), summed over D
    logits = expected_log_weights(state.sticks)[None, :] + fit_term.T  # prior log weights plus data fit
    if not np.all(np.isfinite(np.max(logits, axis=1))):
        raise NumericalDomainError("every component underflowed for some observation")
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    state.R = w / w.sum(axis=1, keepdims=True)


def update_mixture_posteriors(state, model):
    """Stick Beta updates followed by the innovation Gamma update, under the prior of ``model.config.pyp``."""
    config = model.config.pyp
    state.sticks = update_stick_posteriors(
        state.R, config.delta, state.innovation.mean, config.truncation
    )
    state.innovation = update_innovation_posterior(state.sticks, config.eta1, config.eta2)
    state.mixture_terms = _mixture_terms(state.sticks, state.innovation, config)


# ---------------------------------------------------------------------------
# free energy


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


def free_energy(state, model):
    """Variational free energy of ``state`` under ``model``'s data and priors.

    Sums the negated KL of every Gaussian factor from its prior, the
    innovation and stick terms in the form whose exact coordinate
    maximizers are the closed-form updates, the assignment cross
    entropy, and the expected log likelihood.  A state without caches, as
    a loaded model's, gets them from :func:`refresh_caches` first, so
    ``free_energy(model.state, model)`` scores a fitted or loaded model.

    At a Pitman-Yor discount delta > 0 (the default is 0.25) this is no
    bound on the model's evidence, but its Dirichlet-process surrogate;
    :mod:`mgpch.pyp` says why.
    """
    if state.g_kl is None:
        refresh_caches(state, model)
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
    """Fit the mixture by free-energy coordinate ascent, extrapolated every two sweeps.

    A plain sweep updates the noise processes, the latent means, the
    responsibilities and the mixture factors in turn.  After every two plain
    sweeps x0 -> x1 -> x2, a safeguarded SQUAREM step (Varadhan and Roland,
    Scand. J. Statist. 2008) extrapolates the whole sweep map
    (:func:`_extrapolated_sweep`): it runs one sweep, with the Newton noise
    step, from a point far along the sweeps' path and keeps the result only
    if its free energy is finite and at least that of x2; otherwise the fit
    goes on from x2, bit for bit as without the step.

    Parameters
    ----------
    X : array_like, shape (N, p)
        Conditioning inputs; for return series, the previous day's
        return vector.
    Y : array_like, shape (N, D)
        Outputs; for return series, the next day's return vector.
    config : MgpchConfig, optional
        ``max_iters`` caps the sweeps of both kinds, an extrapolation's
        tries included; ``tol`` is compared with the change over each plain
        sweep, so a kept extrapolation never ends the fit by itself.

    Returns
    -------
    MgpchModel
        Fitted model with ``free_energy_trace`` recording the objective
        after initialization, after every coordinate update of a plain
        sweep, and after every kept extrapolation (labelled
        ``"extrapolation"``), so the trace never decreases.

    Raises
    ------
    DivergedFitError
        If the free energy becomes non-finite.
    """
    if config is None:
        config = MgpchConfig()
    model = _make_context(*_validate_data(X, Y, min_points=2), config)
    state = _init_state(model)

    trace = [free_energy(state, model)]
    labels = ["init"]
    if not math.isfinite(trace[0]):
        raise DivergedFitError("free energy non-finite at initialization", iteration=0)

    def record(label, iteration):
        value = free_energy(state, model)
        if not math.isfinite(value):
            raise DivergedFitError(f"free energy non-finite after {label}", iteration=iteration)
        trace.append(value)
        labels.append(label)
        return value

    def converged(previous, current):
        return abs(current - previous) <= config.tol * max(abs(previous), abs(current), 1.0)

    sweeps = 0
    done = config.max_iters == 0
    while not done:
        points = [_primal_coordinates(state)]
        for _ in range(2):
            previous = trace[-1]
            _sweep(state, model, lambda label: record(label, sweeps))
            sweeps += 1
            done = converged(previous, trace[-1]) or sweeps == config.max_iters
            if done:
                break
            points.append(_primal_coordinates(state))
        if done:
            break
        candidate, value, tries = _extrapolated_sweep(points, trace[-1], model, config.max_iters - sweeps)
        sweeps += tries
        if candidate is not None:
            state = candidate
            trace.append(value)
            labels.append("extrapolation")
        done = sweeps == config.max_iters

    model.state, model.free_energy_trace, model.trace_labels = state, trace, labels
    model.factors  # built here, so no forecast pays for them
    return model


def _sweep(state, model, record=None):
    """One plain sweep: the noise, mean, responsibility and mixture updates in turn, each followed by ``record(label)`` if given."""
    for label, update in (
        ("noise", update_noise_processes),
        ("mean", update_latent_functions),
        ("responsibilities", update_responsibilities),
        ("mixture", update_mixture_posteriors),
    ):
        update(state, model)
        if record is not None:
            record(label)


def _primal_coordinates(state):
    """The state as two groups of unconstrained arrays, extrapolated by :func:`_extrapolated_sweep`.

    The first group is the primal state, log R, t, log Q, log B and the logs
    of the stick and innovation parameters, and alone sets the step length.
    The second holds log omega and log diag(S): these caches move along the
    same path, so that a try's sweep reads them at the extrapolated point
    without a factorization (:func:`_state_at`).  A zero (a vanished
    responsibility, or the B of a block no mean update reached) maps to
    -inf, which :func:`_extrapolated_sweep` leaves in place.
    """
    with np.errstate(divide="ignore"):
        primal = (
            np.log(state.R),
            state.t.copy(),
            np.log(state.Q),
            np.log(state.B),
            np.log(state.sticks.beta1),
            np.log(state.sticks.beta2),
            np.log([state.innovation.eta1_hat, state.innovation.eta2_hat]),
        )
        return primal, (np.log(state.omega), np.log(state.s_diag))


def _state_at(coords, model):
    """The state an extrapolation try sweeps from, or None outside the mixture factors' domains.

    It holds what the try's sweep reads at the coordinates ``coords`` of
    :func:`_primal_coordinates`: R, t, the mixture factors, diag(S) and,
    where a mean kernel moves it, omega, with m and the expected precisions
    from t.  Nothing is factorized.  The KLs of q(g) are +inf, so every
    block's objective is -inf and the sweep's noise update accepts each
    finite Newton step ``Q_1 = Q_hat``, ``t_1 = Q_hat - q_c / 2 - Q_1 S_1
    grad``, which reads neither Q nor a KL; Q is a zero placeholder, so a
    damped step s of a block whose Newton step is not finite reads ``Q_s =
    s Q_hat``.  The mean update then sets B, mu, omega and the KL of q(f),
    so after the sweep every cache is exact.  A block that rejects every
    step keeps its +inf KL, and the try's free energy is -inf.
    """
    (log_R, t, _, log_B, log_beta1, log_beta2, log_eta), (log_omega, log_s_diag) = coords
    R = np.exp(log_R - log_R.max(axis=1, keepdims=True))
    R /= R.sum(axis=1, keepdims=True)
    mixture = [np.exp(a) for a in (log_beta1, log_beta2, log_eta)]
    if not all(np.all(np.isfinite(a) & (a > 0.0)) for a in mixture):
        return None
    beta1, beta2, eta = mixture
    sticks = StickPosterior(beta1, beta2)
    innovation = InnovationPosterior(float(eta[0]), float(eta[1]))
    C, D, n = t.shape
    s_diag = np.exp(log_s_diag)
    rows = _block_rows(C, D)
    m, _, inv_noise = _noise_moments(model, rows, t.reshape(C * D, n), s_diag.reshape(C * D, n), np.zeros(C * D))
    mu = np.zeros_like(t)
    omega = (model.Y.T[None, :, :] - mu) ** 2  # exact where no mean kernel moves mu
    fitted = [c for c in range(C) if model.K[c] is not None]
    omega[fitted] = np.exp(log_omega[fitted])
    return VariationalState(
        R, t, np.zeros_like(t), np.exp(log_B), sticks, innovation,
        mu=mu, m=m.reshape(C, D, n), s_diag=s_diag, omega=omega, inv_noise=inv_noise.reshape(C, D, n),
        g_kl=np.full((C, D), np.inf), f_kl=np.zeros((C, D)), noise_priors=model.lam,
    )


def _extrapolated_sweep(points, floor, model, budget):
    """One safeguarded SQUAREM step from the coordinates of three consecutive sweeps.

    With the differences ``r = x1 - x0`` and ``v = x2 - 2 x1 + x0`` over
    every coordinate that is finite in all three points, and the step length
    ``a = |r| / |v|`` over the primal coordinates, the candidate ``x0 + 2 a
    r + a^2 v`` lies on the parabola through the sweeps' path that reaches
    x2 at a = 1 (the SqS3 scheme).  The try's state is built there
    (:func:`_state_at`), one sweep runs from it without recording, taking
    the Newton noise step, and the result is kept if its free energy is
    finite and at least ``floor``, that of x2.  Otherwise a moves halfway
    to 1, at most ``_EXTRAPOLATION_TRIES`` times and within ``budget``
    sweeps; a candidate outside the mixture factors' domains, or whose
    sweep leaves its domains (a non-finite bound matrix), is rejected
    alike.  The live state is never touched, so a rejected step leaves x2
    as it was.

    Returns the kept state and its free energy, or (None, None), and the
    number of sweeps tried.
    """
    n_primal = len(points[0][0])
    points = [[*primal, *caches] for primal, caches in points]
    finite = [np.isfinite(x0) & np.isfinite(x1) & np.isfinite(x2) for x0, x1, x2 in zip(*points)]
    with np.errstate(invalid="ignore"):
        r = [np.where(f, x1 - x0, 0.0) for f, x0, x1 in zip(finite, points[0], points[1])]
        v = [np.where(f, x2 - 2.0 * x1 + x0, 0.0) for f, x0, x1, x2 in zip(finite, *points)]
    norm_v = math.sqrt(sum(float(np.sum(a * a)) for a in v[:n_primal]))
    norm_r = math.sqrt(sum(float(np.sum(a * a)) for a in r[:n_primal]))
    step = norm_r / norm_v if norm_v > 0.0 else 1.0
    tries = 0
    while step > 1.0 and tries < min(budget, _EXTRAPOLATION_TRIES):
        tries += 1
        coords = [
            np.where(f, x0 + 2.0 * step * ra + step * step * va, x2)
            for f, x0, x2, ra, va in zip(finite, points[0], points[2], r, v)
        ]
        try:
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                candidate = _state_at((coords[:n_primal], coords[n_primal:]), model)
                if candidate is not None:
                    _sweep(candidate, model)
                    value = free_energy(candidate, model)
                    if math.isfinite(value) and value >= floor:
                        return candidate, value, tries
        except (IllConditionedError, NumericalDomainError):
            pass
        step = 0.5 * (step + 1.0)
    return None, None, tries


# ---------------------------------------------------------------------------
# prediction


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
    xstar = np.atleast_1d(_as_real_array("xstar", xstar))
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
    variance).  Factorizations are built once per model
    (:attr:`MgpchModel.factors`); a call computes one input-distance matrix
    and one triangular solve per (c, d) block against all M inputs.

    Returns
    -------
    PredictiveMoments
        ``mean`` and ``variance`` are (M, D), the per-component fields
        (M, C, D), and ``weights`` (C,).
    """
    if model.state is None:
        raise ModelStateError("predict requires a fitted model")
    state = model.state
    Xstar = _as_real_array("Xstar", Xstar)
    p = model.X.shape[1]
    if Xstar.ndim != 2 or Xstar.shape[0] < 1 or Xstar.shape[1] != p:
        raise InvalidArgumentError(f"inputs must be an (M, {p}) array with M >= 1, got shape {Xstar.shape}")
    if not np.all(np.isfinite(Xstar)):
        raise InvalidArgumentError("inputs must be finite")
    noise_factors, mean_factors = model.factors
    C, D, _ = state.t.shape
    M = Xstar.shape[0]
    weights = expected_weights(state.sticks)

    cross = {}  # (M, N) cross covariances per distinct kernel

    def cross_cov(kernel):
        if kernel not in cross:
            cross[kernel] = design_matrix(kernel, Xstar, model.X)
        return cross[kernel]

    def block_moments(kernel, root, La, alpha):
        """One block's k*'alpha and k** - |w|^2 with w = La^-1 (root k*), at every input; a noise block's alpha is t."""
        k_cross = cross_cov(kernel)
        w = solve_lower(La, (k_cross * root).T).T
        return _row_dots(k_cross, alpha[None, :]), np.maximum(kernel.marginal_variance - _row_dots(w, w), 0.0)

    a = np.zeros((M, C, D))
    svar = np.zeros((M, C, D))
    tau = np.empty((M, C, D))
    phi_star = np.empty((M, C, D))
    for c in range(C):
        for d in range(D):
            k_t, phi_star[:, c, d] = block_moments(model.noise_kernels[c], *noise_factors[c][d], state.t[c, d])
            tau[:, c, d] = model.m_tilde[c, d] + k_t
            if mean_factors[c][d] is not None:
                a[:, c, d], svar[:, c, d] = block_moments(model.mean_kernels[c], *mean_factors[c][d])
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
