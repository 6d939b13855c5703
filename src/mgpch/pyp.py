"""Truncated Pitman-Yor stick-breaking prior and its variational posterior.

Component weights are built from stick fractions v_c with prior
``v_c ~ Beta(1 - delta, alpha + delta * c)`` and

    weight_c = v_c * prod_{j < c} (1 - v_j),

truncated at level C by pinning the final fraction to one.  With
``delta = 0`` the construction reduces to a Dirichlet process.  The
innovation parameter alpha carries a Gamma(eta1, eta2) prior.  The
variational posterior keeps independent Beta factors for the C - 1
free sticks and a Gamma factor for alpha.

At delta > 0 the bound is a Dirichlet-process surrogate: the free energy
takes each stick prior's log normaliser ``-log B(1 - delta, alpha + c delta)``
as its delta = 0 value ``log alpha``, and :func:`update_innovation_posterior`
is the Dirichlet-process update of q(alpha).  So at the default
delta = 0.25 the free energy is no bound on the Pitman-Yor evidence, and
q(alpha) is not its coordinate optimum.  The stick update is exact, since
the rest of the prior's log density is linear in alpha.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidArgumentError, NumericalDomainError, _check_integer, _check_real

__all__ = [
    "PypConfig",
    "StickPosterior",
    "InnovationPosterior",
    "update_stick_posteriors",
    "update_innovation_posterior",
    "stick_log_moments",
    "expected_log_weights",
    "expected_weights",
    "stick_weights",
]

ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class PypConfig:
    """Prior hyperparameters of the truncated Pitman-Yor process.

    Parameters
    ----------
    delta : float
        Discount in [0, 1).  Zero recovers the Dirichlet process.
    eta1, eta2 : float
        Shape and rate of the Gamma prior on the innovation parameter.
    truncation : int
        Number of mixture components C kept by the truncation.
    """

    delta: float = 0.25
    eta1: float = 1.0
    eta2: float = 1.0
    truncation: int = 10

    def __post_init__(self):
        for name in ("delta", "eta1", "eta2"):
            _check_real(name, getattr(self, name))
        _check_integer("truncation", self.truncation, 1)
        if not (0.0 <= self.delta < 1.0):
            raise InvalidArgumentError(f"delta must lie in [0, 1), got {self.delta}")
        if self.eta1 <= 0.0 or self.eta2 <= 0.0:
            raise InvalidArgumentError(
                f"Gamma prior parameters must be positive, got ({self.eta1}, {self.eta2})"
            )


@dataclass(frozen=True)
class StickPosterior:
    """Beta posteriors over the C - 1 free stick fractions."""

    beta1: np.ndarray
    beta2: np.ndarray

    def __post_init__(self):
        beta1 = np.atleast_1d(np.asarray(self.beta1, dtype=float))
        beta2 = np.atleast_1d(np.asarray(self.beta2, dtype=float))
        object.__setattr__(self, "beta1", beta1)
        object.__setattr__(self, "beta2", beta2)
        if beta1.shape != beta2.shape:
            raise InvalidArgumentError("beta1 and beta2 must have equal length")
        if np.any(beta1 <= 0.0) or np.any(beta2 <= 0.0):
            raise InvalidArgumentError("Beta parameters must be positive")


@dataclass(frozen=True)
class InnovationPosterior:
    """Gamma posterior over the innovation parameter."""

    eta1_hat: float
    eta2_hat: float

    def __post_init__(self):
        if self.eta1_hat <= 0.0 or self.eta2_hat <= 0.0:
            raise InvalidArgumentError("Gamma posterior parameters must be positive")

    @property
    def mean(self):
        return self.eta1_hat / self.eta2_hat

    @property
    def log_mean(self):
        """Expected log innovation under the Gamma posterior."""
        return float(special.digamma(self.eta1_hat)) - np.log(self.eta2_hat)


def _check_responsibilities(R, truncation):
    R = np.asarray(R, dtype=float)
    if R.ndim != 2:
        raise InvalidArgumentError(f"responsibilities must be (N, C), got shape {R.shape}")
    if R.shape[1] != truncation:
        raise InvalidArgumentError(
            f"responsibility columns ({R.shape[1]}) must equal the truncation ({truncation})"
        )
    if R.shape[0] > 0:
        row_sums = R.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise InvalidArgumentError(
                f"responsibility row {worst} sums to {row_sums[worst]!r}, expected 1"
            )
        if np.any(R < -ROW_SUM_TOL):
            raise InvalidArgumentError("responsibilities must be non-negative")
    return R


def update_stick_posteriors(R, delta, alpha_mean, truncation):
    """Closed-form update of the stick Beta posteriors.

    Parameters
    ----------
    R : ndarray, shape (N, C)
        Responsibilities; rows must sum to one.
    delta : float
        Pitman-Yor discount.
    alpha_mean : float
        Current posterior mean of the innovation parameter.
    truncation : int
        Truncation level C.

    Returns
    -------
    StickPosterior
        For stick c (1-based), ``beta1 = 1 - delta + N_c`` and
        ``beta2 = alpha_mean + delta * c + T_c`` where N_c is the
        responsibility mass on component c and T_c the mass on all
        later components.
    """
    R = _check_responsibilities(R, truncation)
    mass = R.sum(axis=0)
    tail = np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]])
    c = np.arange(1, truncation, dtype=float)
    beta1 = 1.0 - delta + mass[:-1]
    beta2 = alpha_mean + delta * c + tail[:-1]
    return StickPosterior(beta1, beta2)


def update_innovation_posterior(sticks, eta1, eta2):
    """Closed-form update of the Gamma posterior over the innovation parameter.

    The shape grows by one per free stick; the rate subtracts the
    expected log survivals ``E[log(1 - v_c)]``, each of which is
    non-positive, so the posterior rate always exceeds the prior rate.
    This is the Dirichlet-process update, exact at delta = 0 only: it
    takes each stick's log normaliser as ``log alpha`` whatever the
    discount.
    """
    if eta1 <= 0.0 or eta2 <= 0.0:
        raise InvalidArgumentError("prior parameters must be positive")
    eta1_hat = eta1 + sticks.beta1.shape[0]
    _, elog1mv = stick_log_moments(sticks)
    eta2_hat = eta2 - float(np.sum(elog1mv))
    if eta2_hat <= 0.0:
        raise NumericalDomainError(f"innovation posterior rate is non-positive: {eta2_hat}")
    return InnovationPosterior(eta1_hat, eta2_hat)


def stick_log_moments(sticks):
    """Expected log stick fractions and log survivals.

    Returns
    -------
    (ndarray, ndarray)
        ``E[log v_c]`` and ``E[log(1 - v_c)]`` for the C - 1 free sticks.
    """
    total = special.digamma(sticks.beta1 + sticks.beta2)
    return special.digamma(sticks.beta1) - total, special.digamma(sticks.beta2) - total


def expected_log_weights(sticks):
    """Expected log mixture weights under the stick posterior.

    The final component uses ``E[log v_C] = 0`` because the truncation
    pins its stick fraction to one.
    """
    elogv, elog1mv = stick_log_moments(sticks)
    prefix = np.concatenate([[0.0], np.cumsum(elog1mv)])
    logv = np.concatenate([elogv, [0.0]])
    return prefix + logv


def stick_weights(fractions):
    """Mixture weights of the C - 1 free stick fractions; the truncation pins the last one to one."""
    v = np.concatenate([fractions, [1.0]])
    survival = np.concatenate([[1.0], np.cumprod(1.0 - v[:-1])])
    return v * survival


def expected_weights(sticks):
    """Posterior mean mixture weights; sums to one by construction."""
    return stick_weights(sticks.beta1 / (sticks.beta1 + sticks.beta2))
