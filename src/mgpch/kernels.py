"""Covariance kernels for the latent mean and log-variance processes.

Two kinds are supported: a degenerate zero kernel (the process is
identically zero, used to switch off the conditional mean) and a
first-order autoregressive kernel

    k(x, x') = sigma0_sq / (1 - phi**2) * phi ** ||x - x'||

whose marginal variance sigma0_sq / (1 - phi**2) is attained at
``x == x'`` and decays geometrically with Euclidean distance.

The module also holds the log-variance prior's data-driven defaults: the
noise kernel a fit uses when none is given (:func:`_default_noise_kernel`,
correlation 1/2 at the median input distance and unit marginal variance)
and the prior mean m_tilde, the log of each output's variance unless given
(:func:`_resolve_m_tilde`).
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import InvalidArgumentError, _as_real_array, _check_real

__all__ = [
    "ZeroKernel",
    "Ar1Kernel",
    "design_matrix",
    "ar1_jitter",
    "median_distance",
]

JITTER_SCALE = 1e-8


@dataclass(frozen=True)
class ZeroKernel:
    """Kernel of the identically-zero process."""


@dataclass(frozen=True)
class Ar1Kernel:
    """Autoregressive kernel with correlation ``phi`` and innovation variance ``sigma0_sq``."""

    phi: float
    sigma0_sq: float

    def __post_init__(self):
        _check_real("phi", self.phi)
        _check_real("sigma0_sq", self.sigma0_sq)
        if not (0.0 < self.phi < 1.0):
            raise InvalidArgumentError(f"phi must lie in (0, 1), got {self.phi}")
        if not self.sigma0_sq > 0.0:
            raise InvalidArgumentError(f"sigma0_sq must be positive, got {self.sigma0_sq}")

    @property
    def marginal_variance(self):
        return self.sigma0_sq / (1.0 - self.phi**2)


def _check_kernel(kernel):
    if not isinstance(kernel, (ZeroKernel, Ar1Kernel)):
        raise InvalidArgumentError(f"process kernels are zero or autoregressive, got {kernel!r}")


def _as_points(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InvalidArgumentError(f"inputs must be (N, p), got shape {X.shape}")
    return X


def design_matrix(kernel, X, X2=None):
    """Kernel matrix between the rows of ``X`` and those of ``X2`` (default ``X``).

    The raw matrix is returned; callers add :func:`ar1_jitter` to the
    diagonal before any factorization.
    """
    X = _as_points(X)
    X2 = X if X2 is None else _as_points(X2)
    if X2.shape[1] != X.shape[1]:
        raise InvalidArgumentError(f"point dimensions differ: {X.shape[1]} vs {X2.shape[1]}")
    _check_kernel(kernel)
    if isinstance(kernel, ZeroKernel):
        return np.zeros((X.shape[0], X2.shape[0]))
    return kernel.marginal_variance * kernel.phi ** cdist(X, X2)


def ar1_jitter(kernel):
    """Diagonal stabilizer added to autoregressive design matrices before factorization.

    Scaled to the kernel's marginal variance; zero for the zero kernel.
    """
    _check_kernel(kernel)
    if isinstance(kernel, ZeroKernel):
        return 0.0
    return JITTER_SCALE * kernel.marginal_variance


def median_distance(X):
    """Median of the positive pairwise Euclidean distances between the rows of ``X``, or None if none is positive."""
    dists = pdist(X)
    positive = dists[dists > 0.0]
    return float(np.median(positive)) if positive.size else None


def _default_noise_kernel(X):
    """The noise kernel of inputs X when none is given: correlation 1/2 at the median distance, unit marginal variance."""
    med = median_distance(X)
    if med is None:
        phi = 0.5
    else:
        # correlation 1/2 at the median distance while that is at least
        # log 0.5 / log 1e-280 = 1.075e-3; below it the clip holds phi at
        # 1e-280 and the correlation there exceeds 1/2 (ROADMAP item 13)
        phi = float(np.clip(np.exp(np.log(0.5) / med), 1e-280, 1.0 - 1e-12))
    return Ar1Kernel(phi=phi, sigma0_sq=1.0 - phi**2)


def _resolve_m_tilde(m_tilde, Y, C):
    """m_tilde as a (C, D) array: ``m_tilde`` broadcast, or the log of each output's variance in Y if None."""
    D = Y.shape[1]
    if m_tilde is None:
        var = np.var(Y, axis=0)
        if np.any(var <= 0.0):
            raise InvalidArgumentError("outputs with zero variance need an explicit m_tilde")
        return np.tile(np.log(var), (C, 1))
    arr = _as_real_array("m_tilde", m_tilde)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"m_tilde must be finite, got {arr.tolist()}")
    if arr.ndim == 0:
        return np.full((C, D), float(arr))
    if arr.shape != (C, D):
        raise InvalidArgumentError(f"m_tilde must broadcast to ({C}, {D}), got {arr.shape}")
    return arr.copy()
