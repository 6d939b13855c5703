"""Covariance kernels for the latent mean and log-variance processes.

Two kinds are supported: a degenerate zero kernel (the process is
identically zero, used to switch off the conditional mean) and a
first-order autoregressive kernel

    k(x, x') = sigma0_sq / (1 - phi**2) * phi ** ||x - x'||

whose marginal variance sigma0_sq / (1 - phi**2) is attained at
``x == x'`` and decays geometrically with Euclidean distance.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidArgumentError

__all__ = [
    "ZeroKernel",
    "Ar1Kernel",
    "RbfKernel",
    "kernel_eval",
    "design_matrix",
    "cross_vector",
    "ar1_jitter",
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
        if not (0.0 < self.phi < 1.0):
            raise InvalidArgumentError(f"phi must lie in (0, 1), got {self.phi}")
        if not self.sigma0_sq > 0.0:
            raise InvalidArgumentError(f"sigma0_sq must be positive, got {self.sigma0_sq}")

    @property
    def marginal_variance(self):
        return self.sigma0_sq / (1.0 - self.phi**2)


@dataclass(frozen=True)
class RbfKernel:
    """Gaussian radial kernel ``exp(-||x - x'||^2 / (2 lengthscale^2))``.

    Used for basis features rather than process covariances, so it has
    unit marginal and no jitter convention.
    """

    lengthscale: float

    def __post_init__(self):
        if not self.lengthscale > 0.0:
            raise InvalidArgumentError(
                f"lengthscale must be positive, got {self.lengthscale}"
            )


def _as_points(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InvalidArgumentError(f"inputs must be (N, p), got shape {X.shape}")
    return X


def kernel_eval(kernel, x, x2):
    """Evaluate the kernel between two input points.

    Parameters
    ----------
    kernel : ZeroKernel or Ar1Kernel
    x, x2 : array_like
        Input points of equal dimension.

    Returns
    -------
    float
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape:
        raise InvalidArgumentError(f"point dimensions differ: {x.shape} vs {x2.shape}")
    if isinstance(kernel, ZeroKernel):
        return 0.0
    dist = float(np.linalg.norm(x - x2))
    if isinstance(kernel, RbfKernel):
        return float(np.exp(-0.5 * (dist / kernel.lengthscale) ** 2))
    return kernel.marginal_variance * kernel.phi**dist


def design_matrix(kernel, X):
    """Kernel matrix over a set of inputs.

    The raw matrix is returned; callers add :func:`ar1_jitter` to the
    diagonal before any factorization.
    """
    X = _as_points(X)
    n = X.shape[0]
    if isinstance(kernel, ZeroKernel):
        return np.zeros((n, n))
    D = cdist(X, X)
    if isinstance(kernel, RbfKernel):
        return np.exp(-0.5 * (D / kernel.lengthscale) ** 2)
    return kernel.marginal_variance * kernel.phi**D


def cross_vector(kernel, X, xstar):
    """Kernel evaluations between each row of ``X`` and a single point ``xstar``."""
    X = _as_points(X)
    xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
    if xstar.ndim != 1 or xstar.shape[0] != X.shape[1]:
        raise InvalidArgumentError(
            f"xstar must be a single point of dimension {X.shape[1]}, got shape {xstar.shape}"
        )
    if isinstance(kernel, ZeroKernel):
        return np.zeros(X.shape[0])
    d = np.linalg.norm(X - xstar[None, :], axis=1)
    if isinstance(kernel, RbfKernel):
        return np.exp(-0.5 * (d / kernel.lengthscale) ** 2)
    return kernel.marginal_variance * kernel.phi**d


def ar1_jitter(kernel):
    """Diagonal stabilizer added to autoregressive design matrices before factorization.

    Scaled to the kernel's marginal variance; zero for the zero kernel.
    """
    if isinstance(kernel, ZeroKernel):
        return 0.0
    return JITTER_SCALE * kernel.marginal_variance
