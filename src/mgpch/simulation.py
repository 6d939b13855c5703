"""Forward draws from the generative model: :func:`simulate`.

The sampler reads only the config, never a fitted model, so this module
does not import :mod:`mgpch.model`.  One-column paths are the OU bridge of
:mod:`mgpch.ou`, and wider ones the growing dense factor of
:class:`_LazyGpPath`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import _check_integer
from .kernels import Ar1Kernel, ZeroKernel, _resolve_m_tilde, ar1_jitter, design_matrix
from .linalg import solve_lower_packed
from .ou import _OuPath
from .pyp import stick_weights

__all__ = ["SimulationDraw", "simulate"]


@dataclass(frozen=True)
class SimulationDraw:
    """Forward draw from the generative model with feedback inputs."""

    X: np.ndarray  # (N, D) inputs; row n + 1 repeats output row n
    Y: np.ndarray  # (N, D) outputs
    variances: np.ndarray  # (N, D) realized noise variances
    assignments: np.ndarray  # (N,) component of each observation
    weights: np.ndarray  # (C,) sampled stick weights


class _LazyGpPath:
    """Sequentially conditioned draws of the paths of one kernel, one per output, at shared inputs.

    :func:`simulate` uses it for inputs of two or more columns, and
    :class:`_OuPath` for one column.  The D paths of a (component, kernel
    role) see the same inputs and the same kernel and differ only in their
    prior ``means``, so they share one history of at most ``size`` points
    in ``dim`` dimensions and one lower Cholesky factor L of its jittered
    kernel matrix.  L is row-packed (row k at offset k(k+1)/2), so it
    grows in place and its leading rows are a contiguous prefix; the
    solves u of each output's centered values against L are the rows of a
    (D, size) array.  A draw is one :meth:`condition` at the input, then
    one :meth:`sample` per output.  The factor is that of
    ``K + (ar1_jitter + 1e-12) I``, so the draws carry that diagonal.
    """

    def __init__(self, kernel, means, size, dim):
        self.kernel = kernel
        self.means = means
        self.jitter = ar1_jitter(kernel) + 1e-12
        self.k = 0  # points conditioned on so far
        self.points = np.empty((size, dim))
        self.packed = np.empty(size * (size + 1) // 2)
        self.u = np.empty((len(means), size))

    def condition(self, x):
        """Take input x into the history; each output's next :meth:`sample` draws at x."""
        k = self.k
        k_self = self.kernel.marginal_variance + self.jitter
        # the solve w of the cross-covariances is the factor's new row, written in place
        offset = k * (k + 1) // 2
        w = self.packed[offset : offset + k]
        if k == 0:
            self.cond_means, var = self.means, k_self
        else:
            w[:] = design_matrix(self.kernel, self.points[:k], x[None, :])[:, 0]
            solve_lower_packed(self.packed, w, k)
            self.cond_means = self.means + self.u[:, :k] @ w
            var = max(k_self - float(w @ w), self.jitter)
        self.pivot = self.packed[offset + k] = math.sqrt(var)
        self.points[k] = x
        self.k = k + 1

    def sample(self, d, rng):
        """Draw output d at the input last conditioned on."""
        mean = self.cond_means[d]
        value = mean + self.pivot * rng.standard_normal()
        # the new solve entry is the conditional residual over the pivot
        self.u[d, self.k - 1] = (value - mean) / self.pivot
        return value


def simulate(config, n_points, n_dims, seed=0):
    """Forward draw from the generative model.

    Samples the innovation parameter, the stick weights, i.i.d.
    component assignments, and per-(component, dimension) paths of the
    latent mean and log-variance processes; outputs are Gaussian with
    variance ``exp(g)``.  Inputs feed back: row n + 1 of X equals row n
    of Y, starting from the origin, which mirrors how return series are
    paired for fitting.  On one-column inputs each (component, process)
    path draws from the OU bridge on its two sorted neighbours
    (:class:`_OuPath`, O(log k) per draw, the kernel's unjittered law);
    on more columns the D paths of one component and process share their
    inputs, so they share one growing dense factor (:class:`_LazyGpPath`,
    O(k^2) per draw, with the factor's diagonal jitter).  A zero mean
    kernel gets no path: its component's mean is 0 and takes no random
    numbers.

    Raises
    ------
    InvalidArgumentError
        If ``n_points`` or ``n_dims`` is not a positive integer, or
        ``seed`` not a non-negative one.

    Returns
    -------
    SimulationDraw
    """
    for name, value, least in (("n_points", n_points, 1), ("n_dims", n_dims, 1), ("seed", seed, 0)):
        _check_integer(name, value, least)
    C = config.pyp.truncation
    rng = np.random.default_rng(seed)
    delta = config.pyp.delta

    # tiny shapes can underflow the Gamma draw to exactly zero
    alpha = max(rng.gamma(config.pyp.eta1, 1.0 / config.pyp.eta2), 1e-300)
    weights = stick_weights([rng.beta(1.0 - delta, alpha + delta * (c + 1)) for c in range(C - 1)])

    mean_kernels = config.mean_kernels or (ZeroKernel(),) * C
    noise_kernels = config.noise_kernels or (Ar1Kernel(phi=0.5, sigma0_sq=0.75),) * C
    # with no outputs to take a variance from, the prior mean defaults to zero
    m_tilde = _resolve_m_tilde(0.0 if config.m_tilde is None else config.m_tilde, np.empty((0, n_dims)), C)

    assignments = rng.choice(C, size=n_points, p=weights)
    # a path draws once per observation of its component
    counts = np.bincount(assignments, minlength=C)

    def new_path(kernel, means, size):
        if isinstance(kernel, ZeroKernel):
            return None
        return _OuPath(kernel, means) if n_dims == 1 else _LazyGpPath(kernel, means, size, n_dims)

    g_paths = [new_path(noise_kernels[c], m_tilde[c], counts[c]) for c in range(C)]
    f_paths = [new_path(mean_kernels[c], np.zeros(n_dims), counts[c]) for c in range(C)]

    Y = np.empty((n_points, n_dims))
    variances = np.empty((n_points, n_dims))
    x = np.zeros(n_dims)
    for c, var_row, y_row in zip(assignments, variances, Y):
        g_path, f_path = g_paths[c], f_paths[c]
        g_path.condition(x)
        if f_path is not None:
            f_path.condition(x)
        for d in range(n_dims):
            g = g_path.sample(d, rng)
            f = 0.0 if f_path is None else f_path.sample(d, rng)
            # np.exp, not math.exp: the two differ in the last bit on a few percent of values
            var_row[d] = variance = np.exp(g)
            y_row[d] = f + math.sqrt(variance) * rng.standard_normal()
        x = y_row
    X = np.concatenate([np.zeros((1, n_dims)), Y[:-1]])
    return SimulationDraw(X, Y, variances, assignments.astype(int), weights)
