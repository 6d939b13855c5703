"""Conditional pairwise dependence between output dimensions.

The volatility model treats outputs as conditionally independent; this
layer adds back pairwise dependence through Archimedean copulas whose
parameter varies with the input.  Each output pair gets a weight vector
over radial basis features of the input, trained by maximizing the
copula log likelihood of the pair's probability-integral transforms
under the fitted predictive marginals.  Predictive covariance follows
from integrating C(F_i, F_j) - F_i F_j over the two marginals by
Gauss-Legendre quadrature; the parts of each rule that do not depend on
the copula parameter are built once per process and shared read-only.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from .errors import DegenerateMarginalsError, InvalidArgumentError, QuadratureWarning
from .kernels import median_distance
from .model import predict_batch

__all__ = [
    "Clayton",
    "Frank",
    "Gumbel",
    "PairwiseCopulaModel",
    "FAMILIES",
    "family_from_name",
    "family_name",
    "link_parameter",
    "copula_cdf",
    "copula_log_density",
    "marginal_cdf",
    "basis_features",
    "conditional_theta",
    "train_pairwise",
    "predictive_covariance",
]

# below this magnitude the Frank formulas lose precision; treated as independence
FRANK_INDEPENDENCE_BAND = 1e-6

MARGINAL_CLIP = 1e-10
QUADRATURE_NODES = 64
QUADRATURE_SPAN = 8.0

# unpenalized maximum likelihood lets the basis weights chase sampling
# noise point by point; a fixed quadratic penalty keeps the conditional
# parameter near its neutral value unless the data insist otherwise
WEIGHT_PENALTY = 30.0

# share of the training inputs taken as basis points
BASIS_FRACTION = 0.1


@dataclass(frozen=True)
class Clayton:
    """Lower-tail-dependent family, parameter domain theta > 0."""


@dataclass(frozen=True)
class Frank:
    """Radially symmetric family, any real theta; 0 is independence."""


@dataclass(frozen=True)
class Gumbel:
    """Upper-tail-dependent family, parameter domain theta >= 1."""


# the one registry of family names: the CLI's --family choices and the model file read it
FAMILIES = {"clayton": Clayton, "frank": Frank, "gumbel": Gumbel}


def family_from_name(name):
    try:
        return FAMILIES[name.lower()]()
    except KeyError:
        raise InvalidArgumentError(
            f"unknown copula family {name!r}, expected one of {sorted(FAMILIES)}"
        ) from None


def family_name(family):
    """The registry name of a family instance, the inverse of :func:`family_from_name`."""
    for name, kind in FAMILIES.items():
        if type(family) is kind:
            return name
    raise InvalidArgumentError(f"unknown copula family {family!r}")


def link_parameter(family, gamma):
    """Map an unconstrained score into the family's parameter domain.

    Clayton uses exp, Frank the identity (its domain is the whole line
    up to the independence band) and Gumbel 1 + exp.
    """
    gamma = np.asarray(gamma, dtype=float)
    if isinstance(family, Clayton):
        out = np.exp(gamma)
    elif isinstance(family, Frank):
        out = gamma + 0.0
    elif isinstance(family, Gumbel):
        out = 1.0 + np.exp(gamma)
    else:
        raise InvalidArgumentError(f"unknown copula family {family!r}")
    return float(out) if out.ndim == 0 else out


def _check_theta(family, theta):
    theta = float(theta)
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"theta must be finite, got {theta}")
    if isinstance(family, Clayton) and theta <= 0.0:
        raise InvalidArgumentError(f"Clayton requires theta > 0, got {theta}")
    if isinstance(family, Gumbel) and theta < 1.0:
        raise InvalidArgumentError(f"Gumbel requires theta >= 1, got {theta}")
    if not isinstance(family, (Clayton, Frank, Gumbel)):
        raise InvalidArgumentError(f"unknown copula family {family!r}")
    return theta


def _log1mexp(x):
    """``log(1 - e^x)`` for x <= 0, accurate near 0 and for very negative x alike.

    Each element evaluates only the branch it takes.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = x > -math.log(2.0)
    with np.errstate(divide="ignore"):  # x == 0 gives log 0 = -inf
        out[near] = np.log(-np.expm1(x[near]))
    far = ~near
    out[far] = np.log1p(-np.exp(x[far]))
    return out


def _log_abs_expm1(y):
    """``log|e^y - 1|`` for either sign of y, finite for large y where e^y overflows."""
    return np.maximum(y, 0.0) + _log1mexp(-np.abs(y))


def _frank_log_terms(th, log_g1, u, v):
    """``log(1 + r)`` of the Frank ratio ``r = (e^-th u - 1)(e^-th v - 1) / (e^-th - 1)``.

    ``log_g1`` is ``log|e^-th - 1|``, taken on th's own shape, so a single
    th costs it once; th broadcasts against u and v.  The cdf is ``-log(1
    + r) / th``.  Forming r overflows once th u is past about -709, and
    ``1 + r`` cancels for large positive th, where r tends to -1.  So r is
    taken through ``log|r|``, a sum of :func:`_log_abs_expm1` terms grouped
    so that both parts are <= 0 for th > 0; there ``1 + r = 1 - e^log|r|``,
    and for th < 0, where r > 0, ``1 + r = 1 + e^log|r|``.
    """
    log_r = (_log_abs_expm1(-th * u) - log_g1) + _log_abs_expm1(-th * v)
    pos = np.broadcast_to(th > 0.0, log_r.shape)
    log1p_r = np.empty_like(log_r)
    log1p_r[pos] = _log1mexp(log_r[pos])
    log1p_r[~pos] = np.logaddexp(0.0, log_r[~pos])
    return log1p_r


def _interior_cdf(family, theta, U, V):
    """Family cdf on strictly interior arguments; theta may be an array."""
    if isinstance(family, Frank):
        # on theta's own shape, so one theta for every node (predictive_covariance) costs one log|e^-th - 1|
        theta = np.asarray(theta, dtype=float)
        live = np.abs(theta) >= FRANK_INDEPENDENCE_BAND
        th = np.where(live, theta, FRANK_INDEPENDENCE_BAND)
        return np.where(live, -_frank_log_terms(th, _log_abs_expm1(-th), U, V) / th, U * V)
    theta = np.broadcast_to(np.asarray(theta, dtype=float), U.shape)
    if isinstance(family, Clayton):
        a = -theta * np.log(U)
        b = -theta * np.log(V)
        M = np.maximum(a, b)
        inner = np.exp(a - M) + np.exp(b - M) - np.exp(-M)
        return np.exp(-(M + np.log(inner)) / theta)
    tu = -np.log(U)
    tv = -np.log(V)
    out = U * V
    live = theta > 1.0
    if np.any(live):
        th = theta[live]
        a, b = tu[live], tv[live]
        M = np.maximum(a, b)
        inner = (a / M) ** th + (b / M) ** th
        out[live] = np.exp(-M * inner ** (1.0 / th))
    return out


def _cdf_arrays(family, theta, U, V):
    U, V = np.broadcast_arrays(np.asarray(U, dtype=float), np.asarray(V, dtype=float))
    out = np.zeros(U.shape)
    at_zero = (U <= 0.0) | (V <= 0.0)
    top_u = ~at_zero & (U >= 1.0)
    top_v = ~at_zero & ~top_u & (V >= 1.0)
    out[top_u] = V[top_u]
    out[top_v] = U[top_v]
    mid = ~(at_zero | top_u | top_v)
    if np.any(mid):
        th = np.broadcast_to(np.asarray(theta, dtype=float), U.shape)[mid]
        out[mid] = _interior_cdf(family, th, U[mid], V[mid])
    return out


def _log_density_arrays(family, theta, U, V):
    """Family log density on strictly interior arguments; theta may be an array."""
    U, V = np.broadcast_arrays(np.asarray(U, dtype=float), np.asarray(V, dtype=float))
    theta = np.broadcast_to(np.asarray(theta, dtype=float), U.shape)
    lu = np.log(U)
    lv = np.log(V)
    if isinstance(family, Clayton):
        a = -theta * lu
        b = -theta * lv
        M = np.maximum(a, b)
        logsum = M + np.log(np.exp(a - M) + np.exp(b - M) - np.exp(-M))
        return np.log1p(theta) - (theta + 1.0) * (lu + lv) - (2.0 + 1.0 / theta) * logsum
    if isinstance(family, Frank):
        out = np.zeros(U.shape)
        live = np.abs(theta) >= FRANK_INDEPENDENCE_BAND
        if np.any(live):
            th, u, v = theta[live], U[live], V[live]
            # the density's denominator is (e^-th - 1)(1 + r)
            log_g1 = _log_abs_expm1(-th)
            log1p_r = _frank_log_terms(th, log_g1, u, v)
            out[live] = np.log(np.abs(th)) - log_g1 - th * (u + v) - 2.0 * log1p_r
        return out
    out = np.zeros(U.shape)
    live = theta > 1.0
    if np.any(live):
        th = theta[live]
        tu, tv = -lu[live], -lv[live]
        M = np.maximum(tu, tv)
        inner = (tu / M) ** th + (tv / M) ** th
        A = M * inner ** (1.0 / th)
        out[live] = (
            -A
            - lu[live]
            - lv[live]
            + (1.0 - 2.0 * th) * np.log(A)
            + (th - 1.0) * (np.log(tu) + np.log(tv))
            + np.log(A + th - 1.0)
        )
    return out


def copula_cdf(family, theta, u, v):
    """Copula value C(u, v) under the given family and parameter.

    Boundary conventions C(u, 0) = 0 and C(u, 1) = u are returned
    exactly; interior values use overflow-safe rearrangements of the
    standard Clayton, Frank and Gumbel formulas.
    """
    theta = _check_theta(family, theta)
    u, v = float(u), float(v)
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise InvalidArgumentError(f"u and v must lie in [0, 1], got ({u}, {v})")
    return float(_cdf_arrays(family, theta, u, v))


def copula_log_density(family, theta, u, v):
    """Log of the copula density at a strictly interior point."""
    theta = _check_theta(family, theta)
    u, v = float(u), float(v)
    if not (0.0 < u < 1.0 and 0.0 < v < 1.0):
        raise InvalidArgumentError(f"u and v must lie strictly inside (0, 1), got ({u}, {v})")
    return float(_log_density_arrays(family, theta, u, v))


def marginal_cdf(moments, d, y):
    """Gaussian cdf of output ``d`` under the predictive moments."""
    mean = float(np.asarray(moments.mean)[d])
    var = float(np.asarray(moments.variance)[d])
    return float(ndtr((float(y) - mean) / math.sqrt(var)))


@dataclass(frozen=True)
class PairwiseCopulaModel:
    """Trained conditional copula for one output pair.

    The parameter at input x is ``link(w @ h(x))`` where h collects the
    Gaussian radial basis features
    ``exp(-||x - b||^2 / (2 lengthscale^2))`` against the stored basis
    points b.
    """

    family: object
    basis_points: np.ndarray  # (I, p)
    w: np.ndarray  # (I,)
    lengthscale: float

    def __post_init__(self):
        if not self.lengthscale > 0.0:
            raise InvalidArgumentError(f"lengthscale must be positive, got {self.lengthscale}")
        if self.basis_points.ndim != 2 or self.basis_points.shape[0] < 1:
            raise InvalidArgumentError("at least one basis point is required")
        if self.w.shape != (self.basis_points.shape[0],) or not np.all(np.isfinite(self.w)):
            raise InvalidArgumentError("w must hold one finite weight per basis point")


def _feature_matrix(lengthscale, X, basis):
    return np.exp(-0.5 * cdist(X, basis, "sqeuclidean") / lengthscale**2)


def basis_features(pairmodel, x):
    """Basis feature vector h(x) of the trained pair model."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (pairmodel.basis_points.shape[1],):
        raise InvalidArgumentError(
            f"x must have dimension {pairmodel.basis_points.shape[1]}, got shape {x.shape}"
        )
    return _feature_matrix(pairmodel.lengthscale, x[None, :], pairmodel.basis_points)[0]


def conditional_theta(pairmodel, x):
    """Copula parameter at one input, through the family link."""
    return float(link_parameter(pairmodel.family, pairmodel.w @ basis_features(pairmodel, x)))


def train_pairwise(pair, mgpch, data, family):
    """Fit the conditional copula parameter for one output pair.

    Transforms the pair's outputs through their in-sample predictive
    marginals, then maximizes the summed copula log density, less a
    quadratic weight penalty, over the basis weights, starting from
    zero (the link image of the neutral score).  Basis points are taken
    at regular positions along the training sequence; the feature
    lengthscale is the median pairwise distance among them.
    """
    i, j = pair
    X = np.asarray(data[0], dtype=float)
    Y = np.asarray(data[1], dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise InvalidArgumentError("data must be matching (X, Y) matrices")
    if not 0 <= i < Y.shape[1] or not 0 <= j < Y.shape[1] or i == j:
        raise InvalidArgumentError(f"pair {pair!r} is not a distinct output pair")
    _check_theta(family, link_parameter(family, 0.0))

    N = X.shape[0]
    n_basis = math.ceil(BASIS_FRACTION * N)
    idx = np.round(np.linspace(0, N - 1, n_basis)).astype(int)
    basis = X[idx]
    lengthscale = median_distance(basis) or 1.0
    H = _feature_matrix(lengthscale, X, basis)

    # one batched forecast at every training input; u and v are marginal_cdf per row
    moments = predict_batch(mgpch, X)
    u = ndtr((Y[:, i] - moments.mean[:, i]) / np.sqrt(moments.variance[:, i]))
    v = ndtr((Y[:, j] - moments.mean[:, j]) / np.sqrt(moments.variance[:, j]))
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise DegenerateMarginalsError(
            "probability-integral transforms are non-finite; "
            "the predictive marginals are degenerate"
        )
    u = np.clip(u, MARGINAL_CLIP, 1.0 - MARGINAL_CLIP)
    v = np.clip(v, MARGINAL_CLIP, 1.0 - MARGINAL_CLIP)

    def negative_likelihood(w):
        theta = link_parameter(family, H @ w)
        val = -float(np.sum(_log_density_arrays(family, theta, u, v)))
        val += 0.5 * WEIGHT_PENALTY * float(w @ w)
        return val if math.isfinite(val) else 1e300

    w0 = np.zeros(n_basis)
    base = negative_likelihood(w0)
    if not base < 1e300:
        raise DegenerateMarginalsError(
            "copula objective is non-finite at zero weights; "
            "the predictive marginals are degenerate"
        )
    # the Frank link passes through the independence band at w = 0, where
    # the objective is locally flat; a wide difference step sees past it
    result = minimize(
        negative_likelihood,
        w0,
        method="L-BFGS-B",
        options={"maxiter": 200, "eps": 1e-4},
    )
    w = result.x if negative_likelihood(result.x) <= base else w0
    return PairwiseCopulaModel(family=family, basis_points=basis, w=w, lengthscale=lengthscale)


@functools.cache
def _quadrature_rule(nodes):
    """Weights, grids ``U[k, l] = F[k]`` and ``V[k, l] = F[l]`` of the node cdfs ``F = ndtr(8 t)`` in (0, 1), and ``U V``.

    Built on the first call for each node count, contiguous and read-only,
    since every caller in the process shares the same arrays.
    """
    t, wq = np.polynomial.legendre.leggauss(nodes)
    F = ndtr(QUADRATURE_SPAN * t)
    U, V = (np.ascontiguousarray(g) for g in np.broadcast_arrays(F[:, None], F[None, :]))
    UV = U * V
    for a in (wq, U, V, UV):
        a.flags.writeable = False
    return wq, U, V, UV


def predictive_covariance(pairmodel, moments, pair, xstar):
    """Predictive covariance of one output pair at a single input.

    Integrates C(F_i(k), F_j(k')) - F_i(k) F_j(k') over both marginals
    by Gauss-Legendre quadrature spanning mean +/- 8 std each; the node
    count is doubled once as a convergence check and a warning is
    attached when the two estimates disagree.  The rules are built once
    per process, so a call evaluates only the copula cdf at the nodes
    and the weighted sum.  The result is clipped to the Cauchy-Schwarz
    bound ``+/- sqrt(v_i v_j)``.
    """
    i, j = pair
    mean = np.asarray(moments.mean, dtype=float)
    var = np.asarray(moments.variance, dtype=float)
    if not 0 <= i < mean.size or not 0 <= j < mean.size or i == j:
        raise InvalidArgumentError(f"pair {pair!r} is not a distinct output pair")
    if not (var[i] > 0.0 and var[j] > 0.0):
        raise InvalidArgumentError("predictive variances must be positive")
    theta = conditional_theta(pairmodel, xstar)
    scale = QUADRATURE_SPAN**2 * math.sqrt(var[i] * var[j])
    positive = isinstance(pairmodel.family, (Clayton, Gumbel))

    def estimate(nodes):
        wq, U, V, UV = _quadrature_rule(nodes)
        gap = _interior_cdf(pairmodel.family, theta, U, V) - UV
        if positive:
            gap = np.maximum(gap, 0.0)
        return scale * float(wq @ gap @ wq)

    coarse = estimate(QUADRATURE_NODES)
    fine = estimate(2 * QUADRATURE_NODES)
    bound = math.sqrt(var[i] * var[j])  # Cauchy-Schwarz: the largest covariance the marginals allow
    # stable message so repeated triggers from one call site are deduplicated
    if abs(fine - coarse) > 1e-6 * bound:
        warnings.warn(
            "covariance quadrature still moving after doubling nodes",
            QuadratureWarning,
            stacklevel=2,
        )
    # near the comonotone limit the integrand has a kink on the diagonal that
    # the rule overshoots by a fraction of a percent
    return min(max(fine, -bound), bound)
