"""Conditional pairwise dependence between output dimensions.

The volatility model treats outputs as conditionally independent; this
layer adds back pairwise dependence through Archimedean copulas whose
parameter varies with the input.  Each output pair gets a weight vector
over radial basis features of the input, trained by maximizing the
copula log likelihood of the pair's probability-integral transforms
under the fitted predictive marginals.  Predictive covariance follows
from integrating C(F_i, F_j) - F_i F_j over the two marginals by
Gauss-Legendre quadrature on rules built once per process.

Each family is one class holding its ``name``, its parameter ``domain``
(lower end, and whether it is included), the sign of its dependence, and
its ``link``, ``cdf`` and ``log_density``; a new family formula, such as a
closed-form theta-derivative, is one more method there.  Each formula
reads one term of its family: Clayton's ``log(u^-theta + v^-theta - 1)``,
Gumbel's ``((-log u)^theta + (-log v)^theta)^(1/theta)`` and Frank's
``log(1 + r)``.  Theta broadcasts into the shape of u and v, and a term
of one argument is taken on that argument's shape, so node vectors cost
it once per node.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.optimize import minimize
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from .errors import DegenerateMarginalsError, InvalidArgumentError, QuadratureWarning, _check_real
from .kernels import median_distance
from .model import predict_batch

__all__ = [
    "Clayton",
    "Frank",
    "Gumbel",
    "PairwiseCopulaModel",
    "FAMILIES",
    "family_from_name",
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


def _frank_log_terms(theta, u, v):
    """Frank's one term ``log(1 + r)``, of the ratio ``r = (e^-th u - 1)(e^-th v - 1) / (e^-th - 1)``.

    Returns the mask of theta outside the independence band, th (theta
    with the band set to its edge), ``log|e^-th - 1|`` and ``log(1 + r)``;
    the first three keep theta's shape, so a single theta costs them
    once.  Forming r overflows once th u is past about -709, and ``1 + r``
    cancels for large positive th, where r tends to -1.  So r is taken
    through ``log|r|``, a sum of :func:`_log_abs_expm1` terms grouped so
    that both parts are <= 0 for th > 0; there ``1 + r = 1 - e^log|r|``,
    and for th < 0, where r > 0, ``1 + r = 1 + e^log|r|``.
    """
    live = np.abs(theta) >= FRANK_INDEPENDENCE_BAND
    th = np.where(live, theta, FRANK_INDEPENDENCE_BAND)
    log_g1 = _log_abs_expm1(-th)
    log_r = (_log_abs_expm1(-th * u) - log_g1) + _log_abs_expm1(-th * v)
    pos = np.broadcast_to(th > 0.0, log_r.shape)
    log1p_r = np.empty_like(log_r)
    log1p_r[pos] = _log1mexp(log_r[pos])
    log1p_r[~pos] = np.logaddexp(0.0, log_r[~pos])
    return live, th, log_g1, log1p_r


def _clayton_term(theta, lu, lv):
    """Clayton's one term ``L = log(u^-theta + v^-theta - 1)``, from ``lu = log u`` and ``lv = log v``.

    With ``a = -theta lu``, ``b = -theta lv``, ``M = max(a, b)`` and
    ``m = min(a, b)``, L is ``M + log1p(e^(m - M) (1 - e^-m))``, which
    overflows nowhere and keeps its digits as theta -> 0, where
    ``log(1 + e^(m - M) - e^-M)`` cancels; the larger argument's term is
    exactly ``e^0 = 1``.  ``1 - e^-m`` is the smaller of the arguments'
    own ``-expm1(-a)`` and ``-expm1(-b)``, since that term increases.
    """
    a = -theta * lu
    b = -theta * lv
    M = np.maximum(a, b)
    inner = np.exp(np.minimum(a, b) - M)
    inner *= np.minimum(-np.expm1(-a), -np.expm1(-b))
    L = np.log1p(inner, out=inner)
    L += M
    return L


def _gumbel_term(theta, tu, tv):
    """Gumbel's one term ``A = (tu^theta + tv^theta)^(1/theta)``, from ``tu = -log u`` and ``tv = -log v``.

    With ``M = max(tu, tv)``, A is ``M (1 + (min(tu, tv) / M)^theta)^(1/theta)``,
    the larger argument's term being exactly ``1.0**theta``.  Each power
    takes full-shape exponents and writes a new array: given one exponent
    of 2, 0.5 or -1, or one point in place, numpy's power swaps in square,
    sqrt or reciprocal, whose bits differ from pow's at a grid's points.
    """
    M = np.maximum(tu, tv)
    inner = np.minimum(tu, tv)
    inner /= M
    inner = np.power(inner, np.full(M.shape, theta))
    inner += 1.0
    A = np.power(inner, np.full(M.shape, 1.0 / theta))
    A *= M
    return A


@dataclass(frozen=True)
class Clayton:
    """Lower-tail-dependent family: theta > 0, the exp of the score.

    Its cdf is ``exp(-L / theta)`` and its log density
    ``log(1 + theta) - (theta + 1)(log u + log v) - (2 + 1/theta) L``, of
    the term L of :func:`_clayton_term`; dividing L by ``-theta`` in place
    has the bits of negating first, as rounding is sign-symmetric.
    """

    name = "clayton"
    domain = (0.0, False)
    nonnegative = True

    def link(self, gamma):
        return np.exp(gamma)

    def cdf(self, theta, u, v):
        c = _clayton_term(theta, np.log(u), np.log(v))
        c /= -theta
        return np.exp(c, out=c)

    def log_density(self, theta, u, v):
        lu, lv = np.log(u), np.log(v)
        return np.log1p(theta) - (theta + 1.0) * (lu + lv) - (2.0 + 1.0 / theta) * _clayton_term(theta, lu, lv)


@dataclass(frozen=True)
class Frank:
    """Radially symmetric family: theta is the score itself, and 0 is independence.

    Its cdf is ``-log(1 + r) / theta`` of the term of :func:`_frank_log_terms`,
    and its density divides by ``(e^-theta - 1)(1 + r)``.  Inside the
    independence band the cdf is uv and the log density 0.
    """

    name = "frank"
    domain = (-math.inf, False)
    nonnegative = False

    def link(self, gamma):
        return np.add(gamma, 0.0)  # the identity, as floats

    def cdf(self, theta, u, v):
        live, th, _, log1p_r = _frank_log_terms(theta, u, v)
        return np.where(live, -log1p_r / th, u * v)

    def log_density(self, theta, u, v):
        live, th, log_g1, log1p_r = _frank_log_terms(theta, u, v)
        return np.where(live, np.log(np.abs(th)) - log_g1 - th * (u + v) - 2.0 * log1p_r, 0.0)


@dataclass(frozen=True)
class Gumbel:
    """Upper-tail-dependent family: theta >= 1, one plus the exp of the score.

    Its cdf is ``exp(-A)`` of the term A of :func:`_gumbel_term`; at
    theta = 1 the cdf is uv and the log density 0.
    """

    name = "gumbel"
    domain = (1.0, True)
    nonnegative = True

    def link(self, gamma):
        return 1.0 + np.exp(gamma)

    def cdf(self, theta, u, v):
        A = _gumbel_term(theta, -np.log(u), -np.log(v))
        return np.where(theta > 1.0, np.exp(np.negative(A, out=A), out=A), u * v)

    def log_density(self, theta, u, v):
        tu, tv = -np.log(u), -np.log(v)
        A = _gumbel_term(theta, tu, tv)
        log_c = -A + tu + tv + (1.0 - 2.0 * theta) * np.log(A) + (theta - 1.0) * (np.log(tu) + np.log(tv))
        return np.where(theta > 1.0, log_c + np.log(A + theta - 1.0), 0.0)


# the one registry of family names: the CLI's --family choices and the model file read it
FAMILIES = {kind.name: kind for kind in (Clayton, Frank, Gumbel)}


def family_from_name(name):
    if not isinstance(name, str) or name.lower() not in FAMILIES:
        raise InvalidArgumentError(f"unknown copula family name {name!r}, expected one of {sorted(FAMILIES)}")
    return FAMILIES[name.lower()]()


def _check_family(family):
    if not isinstance(family, tuple(FAMILIES.values())):
        raise InvalidArgumentError(f"unknown copula family {family!r}")


def _check_theta(family, theta):
    _check_family(family)
    theta = float(theta)
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"theta must be finite, got {theta}")
    low, closed = family.domain
    if not (theta >= low if closed else theta > low):
        raise InvalidArgumentError(f"{type(family).__name__} requires theta {'>=' if closed else '>'} {low:g}, got {theta}")
    return theta


def copula_cdf(family, theta, u, v):
    """Copula value C(u, v) under the given family and parameter.

    The boundary values C(u, 0) = C(0, v) = 0, C(1, v) = v and
    C(u, 1) = u are exact; interior values use overflow-safe
    rearrangements of the standard Clayton, Frank and Gumbel formulas.
    """
    theta = _check_theta(family, theta)
    u, v = float(u), float(v)
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise InvalidArgumentError(f"u and v must lie in [0, 1], got ({u}, {v})")
    if 0.0 < u < 1.0 and 0.0 < v < 1.0:
        return float(family.cdf(theta, np.array([u]), np.array([v]))[0])
    return 0.0 if u == 0.0 or v == 0.0 else min(u, v)


def copula_log_density(family, theta, u, v):
    """Log of the copula density at a strictly interior point."""
    theta = _check_theta(family, theta)
    u, v = float(u), float(v)
    if not (0.0 < u < 1.0 and 0.0 < v < 1.0):
        raise InvalidArgumentError(f"u and v must lie strictly inside (0, 1), got ({u}, {v})")
    return float(family.log_density(theta, np.array([u]), np.array([v]))[0])


def marginal_cdf(moments, d, y):
    """Gaussian cdf of output ``d`` under the predictive moments, one value per row of batched moments and ``y``."""
    mean = np.asarray(moments.mean)[..., d]
    var = np.asarray(moments.variance)[..., d]
    return ndtr((y - mean) / np.sqrt(var))


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
        _check_family(self.family)
        # positivity first, so that NaN reads as not positive
        if not (isinstance(self.lengthscale, Real) and self.lengthscale > 0.0):
            raise InvalidArgumentError(f"lengthscale must be positive, got {self.lengthscale}")
        _check_real("lengthscale", self.lengthscale)
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
    return float(pairmodel.family.link(pairmodel.w @ basis_features(pairmodel, x)))


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
    _check_family(family)

    N = X.shape[0]
    n_basis = math.ceil(BASIS_FRACTION * N)
    idx = np.round(np.linspace(0, N - 1, n_basis)).astype(int)
    basis = X[idx]
    lengthscale = median_distance(basis) or 1.0
    H = _feature_matrix(lengthscale, X, basis)

    # one batched forecast at every training input
    moments = predict_batch(mgpch, X)
    u = marginal_cdf(moments, i, Y[:, i])
    v = marginal_cdf(moments, j, Y[:, j])
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise DegenerateMarginalsError(
            "probability-integral transforms are non-finite; "
            "the predictive marginals are degenerate"
        )
    u = np.clip(u, MARGINAL_CLIP, 1.0 - MARGINAL_CLIP)
    v = np.clip(v, MARGINAL_CLIP, 1.0 - MARGINAL_CLIP)

    def negative_likelihood(w):
        val = -float(np.sum(family.log_density(family.link(H @ w), u, v)))
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
    result = minimize(negative_likelihood, w0, method="L-BFGS-B", options={"maxiter": 200, "eps": 1e-4})
    w = result.x if negative_likelihood(result.x) <= base else w0
    return PairwiseCopulaModel(family=family, basis_points=basis, w=w, lengthscale=lengthscale)


@functools.cache
def _quadrature_rule(nodes):
    """Weights, node cdfs ``F = ndtr(8 t)`` in (0, 1) as an (n,) vector, and the grid ``UV[k, l] = F[k] F[l]``.

    Built on the first call for each node count, contiguous and read-only,
    since every caller in the process shares the same arrays.
    """
    t, wq = np.polynomial.legendre.leggauss(nodes)
    F = ndtr(QUADRATURE_SPAN * t)
    UV = F[:, None] * F[None, :]
    for a in (wq, F, UV):
        a.flags.writeable = False
    return wq, F, UV


def predictive_covariance(pairmodel, moments, pair, xstar):
    """Predictive covariance of one output pair at a single input.

    Integrates C(F_i(k), F_j(k')) - F_i(k) F_j(k') over both marginals
    by Gauss-Legendre quadrature spanning mean +/- 8 std each; the node
    count is doubled once as a convergence check and a warning is
    attached when the two estimates disagree.  The rules are built once
    per process, so a call evaluates only the copula cdf at the node
    vectors and the weighted sum.  A parameter whose covariance is not
    finite raises; the result is clipped to the Cauchy-Schwarz bound
    ``+/- sqrt(v_i v_j)``.
    """
    i, j = pair
    mean = np.asarray(moments.mean, dtype=float)
    var = np.asarray(moments.variance, dtype=float)
    if not 0 <= i < mean.size or not 0 <= j < mean.size or i == j:
        raise InvalidArgumentError(f"pair {pair!r} is not a distinct output pair")
    if not (var[i] > 0.0 and var[j] > 0.0):
        raise InvalidArgumentError("predictive variances must be positive")
    theta = conditional_theta(pairmodel, xstar)
    bound = math.sqrt(var[i] * var[j])  # Cauchy-Schwarz: the largest covariance the marginals allow
    scale = QUADRATURE_SPAN**2 * bound

    def estimate(nodes):
        wq, F, UV = _quadrature_rule(nodes)
        gap = pairmodel.family.cdf(theta, F[:, None], F[None, :])
        gap -= UV
        if pairmodel.family.nonnegative:
            np.maximum(gap, 0.0, out=gap)
        return scale * float(wq @ gap @ wq)

    # Clayton's terms are NaN once -theta log F overflows or the link underflows to theta = 0
    with np.errstate(over="ignore", invalid="ignore"):
        coarse = estimate(QUADRATURE_NODES)
        fine = estimate(2 * QUADRATURE_NODES)
    if not math.isfinite(coarse + fine):
        raise InvalidArgumentError(f"{pairmodel.family.name} parameter {theta} gives a non-finite covariance")
    # stable message so repeated triggers from one call site are deduplicated
    if abs(fine - coarse) > 1e-6 * bound:
        warnings.warn("covariance quadrature still moving after doubling nodes", QuadratureWarning, stacklevel=2)
    # near the comonotone limit the integrand has a kink on the diagonal that
    # the rule overshoots by a fraction of a percent
    return min(max(fine, -bound), bound)
