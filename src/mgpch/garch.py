"""Gaussian GARCH(1,1) baseline.

Conditional variance recursion sigma2_t = omega + a r_{t-1}^2
+ b sigma2_{t-1}, fitted by maximum likelihood with L-BFGS-B inside a
box (Byrd, Lu, Nocedal and Zhu 1995) over the returns divided by their
sample standard deviation: log omega within a factor 1e12 of the sample
variance, the persistence a + b in [0, 1 - 1e-6] and a's share of it in
[0, 1].  Every box point keeps omega > 0, a, b >= 0 and a + b < 1, a
face such as b = 0 is reached exactly, and every variance of the box
lies between 1e-12 and about 1e18 whatever the scale of the returns.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import InvalidArgumentError, _check_integer, _check_real

__all__ = ["GarchParams", "garch_fit", "garch_filter", "garch_forecast", "garch_log_likelihood"]

LOG_2PI = np.log(2.0 * np.pi)

_PERSISTENCE_CAP = 1.0 - 1e-6

# L-BFGS-B's box over standardized returns: log(omega / sample variance),
# the persistence a + b, and a's share of it
_BOUNDS = [(-np.log(1e12), np.log(1e12)), (0.0, _PERSISTENCE_CAP), (0.0, 1.0)]

MIN_FIT_LENGTH = 30

# L-BFGS starts per fit: three fixed ones, the rest drawn from a fixed seed
N_STARTS = 5
START_SEED = 0


@dataclass(frozen=True)
class GarchParams:
    omega: float
    a: float
    b: float

    def __post_init__(self):
        if not (self.omega > 0.0 and np.isfinite(self.omega)):
            raise InvalidArgumentError(f"omega must be positive, got {self.omega}")
        if self.a < 0.0 or self.b < 0.0:
            raise InvalidArgumentError("a and b must be non-negative")
        if self.a + self.b >= 1.0:
            raise InvalidArgumentError(
                f"stationarity requires a + b < 1, got {self.a + self.b}"
            )


def _validate_returns(returns):
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1:
        raise InvalidArgumentError("returns must be a one-dimensional array")
    if r.size < MIN_FIT_LENGTH:
        raise InvalidArgumentError(
            f"at least {MIN_FIT_LENGTH} returns are required to fit, got {r.size}"
        )
    if not np.all(np.isfinite(r)):
        raise InvalidArgumentError("returns must be finite")
    if np.all(r == r[0]):
        raise InvalidArgumentError("constant returns carry no volatility signal")
    return r


def garch_filter(params, returns):
    """Run the variance recursion over a return series.

    The first variance is the sample variance of the series, so a
    constant series (variance 0) is rejected.
    """
    r = np.asarray(returns, dtype=float)
    return _filter(params, r, float(np.var(r)))


def _filter(params, r, initial_var):
    """:func:`garch_filter` from a given first variance, which a fit computes once."""
    if initial_var <= 0.0:
        raise InvalidArgumentError("initial variance must be positive")
    sigma2 = np.empty(r.size)
    sigma2[0] = initial_var
    # imported on the first filter, not with the package: importing scipy.signal
    # takes about half a second and loads scipy.stats, which nothing else needs
    from scipy.signal import lfilter

    # a first-order linear filter of the inputs omega + a r^2, started from b sigma2[0]
    drive = params.omega + params.a * r[:-1] ** 2
    sigma2[1:] = lfilter([1.0], [1.0, -params.b], drive, zi=[params.b * sigma2[0]])[0]
    return sigma2


def garch_log_likelihood(params, returns):
    """Gaussian log likelihood of a return series under the filter."""
    r = np.asarray(returns, dtype=float)
    sigma2 = garch_filter(params, r)
    return -0.5 * float(np.sum(LOG_2PI + np.log(sigma2) + r**2 / sigma2))


def _params_from_box(x, var_scale):
    """The parameters at a box point, with omega scaled back by the sample variance ``var_scale``."""
    log_omega, persistence, share = x
    return GarchParams(
        omega=float(np.exp(log_omega) * var_scale), a=float(persistence * share), b=float(persistence * (1.0 - share))
    )


def _negative_log_likelihood(x, z):
    """Minus the log likelihood of standardized returns z at a box point x, and its gradient there.

    The derivatives d_t of sigma2_t in (omega, a, b) follow the variance
    recursion, d_t = (1, z_{t-1}^2, sigma2_{t-1}) + b d_{t-1} from d_0 = 0,
    as sigma2_0 is the fixed sample variance, 1 for standardized returns
    (Fiorentini, Calzolari and Panattoni 1996), so one more linear filter
    gives the whole gradient.  On the box every variance lies between
    1e-12 and about 1e18, so neither the value nor the gradient can
    overflow and no point needs a guard.
    """
    from scipy.signal import lfilter  # imported late, as in garch_filter

    params = _params_from_box(x, 1.0)
    sigma2 = _filter(params, z, 1.0)
    z_sq = z**2
    value = 0.5 * float(np.sum(LOG_2PI + np.log(sigma2) + z_sq / sigma2))
    drive = np.array([np.ones(z.size - 1), z_sq[:-1], sigma2[:-1]])
    d_sigma2 = lfilter([1.0], [1.0, -params.b], drive, axis=1)
    # d(-loglik)/d sigma2_t for t >= 1; sigma2_0 does not move
    slope = 0.5 * (1.0 - z_sq[1:] / sigma2[1:]) / sigma2[1:]
    d_omega, d_a, d_b = d_sigma2 @ slope
    # d omega / d log omega = omega; a = persistence * share, b = persistence * (1 - share)
    _, persistence, share = x
    grad = np.array([params.omega * d_omega, share * d_a + (1.0 - share) * d_b, persistence * (d_a - d_b)])
    return value, grad


def garch_fit(returns):
    """Maximum-likelihood GARCH(1,1) fit.

    L-BFGS-B minimizes minus the log likelihood of the returns divided by
    their sample standard deviation, inside the box of ``_BOUNDS``: log
    omega in [-log 1e12, log 1e12] (omega in units of the sample
    variance), the persistence a + b in [0, ``_PERSISTENCE_CAP``] and a's
    share of it in [0, 1].  Every point of the box is a valid GARCH, so an
    optimum on a face, as b = 0, is reached exactly, and the
    standardization keeps every variance of the box between 1e-12 and
    about 1e18 at any return scale, so the objective needs no overflow
    guard.  It runs from ``N_STARTS`` starting points, three fixed and
    the rest drawn from ``START_SEED``, so a fit is deterministic.  Each
    step takes the exact gradient of the log likelihood, whose
    derivatives in (omega, a, b) follow the variance recursion and cost
    one more linear filter pass, so the optimizer makes no difference
    probes.  The no-dynamics point (a = b = 0 at the sample variance) is
    returned unless the dynamic fit beats it by more than log(T) nats; on
    returns with no volatility clustering the (a, b) direction is a flat
    likelihood ridge, and without that comparison the optimizer parks at
    an arbitrary, spuriously persistent point on it.
    """
    r = _validate_returns(returns)
    var_scale = float(np.var(r))
    z = r / np.sqrt(var_scale)
    rng = np.random.default_rng(START_SEED)

    starts = [
        np.array([np.log(0.05), 0.9, 0.5]),  # persistent, a = b share
        np.array([np.log(0.2), 0.5, 0.27]),
        np.array([0.0, 0.0025, 0.5]),  # nearly constant variance
    ]
    for _ in range(N_STARTS - len(starts)):
        starts.append(np.array([rng.normal(-2.0, 1.0), rng.uniform(0.0, _PERSISTENCE_CAP), rng.uniform()]))

    best = min(
        (
            minimize(_negative_log_likelihood, x0, args=(z,), method="L-BFGS-B", jac=True, bounds=_BOUNDS)
            for x0 in starts
        ),
        key=lambda result: result.fun,
    )
    # minus the log likelihood of the no-dynamics point, whose variance is 1 throughout
    floor = 0.5 * float(np.sum(LOG_2PI + z**2))
    # BIC comparison: two extra parameters cost log(T) nats in total
    if floor - best.fun <= np.log(r.size):
        return GarchParams(omega=var_scale, a=0.0, b=0.0)
    return _params_from_box(best.x, var_scale)


def garch_forecast(params, last_r_sq, last_var, h):
    """Variance forecast h steps past the last observed day.

    The one-step forecast applies the recursion to the latest squared
    return; each further step replaces the unknown squared return with
    its expectation, so variance decays geometrically toward the
    unconditional level.
    """
    _check_integer("h", h, 1)
    _check_real("last_r_sq", last_r_sq)
    _check_real("last_var", last_var)
    last_r_sq = float(last_r_sq)
    last_var = float(last_var)
    if last_r_sq < 0.0:
        raise InvalidArgumentError("last squared return must be non-negative")
    if last_var <= 0.0:
        raise InvalidArgumentError("last variance must be positive")
    value = params.omega + params.a * last_r_sq + params.b * last_var
    for _ in range(h - 1):
        value = params.omega + (params.a + params.b) * value
    return float(value)
