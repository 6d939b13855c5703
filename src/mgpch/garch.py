"""Gaussian GARCH(1,1) baseline.

Conditional variance recursion sigma2_t = omega + a r_{t-1}^2
+ b sigma2_{t-1}, fitted by maximum likelihood under an unconstrained
reparametrization (log omega, persistence a + b through a sigmoid, and
the share of the persistence taken by a through a second sigmoid),
which keeps omega > 0, a, b >= 0 and a + b < 1 without clipping.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .errors import GarchFitError, InvalidArgumentError, _check_integer, _check_real

__all__ = ["GarchParams", "garch_fit", "garch_filter", "garch_forecast", "garch_log_likelihood"]

LOG_2PI = np.log(2.0 * np.pi)

_PERSISTENCE_CAP = 1.0 - 1e-6

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

    @property
    def unconditional_variance(self):
        return self.omega / (1.0 - self.a - self.b)


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
    if np.allclose(r, r[0]):
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


def _params_from_raw(raw, var_scale):
    log_omega, p1, p2 = raw
    persistence = _PERSISTENCE_CAP * expit(p1)
    share = expit(p2)
    omega = float(np.exp(log_omega) * var_scale)
    return GarchParams(omega=omega, a=float(persistence * share), b=float(persistence * (1.0 - share)))


def _negative_log_likelihood(raw, r, var_scale):
    """Minus the log likelihood at an unconstrained point, and its gradient there.

    The derivatives d_t of sigma2_t in (omega, a, b) follow the variance
    recursion, d_t = (1, r_{t-1}^2, sigma2_{t-1}) + b d_{t-1} from d_0 = 0,
    as sigma2_0 is the fixed sample variance (Fiorentini, Calzolari and
    Panattoni 1996), so one more linear filter gives the whole gradient.
    A point outside the parameter domain, as an omega overflowed to inf,
    or one whose likelihood or gradient overflows, scores inf with a zero
    gradient.
    """
    from scipy.signal import lfilter  # imported late, as in garch_filter

    try:
        # an overflow raises here, before an inf can meet another inf or a zero;
        # lfilter overflows silently, which the finiteness check below catches
        with np.errstate(over="raise", invalid="raise"):
            params = _params_from_raw(raw, var_scale)
            # var_scale is the sample variance, garch_filter's first variance
            sigma2 = _filter(params, r, var_scale)
            r_sq = r**2
            value = 0.5 * float(np.sum(LOG_2PI + np.log(sigma2) + r_sq / sigma2))
            drive = np.array([np.ones(r.size - 1), r_sq[:-1], sigma2[:-1]])
            d_sigma2 = lfilter([1.0], [1.0, -params.b], drive, axis=1)
            # d(-loglik)/d sigma2_t for t >= 1; sigma2_0 does not move
            slope = 0.5 * (1.0 - r_sq[1:] / sigma2[1:]) / sigma2[1:]
            d_omega, d_a, d_b = d_sigma2 @ slope
            # chained through the reparametrization: d omega / d log omega = omega,
            # and the sigmoids give the persistence and a's share of it
            active, share = expit(raw[1]), expit(raw[2])
            persistence = _PERSISTENCE_CAP * active
            grad = np.array([
                params.omega * d_omega,
                persistence * (1.0 - active) * (share * d_a + (1.0 - share) * d_b),
                persistence * share * (1.0 - share) * (d_a - d_b),
            ])
    except (FloatingPointError, InvalidArgumentError):
        return np.inf, np.zeros(3)
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        return np.inf, np.zeros(3)
    return value, grad


def garch_fit(returns):
    """Maximum-likelihood GARCH(1,1) fit.

    Runs L-BFGS from ``N_STARTS`` starting points, three fixed and the
    rest drawn from ``START_SEED``, so a fit is deterministic.  Each step
    takes the exact gradient of the log likelihood, whose derivatives in
    (omega, a, b) follow the variance recursion and cost one more linear
    filter pass, so the optimizer makes no difference probes.  The
    no-dynamics point (a = b = 0 at the sample variance) is always
    evaluated and is returned unless the dynamic fit beats it by more
    than log(T) nats; on returns with no volatility clustering the
    (a, b) direction is a flat likelihood ridge, and without that
    comparison the optimizer parks at an arbitrary, spuriously
    persistent point on it.

    Raises
    ------
    GarchFitError
        If no start produces a finite optimum; carries the best
        parameters seen in its ``params`` attribute.
    """
    r = _validate_returns(returns)
    var_scale = float(np.var(r))
    rng = np.random.default_rng(START_SEED)

    starts = [
        np.array([np.log(0.05), np.log(0.9 / 0.1), 0.0]),  # persistent, a = b share
        np.array([np.log(0.2), 0.0, -1.0]),
        np.array([np.log(1.0), -6.0, 0.0]),  # nearly constant variance
    ]
    for _ in range(N_STARTS - len(starts)):
        starts.append(np.array([rng.normal(-2.0, 1.0), rng.normal(0.0, 2.0), rng.normal(0.0, 1.0)]))

    best_raw, best_val = None, np.inf
    for raw0 in starts:
        result = minimize(_negative_log_likelihood, raw0, args=(r, var_scale), method="L-BFGS-B", jac=True)
        if result.fun < best_val:
            best_raw, best_val = result.x, float(result.fun)

    # the exact no-dynamics baseline, kept as a floor
    baseline = GarchParams(omega=var_scale, a=0.0, b=0.0)
    baseline_ll = garch_log_likelihood(baseline, r)

    if best_raw is None or not np.isfinite(best_val):
        raise GarchFitError(
            "no optimizer start converged to a finite likelihood", params=baseline
        )
    params = _params_from_raw(best_raw, var_scale)
    # BIC comparison: two extra parameters cost log(T) nats in total
    if garch_log_likelihood(params, r) - baseline_ll <= np.log(r.size):
        params = baseline
    return params


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
