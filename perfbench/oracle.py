"""Independent checks of mgpch outputs.

Every check recomputes the quantity from the model's own definition with
numpy and scipy, or tests a property the method must have.  None of them
calls the mgpch function whose output it checks.
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist
from scipy.special import ndtr
from scipy.stats import kstest

# The model's prior adds 1e-8 x the marginal variance to the diagonal of
# every AR(1) design matrix (mgpch.kernels documents it as the jitter).
JITTER = 1e-8

# Forecast moments must agree with the GP conditional to this relative
# level; with C = 1 the program agrees to about 1e-9.
FORECAST_RTOL = 1e-6
# Covariances must agree with the Hoeffding integral to this share of
# sqrt(v_i v_j), the largest covariance the marginals allow.
COVARIANCE_RTOL = 1e-6
# Fixed-seed statistical checks of the simulator fail below this p-value.
P_FLOOR = 1e-3
MONOTONE_SLACK = 1e-9


def fit_ok(trace):
    """A free-energy trace is finite and non-decreasing."""
    t = np.asarray(trace, dtype=float)
    if t.size == 0 or not np.all(np.isfinite(t)):
        return False
    return bool(np.all(np.diff(t) >= -MONOTONE_SLACK * (1.0 + np.abs(t[:-1]))))


def _ar1(kernel, A, B):
    marginal = kernel.sigma0_sq / (1.0 - kernel.phi**2)
    return marginal * kernel.phi ** cdist(A, B), marginal


def noise_conditional(model, Xstar):
    """GP conditional of every log-variance process at the rows of Xstar.

    tau = m~ + k*' L^-1 (m - m~) and
    phi = k** - k*' L^-1 k* + k*' L^-1 S L^-1 k*, with L the jittered AR(1)
    prior covariance over the training inputs (Lazaro-Gredilla & Titsias
    2011).  Returns two (M, C, D) arrays.
    """
    X = np.asarray(model.X, dtype=float)
    Xstar = np.asarray(Xstar, dtype=float).reshape(-1, X.shape[1])
    m, S, m_tilde = model.state.m, model.state.S, np.asarray(model.m_tilde)
    C, D, N = m.shape
    tau = np.empty((Xstar.shape[0], C, D))
    phi = np.empty_like(tau)
    for c in range(C):
        K, marginal = _ar1(model.noise_kernels[c], X, X)
        factor = cho_factor(K + JITTER * marginal * np.eye(N), lower=True)
        Kstar, _ = _ar1(model.noise_kernels[c], Xstar, X)
        V = cho_solve(factor, Kstar.T)
        prior_part = marginal - np.sum(Kstar.T * V, axis=0)
        for d in range(D):
            alpha = cho_solve(factor, m[c, d] - m_tilde[c, d])
            tau[:, c, d] = m_tilde[c, d] + Kstar @ alpha
            phi[:, c, d] = prior_part + np.sum(V * (S[c, d] @ V), axis=0)
    return tau, phi


def forecast_ok(moments, tau, phi, model):
    """Component log-variance moments of one forecast equal the GP conditional."""
    marginal = np.array([k.sigma0_sq / (1.0 - k.phi**2) for k in model.noise_kernels])[:, None]
    got_tau = np.asarray(moments.noise_log_mean, dtype=float)
    got_phi = np.asarray(moments.noise_log_var, dtype=float)
    if got_tau.shape != tau.shape or got_phi.shape != phi.shape:
        return False
    tau_ok = np.abs(got_tau - tau) <= FORECAST_RTOL * (1.0 + np.abs(tau))
    phi_ok = np.abs(got_phi - phi) <= FORECAST_RTOL * marginal
    return bool(np.all(tau_ok) and np.all(phi_ok))


# Trapezoid grid for the Hoeffding integral in standardized coordinates;
# the integrand is below 1e-18 beyond +/- 9.  At this step the integral is
# within 1e-7 of its limit up to theta = 20.
_GRID_STEP = 0.05
_GRID = np.arange(-180, 181) * _GRID_STEP
_GRID_CDF = ndtr(_GRID)


def clayton_cdf(theta, u, v):
    """Clayton copula (u^-theta + v^-theta - 1)^(-1/theta), theta > 0."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.maximum(u ** (-theta) + v ** (-theta) - 1.0, 0.0) ** (-1.0 / theta)


def hoeffding_covariance(theta, var_i, var_j):
    """Covariance of two Gaussian marginals joined by a Clayton copula.

    Hoeffding: cov = integral of C(F_i, F_j) - F_i F_j over both outputs.
    """
    U = _GRID_CDF[:, None]
    V = _GRID_CDF[None, :]
    gap = clayton_cdf(theta, U, V) - U * V
    return math.sqrt(var_i * var_j) * _GRID_STEP**2 * float(np.sum(gap))


def covariance_ok(cov, theta, moments, pair):
    """A Clayton covariance forecast equals its Hoeffding integral and obeys |cov| <= sqrt(v_i v_j)."""
    var = np.asarray(moments.variance, dtype=float)
    vi, vj = float(var[pair[0]]), float(var[pair[1]])
    scale = math.sqrt(vi * vj)
    if not (math.isfinite(cov) and theta > 0.0 and scale > 0.0):
        return False
    reference = hoeffding_covariance(theta, vi, vj)
    return abs(cov - reference) <= COVARIANCE_RTOL * scale and abs(cov) <= scale * (1.0 + 1e-12)


def simulation_ok(X, Y, variances, assignments, weights):
    """Feedback inputs, Gaussian standardized outputs and assignment frequencies.

    X may be None when only the outputs are available (the CLI writes no
    inputs); then the feedback property is not checked.
    """
    Y = np.asarray(Y, dtype=float)
    if X is not None and not np.array_equal(np.asarray(X)[1:], Y[:-1]):
        return False
    z = (Y / np.sqrt(np.asarray(variances, dtype=float))).ravel()
    if not (np.all(np.isfinite(z)) and kstest(z, "norm").pvalue > P_FLOOR):
        return False
    weights = np.asarray(weights, dtype=float)
    counts = np.bincount(np.asarray(assignments, dtype=int), minlength=weights.size)
    n = counts.sum()
    expected = n * weights
    allowed = 4.0 * np.sqrt(expected * (1.0 - weights)) + 1.0
    return bool(np.all(np.abs(counts - expected) <= allowed))


def _close(a, b):
    return bool(np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float), rtol=1e-12, atol=0.0, equal_nan=True))


def report_ok(report):
    """No record uses a model fitted after its origin, and the report's MSEs follow from its log."""
    log = report.forecast_log
    if not log or any(rec.fit_day > rec.origin for rec in log):
        return False
    if report.mse_pair_products:
        for h in report.horizons:
            per_pair = {}
            for rec in log:
                if rec.horizon == h:
                    per_pair.setdefault(rec.pair, []).append((rec.value - rec.realized_product) ** 2)
            mse = {pair: float(np.mean(v)) for pair, v in per_pair.items()}
            if set(mse) != set(report.mse_pair_products[h]):
                return False
            if not all(_close(mse[p], report.mse_pair_products[h][p]) for p in mse):
                return False
            if not _close(np.mean(list(mse.values())), report.avg_mse_pair_products[h]):
                return False
        return True
    D = len(report.asset_names)
    for h in report.horizons:
        sq = np.full(D, np.nan)
        hv = np.full(D, np.nan)
        for d in range(D):
            recs = [rec for rec in log if rec.horizon == h and rec.asset == d]
            if recs:
                sq[d] = np.mean([(r.value - r.realized_sq) ** 2 for r in recs])
                hv[d] = np.mean([(r.value - r.realized_hist_vol) ** 2 for r in recs])
        if not (_close(sq, report.mse_sq_returns[h]) and _close(hv, report.mse_hist_vol[h])):
            return False
        if not (_close(np.mean(sq), report.avg_mse_sq_returns[h]) and _close(np.mean(hv), report.avg_mse_hist_vol[h])):
            return False
    return True


def garch_filter(omega, a, b, r, sigma2_0):
    sigma2 = np.empty(r.size)
    sigma2[0] = sigma2_0
    for t in range(1, r.size):
        sigma2[t] = omega + a * r[t - 1] ** 2 + b * sigma2[t - 1]
    return sigma2


def garch_log_likelihood(omega, a, b, r):
    sigma2 = garch_filter(omega, a, b, r, float(np.var(r)))
    return -0.5 * float(np.sum(np.log(2.0 * np.pi) + np.log(sigma2) + r**2 / sigma2))


def garch_checks(returns, report, window, params_for):
    """(kind, ok) for every GARCH fit and forecast of a baseline backtest report.

    ``params_for(window_returns)`` returns the fitted parameters of one
    asset's window; each fit must reach at least the no-dynamics log
    likelihood, and each logged forecast must equal the recursion run
    here: filter the window from its sample variance, advance one day per
    origin, then iterate the one-step map h - 1 times.
    """
    results = []
    by_fit = {}
    for rec in report.forecast_log:
        by_fit.setdefault((rec.fit_day, rec.asset), []).append(rec)
    for (fit_day, asset), recs in sorted(by_fit.items()):
        w = returns[fit_day - window + 1 : fit_day + 1, asset]
        p = params_for(w)
        floor = garch_log_likelihood(float(np.var(w)), 0.0, 0.0, w)
        ll = garch_log_likelihood(p.omega, p.a, p.b, w)
        results.append(("garch fit", ll >= floor - 1e-9 * abs(floor)))
        state = garch_filter(p.omega, p.a, p.b, w, float(np.var(w)))[-1]
        day = fit_day
        for rec in sorted(recs, key=lambda r: (r.origin, r.horizon)):
            while day < rec.origin:
                state = p.omega + p.a * returns[day, asset] ** 2 + p.b * state
                day += 1
            value = p.omega + p.a * returns[rec.origin, asset] ** 2 + p.b * state
            for _ in range(rec.horizon - 1):
                value = p.omega + (p.a + p.b) * value
            results.append(("garch forecast", abs(rec.value - value) <= 1e-12 * value))
    return results
