"""Rolling-window volatility and covariance evaluation.

Models are refitted every ``retrain_every`` days on the trailing window
of returns; forecasts at the configured horizons are scored against
realized squared returns, a short historical-volatility series, and,
for output pairs, realized return products.  Days between retrains
reuse the latest fitted model by default, so the MSE denominators are
maximal; ``forecast_only_at_retrain`` restores the sparser cadence.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .copula import family_from_name, predictive_covariance, train_pairwise
from .errors import InvalidArgumentError
from .garch import garch_filter, garch_fit, garch_forecast
from .model import MgpchConfig, fit, predict

__all__ = [
    "BacktestConfig",
    "BacktestReport",
    "CovarianceForecast",
    "VolatilityForecast",
    "historical_volatility",
    "run_covariance_backtest",
    "run_volatility_backtest",
]

GARCH = "garch"


@dataclass(frozen=True)
class BacktestConfig:
    """Evaluation protocol settings.

    ``model`` is either an MgpchConfig or the string ``"garch"``; the
    horizon set is stored sorted.  ``window`` counts returns in each
    training window, ``hist_vol_window`` the returns in each rolling
    realized-variance estimate.
    """

    window: int = 120
    retrain_every: int = 7
    horizons: tuple = (1, 7, 30)
    hist_vol_window: int = 10
    model: object = field(default_factory=MgpchConfig)
    forecast_only_at_retrain: bool = False

    def __post_init__(self):
        horizons = tuple(sorted({int(h) for h in self.horizons}))
        object.__setattr__(self, "horizons", horizons)
        if not horizons:
            raise InvalidArgumentError("horizons must be non-empty")
        if horizons[0] < 1:
            raise InvalidArgumentError(f"horizons must be >= 1, got {horizons[0]}")
        if self.retrain_every < 1:
            raise InvalidArgumentError(
                f"retrain_every must be >= 1, got {self.retrain_every}"
            )
        if self.hist_vol_window < 1:
            raise InvalidArgumentError(
                f"hist_vol_window must be >= 1, got {self.hist_vol_window}"
            )
        if self.window < self.hist_vol_window:
            raise InvalidArgumentError(
                f"window ({self.window}) must be >= hist_vol_window ({self.hist_vol_window})"
            )
        if not isinstance(self.model, MgpchConfig) and self.model != GARCH:
            raise InvalidArgumentError(
                f"model must be an MgpchConfig or {GARCH!r}, got {self.model!r}"
            )


@dataclass(frozen=True)
class VolatilityForecast:
    origin: int  # day the forecast is issued
    horizon: int
    fit_day: int  # last day seen by the model that produced it
    asset: int
    value: float
    realized_sq: float
    realized_hist_vol: float


@dataclass(frozen=True)
class CovarianceForecast:
    origin: int
    horizon: int
    fit_day: int
    pair: tuple
    value: float
    realized_product: float


@dataclass(frozen=True)
class BacktestReport:
    """Per-asset, per-horizon MSEs with exact cross-sectional means."""

    asset_names: tuple
    horizons: tuple
    mse_sq_returns: dict  # horizon -> (D,) array
    mse_hist_vol: dict  # horizon -> (D,) array
    mse_pair_products: dict  # horizon -> {pair: float}
    avg_mse_sq_returns: dict  # horizon -> float
    avg_mse_hist_vol: dict  # horizon -> float
    avg_mse_pair_products: dict  # horizon -> float
    forecast_log: tuple
    refit_days: tuple


def historical_volatility(returns, window):
    """Rolling realized variance with denominator ``window``.

    Element t is the population variance of returns[t .. t+window-1];
    the output has length T - window + 1.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1:
        raise InvalidArgumentError("returns must be one-dimensional")
    if window < 1:
        raise InvalidArgumentError(f"window must be >= 1, got {window}")
    if r.size < window:
        raise InvalidArgumentError(
            f"need at least {window} returns, got {r.size}"
        )
    return np.lib.stride_tricks.sliding_window_view(r, window).var(axis=1)


class _MgpchForecaster:
    """One fitted mixture serving all horizons from a single input.

    The moments at an origin serve every horizon, so they are computed
    once per input and kept until the next one.
    """

    def __init__(self, window_returns, config):
        self.model = fit(window_returns[:-1], window_returns[1:], config)
        self._origin = None  # (input bytes, moments, {pair: covariance})

    def _at(self, x_star):
        key = np.asarray(x_star, dtype=float).tobytes()
        if self._origin is None or self._origin[0] != key:
            self._origin = (key, predict(self.model, x_star), {})
        return self._origin

    def predict_variance(self, x_star, h):
        return self._at(x_star)[1].variance

    def advance(self, r_row):
        pass


class _MgpchCovarianceForecaster(_MgpchForecaster):
    def __init__(self, window_returns, config, family, pairs):
        super().__init__(window_returns, config)
        data = (window_returns[:-1], window_returns[1:])
        self.pair_models = {
            pair: train_pairwise(pair, self.model, data, family) for pair in pairs
        }

    def predict_covariance(self, x_star, h, pair):
        _, moments, covariances = self._at(x_star)
        if pair not in covariances:
            covariances[pair] = predictive_covariance(self.pair_models[pair], moments, pair, x_star)
        return covariances[pair]


class _GarchForecaster:
    """Independent per-asset GARCH(1,1) with a running variance state.

    ``advance`` pushes the conditional variance one day forward, so
    forecasts between retrains continue the filter rather than reusing
    the fit-day state.
    """

    def __init__(self, window_returns):
        self.params = [garch_fit(window_returns[:, d]) for d in range(window_returns.shape[1])]
        self.sigma2 = np.array(
            [garch_filter(p, window_returns[:, d])[-1] for d, p in enumerate(self.params)]
        )

    def predict_variance(self, x_star, h):
        return np.array(
            [
                garch_forecast(p, x_star[d] ** 2, self.sigma2[d], h)
                for d, p in enumerate(self.params)
            ]
        )

    def advance(self, r_row):
        for d, p in enumerate(self.params):
            self.sigma2[d] = p.omega + p.a * r_row[d] ** 2 + p.b * self.sigma2[d]


def _default_factory(config, family=None, pairs=None):
    if config.model == GARCH:
        return lambda window_returns, origin: _GarchForecaster(window_returns)
    if pairs is None:
        return lambda window_returns, origin: _MgpchForecaster(window_returns, config.model)
    return lambda window_returns, origin: _MgpchCovarianceForecaster(
        window_returns, config.model, family, pairs
    )


def _schedule(T, config):
    """Retrain days and the forecast origins each fit serves."""
    h_min = config.horizons[0]
    first = config.window - 1
    if T <= config.window + config.horizons[-1]:
        raise InvalidArgumentError(
            f"series too short for the protocol: need at least "
            f"{config.window + config.horizons[-1] + 1} returns, got {T}"
        )
    segments = []
    t = first
    while t + h_min <= T - 1:
        if config.forecast_only_at_retrain:
            origins = [t]
        else:
            last = min(t + config.retrain_every - 1, T - 1 - h_min)
            origins = list(range(t, last + 1))
        segments.append((t, origins))
        t += config.retrain_every
    return segments


def _fit_segments(returns, config, factory, max_workers):
    segments = _schedule(returns.shape[0], config)

    def fit_one(seg):
        t, _ = seg
        return factory(returns[t - config.window + 1 : t + 1], t)

    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            forecasters = list(pool.map(fit_one, segments))
    else:
        forecasters = [fit_one(seg) for seg in segments]
    return segments, forecasters


def _grouped_mse(log, key, error):
    """Mean of ``error(rec)`` per ``key(rec)``, in one pass over the log (log order within a group)."""
    groups = {}
    for rec in log:
        groups.setdefault(key(rec), []).append(error(rec))
    return {k: float(np.mean(v)) for k, v in groups.items()}


def run_volatility_backtest(series, config, forecaster_factory=None, max_workers=None):
    """Score rolling variance forecasts against realized measures.

    ``forecaster_factory(window_returns, origin) -> forecaster`` can be
    injected for tests; a forecaster exposes ``predict_variance(x_star,
    h) -> (D,)`` and ``advance(r_row)``, called once per day as the
    origin moves between retrains.
    """
    r = np.asarray(series.returns, dtype=float)
    T, D = r.shape
    if forecaster_factory is None:
        forecaster_factory = _default_factory(config)
    segments, forecasters = _fit_segments(r, config, forecaster_factory, max_workers)

    hv = np.stack(
        [historical_volatility(r[:, d], config.hist_vol_window) for d in range(D)],
        axis=1,
    )  # hv[k] covers returns k .. k+w-1, so day tau sits at row tau-w+1

    log = []
    for (fit_day, origins), forecaster in zip(segments, forecasters):
        for origin in origins:
            if origin > fit_day:
                forecaster.advance(r[origin - 1])
            for h in config.horizons:
                target = origin + h
                if target > T - 1:
                    break
                values = np.asarray(forecaster.predict_variance(r[origin], h), dtype=float)
                if values.shape != (D,):
                    raise InvalidArgumentError(
                        f"forecaster returned shape {values.shape}, expected ({D},)"
                    )
                row_hv = hv[target - config.hist_vol_window + 1]
                for d in range(D):
                    log.append(
                        VolatilityForecast(
                            origin=origin,
                            horizon=h,
                            fit_day=fit_day,
                            asset=d,
                            value=float(values[d]),
                            realized_sq=float(r[target, d] ** 2),
                            realized_hist_vol=float(row_hv[d]),
                        )
                    )

    by_asset = attrgetter("horizon", "asset")
    sq_by = _grouped_mse(log, by_asset, lambda rec: (rec.value - rec.realized_sq) ** 2)
    hv_by = _grouped_mse(log, by_asset, lambda rec: (rec.value - rec.realized_hist_vol) ** 2)
    mse_sq, mse_hv, avg_sq, avg_hv = {}, {}, {}, {}
    for h in config.horizons:
        sq = np.array([sq_by.get((h, d), np.nan) for d in range(D)])
        hvm = np.array([hv_by.get((h, d), np.nan) for d in range(D)])
        mse_sq[h], mse_hv[h] = sq, hvm
        avg_sq[h] = float(np.mean(sq))
        avg_hv[h] = float(np.mean(hvm))

    return BacktestReport(
        asset_names=tuple(series.asset_names),
        horizons=config.horizons,
        mse_sq_returns=mse_sq,
        mse_hist_vol=mse_hv,
        mse_pair_products={},
        avg_mse_sq_returns=avg_sq,
        avg_mse_hist_vol=avg_hv,
        avg_mse_pair_products={},
        forecast_log=tuple(log),
        refit_days=tuple(t for t, _ in segments),
    )


def run_covariance_backtest(
    series, config, family, forecaster_factory=None, max_workers=None
):
    """Score rolling pairwise covariance forecasts against return products.

    Requires at least two assets and an MGPCH model configuration; each
    refit trains one conditional copula per output pair on the window.
    """
    r = np.asarray(series.returns, dtype=float)
    T, D = r.shape
    if D < 2:
        raise InvalidArgumentError(f"covariance backtest needs D >= 2 assets, got {D}")
    if isinstance(family, str):
        family = family_from_name(family)
    pairs = [(i, j) for i in range(D) for j in range(i + 1, D)]
    if forecaster_factory is None:
        if not isinstance(config.model, MgpchConfig):
            raise InvalidArgumentError(
                "covariance backtest requires the mixture model, not the baseline"
            )
        forecaster_factory = _default_factory(config, family=family, pairs=pairs)
    segments, forecasters = _fit_segments(r, config, forecaster_factory, max_workers)

    log = []
    for (fit_day, origins), forecaster in zip(segments, forecasters):
        for origin in origins:
            if origin > fit_day:
                forecaster.advance(r[origin - 1])
            for h in config.horizons:
                target = origin + h
                if target > T - 1:
                    break
                for pair in pairs:
                    value = float(forecaster.predict_covariance(r[origin], h, pair))
                    log.append(
                        CovarianceForecast(
                            origin=origin,
                            horizon=h,
                            fit_day=fit_day,
                            pair=pair,
                            value=value,
                            realized_product=float(r[target, pair[0]] * r[target, pair[1]]),
                        )
                    )

    mse_by = _grouped_mse(log, attrgetter("horizon", "pair"), lambda rec: (rec.value - rec.realized_product) ** 2)
    mse_pairs, avg_pairs = {}, {}
    for h in config.horizons:
        per_pair = {pair: mse_by[h, pair] for pair in pairs if (h, pair) in mse_by}
        mse_pairs[h] = per_pair
        avg_pairs[h] = float(np.mean(list(per_pair.values()))) if per_pair else np.nan

    return BacktestReport(
        asset_names=tuple(series.asset_names),
        horizons=config.horizons,
        mse_sq_returns={},
        mse_hist_vol={},
        mse_pair_products=mse_pairs,
        avg_mse_sq_returns={},
        avg_mse_hist_vol={},
        avg_mse_pair_products=avg_pairs,
        forecast_log=tuple(log),
        refit_days=tuple(t for t, _ in segments),
    )
