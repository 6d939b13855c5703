"""Rolling-window volatility and covariance evaluation.

Models are refitted every ``retrain_every`` days on the trailing window
of returns; forecasts at the configured horizons are scored against
realized squared returns, a short historical-volatility series, and,
for output pairs, realized return products.  Days between retrains
reuse the latest fitted model, so the MSE denominators are maximal.
The CLI's ``fit`` and ``predict`` fit and forecast through the same
mixture forecaster as the backtests.
"""

from dataclasses import dataclass, field, fields
from itertools import combinations
from operator import attrgetter

import numpy as np

from .copula import family_from_name, predictive_covariance, train_pairwise
from .errors import InvalidArgumentError, _check_integer
from .garch import garch_filter, garch_fit, garch_forecast
from .model import MgpchConfig, fit, predict

__all__ = [
    "BacktestConfig",
    "BacktestReport",
    "CovarianceForecast",
    "VolatilityForecast",
    "historical_volatility",
    "horizon_set",
    "run_covariance_backtest",
    "run_volatility_backtest",
]

GARCH = "garch"

# returns in each rolling realized-variance estimate that forecasts are also scored against
HIST_VOL_WINDOW = 10


def horizon_set(horizons):
    """Forecast horizons as a sorted tuple of distinct integers, each at least 1."""
    horizons = tuple(horizons)
    for h in horizons:
        _check_integer("horizons", h, 1)
    horizons = tuple(sorted({int(h) for h in horizons}))
    if not horizons:
        raise InvalidArgumentError("horizons must be non-empty")
    return horizons


@dataclass(frozen=True)
class BacktestConfig:
    """Evaluation protocol settings.

    ``model`` is either an MgpchConfig or the string ``"garch"``; the
    horizon set is stored sorted.  ``window`` counts returns in each
    training window, at least ``HIST_VOL_WINDOW``.
    """

    window: int = 120
    retrain_every: int = 7
    horizons: tuple = (1, 7, 30)
    model: object = field(default_factory=MgpchConfig)

    def __post_init__(self):
        object.__setattr__(self, "horizons", horizon_set(self.horizons))
        for name in ("window", "retrain_every"):
            _check_integer(name, getattr(self, name), 1)
        if self.window < HIST_VOL_WINDOW:
            raise InvalidArgumentError(
                f"window ({self.window}) must be >= the historical-volatility window ({HIST_VOL_WINDOW})"
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
    if not np.all(np.isfinite(r)):
        raise InvalidArgumentError("returns must be finite")
    _check_integer("window", window, 1)
    if r.size < window:
        raise InvalidArgumentError(
            f"need at least {window} returns, got {r.size}"
        )
    return np.lib.stride_tricks.sliding_window_view(r, window).var(axis=1)


class _MgpchForecaster:
    """A fitted or loaded mixture, with its pair copulas, serving every horizon.

    ``pair_models`` maps output pairs to their trained copulas.  The
    mixture forecasts one step ahead, so the moments at an input serve
    every horizon and pair; they are computed once per input and kept
    until the next one.
    """

    def __init__(self, model, pair_models):
        self.model = model
        self.pair_models = pair_models
        self._origin = None  # (input bytes, moments, {pair: covariance})

    def _at(self, x_star):
        key = np.asarray(x_star, dtype=float).tobytes()
        if self._origin is None or self._origin[0] != key:
            self._origin = (key, predict(self.model, x_star), {})
        return self._origin

    def moments(self, x_star, h):
        """The one-step PredictiveMoments at ``x_star``, which serve horizon ``h`` as they serve every other."""
        return self._at(x_star)[1]

    def predict_variance(self, x_star, h):
        return self.moments(x_star, h).variance

    def predict_covariance(self, x_star, h, pair):
        _, moments, covariances = self._at(x_star)
        if pair not in covariances:
            covariances[pair] = predictive_covariance(self.pair_models[pair], moments, pair, x_star)
        return covariances[pair]

    def advance(self, r_row):
        pass


def _fit_forecaster(window_returns, config, family=None):
    """Fit the mixture to a (T, D) return window, each row predicting the next, and a ``family`` copula per output pair if given."""
    data = (window_returns[:-1], window_returns[1:])
    model = fit(*data, config)
    pairs = combinations(range(window_returns.shape[1]), 2) if family is not None else ()
    return _MgpchForecaster(model, {pair: train_pairwise(pair, model, data, family) for pair in pairs})


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
            self.sigma2[d] = garch_forecast(p, r_row[d] ** 2, self.sigma2[d], 1)


def _default_factory(config, family=None):
    if config.model == GARCH:
        return lambda window_returns, origin: _GarchForecaster(window_returns)
    return lambda window_returns, origin: _fit_forecaster(window_returns, config.model, family)


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
        last = min(t + config.retrain_every - 1, T - 1 - h_min)
        segments.append((t, list(range(t, last + 1))))
        t += config.retrain_every
    return segments


def _grouped_mse(log, key, error):
    """Mean of ``error(rec)`` per ``key(rec)``, in one pass over the log (log order within a group)."""
    groups = {}
    for rec in log:
        groups.setdefault(key(rec), []).append(error(rec))
    return {k: float(np.mean(v)) for k, v in groups.items()}


def _backtest(series, config, factory, scorer, mse):
    """The rolling protocol of both kinds: fit, advance, walk the horizons, score, report.

    Refits run one at a time.  Each retrain day's forecaster is fitted,
    serves that day's origins and is dropped before the next refit, so
    at most one fitted model is alive.  Its ``advance(r[origin-1])``
    runs once per day as the origin moves on, and each origin walks the
    ascending horizons until the target passes the series end.
    ``scorer(r)``, called once the series is long enough, returns
    ``score(forecaster, fit_day, origin, h)`` -> that forecast's records;
    ``mse(log)`` gives the report's MSE fields of its kind, and the
    other kind's stay empty.
    """
    r = np.asarray(series.returns, dtype=float)
    T = r.shape[0]
    segments = _schedule(T, config)
    score = scorer(r)
    log = []
    for fit_day, origins in segments:
        forecaster = factory(r[fit_day - config.window + 1 : fit_day + 1], fit_day)
        for origin in origins:
            if origin > fit_day:
                forecaster.advance(r[origin - 1])
            for h in config.horizons:
                if origin + h > T - 1:
                    break
                log.extend(score(forecaster, fit_day, origin, h))
        del forecaster  # released before the next refit is built

    by_kind = {f.name: {} for f in fields(BacktestReport) if "mse" in f.name}
    by_kind.update(mse(log))
    return BacktestReport(
        asset_names=tuple(series.asset_names),
        horizons=config.horizons,
        forecast_log=tuple(log),
        refit_days=tuple(t for t, _ in segments),
        **by_kind,
    )


def run_volatility_backtest(series, config, forecaster_factory=None):
    """Score rolling variance forecasts against realized measures.

    ``forecaster_factory(window_returns, origin) -> forecaster`` can be
    injected for tests; a forecaster exposes ``predict_variance(x_star,
    h) -> (D,)`` and ``advance(r_row)``, called once per day as the
    origin moves between retrains.
    """
    if forecaster_factory is None:
        forecaster_factory = _default_factory(config)
    w = HIST_VOL_WINDOW

    def scorer(r):
        D = r.shape[1]
        # hv[k] covers returns k .. k+w-1, so day tau sits at row tau-w+1
        hv = np.stack([historical_volatility(r[:, d], w) for d in range(D)], axis=1)

        def score(forecaster, fit_day, origin, h):
            values = np.asarray(forecaster.predict_variance(r[origin], h), dtype=float)
            if values.shape != (D,):
                raise InvalidArgumentError(f"forecaster returned shape {values.shape}, expected ({D},)")
            target = origin + h
            return [
                VolatilityForecast(
                    origin=origin,
                    horizon=h,
                    fit_day=fit_day,
                    asset=d,
                    value=float(values[d]),
                    realized_sq=float(r[target, d] ** 2),
                    realized_hist_vol=float(hv[target - w + 1, d]),
                )
                for d in range(D)
            ]

        return score

    def mse(log):
        D = len(series.asset_names)
        by_asset = attrgetter("horizon", "asset")
        sq_by = _grouped_mse(log, by_asset, lambda rec: (rec.value - rec.realized_sq) ** 2)
        hv_by = _grouped_mse(log, by_asset, lambda rec: (rec.value - rec.realized_hist_vol) ** 2)
        sq = {h: np.array([sq_by.get((h, d), np.nan) for d in range(D)]) for h in config.horizons}
        hvm = {h: np.array([hv_by.get((h, d), np.nan) for d in range(D)]) for h in config.horizons}
        return {
            "mse_sq_returns": sq,
            "mse_hist_vol": hvm,
            "avg_mse_sq_returns": {h: float(np.mean(v)) for h, v in sq.items()},
            "avg_mse_hist_vol": {h: float(np.mean(v)) for h, v in hvm.items()},
        }

    return _backtest(series, config, forecaster_factory, scorer, mse)


def run_covariance_backtest(series, config, family, forecaster_factory=None):
    """Score rolling pairwise covariance forecasts against return products.

    Requires at least two assets and an MGPCH model configuration; each
    refit trains one conditional copula of ``family``, a family or its
    name, per output pair on the window.
    """
    D = np.asarray(series.returns).shape[1]
    if D < 2:
        raise InvalidArgumentError(f"covariance backtest needs D >= 2 assets, got {D}")
    family = family_from_name(getattr(family, "name", family))
    pairs = list(combinations(range(D), 2))
    if forecaster_factory is None:
        if not isinstance(config.model, MgpchConfig):
            raise InvalidArgumentError(
                "covariance backtest requires the mixture model, not the baseline"
            )
        forecaster_factory = _default_factory(config, family=family)

    def scorer(r):
        def score(forecaster, fit_day, origin, h):
            row = r[origin + h]
            return [
                CovarianceForecast(
                    origin=origin,
                    horizon=h,
                    fit_day=fit_day,
                    pair=pair,
                    value=float(forecaster.predict_covariance(r[origin], h, pair)),
                    realized_product=float(row[pair[0]] * row[pair[1]]),
                )
                for pair in pairs
            ]

        return score

    def mse(log):
        mse_by = _grouped_mse(log, attrgetter("horizon", "pair"), lambda rec: (rec.value - rec.realized_product) ** 2)
        mse_pairs = {h: {pair: mse_by[h, pair] for pair in pairs if (h, pair) in mse_by} for h in config.horizons}
        return {
            "mse_pair_products": mse_pairs,
            "avg_mse_pair_products": {
                h: float(np.mean(list(per_pair.values()))) if per_pair else np.nan
                for h, per_pair in mse_pairs.items()
            },
        }

    return _backtest(series, config, forecaster_factory, scorer, mse)
