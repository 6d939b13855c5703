"""Rolling-window evaluation protocol."""

import weakref
from datetime import date, timedelta

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mgpch.backtest import (
    HIST_VOL_WINDOW,
    BacktestConfig,
    historical_volatility,
    run_covariance_backtest,
    run_volatility_backtest,
)
from mgpch.data_io import ReturnSeries
from mgpch.errors import InvalidArgumentError
from mgpch.model import MgpchConfig
from mgpch.pyp import PypConfig


def make_series(returns):
    returns = np.asarray(returns, dtype=float)
    start = date(2020, 1, 1)
    return ReturnSeries(
        timestamps=tuple(start + timedelta(days=t) for t in range(returns.shape[0])),
        returns=returns,
        asset_names=tuple(f"a{d}" for d in range(returns.shape[1])),
    )


class ForesightVolatility:
    """Test stub that reads the future it is asked to predict."""

    def __init__(self, full_returns, origin):
        self.r = full_returns
        self.origin = origin

    def predict_variance(self, x_star, h):
        return self.r[self.origin + h] ** 2

    def advance(self, r_row):
        self.origin += 1


class ForesightCovariance:
    def __init__(self, full_returns, origin):
        self.r = full_returns
        self.origin = origin

    def predict_covariance(self, x_star, h, pair):
        row = self.r[self.origin + h]
        return row[pair[0]] * row[pair[1]]

    def advance(self, r_row):
        self.origin += 1


class Recording:
    """Forecaster stub that records, in order, every call the protocol makes to it."""

    def __init__(self, window_returns, origin, calls):
        self.fit_day = origin
        self.calls = calls
        calls.append(("fit", origin))
        self.window = window_returns.copy()

    def predict_variance(self, x_star, h):
        self.calls.append(("forecast", self.fit_day, tuple(x_star), h))
        return np.asarray(x_star) ** 2

    def predict_covariance(self, x_star, h, pair):
        self.calls.append(("forecast", self.fit_day, tuple(x_star), h))
        return x_star[pair[0]] * x_star[pair[1]]

    def advance(self, r_row):
        self.calls.append(("advance", self.fit_day, tuple(r_row)))


def expected_calls(r, window, every, horizons):
    """The protocol's calls written out: per fit day t, the fit, then per origin one advance (after t) and its horizons."""
    T = r.shape[0]
    calls = []
    for t in range(window - 1, T - horizons[0], every):
        calls.append(("fit", t))
        last = min(t + every - 1, T - 1 - horizons[0])
        for origin in range(t, last + 1):
            if origin > t:
                calls.append(("advance", t, tuple(r[origin - 1])))
            calls += [("forecast", t, tuple(r[origin]), h) for h in horizons if origin + h <= T - 1]
    return calls


@pytest.mark.parametrize("kind", ["volatility", "covariance"])
class TestProtocol:
    """The rolling protocol both runners share, pinned once per kind on two assets (one pair)."""

    def setup_method(self):
        rng = np.random.default_rng(42)
        self.r = 0.01 * rng.standard_normal((71, 2))
        self.config = BacktestConfig(window=40, retrain_every=7, horizons=(30, 1, 7))

    def run(self, kind, config=None, returns=None, factory=None):
        r = self.r if returns is None else returns
        forecasters, calls = [], []

        def recording(window_returns, origin):
            forecasters.append(Recording(window_returns, origin, calls))
            return forecasters[-1]

        args = (make_series(r), config or self.config)
        if kind == "covariance":
            args += ("frank",)
        runner = run_volatility_backtest if kind == "volatility" else run_covariance_backtest
        report = runner(*args, forecaster_factory=factory or recording)
        return report, forecasters, calls

    def test_call_sequence(self, kind):
        _, _, calls = self.run(kind)
        assert calls == expected_calls(self.r, 40, 7, (1, 7, 30))

    def test_factory_calls_in_refit_order_on_trailing_windows(self, kind):
        # 31 forecast origins served in steps of 7 need ceil(31 / 7) fits
        report, forecasters, _ = self.run(kind)
        assert report.refit_days == (39, 46, 53, 60, 67)
        assert [f.fit_day for f in forecasters] == list(report.refit_days)
        for f in forecasters:
            assert np.array_equal(f.window, self.r[f.fit_day - 39 : f.fit_day + 1])

    def test_advance_once_per_day_after_a_refit(self, kind):
        _, _, calls = self.run(kind)
        for t in (39, 46, 53, 60, 67):
            rows = [c[2] for c in calls if c[0] == "advance" and c[1] == t]
            last = min(t + 6, 69)
            assert rows == [tuple(self.r[o]) for o in range(t, last)]

    def test_horizons_ascend_and_stop_at_the_series_end(self, kind):
        report, _, calls = self.run(kind)
        by_origin = {}
        for c in calls:
            if c[0] == "forecast":
                by_origin.setdefault(c[2], []).append(c[3])
        assert len(by_origin) == 31  # origins 39 .. 69 all receive forecasts
        for origin in range(39, 70):
            expected = [h for h in (1, 7, 30) if origin + h <= 70]
            assert by_origin[tuple(self.r[origin])] == expected
        assert {rec.origin for rec in report.forecast_log} == set(range(39, 70))
        assert all(rec.origin + rec.horizon <= 70 for rec in report.forecast_log)

    @pytest.mark.parametrize("length", [70, 5])
    def test_series_too_short_names_required_minimum(self, kind, length):
        # also below hist_vol_window, where no realized measure can be formed
        with pytest.raises(InvalidArgumentError, match="need at least 71 returns, got"):
            self.run(kind, returns=self.r[:length])

    def test_each_forecaster_is_released_before_the_next_refit(self, kind):
        # the protocol keeps no fitted forecaster once its origins are served,
        # so a refit never runs next to an earlier one the protocol still holds
        refs, alive_at_refit = [], []

        def factory(window_returns, origin):
            alive_at_refit.append([ref() is not None for ref in refs])
            forecaster = Recording(window_returns, origin, [])
            refs.append(weakref.ref(forecaster))
            return forecaster

        report, _, _ = self.run(kind, factory=factory)
        assert len(alive_at_refit) == len(report.refit_days) == 5
        assert alive_at_refit == [[False] * k for k in range(5)]
        assert all(ref() is None for ref in refs)


class TestHistoricalVolatility:
    def test_constant_returns_give_zeros(self):
        assert_allclose(historical_volatility(np.full(9, 0.3), 4), np.zeros(6))

    def test_hand_value_two_points(self):
        assert_allclose(historical_volatility(np.array([1.0, -1.0]), 2), [1.0])

    def test_full_window_equals_sample_variance(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal(17)
        out = historical_volatility(r, 17)
        assert out.shape == (1,)
        assert_allclose(out[0], np.var(r), rtol=1e-12)

    def test_rolling_alignment(self):
        r = np.array([0.0, 0.0, 3.0, 3.0])
        out = historical_volatility(r, 2)
        assert_allclose(out, [0.0, 2.25, 0.0])

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            historical_volatility(np.ones(3), 4)
        with pytest.raises(InvalidArgumentError):
            historical_volatility(np.ones((3, 1)), 2)
        with pytest.raises(InvalidArgumentError):
            historical_volatility(np.ones(3), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_returns_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="returns must be finite"):
            historical_volatility(np.array([1.0, bad, 2.0]), 2)

    @pytest.mark.parametrize("window", [2.5, True, "2"])
    def test_non_integer_window_rejected(self, window):
        with pytest.raises(InvalidArgumentError, match="window must be an integer >= 1"):
            historical_volatility(np.ones(3), window)


class TestConfig:
    def test_defaults(self):
        config = BacktestConfig()
        assert config.window == 120
        assert config.retrain_every == 7
        assert config.horizons == (1, 7, 30)
        assert isinstance(config.model, MgpchConfig)

    def test_horizons_sorted_and_deduplicated(self):
        assert BacktestConfig(horizons=(30, 1, 7, 7)).horizons == (1, 7, 30)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            BacktestConfig(horizons=())
        with pytest.raises(InvalidArgumentError):
            BacktestConfig(horizons=(0, 1))
        with pytest.raises(InvalidArgumentError):
            BacktestConfig(retrain_every=0)
        with pytest.raises(InvalidArgumentError):
            BacktestConfig(window=HIST_VOL_WINDOW - 1)
        with pytest.raises(InvalidArgumentError):
            BacktestConfig(model="egarch")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("horizons", (1.5, 7)),
            ("horizons", (True,)),
            ("horizons", (1, "7")),
            ("window", 120.0),
            ("retrain_every", True),
        ],
    )
    def test_counts_must_be_integers(self, name, value):
        # horizons (1.5, 7) became (1, 7) and (True,) became (1,)
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer >= 1, got"):
            BacktestConfig(**{name: value})

    def test_numpy_integer_horizons_are_python_ints(self):
        horizons = BacktestConfig(horizons=np.array([7, 1])).horizons
        assert horizons == (1, 7) and all(type(h) is int for h in horizons)


class TestVolatilityProtocol:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.r = 0.01 * rng.standard_normal((71, 1))
        self.series = make_series(self.r)
        self.config = BacktestConfig(window=40, retrain_every=7, horizons=(1, 7, 30))

    def run_with_stub(self, config=None, returns=None):
        r = self.r if returns is None else returns
        series = self.series if returns is None else make_series(returns)
        return run_volatility_backtest(
            series,
            config or self.config,
            forecaster_factory=lambda window, origin: ForesightVolatility(r, origin),
        )

    def test_perfect_foresight_has_zero_squared_return_mse(self):
        report = self.run_with_stub()
        for h in (1, 7, 30):
            assert_allclose(report.mse_sq_returns[h], 0.0, atol=0.0)
            assert report.avg_mse_sq_returns[h] == 0.0

    def test_no_look_ahead_in_the_forecast_log(self):
        report = self.run_with_stub()
        assert len(report.forecast_log) > 0
        for rec in report.forecast_log:
            assert rec.fit_day <= rec.origin
            assert rec.origin + rec.horizon <= self.r.shape[0] - 1
            assert rec.fit_day in report.refit_days
            # the serving fit is the newest one at or before the origin
            assert rec.fit_day == max(t for t in report.refit_days if t <= rec.origin)

    def test_hist_vol_alignment_uses_window_ending_at_target(self):
        report = self.run_with_stub()
        w = HIST_VOL_WINDOW
        rec = report.forecast_log[0]
        target = rec.origin + rec.horizon
        expected = float(np.var(self.r[target - w + 1 : target + 1, rec.asset]))
        assert_allclose(rec.realized_hist_vol, expected, rtol=1e-12)

    def test_averages_are_exact_means(self):
        rng = np.random.default_rng(3)
        r = 0.01 * rng.standard_normal((71, 3))
        report = self.run_with_stub(returns=r)
        for h in report.horizons:
            assert report.avg_mse_sq_returns[h] == float(np.mean(report.mse_sq_returns[h]))
            assert report.avg_mse_hist_vol[h] == float(np.mean(report.mse_hist_vol[h]))
            assert np.all(report.mse_sq_returns[h] >= 0.0)
            assert np.all(report.mse_hist_vol[h] >= 0.0)


class TestGarchBacktest:
    def test_constant_variance_series_approaches_analytic_floor(self):
        # exact-variance forecasts have MSE E[(sigma2 - r^2)^2] = 2 sigma^4
        sigma = 0.01
        rng = np.random.default_rng(7)
        r = sigma * rng.standard_normal((120 + 1500, 2))
        config = BacktestConfig(
            window=120, retrain_every=97, horizons=(1,), model="garch"
        )
        report = run_volatility_backtest(make_series(r), config)
        floor = 2.0 * sigma**4
        assert abs(report.avg_mse_sq_returns[1] / floor - 1.0) < 0.10

    def test_filter_state_advances_between_retrains(self):
        from mgpch.backtest import _GarchForecaster
        from mgpch.garch import GarchParams, garch_filter

        rng = np.random.default_rng(1)
        r = 0.01 * rng.standard_normal((66, 1))
        params = GarchParams(omega=1e-5, a=0.1, b=0.85)

        def pinned(window, origin):
            forecaster = _GarchForecaster(window)
            forecaster.params = [params]
            forecaster.sigma2 = np.array([garch_filter(params, window[:, 0])[-1]])
            return forecaster

        config = BacktestConfig(window=35, retrain_every=7, horizons=(1,), model="garch")
        report = run_volatility_backtest(make_series(r), config, forecaster_factory=pinned)
        by_origin = {rec.origin: rec.value for rec in report.forecast_log}
        assert len(by_origin) == 31

        # oracle: continue the recursion by hand through each segment
        for fit_day in report.refit_days:
            s2 = garch_filter(params, r[fit_day - 34 : fit_day + 1, 0])[-1]
            for origin in range(fit_day, min(fit_day + 7, 65)):
                if origin > fit_day:
                    s2 = params.omega + params.a * r[origin - 1, 0] ** 2 + params.b * s2
                expected = params.omega + params.a * r[origin, 0] ** 2 + params.b * s2
                assert_allclose(by_origin[origin], expected, rtol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        r = 0.01 * rng.standard_normal((66, 2))
        series = make_series(r)
        config = BacktestConfig(window=35, retrain_every=7, horizons=(1, 7), model="garch")
        a = run_volatility_backtest(series, config)
        b = run_volatility_backtest(series, config)
        assert a.forecast_log == b.forecast_log
        assert a.refit_days == b.refit_days


class TestMgpchBacktest:
    def test_mixture_forecasts_are_positive_and_logged(self):
        rng = np.random.default_rng(5)
        r = 0.01 * rng.standard_normal((52, 2))
        config = BacktestConfig(
            window=20,
            retrain_every=10,
            horizons=(1, 7),
            model=MgpchConfig(pyp=PypConfig(truncation=1), max_iters=15),
        )
        report = run_volatility_backtest(make_series(r), config)
        assert all(rec.value > 0.0 for rec in report.forecast_log)
        assert set(report.mse_sq_returns) == {1, 7}
        # one variance per asset at matching origins, same model both horizons
        one = {(r_.origin, r_.asset): r_.value for r_ in report.forecast_log if r_.horizon == 1}
        seven = {(r_.origin, r_.asset): r_.value for r_ in report.forecast_log if r_.horizon == 7}
        shared = set(one) & set(seven)
        assert shared and all(one[k] == seven[k] for k in shared)


class TestCovarianceBacktest:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.r = 0.01 * rng.standard_normal((105, 2))
        self.series = make_series(self.r)
        self.config = BacktestConfig(
            window=60,
            retrain_every=50,
            horizons=(1,),
            model=MgpchConfig(pyp=PypConfig(truncation=1), max_iters=20),
        )

    def test_two_assets_give_exactly_one_pair(self):
        report = run_covariance_backtest(
            self.series,
            self.config,
            "frank",
            forecaster_factory=lambda w, o: ForesightCovariance(self.r, o),
        )
        assert set(report.mse_pair_products[1]) == {(0, 1)}

    def test_perfect_foresight_covariance_mse_is_zero(self):
        report = run_covariance_backtest(
            self.series,
            self.config,
            "frank",
            forecaster_factory=lambda w, o: ForesightCovariance(self.r, o),
        )
        assert report.mse_pair_products[1][(0, 1)] == 0.0
        assert report.avg_mse_pair_products[1] == 0.0

    def test_independent_assets_predict_near_zero_covariance(self):
        report = run_covariance_backtest(self.series, self.config, "frank")
        values = np.array([rec.value for rec in report.forecast_log])
        products = self.r[:, 0] * self.r[:, 1]
        standard_error = float(np.std(products, ddof=1) / np.sqrt(products.size))
        assert float(np.mean(np.abs(values))) < standard_error

    def test_no_look_ahead_in_covariance_log(self):
        report = run_covariance_backtest(
            self.series,
            self.config,
            "frank",
            forecaster_factory=lambda w, o: ForesightCovariance(self.r, o),
        )
        for rec in report.forecast_log:
            assert rec.fit_day <= rec.origin
            assert rec.fit_day == max(t for t in report.refit_days if t <= rec.origin)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            run_covariance_backtest(make_series(self.r[:, :1]), self.config, "frank")
        garch_config = BacktestConfig(window=60, horizons=(1,), model="garch")
        with pytest.raises(InvalidArgumentError):
            run_covariance_backtest(self.series, garch_config, "frank")
