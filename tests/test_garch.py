"""GARCH(1,1) filter, fit and forecasts."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mgpch
from mgpch.cli import run_command
from mgpch.data_io import load_price_csv, to_log_returns
from mgpch.errors import InvalidArgumentError
from mgpch.garch import (
    GarchParams,
    garch_filter,
    garch_fit,
    garch_forecast,
    garch_log_likelihood,
)

LOG_2PI = float(np.log(2.0 * np.pi))


def simulate_garch(params, T, seed):
    rng = np.random.default_rng(seed)
    r = np.empty(T)
    sigma2 = params.unconditional_variance
    for t in range(T):
        r[t] = np.sqrt(sigma2) * rng.standard_normal()
        sigma2 = params.omega + params.a * r[t] ** 2 + params.b * sigma2
    return r


class TestParams:
    def test_unconditional_variance(self):
        p = GarchParams(omega=1e-5, a=0.1, b=0.85)
        assert_allclose(p.unconditional_variance, 2e-4, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            GarchParams(omega=0.0, a=0.1, b=0.1)
        with pytest.raises(InvalidArgumentError):
            GarchParams(omega=1e-5, a=-0.1, b=0.5)
        with pytest.raises(InvalidArgumentError):
            GarchParams(omega=1e-5, a=0.3, b=0.7)


class TestFilter:
    def test_recursion_by_hand(self):
        p = GarchParams(omega=0.1, a=0.2, b=0.5)
        r = np.array([1.0, -2.0, 0.5])
        v0 = float(np.var(r))
        sigma2 = garch_filter(p, r)
        assert_allclose(sigma2[0], v0)
        assert_allclose(sigma2[1], 0.1 + 0.2 * 1.0 + 0.5 * v0, rtol=1e-12)
        assert_allclose(sigma2[2], 0.1 + 0.2 * 4.0 + 0.5 * sigma2[1], rtol=1e-12)

    def test_constant_series_has_no_positive_start(self):
        p = GarchParams(omega=0.1, a=0.2, b=0.5)
        with pytest.raises(InvalidArgumentError, match="initial variance must be positive"):
            garch_filter(p, np.array([1.0, 1.0]))


class TestForecast:
    def setup_method(self):
        self.params = GarchParams(omega=1e-5, a=0.1, b=0.85)

    def test_one_step_hand_value(self):
        out = garch_forecast(self.params, last_r_sq=4e-4, last_var=2e-4, h=1)
        assert_allclose(out, 1e-5 + 0.1 * 4e-4 + 0.85 * 2e-4, rtol=1e-12)
        assert_allclose(out, 2.2e-4, rtol=1e-12)

    def test_long_horizon_reaches_unconditional_level(self):
        out = garch_forecast(self.params, last_r_sq=2.5e-3, last_var=1e-3, h=1000)
        assert_allclose(out, self.params.unconditional_variance, rtol=1e-9)

    def test_decay_is_monotone_toward_the_limit(self):
        out = [garch_forecast(self.params, 2.5e-3, 1e-3, h) for h in (1, 7, 30)]
        limit = self.params.unconditional_variance
        assert out[0] > out[1] > out[2] > limit

    def test_forecasts_are_positive_scalars(self):
        out = garch_forecast(self.params, 0.0, 1e-8, h=3)
        assert isinstance(out, float) and out > 0.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            garch_forecast(self.params, 0.0, 1e-4, h=0)
        with pytest.raises(InvalidArgumentError):
            garch_forecast(self.params, -1e-4, 1e-4, h=1)
        with pytest.raises(InvalidArgumentError):
            garch_forecast(self.params, 1e-4, 0.0, h=1)

    @pytest.mark.parametrize("h", [1.5, True, "2"])
    def test_non_integer_horizon_rejected(self, h):
        with pytest.raises(InvalidArgumentError, match="h must be an integer >= 1"):
            garch_forecast(self.params, 1e-4, 1e-4, h)


class TestFit:
    def test_likelihood_never_below_constant_baseline(self):
        rng = np.random.default_rng(0)
        r = 0.01 * rng.standard_normal(300)
        params = garch_fit(r)
        v = float(np.var(r))
        baseline = -0.5 * float(np.sum(LOG_2PI + np.log(v) + r**2 / v))
        assert garch_log_likelihood(params, r) >= baseline - 1e-9

    def test_iid_returns_fit_close_to_constant_variance(self):
        rng = np.random.default_rng(5)
        r = 0.01 * rng.standard_normal(5000)
        params = garch_fit(r)
        assert params.a + params.b < 0.15
        assert abs(params.unconditional_variance / float(np.var(r)) - 1.0) < 0.3

    def test_recovers_simulated_dynamics(self):
        truth = GarchParams(omega=2e-6, a=0.12, b=0.82)
        r = simulate_garch(truth, 4000, seed=3)
        params = garch_fit(r)
        assert abs(params.a - truth.a) < 0.08
        assert abs(params.b - truth.b) < 0.10
        assert 0.3 < params.unconditional_variance / truth.unconditional_variance < 3.0

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        r = 0.02 * rng.standard_normal(200)
        assert garch_fit(r) == garch_fit(r)

    def test_a_probe_outside_the_parameter_domain_scores_inf(self, tmp_path):
        # asset 1's window [98, 218) of the README CLI session's prices: L-BFGS-B
        # from the fifth start probes log omega near 3274, where omega overflows
        # to inf; the fit raised "omega must be positive" and warned of the overflow
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"simulate": {"n_dims": 2}}))
        prices = tmp_path / "prices.csv"
        assert run_command(["simulate", "--config", str(config), "--out", str(prices), "--seed", "7"]) == 0
        r = to_log_returns(load_price_csv(str(prices))).returns[98:218, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = garch_fit(r)
        assert_allclose([params.omega, params.a], [0.5771, 0.8285], atol=1e-4)
        assert garch_log_likelihood(params, r) > garch_log_likelihood(GarchParams(float(np.var(r)), 0.0, 0.0), r)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            garch_fit(np.ones(50))
        with pytest.raises(InvalidArgumentError):
            garch_fit(0.01 * np.arange(29))  # below the fitting minimum
        with pytest.raises(InvalidArgumentError):
            garch_fit(np.concatenate([0.01 * np.ones(40), [np.nan]]))
        with pytest.raises(InvalidArgumentError):
            garch_fit(0.01 * np.ones((2, 40)))


def test_importing_the_package_loads_neither_scipy_signal_nor_scipy_stats():
    # garch_filter imports scipy.signal on its first call; at module level it
    # would load scipy.stats with it and double the package's import time
    src = os.path.dirname(os.path.dirname(mgpch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, mgpch; print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
