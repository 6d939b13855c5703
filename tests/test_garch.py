"""GARCH(1,1) filter, fit and forecasts."""

import itertools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import mgpch
import mgpch.garch
from mgpch.cli import run_command
from mgpch.data_io import load_price_csv, to_log_returns
from mgpch.errors import InvalidArgumentError
from mgpch.garch import (
    _BOUNDS,
    GarchParams,
    _negative_log_likelihood,
    _params_from_box,
    garch_filter,
    garch_fit,
    garch_forecast,
    garch_log_likelihood,
)

LOG_2PI = float(np.log(2.0 * np.pi))


def unconditional_variance(params):
    return params.omega / (1.0 - params.a - params.b)


def simulate_garch(params, T, seed):
    rng = np.random.default_rng(seed)
    r = np.empty(T)
    sigma2 = unconditional_variance(params)
    for t in range(T):
        r[t] = np.sqrt(sigma2) * rng.standard_normal()
        sigma2 = params.omega + params.a * r[t] ** 2 + params.b * sigma2
    return r


class TestParams:
    def test_unconditional_variance(self):
        # pins the helper the forecast and fit tests compare against
        p = GarchParams(omega=1e-5, a=0.1, b=0.85)
        assert_allclose(unconditional_variance(p), 2e-4, rtol=1e-12)

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
        assert_allclose(out, unconditional_variance(self.params), rtol=1e-9)

    def test_decay_is_monotone_toward_the_limit(self):
        out = [garch_forecast(self.params, 2.5e-3, 1e-3, h) for h in (1, 7, 30)]
        limit = unconditional_variance(self.params)
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

    @pytest.mark.parametrize("name", ["last_r_sq", "last_var"])
    @pytest.mark.parametrize("value", [True, "x", np.nan])
    def test_non_real_state_rejected(self, name, value):
        state = {"last_r_sq": 1e-4, "last_var": 1e-4, name: value}
        with pytest.raises(InvalidArgumentError, match=f"{name} must be a finite number"):
            garch_forecast(self.params, h=1, **state)

    @pytest.mark.parametrize("h", [1.5, True, "2"])
    def test_non_integer_horizon_rejected(self, h):
        with pytest.raises(InvalidArgumentError, match="h must be an integer >= 1"):
            garch_forecast(self.params, 1e-4, 1e-4, h)


def standardized(r):
    """The returns in units of their sample standard deviation, as ``garch_fit`` minimizes over them."""
    return r / np.sqrt(float(np.var(r)))


@st.composite
def objective_points(draw, scales=(-3.0, -1.0), log_omega=(-6.0, 6.0), inset=2e-6):
    """A return series of 30-200 days at a scale of 10**scales, and a box point.

    The point's log omega lies in ``log_omega`` and its persistence and
    share ``inset`` inside their faces.  a moves the variances on a scale
    of about omega / max z^2, so a smaller omega needs a shorter
    difference step than the gradient test's.
    """
    n = draw(st.integers(30, 200))
    scale = 10.0 ** draw(st.floats(*scales))
    r = scale * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    ranges = [log_omega, *((lo + inset, hi - inset) for lo, hi in _BOUNDS[1:])]
    return r, np.array([draw(st.floats(lo, hi, allow_subnormal=False)) for lo, hi in ranges])


CORNERS = [np.array(corner) for corner in itertools.product(*_BOUNDS)]


class TestObjective:
    @settings(max_examples=100, deadline=None)
    @given(objective_points())
    def test_gradient_matches_central_differences(self, case):
        r, x = case
        z = standardized(r)
        value, grad = _negative_log_likelihood(x, z)
        # garch_log_likelihood starts from np.var(z), 1 up to rounding
        assert_allclose(value, -garch_log_likelihood(_params_from_box(x, 1.0), z), rtol=1e-12)
        # fourth-order central differences, whose truncation error at h = 1e-6 is
        # far below the tolerance; the points lie 2h inside every face (at h = 1e-5
        # it reached 5e-7 of the gradient at log omega = -6, and at h = 1e-4 2e-5
        # at log omega = -5.7)
        h, diff = 1e-6, np.empty(3)
        for i, step in enumerate(h * np.eye(3)):
            f = [_negative_log_likelihood(x + k * step, z)[0] for k in (-2, -1, 1, 2)]
            diff[i] = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
        # the quotients' rounding, about eps |value| / h, bounds their error near a stationary point
        rounding = 10.0 * np.finfo(float).eps * abs(value) / h
        assert np.max(np.abs(grad - diff)) <= 1e-7 * np.max(np.abs(grad)) + rounding

    @settings(max_examples=100, deadline=None)
    @given(
        objective_points(scales=(-8.0, 150.0), log_omega=_BOUNDS[0], inset=0.0),
        st.sampled_from([None, *CORNERS]),
    )
    def test_value_and_gradient_are_finite_on_the_whole_box_at_any_scale(self, case, corner):
        r, x = case
        if corner is not None:
            x = corner
        # an underflow only rounds a tiny a or b toward 0, another point of the box
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            value, grad = _negative_log_likelihood(x, standardized(r))
        assert np.isfinite(value) and np.all(np.isfinite(grad))


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
        assert abs(unconditional_variance(params) / float(np.var(r)) - 1.0) < 0.3

    def test_recovers_simulated_dynamics(self):
        truth = GarchParams(omega=2e-6, a=0.12, b=0.82)
        r = simulate_garch(truth, 4000, seed=3)
        params = garch_fit(r)
        assert abs(params.a - truth.a) < 0.08
        assert abs(params.b - truth.b) < 0.10
        assert 0.3 < unconditional_variance(params) / unconditional_variance(truth) < 3.0

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        r = 0.02 * rng.standard_normal(200)
        assert garch_fit(r) == garch_fit(r)

    def test_a_window_whose_unbounded_fit_overflowed_fits_inside_the_box(self, tmp_path):
        # asset 1's window [98, 218) of the README CLI session's prices: L-BFGS
        # over an unbounded log omega probed log omega near 3274, where omega
        # overflows to inf; the box keeps every probe at a finite variance
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

    @pytest.mark.parametrize("exponent", [-12, -10, -9, -8, 0, 150])
    def test_fits_are_scale_free_with_every_floating_point_error_raised(self, exponent):
        # below 1e-8, an absolute tolerance on the constancy check rejected both series as constant
        dynamic = simulate_garch(GarchParams(omega=1e-5, a=0.35, b=0.6), 120, seed=0)
        dynamic /= np.std(dynamic)
        scale = 10.0**exponent
        for r in (dynamic, np.random.default_rng(0).standard_normal(120)):
            reference = garch_fit(r)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                params = garch_fit(scale * r)
            assert_allclose(
                [params.omega / scale**2, params.a, params.b], [reference.omega, reference.a, reference.b], rtol=1e-12
            )

    def test_the_exact_gradient_at_least_halves_the_filter_passes(self, monkeypatch):
        # on this window, the fit with difference gradients ran the filter 538 times
        # (536 objective calls, then the floor comparison's two) to log likelihood
        # 393.93121703729986; with the exact gradient under a sigmoid reparametrization
        # it ran it 137 times (135 objective calls), and inside the box it runs it 92
        # times, so a fallback to difference gradients fails here
        r = simulate_garch(GarchParams(omega=1e-5, a=0.35, b=0.6), 120, seed=0)
        calls = []
        run_filter = mgpch.garch._filter
        monkeypatch.setattr(mgpch.garch, "_filter", lambda *args: calls.append(args) or run_filter(*args))
        params = garch_fit(r)
        assert len(calls) <= 135
        assert params.a > 0.0 and garch_log_likelihood(params, r) >= 393.93121703729986 - 1e-6

    def test_validation(self):
        # np.var of 120 copies of 0.1 is 1.9e-34, not 0: only exact equality sees them as constant
        for constant in (np.ones(50), np.full(120, 0.1), np.full(120, 1e-12)):
            with pytest.raises(InvalidArgumentError, match="constant returns"):
                garch_fit(constant)
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
