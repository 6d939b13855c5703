"""Fits on the inputs real return windows produce and random draws rarely do.

Each case builds a return window of one or two assets: 30% of its days
exactly zero, so inputs tie; returns rounded to a tick; a scale from 1e-6
to 1e2, which reaches the default noise kernel's clip below a median input
distance of 1.1e-3; six points under a truncation of ten; or inputs whose
two columns are equal.  Every fit must keep its free-energy trace
non-decreasing, its responsibilities normalized and its forecasts finite,
and a saved and reloaded model must forecast the same bits.
"""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mgpch.model as model_module
from mgpch.model import MgpchConfig, fit, predict_batch
from mgpch.pyp import PypConfig
from mgpch.serialize import load_model, save_model

CASES = ("zeros", "ticks", "scale", "few_points", "equal_columns")


def edge_window(case, n_assets, seed, log10_scale):
    """The inputs, outputs and truncation of one case: X is the previous day's returns and Y the next day's."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log10_scale if case == "scale" else 0.01
    days = 7 if case == "few_points" else 41
    r = scale * rng.standard_normal((days, n_assets))
    if case == "zeros":
        r[rng.choice(days, size=int(0.3 * days), replace=False)] = 0.0
    elif case == "ticks":
        tick = 0.005
        r = np.round(r / tick) * tick
    X, Y = r[:-1], r[1:]
    if case == "equal_columns":
        X = np.repeat(X[:, :1], 2, axis=1)
    return X, Y, 10 if case == "few_points" else 3


@settings(max_examples=50, deadline=None)
@given(
    case=st.sampled_from(CASES),
    n_assets=st.sampled_from((1, 2)),
    seed=st.integers(0, 2**32 - 1),
    log10_scale=st.floats(-6.0, 2.0),
)
@example(case="zeros", n_assets=1, seed=0, log10_scale=0.0)
@example(case="zeros", n_assets=2, seed=0, log10_scale=0.0)
@example(case="ticks", n_assets=1, seed=0, log10_scale=0.0)
@example(case="ticks", n_assets=2, seed=0, log10_scale=0.0)
@example(case="scale", n_assets=1, seed=0, log10_scale=-6.0)
@example(case="scale", n_assets=2, seed=0, log10_scale=2.0)
@example(case="few_points", n_assets=1, seed=0, log10_scale=0.0)
@example(case="few_points", n_assets=2, seed=0, log10_scale=0.0)
@example(case="equal_columns", n_assets=1, seed=0, log10_scale=0.0)
@example(case="equal_columns", n_assets=2, seed=0, log10_scale=0.0)
def test_edge_windows_fit_forecast_and_reload(case, n_assets, seed, log10_scale):
    X, Y, truncation = edge_window(case, n_assets, seed, log10_scale)
    model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=truncation), seed=seed))

    trace = np.asarray(model.free_energy_trace)
    assert np.all(np.isfinite(trace))
    assert np.all(np.diff(trace) >= -model_module._ACCEPT_SLACK * (1.0 + np.abs(trace[:-1])))
    np.testing.assert_allclose(model.state.R.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    inputs = X[-4:]
    forecast = predict_batch(model, inputs)
    assert np.all(np.isfinite(forecast.mean)) and np.all(np.isfinite(forecast.variance))
    assert np.all(forecast.variance > 0.0)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, model)
        loaded, _ = load_model(path)
    reloaded = predict_batch(loaded, inputs)
    assert np.array_equal(reloaded.mean, forecast.mean)
    assert np.array_equal(reloaded.variance, forecast.variance)
