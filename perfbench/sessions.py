"""The benchmark workloads: one user session per round.

A round runs simulate -> rolling refits -> forecasts -> save and load of
each refit's model, timing each stage, and then checks every output
outside the timed regions.  The simulate draws and the loads are split
over the round, so that their samples do not all meet the same state of
the host.  Round k reads segment k of the workload's panel (see
datagen.py), and a run performs whole passes over the panel.  Every fit
runs with mgpch's default iteration cap and tolerance, as users run it.
"""

import contextlib
import io
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import mgpch
import mgpch.cli

import datagen
import oracle

C = 3
# The CLI defaults to ten components; every workload fits three.
TRUNCATION = str(C)
# Simulator draws use fixed seeds, so its statistical checks give the same
# verdict on every run.
SIM_SEEDS = (0, 1, 2)
SIM_LOG_VARIANCE = float(np.log(1e-4))


@dataclass
class Tally:
    """Samples of the end-to-end metrics and the outcome of every checked operation."""

    refit_s: list = field(default_factory=list)
    forecast_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    model_bytes: list = field(default_factory=list)
    simulate_s: list = field(default_factory=list)
    free_energy_per_obs: list = field(default_factory=list)
    fits: list = field(default_factory=list)  # (N, sweeps, final free energy)
    attempted: int = 0
    failed: Counter = field(default_factory=Counter)

    def timed(self, samples, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        samples.append(time.perf_counter() - start)
        return result

    def check(self, kind, ok):
        self.attempted += 1
        if not ok:
            self.failed[kind] += 1

    def record_fit(self, model):
        trace = model.free_energy_trace
        n = model.X.shape[0]
        self.fits.append((n, model.trace_labels.count("noise"), float(trace[-1])))
        self.free_energy_per_obs.append(float(trace[-1]) / n)
        self.check("fit", oracle.fit_ok(trace))


def _agree(a, b, rtol):
    """Equal arrays, or within rtol of each other when rtol > 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=0.0))


def _same_forecast(got, got_cov, want, want_cov, rtol=0.0):
    """A forecast and its covariances agree with another, bit for bit by default."""
    names = ("mean", "variance", "weights", "noise_log_mean", "noise_log_var")
    return all(_agree(getattr(got, n), getattr(want, n), rtol) for n in names) and _agree(got_cov, want_cov, rtol)


class _Forecaster:
    """Backtest forecaster built from one timed refit through mgpch's public functions."""

    def __init__(self, session, tally, window_returns):
        self.tally = tally
        X, Y = window_returns[:-1], window_returns[1:]
        start = time.perf_counter()
        self.model = mgpch.fit(X, Y, session.config)
        self.pairs = {
            pair: mgpch.train_pairwise(pair, self.model, (X, Y), session.family) for pair in session.pairs
        }
        tally.refit_s.append(time.perf_counter() - start)
        self.forecasts = []  # (x, moments, (pair, covariance) or None)

    def forecast(self, x, pair=None):
        start = time.perf_counter()
        moments = mgpch.predict(self.model, x)
        cov = None if pair is None else mgpch.predictive_covariance(self.pairs[pair], moments, pair, x)
        self.tally.forecast_s.append(time.perf_counter() - start)
        self.forecasts.append((np.array(x, dtype=float), moments, None if pair is None else (pair, cov)))
        return moments, cov

    def predict_variance(self, x_star, h):
        return self.forecast(x_star)[0].variance

    def predict_covariance(self, x_star, h, pair):
        return self.forecast(x_star, pair)[1]

    def advance(self, r_row):
        pass


class LibrarySession:
    """Rolling refits driven through mgpch's public library functions."""

    window = 120
    retrain_every = 20
    loads = 3
    # Relative tolerance of the loaded model's forecasts against the
    # in-memory model's; 0 asks for identical bits.
    load_rtol = 0.0

    def __init__(self, segments, workdir):
        self.segments = segments
        self.dims = segments[0].shape[1]
        self.workdir = workdir
        self.pairs = [(i, j) for i in range(self.dims) for j in range(i + 1, self.dims)]
        self.family = mgpch.Clayton()
        self.sim_config = mgpch.MgpchConfig(pyp=mgpch.PypConfig(truncation=C), m_tilde=SIM_LOG_VARIANCE)

    def _series(self, returns):
        names = tuple(f"asset{d}" for d in range(self.dims))
        return mgpch.ReturnSeries(timestamps=tuple(range(returns.shape[0])), returns=returns, asset_names=names)

    def warm_up(self):
        """One untimed draw: the first simulate call in a process takes two to three times as long as later ones."""
        mgpch.simulate(self.sim_config, self.sim_points, self.dims, seed=SIM_SEEDS[0])

    def run(self, k, tally):
        """The timed session of round k; returns what the checks need."""
        returns = self.segments[k]
        series = self._series(returns)
        out = {"returns": returns, "draws": []}

        def simulate(seed):
            draw = tally.timed(tally.simulate_s, mgpch.simulate, self.sim_config, self.sim_points, self.dims, seed=seed)
            out["draws"].append(draw)

        simulate(SIM_SEEDS[0])
        forecasters, saved = [], []

        def persist(forecaster, x):
            """Save a refit's model, then load it and issue its first forecast at x, `loads` times."""
            path = os.path.join(self.workdir, f"model-{len(saved)}.json")
            mgpch.save_model(path, forecaster.model, pairwise=forecaster.pairs or None)
            tally.model_bytes.append(os.path.getsize(path))
            loaded = []
            for _ in range(self.loads):
                start = time.perf_counter()
                model, pairwise = mgpch.load_model(path)
                moments = mgpch.predict(model, x)
                cov = [mgpch.predictive_covariance(pairwise[p], moments, p, x) for p in self.pairs]
                tally.load_s.append(time.perf_counter() - start)
                loaded.append((model, pairwise, moments, cov))
            saved.append((forecaster, path, x, loaded))

        def factory(window_returns, origin):
            # Each model is published when the next refit replaces it, which
            # spreads the loads over the round.
            if forecasters:
                persist(forecasters[-1], window_returns[-1])
            forecasters.append(_Forecaster(self, tally, window_returns))
            return forecasters[-1]

        config = mgpch.BacktestConfig(
            window=self.window, retrain_every=self.retrain_every, horizons=(1,), model=self.config
        )
        if self.pairs:
            out["report"] = mgpch.run_covariance_backtest(series, config, self.family, forecaster_factory=factory)
        else:
            out["report"] = mgpch.run_volatility_backtest(series, config, forecaster_factory=factory)
        persist(forecasters[-1], returns[-1])
        simulate(SIM_SEEDS[1])
        out["garch"] = self.baseline(series)
        simulate(SIM_SEEDS[2])
        out.update(forecasters=forecasters, saved=saved)
        return out

    def baseline(self, series):
        return None

    def check(self, out, tally):
        for d in out["draws"]:
            tally.check("simulation", oracle.simulation_ok(d.X, d.Y, d.variances, d.assignments, d.weights))
        tally.check("backtest report", oracle.report_ok(out["report"]))
        for f in out["forecasters"]:
            tally.record_fit(f.model)
            tau, phi = oracle.noise_conditional(f.model, np.array([x for x, _, _ in f.forecasts]))
            for i, (x, moments, cov) in enumerate(f.forecasts):
                tally.check("forecast", oracle.forecast_ok(moments, tau[i], phi[i], f.model))
                if cov is not None:
                    pair, value = cov
                    theta = mgpch.conditional_theta(f.pairs[pair], x)
                    tally.check("covariance", oracle.covariance_ok(value, theta, moments, pair))

        for forecaster, path, x, loaded in out["saved"]:
            moments = mgpch.predict(forecaster.model, x)
            cov = [mgpch.predictive_covariance(forecaster.pairs[p], moments, p, x) for p in self.pairs]
            for _, _, got, got_cov in loaded:
                tally.check("saved model", _same_forecast(got, got_cov, moments, cov, self.load_rtol))
            resaved = os.path.join(self.workdir, "model-resaved.json")
            model, pairwise, _, _ = loaded[0]
            mgpch.save_model(resaved, model, pairwise=pairwise or None)
            with open(path, "rb") as a, open(resaved, "rb") as b:
                tally.check("saved model", a.read() == b.read())


class UniVol(LibrarySession):
    """One asset, zero mean kernel: time goes to the dense noise update on scalar inputs."""

    sim_points = 700

    def __init__(self, segments, workdir):
        super().__init__(segments, workdir)
        self.config = mgpch.MgpchConfig(pyp=mgpch.PypConfig(truncation=C))

    def baseline(self, series):
        config = mgpch.BacktestConfig(
            window=self.window, retrain_every=self.retrain_every, horizons=(1, 5), model="garch"
        )
        return mgpch.run_volatility_backtest(series, config)

    def check(self, out, tally):
        super().check(out, tally)
        report = out["garch"]
        tally.check("backtest report", oracle.report_ok(report))
        for kind, ok in oracle.garch_checks(out["returns"], report, self.window, mgpch.garch_fit):
            tally.check(kind, ok)


class PairCov(LibrarySession):
    """Two assets, AR(1) mean kernels and a Clayton covariance backtest."""

    sim_points = 600
    loads = 4
    # With a mean kernel the loaded forecast differs from the in-memory one
    # in the last bits on some inputs but not all: loading rebuilds the
    # noise precisions as 1 / exp(m - S/2) where the fit keeps
    # exp(S/2 - m).  A check that fails on some inputs only cannot be
    # counted, so pair-cov allows a few ulps.
    load_rtol = 1e-13
    # Mean-function kernel: correlation 1/2 at a distance of 0.01 between
    # return vectors, standard deviation 0.003.
    mean_kernel = mgpch.Ar1Kernel(phi=float(np.exp(np.log(0.5) / 0.01)), sigma0_sq=1e-5)

    def __init__(self, segments, workdir):
        super().__init__(segments, workdir)
        self.config = mgpch.MgpchConfig(
            pyp=mgpch.PypConfig(truncation=C), mean_kernels=(self.mean_kernel,) * C
        )


class CliLarge:
    """The README's CLI session, in-process, on a longer two-asset series."""

    dims = 2
    sim_points = 600

    def __init__(self, data, workdir):
        self.workdir = workdir
        self.data = data
        self.sim_config = os.path.join(workdir, "simulate.json")
        with open(self.sim_config, "w", encoding="utf-8") as handle:
            json.dump({"mgpch": {"m_tilde": SIM_LOG_VARIANCE}, "simulate": {"n_points": self.sim_points, "n_dims": self.dims}}, handle)

    @staticmethod
    def _cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            status = mgpch.cli.run_command(argv)
        if status != 0:
            raise RuntimeError(f"mgpch {' '.join(argv)} exited with status {status}")

    def _simulate_argv(self, path, seed):
        return ["simulate", "--config", self.sim_config, "--out", path, "--seed", str(seed), "--truncation", TRUNCATION]

    def warm_up(self):
        """One untimed simulate subcommand, as LibrarySession.warm_up."""
        self._cli(self._simulate_argv(os.path.join(self.workdir, "sim-warm-up.csv"), SIM_SEEDS[0]))

    def run(self, k, tally):
        w = self.workdir
        data = self.data[k]
        sims = []

        def simulate(seed):
            sims.append(os.path.join(w, f"sim-{seed}.csv"))
            tally.timed(tally.simulate_s, self._cli, self._simulate_argv(sims[-1], seed))

        simulate(SIM_SEEDS[0])
        model = os.path.join(w, "model.json")
        argv = ["fit", "--data", data, "--out", model, "--family", "clayton", "--truncation", TRUNCATION, "--seed", "0"]
        # Keep the fitted model the subcommand saves, to check its loaded
        # copy against it; whatever save_model is bound (the tracer's
        # wrapper in a traced round) still does the saving.
        save, fitted = mgpch.cli.save_model, []

        def keep(path, model, pairwise=None):
            fitted.append((model, pairwise))
            return save(path, model, pairwise=pairwise)

        mgpch.cli.save_model = keep
        try:
            tally.timed(tally.refit_s, self._cli, argv)
        finally:
            mgpch.cli.save_model = save
        tally.model_bytes.append(os.path.getsize(model))
        forecasts = []

        def predict():
            forecasts.append(os.path.join(w, f"forecast-{len(forecasts)}.json"))
            argv = ["predict", "--model", model, "--data", data, "--horizons", "1", "--out", forecasts[-1]]
            tally.timed(tally.load_s, self._cli, argv)
            tally.forecast_s.append(tally.load_s[-1])

        for seed in SIM_SEEDS[1:]:
            predict()
            predict()
            simulate(seed)
        return {"sims": sims, "model": model, "fitted": fitted[0], "forecasts": forecasts}

    def check(self, out, tally):
        for path in out["sims"]:
            with open(path[:-4] + "-truth.json", encoding="utf-8") as handle:
                truth = json.load(handle)
            Y = np.diff(np.log(datagen.read_prices(path)), axis=0)
            ok = oracle.simulation_ok(None, Y, truth["variances"], truth["assignments"], truth["weights"])
            tally.check("simulation", ok)
        model, pairwise = out["fitted"]
        tally.record_fit(model)
        for path in out["forecasts"]:
            with open(path, encoding="utf-8") as handle:
                issued = json.load(handle)
            x_star = np.array(issued["x_star"])
            entry = issued["horizons"]["1"]
            # The subcommand forecast from the loaded file; the in-memory
            # model must give the same bits.
            moments = mgpch.predict(model, x_star)
            cov = mgpch.predictive_covariance(pairwise[(0, 1)], moments, (0, 1), x_star)
            same = entry["variance"] == moments.variance.tolist() and entry["mean"] == moments.mean.tolist()
            tally.check("saved model", same and entry["covariance"]["0-1"] == cov)
            tau, phi = oracle.noise_conditional(model, x_star[None, :])
            tally.check("forecast", oracle.forecast_ok(moments, tau[0], phi[0], model))
            theta = mgpch.conditional_theta(pairwise[(0, 1)], x_star)
            tally.check("covariance", oracle.covariance_ok(cov, theta, moments, (0, 1)))
        loaded, loaded_pairwise = mgpch.load_model(out["model"])
        resaved = os.path.join(self.workdir, "model-resaved.json")
        mgpch.save_model(resaved, loaded, pairwise=loaded_pairwise)
        with open(out["model"], "rb") as a, open(resaved, "rb") as b:
            tally.check("saved model", a.read() == b.read())


WORKLOADS = {"uni-vol": UniVol, "pair-cov": PairCov, "cli-large": CliLarge}

