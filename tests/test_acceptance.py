"""End-to-end acceptance battery.

Each test prints one summary line; together they gate the properties
the library is sold on: monotone inference, oracle-exact updates on a
tiny instance, the Dirichlet-process reduction, the volatility-recovery
ordering against the GARCH baseline,
copula correctness and recovery, evaluation-protocol fidelity, and
byte-level CLI determinism.
"""

import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtri

from mgpch.cli import run_command
from mgpch.copula import (
    Clayton,
    Frank,
    Gumbel,
    PairwiseCopulaModel,
    conditional_theta,
    copula_cdf,
    copula_log_density,
    predictive_covariance,
    train_pairwise,
)
from mgpch.backtest import BacktestConfig, historical_volatility, run_volatility_backtest
from mgpch.data_io import ReturnSeries
from mgpch.errors import QuadratureWarning
from mgpch.garch import garch_filter, garch_fit
from mgpch.kernels import Ar1Kernel
from mgpch.model import (
    MgpchConfig,
    MgpchModel,
    PredictiveMoments,
    _init_state,
    _make_context,
    fit,
    free_energy,
    predict,
    simulate,
    update_latent_functions,
    update_mixture_posteriors,
    update_noise_processes,
    update_responsibilities,
)
from mgpch.pyp import PypConfig, update_stick_posteriors

from oracles import expected_noise_variance
from test_model_updates import brute_force_free_energy, latent_covariances


def conclude(name, checks):
    """One printed line per battery; fails the test on any false check."""
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {name}" + (f" (failed: {', '.join(failed)})" if failed else ""))
    assert not failed, f"{name} failed: {failed}"


def median_distance_kernel(X, factor, marginal):
    d = np.abs(X[:, None, 0] - X[None, :, 0])
    med = float(np.median(d[np.triu_indices(X.shape[0], 1)]))
    phi = float(np.exp(np.log(0.5) / (factor * med)))
    return Ar1Kernel(phi=phi, sigma0_sq=(1.0 - phi**2) * marginal)


def test_free_energy_is_monotone_on_random_datasets():
    rng = np.random.default_rng(0)
    slack = 1e-8
    worst = 0.0
    for run in range(20):
        N = int(rng.integers(20, 151))
        D = int(rng.integers(1, 4))
        C = int(rng.integers(1, 6))
        X = rng.normal(0.0, 1.0, size=(N, 1))
        scale = np.exp(rng.normal(-2.0, 1.0, size=(1, D)))
        Y = scale * rng.standard_normal((N, D))
        if run % 3 == 0:
            Y[: N // 2] *= 5.0  # a variance break, so components matter
        config = MgpchConfig(
            pyp=PypConfig(delta=float(rng.uniform(0.0, 0.8)), truncation=C),
            max_iters=12,
            seed=run,
        )
        model = fit(X, Y, config)
        trace = np.asarray(model.free_energy_trace)
        drops = np.diff(trace) + slack * (1.0 + np.abs(trace[:-1]))
        worst = min(worst, float(drops.min())) if drops.size else worst
        assert drops.size >= 1
    conclude(
        f"free energy monotone across 20 random fits (worst slackened step {worst:.2e})",
        [("monotone", worst >= 0.0)],
    )


def test_every_update_matches_direct_summation_on_a_tiny_instance():
    # two observations, one component, one output: every posterior is 2x2
    X = np.array([[0.3], [-0.2]])
    Y = np.array([[0.04], [-0.01]])
    config = MgpchConfig(
        pyp=PypConfig(delta=0.0, truncation=1),
        mean_kernels=(Ar1Kernel(phi=0.5, sigma0_sq=0.4),),
        noise_kernels=(Ar1Kernel(phi=0.6, sigma0_sq=0.5),),
        m_tilde=np.log(2.5e-3),
        max_iters=0,
        seed=0,
    )
    ctx = _make_context(X, Y, config)
    state = _init_state(ctx)
    tol = 1e-10
    checks = []

    # the damped natural-gradient step from the initial state: Q_hat = q omega E[exp(-g)] / 2,
    # grad = Q_hat - q / 2 - Lam^-1 (m - m_tilde), and at s = 1 Q = Q_hat and m moves by
    # (Lam^-1 + diag Q_hat)^-1 grad
    lam = ctx.lam[0]
    q = state.R[:, 0]
    lam_inv = np.linalg.inv(lam)
    Q_hat = 0.5 * q * state.omega[0, 0] / expected_noise_variance(state.m[0, 0], state.s_diag[0, 0])
    grad = Q_hat - 0.5 * q - lam_inv @ (state.m[0, 0] - ctx.m_tilde[0, 0])
    m_direct = state.m[0, 0] + np.linalg.solve(lam_inv + np.diag(Q_hat), grad)
    update_noise_processes(state, ctx)
    Q = state.Q[0, 0]
    S_direct = np.linalg.inv(lam_inv + np.diag(Q))
    checks.append(("full noise step", np.allclose(Q, Q_hat, rtol=tol, atol=0.0)))
    checks.append(("noise mean", np.allclose(state.m[0, 0], m_direct, atol=tol)))
    checks.append(("noise covariance", np.allclose(state.S[0, 0], S_direct, atol=tol)))

    update_latent_functions(state, ctx)
    B = np.diag(q / expected_noise_variance(state.m[0, 0], state.s_diag[0, 0]))
    Sigma_direct = np.linalg.inv(np.linalg.inv(ctx.K[0]) + B)
    mu_direct = Sigma_direct @ B @ Y[:, 0]
    checks.append(("mean-function mean", np.allclose(state.mu[0, 0], mu_direct, atol=tol)))
    Sigma = latent_covariances(state, ctx)[0, 0]
    checks.append(("mean-function covariance", np.allclose(Sigma, Sigma_direct, atol=tol)))

    update_responsibilities(state, ctx)
    checks.append(("responsibilities", np.allclose(state.R, 1.0, atol=tol)))

    update_mixture_posteriors(state, ctx)
    checks.append(("stick posterior degenerate", state.sticks.beta1.size == 0))
    checks.append(
        (
            "innovation equals prior",
            state.innovation.eta1_hat == config.pyp.eta1
            and state.innovation.eta2_hat == config.pyp.eta2,
        )
    )

    value = free_energy(state, ctx)
    oracle = brute_force_free_energy(state, ctx)
    checks.append(("free energy", abs(value - oracle) < tol))
    conclude(
        f"tiny-instance updates match direct summation (free energy gap {abs(value - oracle):.1e})",
        checks,
    )


def test_zero_discount_sticks_equal_a_dirichlet_process_update():
    rng = np.random.default_rng(7)
    checks = []
    for C in (2, 4, 6):
        R = rng.dirichlet(np.ones(C), size=40)
        alpha_mean = float(rng.uniform(0.2, 4.0))
        sticks = update_stick_posteriors(R, 0.0, alpha_mean, C)
        mass = R.sum(axis=0)
        # independently coded DP update: Beta(1 + N_c, alpha + N_{>c}),
        # tail mass accumulated from the last component backwards
        beta1 = 1.0 + mass[: C - 1]
        tail = np.cumsum(mass[::-1])[::-1]
        beta2 = alpha_mean + tail[1:]
        checks.append((f"beta1 C={C}", np.array_equal(sticks.beta1, beta1)))
        checks.append((f"beta2 C={C}", np.array_equal(sticks.beta2, beta2)))
    conclude("zero-discount stick updates equal the Dirichlet-process form exactly", checks)


def test_two_regime_volatility_recovery_beats_garch_at_horizon_one():
    N, TRAIN = 500, 400
    phi_gen = 0.5 ** (1.0 / 0.06)
    generator = MgpchConfig(
        pyp=PypConfig(delta=0.0, eta1=4.0, eta2=2.0, truncation=2),
        noise_kernels=(Ar1Kernel(phi=phi_gen, sigma0_sq=(1.0 - phi_gen**2) * 0.5),) * 2,
        m_tilde=np.array([[np.log(1e-4)], [np.log(1e-3)]]),
    )
    ratios = []
    for seed in range(10):
        draw = simulate(generator, N, 1, seed=seed)
        Xtr, Ytr = draw.X[:TRAIN], draw.Y[:TRAIN]
        true_var = draw.variances[TRAIN:, 0]

        params = garch_fit(Ytr[:, 0])
        garch_mse = float(np.mean((garch_filter(params, draw.Y[:, 0])[TRAIN:] - true_var) ** 2))

        config = MgpchConfig(
            pyp=PypConfig(truncation=1),
            noise_kernels=(median_distance_kernel(Xtr, 3.0, 0.2),),
            max_iters=80,
            seed=0,
        )
        model = fit(Xtr, Ytr, config)
        predicted = np.array(
            [predict(model, draw.X[TRAIN + i]).variance[0] for i in range(N - TRAIN)]
        )
        mgpch_mse = float(np.mean((predicted - true_var) ** 2))
        ratios.append(garch_mse / mgpch_mse)
    wins = sum(r > 1.0 for r in ratios)
    conclude(
        f"two-regime volatility: mixture beats GARCH in {wins}/10 seeded runs "
        f"(MSE ratio geomean {math.exp(np.mean(np.log(ratios))):.2f})",
        [("wins at horizon 1 in at least 8 of 10", wins >= 8)],
    )


def standard_normal_moments():
    one = np.ones(2)
    return PredictiveMoments(
        mean=np.zeros(2),
        variance=one.copy(),
        weights=np.array([1.0]),
        component_means=np.zeros((1, 2)),
        component_mean_vars=np.zeros((1, 2)),
        noise_log_mean=np.zeros((1, 2)),
        noise_log_var=np.zeros((1, 2)),
        component_noise_vars=np.ones((1, 2)),
    )


def singleton_pair_model(family, score):
    return PairwiseCopulaModel(
        family=family,
        basis_points=np.zeros((1, 1)),
        w=np.array([float(score)]),
        lengthscale=1.0,
    )


def frank_sample(theta, n, rng):
    u = rng.uniform(size=n)
    p = rng.uniform(size=n)
    g1 = np.expm1(-theta)
    gu = np.expm1(-theta * u)
    v = -np.log1p(p * g1 / (1.0 + gu * (1.0 - p))) / theta
    return u, v


def test_copula_densities_cdfs_and_hoeffding_covariance():
    thetas = {
        Clayton(): (0.8, 3.0),
        Frank(): (-4.0, 5.0),
        Gumbel(): (1.5, 4.0),
    }
    nodes, weights = np.polynomial.legendre.leggauss(256)
    grid = 0.5 * (nodes + 1.0)
    w2 = 0.25 * np.outer(weights, weights)
    checks = []
    rng = np.random.default_rng(1)
    for family, family_thetas in thetas.items():
        name = type(family).__name__
        for theta in family_thetas:
            dens = np.exp(
                [
                    [copula_log_density(family, theta, gu, gv) for gv in grid]
                    for gu in grid
                ]
            )
            integral = float((w2 * dens).sum())
            checks.append((f"{name} theta={theta} integral", abs(integral - 1.0) < 1e-3))

        theta = family_thetas[1]
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            u, v = rng.uniform(0.05, 0.95, size=2)
            fd = (
                copula_cdf(family, theta, u + h, v + h)
                - copula_cdf(family, theta, u + h, v - h)
                - copula_cdf(family, theta, u - h, v + h)
                + copula_cdf(family, theta, u - h, v - h)
            ) / (4.0 * h * h)
            dens = math.exp(copula_log_density(family, theta, u, v))
            worst = max(worst, abs(dens - fd) / abs(fd))
        checks.append((f"{name} density vs cdf finite differences", worst < 1e-3))

    moments = standard_normal_moments()
    independent = singleton_pair_model(Gumbel(), -60.0)  # link gives theta exactly 1
    cov0 = predictive_covariance(independent, moments, (0, 1), np.zeros(1))
    checks.append(("independence covariance is zero", abs(cov0) < 1e-8))

    frank5 = singleton_pair_model(Frank(), 5.0)  # identity link
    quad = predictive_covariance(frank5, moments, (0, 1), np.zeros(1))
    n = 10**6
    u, v = frank_sample(5.0, n, np.random.default_rng(1))
    prod = ndtri(u) * ndtri(v)
    mc = float(np.mean(prod))
    se = float(np.std(prod, ddof=1) / np.sqrt(n))
    checks.append(("Frank theta=5 covariance within 3 SE of Monte Carlo", abs(quad - mc) < 3 * se))
    conclude(
        f"copula integrals, finite differences and covariance oracles "
        f"(Frank gap {abs(quad - mc) / se:.2f} SE)",
        checks,
    )


def test_clayton_recovery_and_family_agreement_on_pair_products():
    rng = np.random.default_rng(0)
    N = 400
    u = rng.uniform(size=N)
    p = rng.uniform(size=N)
    theta_true = 3.0
    v = (1.0 + u ** (-theta_true) * (p ** (-theta_true / (1.0 + theta_true)) - 1.0)) ** (
        -1.0 / theta_true
    )
    Y = np.column_stack([ndtri(u), ndtri(v)])
    X = ((np.arange(N) - N / 2) / N)[:, None]
    config = MgpchConfig(
        pyp=PypConfig(truncation=1),
        noise_kernels=(median_distance_kernel(X, 3.0, 0.3),),
        max_iters=60,
        seed=0,
    )
    model = fit(X, Y, config)
    moments = [predict(model, x) for x in X]
    products = Y[:, 0] * Y[:, 1]

    clayton = train_pairwise((0, 1), model, (X, Y), Clayton())
    theta_mean = float(np.mean([conditional_theta(clayton, x) for x in X]))

    mses = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureWarning)
        for family in (Clayton(), Frank(), Gumbel()):
            pairmodel = train_pairwise((0, 1), model, (X, Y), family)
            covs = np.array(
                [
                    predictive_covariance(pairmodel, moments[n], (0, 1), X[n])
                    for n in range(N)
                ]
            )
            mses[type(family).__name__] = float(np.mean((products - covs) ** 2))
    spread = max(mses.values()) / min(mses.values())
    conclude(
        f"Clayton recovery (theta mean {theta_mean:.2f} vs 3) and family MSE spread {spread:.3f}",
        [
            ("theta within a factor of two", 1.5 <= theta_mean <= 6.0),
            ("pair-product MSEs within 15%", spread <= 1.15),
        ],
    )


class _Foresight:
    def __init__(self, full_returns, origin):
        self.r = full_returns
        self.origin = origin

    def predict_variance(self, x_star, h):
        return self.r[self.origin + h] ** 2

    def advance(self, r_row):
        self.origin += 1


def test_backtest_protocol_fidelity():
    from datetime import date, timedelta

    rng = np.random.default_rng(42)
    r = 0.01 * rng.standard_normal((71, 2))
    series = ReturnSeries(
        timestamps=tuple(date(2021, 1, 1) + timedelta(days=t) for t in range(71)),
        returns=r,
        asset_names=("a", "b"),
    )
    config = BacktestConfig(window=40, retrain_every=7, horizons=(1, 7, 30))
    report = run_volatility_backtest(
        series, config, forecaster_factory=lambda w, o: _Foresight(r, o)
    )
    checks = [
        ("refit schedule matches hand count", report.refit_days == (39, 46, 53, 60, 67)),
        ("five refits for 31 origins every 7 days", len(report.refit_days) == math.ceil(31 / 7)),
    ]
    audit = all(
        rec.fit_day <= rec.origin
        and rec.origin + rec.horizon <= 70
        and rec.fit_day == max(t for t in report.refit_days if t <= rec.origin)
        for rec in report.forecast_log
    )
    checks.append(("forecast log shows no look-ahead", audit and len(report.forecast_log) > 0))
    checks.append(
        (
            "perfect foresight scores zero MSE",
            all(report.avg_mse_sq_returns[h] == 0.0 for h in (1, 7, 30)),
        )
    )

    ten = historical_volatility(np.array([0.01, -0.01] * 6), 10)
    checks.append(("ten-day variance of an alternating series", np.allclose(ten, 1e-4)))
    checks.append(
        ("two-point hand value", historical_volatility(np.array([1.0, -1.0]), 2)[0] == 1.0)
    )
    v = rng.standard_normal(15)
    direct = np.array([np.var(v[t : t + 10]) for t in range(6)])
    checks.append(
        ("ten-day windows match direct variances", np.allclose(historical_volatility(v, 10), direct, rtol=1e-12))
    )
    conclude("evaluation protocol fidelity (look-ahead audit, refits, ten-day variances)", checks)


def test_cli_pipeline_repeats_are_byte_identical(tmp_path):
    def pipeline(into):
        into.mkdir()
        config = into / "run.json"
        config.write_text(
            json.dumps(
                {
                    "simulate": {"n_points": 60, "n_dims": 2},
                    "mgpch": {"max_iters": 8},
                    "backtest": {"window": 40, "retrain_every": 30, "horizons": [1], "model": "garch"},
                }
            )
        )
        prices = into / "prices.csv"
        model = into / "model.json"
        forecast = into / "forecast.json"
        report = into / "report.json"
        plot = into / "plot.csv"
        base = ["--config", str(config), "--seed", "9"]
        assert run_command(["simulate", *base, "--out", str(prices)]) == 0
        assert run_command(
            ["fit", *base, "--data", str(prices), "--out", str(model), "--truncation", "1",
             "--family", "clayton"]
        ) == 0
        assert run_command(
            ["predict", *base, "--model", str(model), "--data", str(prices), "--out", str(forecast)]
        ) == 0
        assert run_command(
            ["backtest", *base, "--data", str(prices), "--out", str(report), "--plot-data", str(plot)]
        ) == 0
        truth = into / "prices-truth.json"
        return [prices, truth, model, forecast, report, plot]

    first = pipeline(tmp_path / "first")
    second = pipeline(tmp_path / "second")
    checks = []
    for a, b in zip(first, second):
        checks.append((a.name, a.exists() and a.read_bytes() == b.read_bytes()))
    conclude("CLI pipeline artifacts are byte-identical under a fixed seed", checks)
