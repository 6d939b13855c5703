"""
Rolling-window volatility backtest
==================================

Runs the evaluation harness on a simulated two-asset price history:
refit every 7 days on a 120-day window, forecast variance at horizons
of 1, 7 and 30 days, and score against squared returns and a 10-day
realized variance.  The same protocol is applied to the mixture model
and to per-asset GARCH(1, 1), so the rows are directly comparable.
"""

import numpy as np

from mgpch import (
    Ar1Kernel,
    BacktestConfig,
    MgpchConfig,
    PypConfig,
    prices_from_returns,
    run_volatility_backtest,
    simulate,
    to_log_returns,
)

###############################################################################
# Data: 420 days of two correlated-regime assets
# ----------------------------------------------

phi = 0.5 ** (1.0 / 0.06)
generator = MgpchConfig(
    pyp=PypConfig(delta=0.0, eta1=4.0, eta2=2.0, truncation=2),
    noise_kernels=(Ar1Kernel(phi=phi, sigma0_sq=(1.0 - phi**2) * 0.5),) * 2,
    m_tilde=np.array([[np.log(1e-4)] * 2, [np.log(1e-3)] * 2]),
)
draw = simulate(generator, 421, 2, seed=11)
series = to_log_returns(prices_from_returns(draw.Y))
print(f"{series.returns.shape[0]} days, assets {series.asset_names}")

###############################################################################
# One harness, two forecasters
# ----------------------------
# The window and cadence live in the config; swapping the model string
# is the only difference between the runs.

kernel = Ar1Kernel(phi=0.9, sigma0_sq=(1.0 - 0.81) * 0.3)
mixture = BacktestConfig(
    window=120,
    retrain_every=7,
    horizons=(1, 7, 30),
    model=MgpchConfig(
        pyp=PypConfig(truncation=1),
        noise_kernels=(kernel,),
        max_iters=40,
        seed=0,
    ),
)
garch = BacktestConfig(window=120, retrain_every=7, horizons=(1, 7, 30), model="garch")

report_m = run_volatility_backtest(series, mixture)
report_g = run_volatility_backtest(series, garch)
print(f"refits: {len(report_m.refit_days)}, forecasts logged: {len(report_m.forecast_log)}")

###############################################################################
# Scores
# ------
# Mean squared error against squared returns is dominated by the noise
# of the target itself; the 10-day realized variance is the smoother
# yardstick.

print("\nMSE vs 10-day realized variance (x1e9)")
print(f"{'horizon':>8} {'mixture':>12} {'garch':>12}")
for h in (1, 7, 30):
    m = report_m.avg_mse_hist_vol[h] * 1e9
    g = report_g.avg_mse_hist_vol[h] * 1e9
    print(f"{h:>8} {m:>12.3f} {g:>12.3f}")

print("\nMSE vs squared returns (x1e9)")
print(f"{'horizon':>8} {'mixture':>12} {'garch':>12}")
for h in (1, 7, 30):
    m = report_m.avg_mse_sq_returns[h] * 1e9
    g = report_g.avg_mse_sq_returns[h] * 1e9
    print(f"{h:>8} {m:>12.3f} {g:>12.3f}")
