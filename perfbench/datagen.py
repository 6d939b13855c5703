"""Benchmark inputs, made with numpy alone.

The benchmark never draws its inputs through ``mgpch.simulate``: a change
to the simulator must not change what the other stages fit.

Returns are daily-scale (variance about 1e-4). The variance follows a
fixed schedule of persistent regimes, multiplied by a slow AR(1) in log
space; two-asset returns share the regime and are correlated.

Each workload fits one fixed panel of segments, drawn from the generator
at PANEL_KEY, and a run visits the whole panel in every pass.  The cost
of a fit follows its sweep count, which the data set: with the default
iteration cap and tolerance, 120-day windows drawn alike took 17 to 200
sweeps, so a run's median refit time over nine seed-dependent windows
moved by two fifths from one seed to the next.  The seed therefore chooses
only the order of the panel, not its contents.
"""

import csv
import math
import os
from datetime import date, timedelta

import numpy as np

# Daily variances of the regimes, in the order they recur.
REGIME_VARIANCES = (1.0e-4, 0.4e-4, 2.5e-4, 0.7e-4, 1.6e-4)
REGIME_DAYS = 30
LOG_VARIANCE_PERSISTENCE = 0.97
LOG_VARIANCE_SD = 0.05
ASSET_SCALES = (1.0, 1.5)
CORRELATION = 0.6

PANEL_KEY = 20121118
# (segments, returns per segment, assets).  A uni-vol segment holds a
# 120-day window and three 20-day refit periods, a pair-cov segment two; a
# cli-large segment is one price file of 152 days.  Each panel is sized so
# that a 30-second run makes one pass over it.
PANELS = {"uni-vol": (3, 180, 1), "pair-cov": (3, 160, 2), "cli-large": (4, 151, 2)}


def inputs(workload, seed, workdir):
    """The workload's panel, starting at segment seed mod its size: return arrays, or price CSV paths for cli-large."""
    count, days, dims = PANELS[workload]
    order = [(seed + k) % count for k in range(count)]
    segments = [returns(PANEL_KEY, k, days, dims) for k in order]
    if workload != "cli-large":
        return segments
    paths = []
    for k, rets in enumerate(segments):
        paths.append(os.path.join(workdir, f"prices-{k}.csv"))
        write_prices(paths[-1], rets)
    return paths


def returns(key, segment, days, dims):
    """(days, dims) log returns for one segment drawn at one generator key."""
    rng = np.random.default_rng([key, segment])
    regime = (np.arange(days) // REGIME_DAYS) % len(REGIME_VARIANCES)
    log_var = np.log(np.asarray(REGIME_VARIANCES)[regime])
    drift = np.empty(days)
    drift[0] = rng.normal(0.0, LOG_VARIANCE_SD / math.sqrt(1.0 - LOG_VARIANCE_PERSISTENCE**2))
    for t in range(1, days):
        drift[t] = LOG_VARIANCE_PERSISTENCE * drift[t - 1] + rng.normal(0.0, LOG_VARIANCE_SD)
    z = rng.standard_normal((days, dims))
    if dims == 2:
        z[:, 1] = CORRELATION * z[:, 0] + math.sqrt(1.0 - CORRELATION**2) * z[:, 1]
    scale = np.asarray(ASSET_SCALES[:dims])
    return np.exp(0.5 * (log_var + drift))[:, None] * scale[None, :] * z


def write_prices(path, rets):
    """Write returns as a daily price CSV in the layout the mgpch CLI reads."""
    prices = 100.0 * np.exp(np.vstack([np.zeros((1, rets.shape[1])), np.cumsum(rets, axis=0)]))
    start = date(2020, 1, 1)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date"] + [f"asset{d}" for d in range(rets.shape[1])])
        for t, row in enumerate(prices):
            writer.writerow([(start + timedelta(days=t)).isoformat()] + [repr(float(p)) for p in row])


def read_prices(path):
    """Prices of a CSV written by :func:`write_prices` or by ``mgpch simulate``."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
