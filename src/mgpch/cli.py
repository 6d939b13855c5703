"""Command-line front end.

Subcommands cover the full pipeline: ``simulate`` writes a synthetic
price CSV plus a ground-truth file, ``fit`` trains a model on a price
CSV, ``predict`` writes the mixture's forecast from a model file under
each requested horizon, and ``backtest``/``cov-backtest`` run the
rolling evaluation.  ``fit`` and ``predict`` fit and forecast through
the backtest's mixture forecaster.  The mixture forecasts one step
ahead, so every horizon carries the same one-step moments; only the
GARCH baseline's backtest advances its recursion to the horizon.

Values come from an optional JSON run configuration (``--config``);
command-line flags override it.  Every artifact is JSON with sorted
keys or plain CSV, with no timestamps or machine identifiers, so a
fixed seed reproduces output files byte for byte.
"""

import argparse
import csv
import json
import sys
from dataclasses import fields

import numpy as np

from .backtest import (
    HIST_VOL_WINDOW,
    BacktestConfig,
    _fit_forecaster,
    _MgpchForecaster,
    horizon_set,
    run_covariance_backtest,
    run_volatility_backtest,
)
from .copula import FAMILIES, family_from_name
from .data_io import (
    load_price_csv,
    prices_from_returns,
    to_log_returns,
    write_price_csv,
)
from .errors import FormatError, MgpchError
from .model import MgpchConfig, simulate
from .pyp import PypConfig
from .serialize import dump_json, load_model, save_model

__all__ = ["main", "run_command"]

REPORT_FORMAT = "mgpch-backtest-report"
FORECAST_FORMAT = "mgpch-forecast"
TRUTH_FORMAT = "mgpch-simulation-truth"

# Each table maps a key to what its value must hold: a type, ``[kind]``
# for a list of that kind, a tuple of alternatives, or a nested table for
# a section.  An int is never a bool, and a float is any number.
_MGPCH_KEYS = {
    "truncation": int,
    "delta": float,
    "eta1": float,
    "eta2": float,
    "m_tilde": (type(None), float, [float], [[float]]),
    "max_iters": int,
    "tol": float,
}
_BACKTEST_KEYS = {
    "window": int,
    "retrain_every": int,
    "horizons": [int],
    "model": str,
}
_SIMULATE_KEYS = {"n_points": int, "n_dims": int}
_TOP_KEYS = {
    "data": str,
    "model": str,
    "out": str,
    "seed": int,
    "family": str,
    "horizons": [int],
    "plot_data": str,
    "mgpch": _MGPCH_KEYS,
    "backtest": _BACKTEST_KEYS,
    "simulate": _SIMULATE_KEYS,
}
_KIND_NAMES = {int: "integer", float: "number", str: "string", bool: "boolean", type(None): "null"}


def _holds(value, kind):
    if isinstance(kind, tuple):
        return any(_holds(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_holds(v, kind[0]) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _kind_name(kind):
    if isinstance(kind, tuple):
        return " or ".join(_kind_name(k) for k in kind)
    if isinstance(kind, list):
        return "list of " + _kind_name(kind[0])
    return _KIND_NAMES[kind]


def _check_table(mapping, table, section=None):
    unknown = sorted(set(mapping) - set(table))
    if unknown:
        raise FormatError(f"unknown {section or 'config'} key(s): {', '.join(unknown)}")
    for key, value in mapping.items():
        kind = table[key]
        if isinstance(kind, dict):
            if not isinstance(value, dict):
                raise FormatError(f"config section {key!r} must be an object")
            _check_table(value, kind, section=key)
        elif not _holds(value, kind):
            name = f"{section}.{key}" if section else key
            raise FormatError(f"config key {name!r} must be of type {_kind_name(kind)}, got {value!r}")


def load_run_config(path):
    """Read a JSON run configuration and check its keys and value types."""
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config is not valid JSON: {exc}", line=exc.lineno) from exc
    if not isinstance(raw, dict):
        raise FormatError("config must be a JSON object")
    _check_table(raw, _TOP_KEYS)
    return raw


def _parse_horizons(text):
    try:
        horizons = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"horizons must be comma-separated integers, got {text!r}")
    return horizons


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mgpch",
        description="Mixture-of-GP conditional heteroscedasticity toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration; flags override it")
    common.add_argument("--data", help="price CSV path")
    common.add_argument("--model", help="model file to read (predict only)")
    common.add_argument("--out", help="output artifact path")
    common.add_argument("--seed", type=int, help="seed for full-run determinism")
    common.add_argument(
        "--horizons", type=_parse_horizons, help="comma-separated forecast horizons, e.g. 1,7,30"
    )
    common.add_argument(
        "--family",
        choices=tuple(FAMILIES),
        help="copula family for pairwise dependence",
    )
    common.add_argument("--truncation", type=int, help="mixture truncation level C")
    common.add_argument("--window", type=int, help="rolling training window length")
    common.add_argument("--retrain-every", type=int, help="days between refits")
    common.add_argument(
        "--plot-data",
        help="also write forecast-vs-realized rows as CSV (backtest subcommands)",
    )

    sub.add_parser("fit", parents=[common], help="fit a model on a price CSV")
    sub.add_parser("predict", parents=[common], help="forecast variances from a model file")
    sub.add_parser("backtest", parents=[common], help="rolling volatility backtest")
    sub.add_parser("cov-backtest", parents=[common], help="rolling pairwise covariance backtest")
    sub.add_parser("simulate", parents=[common], help="draw a synthetic price series")
    return parser


class _Run:
    """Effective settings: flag value if given, else config file, else default."""

    def __init__(self, args):
        self.args = args
        self.config = load_run_config(args.config) if args.config else {}

    def get(self, name, default=None):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        return self.config.get(name, default)

    def section(self, name):
        return self.config.get(name, {})

    def require(self, name, command):
        value = self.get(name)
        if value is None:
            raise _UsageError(f"{command} requires --{name.replace('_', '-')}")
        return value

    def mgpch_config(self):
        section = dict(self.section("mgpch"))
        if self.get("truncation") is not None:
            section["truncation"] = self.get("truncation")
        pyp_kwargs = {
            key: section[key] for key in ("delta", "eta1", "eta2", "truncation") if key in section
        }
        kwargs = {
            key: section[key]
            for key in ("max_iters", "tol")
            if key in section
        }
        if section.get("m_tilde") is not None:
            kwargs["m_tilde"] = np.asarray(section["m_tilde"], dtype=float)
        return MgpchConfig(pyp=PypConfig(**pyp_kwargs), seed=self.get("seed", 0), **kwargs)

    def backtest_config(self):
        section = dict(self.section("backtest"))
        if self.get("window") is not None:
            section["window"] = self.get("window")
        if self.get("retrain_every") is not None:
            section["retrain_every"] = self.get("retrain_every")
        if self.get("horizons") is not None:
            section["horizons"] = tuple(self.get("horizons"))
        model_tag = section.pop("model", "mgpch")
        if model_tag == "mgpch":
            model = self.mgpch_config()
        elif model_tag == "garch":
            model = "garch"
        else:
            raise FormatError(f"backtest model must be 'mgpch' or 'garch', got {model_tag!r}")
        return BacktestConfig(model=model, **section)


class _UsageError(Exception):
    pass


def _load_returns(run, command):
    series = load_price_csv(run.require("data", command))
    return to_log_returns(series)


def _horizon_key(h):
    return str(int(h))


def cmd_fit(run):
    out = run.require("out", "fit")
    r = _load_returns(run, "fit").returns
    family_name = run.get("family")
    forecaster = _fit_forecaster(r, run.mgpch_config(), family_from_name(family_name) if family_name else None)
    save_model(out, forecaster.model, pairwise=forecaster.pair_models)
    print(f"wrote model to {out}")
    return 0


def cmd_predict(run):
    horizons = horizon_set(run.get("horizons") or BacktestConfig.horizons)
    forecaster = _MgpchForecaster(*load_model(run.require("model", "predict")))
    returns = _load_returns(run, "predict")
    xstar = returns.returns[-1]
    per_horizon = {}
    for h in horizons:
        moments = forecaster.moments(xstar, h)
        entry = {"mean": moments.mean.tolist(), "variance": moments.variance.tolist()}
        if forecaster.pair_models:
            pairs = sorted(forecaster.pair_models)
            entry["covariance"] = {f"{i}-{j}": float(forecaster.predict_covariance(xstar, h, (i, j))) for i, j in pairs}
        per_horizon[_horizon_key(h)] = entry
    out = run.require("out", "predict")
    dump_json(
        {
            "format": FORECAST_FORMAT,
            "version": 1,
            "asset_names": list(returns.asset_names),
            "x_star": [float(v) for v in xstar],
            "horizons": per_horizon,
        },
        out,
    )
    print(f"wrote forecasts to {out}")
    return 0


def _report_payload(report, config, kind):
    payload = {
        "format": REPORT_FORMAT,
        "version": 1,
        "kind": kind,
        "asset_names": list(report.asset_names),
        "horizons": list(report.horizons),
        "window": config.window,
        "retrain_every": config.retrain_every,
        "hist_vol_window": HIST_VOL_WINDOW,
        "refit_days": list(report.refit_days),
        "n_forecasts": len(report.forecast_log),
    }
    for f in fields(report):
        mse = getattr(report, f.name)
        if "mse" in f.name and mse:
            payload[f.name] = {_horizon_key(h): _mse_entry(mse[h]) for h in report.horizons}
    return payload


def _mse_entry(value):
    """One horizon's value of an MSE field: a per-asset array, a per-pair dict or a float."""
    if isinstance(value, dict):
        return {f"{i}-{j}": float(v) for (i, j), v in sorted(value.items())}
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    return float(value)


def _plot_cells(rec, names=False):
    """A forecast record's field values, or names, in order; a ``pair`` fills two cells, ``asset_i`` and ``asset_j``.

    csv writes a float as its repr, so the values round-trip.
    """
    cells = []
    for f in fields(rec):
        if f.name == "pair":
            cells.extend(("asset_i", "asset_j") if names else rec.pair)
        else:
            cells.append(f.name if names else getattr(rec, f.name))
    return cells


def _write_plot_data(path, report):
    """One CSV row per forecast record, under a header of its field names.

    The header is read from the first record: a report's log is never
    empty, since the schedule issues at least one forecast.
    """
    log = report.forecast_log
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_plot_cells(log[0], names=True))
        writer.writerows(_plot_cells(rec) for rec in log)


def cmd_backtest(run):
    """``backtest`` and ``cov-backtest``: one rolling evaluation, keyed by the report kind."""
    command = run.args.command
    out = run.require("out", command)
    returns = _load_returns(run, command)
    config = run.backtest_config()
    if command == "backtest":
        kind, report = "volatility", run_volatility_backtest(returns, config)
    else:
        family = run.get("family") or "clayton"
        kind, report = "covariance", run_covariance_backtest(returns, config, family)
    dump_json(_report_payload(report, config, kind), out)
    plot = run.get("plot_data")
    if plot:
        _write_plot_data(plot, report)
    print(f"wrote report to {out}")
    return 0


def cmd_simulate(run):
    section = run.section("simulate")
    n_points = section.get("n_points", 500)
    n_dims = section.get("n_dims", 1)
    seed = run.get("seed", 0)
    draw = simulate(run.mgpch_config(), n_points, n_dims, seed=seed)
    out = run.require("out", "simulate")
    series = prices_from_returns(draw.Y)
    write_price_csv(out, series)
    truth_path = (out[:-4] if out.endswith(".csv") else out) + "-truth.json"
    dump_json(
        {
            "format": TRUTH_FORMAT,
            "version": 1,
            "seed": seed,
            "variances": draw.variances.tolist(),
            "assignments": draw.assignments.tolist(),
            "weights": draw.weights.tolist(),
        },
        truth_path,
    )
    print(f"wrote prices to {out} and ground truth to {truth_path}")
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "backtest": cmd_backtest,
    "cov-backtest": cmd_backtest,
    "simulate": cmd_simulate,
}


def run_command(argv):
    """Parse argv and run one subcommand; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = _Run(args)
        return _COMMANDS[args.command](run)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MgpchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
