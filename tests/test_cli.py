"""Command-line interface: exit codes, artifacts, determinism."""

import json
import subprocess
import sys

import pytest

from mgpch import backtest, cli
from mgpch.cli import run_command
from mgpch.copula import Clayton
from mgpch.serialize import save_model

ALL_FLAGS = (
    "--config",
    "--data",
    "--model",
    "--out",
    "--seed",
    "--horizons",
    "--family",
    "--truncation",
    "--window",
    "--retrain-every",
    "--plot-data",
)


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def simulate(tmp_path, seed=0, n_points=60, n_dims=1, name="prices.csv"):
    config = write_config(
        tmp_path,
        {"simulate": {"n_points": n_points, "n_dims": n_dims}},
        name=f"sim-{name}.json",
    )
    out = tmp_path / name
    assert run_command(["simulate", "--config", config, "--out", str(out), "--seed", str(seed)]) == 0
    return out


class TestUsage:
    def test_help_enumerates_every_flag(self, capsys):
        for command in ("fit", "predict", "backtest", "cov-backtest", "simulate"):
            assert run_command([command, "--help"]) == 0
            text = capsys.readouterr().out
            for flag in ALL_FLAGS:
                assert flag in text, f"{command} help is missing {flag}"

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_command(["fit", "--bogus"]) == 2
        assert run_command([]) == 2
        assert run_command(["fit", "--horizons", "1,x"]) == 2
        # an empty horizon list fails as any other non-integer part does
        for text in ("", ",", "1,,2"):
            assert run_command(["fit", "--horizons", text]) == 2
            assert f"horizons must be comma-separated integers, got {text!r}" in capsys.readouterr().err
        # backtests run one refit at a time; there is no worker count to set
        assert run_command(["backtest", "--threads", "2"]) == 2

    def test_fit_checks_out_before_reading_data_or_fitting(self, tmp_path, monkeypatch, capsys):
        def refit(*args, **kwargs):
            raise AssertionError("the model was fitted before --out was checked")

        monkeypatch.setattr(backtest, "fit", refit)
        data = simulate(tmp_path, seed=3)
        assert run_command(["fit", "--data", str(data), "--truncation", "2"]) == 2
        assert run_command(["fit", "--data", str(tmp_path / "absent.csv")]) == 2
        assert capsys.readouterr().err.count("usage error: fit requires --out\n") == 2

    def test_fit_model_is_no_output_name(self, tmp_path, monkeypatch, capsys):
        # --model names the file predict reads; fit without --out stops before fitting
        def refit(*args, **kwargs):
            raise AssertionError("the model was fitted without --out")

        monkeypatch.setattr(backtest, "fit", refit)
        data = simulate(tmp_path, seed=3)
        assert run_command(["fit", "--data", str(data), "--model", str(tmp_path / "m.json")]) == 2
        assert "usage error: fit requires --out\n" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_missing_required_value_is_usage_error(self, tmp_path, capsys):
        assert run_command(["predict", "--out", str(tmp_path / "f.json")]) == 2
        err = capsys.readouterr().err
        assert "requires --model" in err


class TestSimulate:
    def test_writes_prices_and_ground_truth(self, tmp_path):
        out = simulate(tmp_path, seed=4)
        truth = tmp_path / "prices-truth.json"
        assert out.exists() and truth.exists()
        payload = json.loads(truth.read_text())
        assert payload["format"] == "mgpch-simulation-truth"
        assert len(payload["variances"]) == 60

    def test_seed_determinism_and_sensitivity(self, tmp_path):
        a = simulate(tmp_path, seed=1, name="a.csv")
        b = simulate(tmp_path, seed=1, name="b.csv")
        c = simulate(tmp_path, seed=2, name="c.csv")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        assert (tmp_path / "a-truth.json").read_bytes() == (tmp_path / "b-truth.json").read_bytes()


@pytest.fixture(scope="module")
def prices(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    return tmp_path, simulate(tmp_path, seed=0)


class TestPipeline:
    def fit_args(self, prices, out, seed="1"):
        tmp_path, csv_path = prices
        config = write_config(tmp_path, {"mgpch": {"max_iters": 8}}, name="fit.json")
        return [
            "fit",
            "--config",
            config,
            "--data",
            str(csv_path),
            "--out",
            str(out),
            "--seed",
            seed,
            "--truncation",
            "1",
        ]

    def test_simulate_fit_predict_chain(self, prices, tmp_path):
        tmp_path_pipeline, csv_path = prices
        model = tmp_path / "model.json"
        forecast = tmp_path / "forecast.json"
        assert run_command(self.fit_args(prices, model)) == 0
        assert model.exists()
        assert (
            run_command(
                [
                    "predict",
                    "--model",
                    str(model),
                    "--data",
                    str(csv_path),
                    "--out",
                    str(forecast),
                    "--horizons",
                    "1,7,30",
                ]
            )
            == 0
        )
        payload = json.loads(forecast.read_text())
        assert payload["format"] == "mgpch-forecast"
        assert set(payload["horizons"]) == {"1", "7", "30"}
        assert all(v > 0 for v in payload["horizons"]["1"]["variance"])

    def test_predict_rejects_horizons_below_one(self, prices, tmp_path, capsys):
        _, csv_path = prices
        model = tmp_path / "model.json"
        forecast = tmp_path / "forecast.json"
        assert run_command(self.fit_args(prices, model)) == 0
        argv = ["predict", "--model", str(model), "--data", str(csv_path), "--out", str(forecast)]
        assert run_command(argv + ["--horizons", "0,-3"]) == 1
        assert "horizons must be an integer >= 1, got 0" in capsys.readouterr().err
        config = write_config(tmp_path, {"horizons": [7, 0]}, name="horizons.json")
        assert run_command(argv + ["--config", config]) == 1
        assert "horizons must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not forecast.exists()

    def test_fit_twice_same_seed_is_byte_identical(self, prices, tmp_path):
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        assert run_command(self.fit_args(prices, first)) == 0
        assert run_command(self.fit_args(prices, second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_fit_saves_through_the_cli_save_model(self, tmp_path, monkeypatch):
        # a caller that swaps mgpch.cli.save_model sees every model fit writes
        saved = []

        def record(path, model, pairwise=None):
            saved.append((model, pairwise))
            return save_model(path, model, pairwise=pairwise)

        monkeypatch.setattr(cli, "save_model", record)
        data = simulate(tmp_path, seed=5, n_points=40, n_dims=2, name="pair.csv")
        config = write_config(tmp_path, {"mgpch": {"max_iters": 4}}, name="fit.json")
        out = tmp_path / "model.json"
        argv = ["fit", "--config", config, "--data", str(data), "--out", str(out), "--truncation", "1", "--family", "clayton"]
        assert run_command(argv) == 0
        [(model, pairwise)] = saved
        assert model.state is not None and model.X.shape == (39, 2)
        assert list(pairwise) == [(0, 1)] and isinstance(pairwise[0, 1].family, Clayton)
        again = tmp_path / "again.json"
        save_model(again, model, pairwise=pairwise)
        assert again.read_bytes() == out.read_bytes()

    def test_console_script_matches_in_process_output(self, prices, tmp_path):
        _, csv_path = prices
        out = tmp_path / "sub.csv"
        result = subprocess.run(
            [sys.executable, "-m", "mgpch.cli", "simulate", "--out", str(out), "--seed", "0",
             "--config", write_config(tmp_path, {"simulate": {"n_points": 60}}, "s.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert out.read_bytes() == csv_path.read_bytes()


class TestBacktestCommands:
    def test_garch_backtest_writes_report_and_plot_data(self, prices):
        tmp_path, csv_path = prices
        config = write_config(
            tmp_path,
            {"backtest": {"window": 35, "retrain_every": 7, "horizons": [1], "model": "garch"}},
            name="bt.json",
        )
        out = tmp_path / "report.json"
        plot = tmp_path / "plot.csv"
        args = [
            "backtest",
            "--config",
            config,
            "--data",
            str(csv_path),
            "--out",
            str(out),
            "--plot-data",
            str(plot),
        ]
        assert run_command(args) == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "mgpch-backtest-report"
        assert payload["kind"] == "volatility"
        assert payload["refit_days"]
        assert plot.read_text().startswith("origin,horizon,fit_day,asset,value")

    @pytest.mark.parametrize("command", ["backtest", "cov-backtest"])
    def test_missing_out_is_a_usage_error_before_any_refit(self, prices, monkeypatch, capsys, command):
        def refit(*args, **kwargs):
            raise AssertionError("the backtest ran before --out was checked")

        monkeypatch.setattr(cli, "run_volatility_backtest", refit)
        monkeypatch.setattr(cli, "run_covariance_backtest", refit)
        _, csv_path = prices
        assert run_command([command, "--data", str(csv_path), "--window", "35"]) == 2
        assert f"{command} requires --out" in capsys.readouterr().err

    def test_window_larger_than_data_names_required_minimum(self, prices, capsys):
        tmp_path, csv_path = prices
        code = run_command(
            [
                "backtest",
                "--data",
                str(csv_path),
                "--out",
                str(tmp_path / "r.json"),
                "--window",
                "120",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "need at least 151" in err
        assert len(err.strip().splitlines()) == 1

    def test_cov_backtest_two_assets(self, tmp_path):
        csv_path = simulate(tmp_path, seed=5, n_points=50, n_dims=2, name="pair.csv")
        config = write_config(
            tmp_path,
            {
                "backtest": {"window": 40, "retrain_every": 30, "horizons": [1]},
                "mgpch": {"max_iters": 8},
            },
            name="cov.json",
        )
        out = tmp_path / "cov.json.out"
        plot = tmp_path / "cov-plot.csv"
        code = run_command(
            [
                "cov-backtest",
                "--config",
                config,
                "--data",
                str(csv_path),
                "--out",
                str(out),
                "--family",
                "frank",
                "--truncation",
                "1",
                "--plot-data",
                str(plot),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "covariance"
        assert list(payload["mse_pair_products"]["1"]) == ["0-1"]
        rows = plot.read_text().splitlines()
        assert rows[0] == "origin,horizon,fit_day,asset_i,asset_j,value,realized_product"
        assert len(rows) == 1 + payload["n_forecasts"]


class TestRunConfig:
    def test_unknown_keys_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {"windows": 10})
        assert run_command(["simulate", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown config key" in capsys.readouterr().err
        config = write_config(tmp_path, {"backtest": {"every": 3}}, name="r2.json")
        assert run_command(["simulate", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown backtest key" in capsys.readouterr().err
        config = write_config(tmp_path, {"mgpch": {"hyperopt_every": 5}}, name="r3.json")
        assert run_command(["simulate", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown mgpch key" in capsys.readouterr().err

    def test_threads_is_an_unknown_key(self, tmp_path, capsys):
        config = write_config(tmp_path, {"threads": 2})
        assert run_command(["backtest", "--config", config, "--out", str(tmp_path / "r.json")]) == 1
        assert "unknown config key(s): threads" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("forecast_only_at_retrain", True), ("hist_vol_window", 10)])
    def test_removed_backtest_settings_are_unknown_keys(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, {"backtest": {key: value}})
        assert run_command(["backtest", "--config", config, "--out", str(tmp_path / "r.json")]) == 1
        assert f"unknown backtest key(s): {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("predict", {"horizons": ["x"]}, "'horizons'"),
            ("backtest", {"backtest": {"window": "120"}}, "'backtest.window'"),
            ("fit", {"mgpch": {"truncation": "2"}}, "'mgpch.truncation'"),
            ("simulate", {"simulate": {"n_points": "x"}}, "'simulate.n_points'"),
            ("simulate", {"seed": True}, "'seed'"),
            ("backtest", {"backtest": {"horizons": [1, False]}}, "'backtest.horizons'"),
            ("fit", {"mgpch": {"tol": "1e-6"}}, "'mgpch.tol'"),
        ],
    )
    def test_wrong_typed_value_is_a_format_error_naming_the_key(self, tmp_path, capsys, command, payload, key):
        config = write_config(tmp_path, payload)
        assert run_command([command, "--config", config, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key} must be of type")
        assert len(err.strip().splitlines()) == 1

    def test_a_nan_m_tilde_is_an_error_naming_it(self, tmp_path, capsys):
        # Python's json reads the NaN literal, and simulate drew NaN variances from it
        config = tmp_path / "run.json"
        config.write_text('{"mgpch": {"m_tilde": NaN}}')
        out = tmp_path / "prices.csv"
        assert run_command(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == "error: m_tilde must be finite, got nan"
        assert not out.exists()

    def test_numbers_may_be_integers_and_m_tilde_nested_lists(self, tmp_path):
        payload = {"mgpch": {"tol": 0, "delta": 0, "m_tilde": [[-9, -8]], "max_iters": 1}}
        assert cli.load_run_config(write_config(tmp_path, payload)) == payload

    def test_flags_override_config_file(self, tmp_path):
        config = write_config(tmp_path, {"seed": 1, "simulate": {"n_points": 60}})
        flagged = tmp_path / "flagged.csv"
        pure = tmp_path / "pure.csv"
        assert run_command(["simulate", "--config", config, "--out", str(flagged), "--seed", "2"]) == 0
        assert run_command(["simulate", "--out", str(pure), "--seed", "2",
                            "--config", write_config(tmp_path, {"simulate": {"n_points": 60}}, "p.json")]) == 0
        assert flagged.read_bytes() == pure.read_bytes()

    def test_negative_fit_seed_is_an_error_not_a_traceback(self, tmp_path, capsys):
        data = simulate(tmp_path, seed=3)
        out = tmp_path / "m.json"
        assert run_command(["fit", "--data", str(data), "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.strip() == "error: seed must be an integer >= 0, got -1"
        assert not out.exists()

    @pytest.mark.parametrize("n_dims", [1, 2])
    def test_unknown_config_family_is_an_error_for_any_number_of_assets(self, tmp_path, monkeypatch, capsys, n_dims):
        def refit(*args, **kwargs):
            raise AssertionError("the model was fitted before the family was checked")

        monkeypatch.setattr(backtest, "fit", refit)
        data = simulate(tmp_path, seed=3, n_dims=n_dims)
        out = tmp_path / "m.json"
        config = write_config(tmp_path, {"family": "bogus"}, name="family.json")
        assert run_command(["fit", "--config", config, "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: unknown copula family name 'bogus'")
        assert not out.exists()

    def test_three_prices_are_too_few_to_fit(self, tmp_path, capsys):
        # three prices give two returns, so one (x, y) training pair; a fit needs two
        data = tmp_path / "short.csv"
        data.write_text("date,a\n2024-01-02,100.0\n2024-01-03,101.0\n2024-01-04,99.5\n")
        out = tmp_path / "m.json"
        assert run_command(["fit", "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == "error: at least 2 observations are required"
        assert not out.exists()

    def test_missing_data_file_is_a_data_error(self, tmp_path, capsys):
        code = run_command(
            ["fit", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
