"""CSV ingestion and log-return construction."""

import logging
import re
from datetime import date

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mgpch.data_io import (
    PriceSeries,
    ReturnSeries,
    load_price_csv,
    prices_from_returns,
    to_log_returns,
    write_price_csv,
)
from mgpch.errors import FormatError, InsufficientDataError, InvalidArgumentError

DAYS = (date(2024, 1, 2), date(2024, 1, 3))

WELL_FORMED = """date,spx,bond
2024-01-02,100.0,50.0
2024-01-03,101.0,49.5
2024-01-04,99.0,50.25
"""


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_well_formed_file(self, tmp_path):
        series = load_price_csv(write(tmp_path, WELL_FORMED))
        assert series.prices.shape == (3, 2)
        assert series.asset_names == ("spx", "bond")
        assert series.timestamps[0] == date(2024, 1, 2)
        assert_allclose(series.prices[1], [101.0, 49.5])

    def test_negative_price_row_dropped_with_one_warning(self, tmp_path, caplog):
        text = "date,a\n2024-01-02,100.0\n2024-01-03,-1.0\n2024-01-04,102.0\n"
        with caplog.at_level(logging.WARNING, logger="mgpch.data_io"):
            series = load_price_csv(write(tmp_path, text))
        assert series.prices.shape == (2, 1)
        assert len(caplog.records) == 1
        assert "line 3" in caplog.records[0].getMessage()

    def test_missing_cell_row_dropped(self, tmp_path, caplog):
        text = "date,a,b\n2024-01-02,100.0,50.0\n2024-01-03,,49.0\n2024-01-04,101.0,48.0\n"
        with caplog.at_level(logging.WARNING, logger="mgpch.data_io"):
            series = load_price_csv(write(tmp_path, text))
        assert series.prices.shape == (2, 2)
        assert series.timestamps == (date(2024, 1, 2), date(2024, 1, 4))
        assert len(caplog.records) == 1

    def test_out_of_order_dates_name_the_line(self, tmp_path):
        text = "date,a\n2024-01-03,100.0\n2024-01-02,101.0\n"
        with pytest.raises(FormatError) as info:
            load_price_csv(write(tmp_path, text))
        assert info.value.line == 3
        assert "line 3" in str(info.value)

    def test_duplicate_date_rejected(self, tmp_path):
        text = "date,a\n2024-01-02,100.0\n2024-01-02,101.0\n"
        with pytest.raises(FormatError) as info:
            load_price_csv(write(tmp_path, text))
        assert info.value.line == 3

    def test_bad_date_names_the_line(self, tmp_path):
        text = "date,a\n2024-01-02,100.0\nnot-a-date,101.0\n"
        with pytest.raises(FormatError) as info:
            load_price_csv(write(tmp_path, text))
        assert info.value.line == 3

    def test_non_numeric_price_is_structural(self, tmp_path):
        text = "date,a\n2024-01-02,100.0\n2024-01-03,oops\n"
        with pytest.raises(FormatError) as info:
            load_price_csv(write(tmp_path, text))
        assert info.value.line == 3

    def test_wrong_field_count_names_the_line(self, tmp_path):
        text = "date,a,b\n2024-01-02,100.0,50.0\n2024-01-03,100.0\n"
        with pytest.raises(FormatError) as info:
            load_price_csv(write(tmp_path, text))
        assert info.value.line == 3

    def test_too_few_surviving_rows(self, tmp_path, caplog):
        text = "date,a\n2024-01-02,100.0\n2024-01-03,-5.0\n"
        with caplog.at_level(logging.WARNING, logger="mgpch.data_io"):
            with pytest.raises(InsufficientDataError):
                load_price_csv(write(tmp_path, text))

    def test_empty_and_headerless_files(self, tmp_path):
        with pytest.raises(FormatError):
            load_price_csv(write(tmp_path, ""))
        with pytest.raises(FormatError):
            load_price_csv(write(tmp_path, "date\n2024-01-02\n"))


class TestSeriesTypes:
    def test_price_series_validation(self):
        days = (date(2024, 1, 2), date(2024, 1, 3))
        with pytest.raises(InvalidArgumentError):
            PriceSeries(days, np.array([[1.0], [-1.0]]), ("a",))
        with pytest.raises(InvalidArgumentError):
            PriceSeries(days[::-1], np.ones((2, 1)), ("a",))
        with pytest.raises(InvalidArgumentError):
            PriceSeries(days, np.ones((2, 1)), ("a", "b"))
        with pytest.raises(InvalidArgumentError):
            PriceSeries(days[:1], np.ones((2, 1)), ("a",))

    def test_return_series_validation(self):
        with pytest.raises(InvalidArgumentError):
            ReturnSeries((date(2024, 1, 3),), np.array([[np.inf]]), ("a",))
        with pytest.raises(InvalidArgumentError):
            ReturnSeries((date(2024, 1, 3),), np.ones((2, 1)), ("a",))

    @pytest.mark.parametrize(
        "cls, args, message",
        [
            (PriceSeries, (DAYS, np.ones(2), ("a",)), "prices must be a (T, D) matrix"),
            (PriceSeries, (DAYS[:1], np.ones((2, 1)), ("a",)), "got 1 timestamps for 2 price rows"),
            (PriceSeries, (DAYS, np.ones((2, 1)), ("a", "b")), "got 2 asset names for 1 price columns"),
            (PriceSeries, (DAYS, np.array([[1.0], [np.nan]]), ("a",)), "prices must be finite and positive"),
            (PriceSeries, (DAYS, np.array([[1.0], [0.0]]), ("a",)), "prices must be finite and positive"),
            (PriceSeries, (DAYS[::-1], np.ones((2, 1)), ("a",)), "timestamps must be strictly increasing"),
            (ReturnSeries, (DAYS, np.ones(2), ("a",)), "returns must be a (T, D) matrix"),
            (ReturnSeries, (DAYS[:1], np.ones((2, 1)), ("a",)), "got 1 timestamps for 2 return rows"),
            (ReturnSeries, (DAYS, np.ones((2, 1)), ("a", "b")), "got 2 asset names for 1 return columns"),
            (ReturnSeries, (DAYS, np.array([[1.0], [-np.inf]]), ("a",)), "returns must be finite"),
        ],
    )
    def test_each_fault_has_its_own_message(self, cls, args, message):
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            cls(*args)

    def test_fields_are_stored_as_a_float_array_and_tuples(self):
        for cls in (PriceSeries, ReturnSeries):
            series = cls(list(DAYS), [[1], [2]], ["a"])
            values = series.prices if cls is PriceSeries else series.returns
            assert values.dtype == float and values.shape == (2, 1)
            assert series.timestamps == DAYS and series.asset_names == ("a",)


class TestLogReturns:
    def prices(self, values):
        values = np.asarray(values, dtype=float)
        days = tuple(date.fromordinal(737000 + t) for t in range(values.shape[0]))
        return PriceSeries(days, values, tuple(f"a{d}" for d in range(values.shape[1])))

    def test_constant_prices_give_zero_returns(self):
        r = to_log_returns(self.prices(np.full((4, 2), 7.0)))
        assert_allclose(r.returns, 0.0)
        assert r.returns.shape == (3, 2)

    def test_unit_return_from_e(self):
        r = to_log_returns(self.prices([[1.0], [np.e]]))
        assert_allclose(r.returns, [[1.0]], rtol=1e-15)

    def test_hand_value_one_percent(self):
        r = to_log_returns(self.prices([[100.0], [101.0]]))
        assert_allclose(r.returns[0, 0], 0.00995033, atol=5e-9)

    def test_timestamps_drop_the_first_day(self):
        p = self.prices([[1.0], [2.0], [3.0]])
        r = to_log_returns(p)
        assert r.timestamps == p.timestamps[1:]
        assert r.asset_names == p.asset_names

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            to_log_returns(self.prices([[1.0]]))

    def test_round_trip_reconstructs_prices(self):
        rng = np.random.default_rng(0)
        prices = np.exp(rng.normal(0.0, 0.5, size=(40, 3)))
        series = self.prices(prices)
        r = to_log_returns(series).returns
        rebuilt = series.prices[0] * np.exp(np.cumsum(r, axis=0))
        assert_allclose(rebuilt, series.prices[1:], rtol=1e-10)


class TestWriteAndRebuild:
    def test_prices_from_returns_inverts_log_returns(self):
        rng = np.random.default_rng(1)
        r = 0.02 * rng.standard_normal((25, 2))
        series = prices_from_returns(r)
        assert series.prices.shape == (26, 2)
        assert_allclose(series.prices[0], 100.0)
        assert series.timestamps[0] == date(2020, 1, 1)
        assert series.timestamps[-1] == date(2020, 1, 26)
        assert series.asset_names == ("asset0", "asset1")
        assert_allclose(to_log_returns(series).returns, r, atol=1e-12)

    def test_write_then_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        series = prices_from_returns(0.01 * rng.standard_normal((10, 2)))
        path = tmp_path / "out.csv"
        write_price_csv(path, series)
        loaded = load_price_csv(path)
        assert loaded.asset_names == series.asset_names
        assert loaded.timestamps == series.timestamps
        assert_allclose(loaded.prices, series.prices, rtol=0, atol=0)

    def test_returns_must_be_a_matrix(self):
        with pytest.raises(InvalidArgumentError, match=r"\(T, D\) matrix"):
            prices_from_returns(np.zeros(3))
