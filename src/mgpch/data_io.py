"""Price ingestion and log-return construction.

CSV layout: a header row whose first column is the date label and whose
remaining columns name one asset each, then one row per day with an
ISO-8601 date and decimal prices.  Rows with a missing or non-positive
price are dropped with a warning rather than interpolated.
"""

import csv
import logging
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import FormatError, InsufficientDataError, InvalidArgumentError

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "load_price_csv",
    "to_log_returns",
    "prices_from_returns",
    "write_price_csv",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PriceSeries:
    """Daily closing prices for D assets on strictly increasing dates."""

    timestamps: tuple
    prices: np.ndarray  # (T, D), positive
    asset_names: tuple

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "asset_names", tuple(self.asset_names))
        if prices.ndim != 2:
            raise InvalidArgumentError("prices must be a (T, D) matrix")
        T, D = prices.shape
        if len(self.timestamps) != T:
            raise InvalidArgumentError(
                f"got {len(self.timestamps)} timestamps for {T} price rows"
            )
        if len(self.asset_names) != D:
            raise InvalidArgumentError(
                f"got {len(self.asset_names)} asset names for {D} price columns"
            )
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
            raise InvalidArgumentError("prices must be finite and positive")
        if any(b <= a for a, b in zip(self.timestamps, self.timestamps[1:])):
            raise InvalidArgumentError("timestamps must be strictly increasing")


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns; each row is stamped with the later of its two days."""

    timestamps: tuple
    returns: np.ndarray  # (T - 1, D)
    asset_names: tuple

    def __post_init__(self):
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "asset_names", tuple(self.asset_names))
        if returns.ndim != 2:
            raise InvalidArgumentError("returns must be a (T, D) matrix")
        if len(self.timestamps) != returns.shape[0]:
            raise InvalidArgumentError(
                f"got {len(self.timestamps)} timestamps for {returns.shape[0]} return rows"
            )
        if len(self.asset_names) != returns.shape[1]:
            raise InvalidArgumentError(
                f"got {len(self.asset_names)} asset names for {returns.shape[1]} return columns"
            )
        if not np.all(np.isfinite(returns)):
            raise InvalidArgumentError("returns must be finite")


def load_price_csv(path):
    """Parse a price CSV into a PriceSeries.

    Structural problems (wrong field count, a date that does not parse,
    dates out of order, a price that is not a number) raise FormatError
    carrying the one-based line number.  A row with an empty or
    non-positive price cell is data, not structure: it is dropped with
    a warning.  Fewer than two surviving rows cannot yield a return, so
    that raises InsufficientDataError.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise FormatError("empty file", line=1)
    header = rows[0]
    if len(header) < 2:
        raise FormatError("header must name a date column and at least one asset", line=1)
    asset_names = tuple(name.strip() for name in header[1:])
    n_fields = len(header)

    timestamps = []
    kept = []
    previous_day = None
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != n_fields:
            raise FormatError(
                f"expected {n_fields} fields, got {len(row)}", line=line
            )
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise FormatError(f"bad date {row[0]!r}: {exc}", line=line) from exc
        if previous_day is not None and day <= previous_day:
            raise FormatError(
                f"date {day.isoformat()} not after {previous_day.isoformat()}", line=line
            )
        previous_day = day

        values = np.empty(n_fields - 1)
        missing = False
        for j, cell in enumerate(row[1:]):
            text = cell.strip()
            if not text:
                missing = True
                continue
            try:
                values[j] = float(text)
            except ValueError as exc:
                raise FormatError(f"bad price {cell!r}", line=line) from exc
            if not np.isfinite(values[j]) or values[j] <= 0.0:
                missing = True
        if missing:
            logger.warning("dropping line %d of %s: missing or non-positive price", line, path)
            continue
        timestamps.append(day)
        kept.append(values)

    if len(kept) < 2:
        raise InsufficientDataError(
            f"{len(kept)} usable price rows in {path}; need at least 2"
        )
    return PriceSeries(
        timestamps=tuple(timestamps),
        prices=np.array(kept),
        asset_names=asset_names,
    )


def to_log_returns(series):
    """Elementwise log p(t) - log p(t-1); output length T - 1."""
    if series.prices.shape[0] < 2:
        raise InsufficientDataError("at least two price rows are required for returns")
    return ReturnSeries(
        timestamps=series.timestamps[1:],
        returns=np.diff(np.log(series.prices), axis=0),
        asset_names=series.asset_names,
    )


def prices_from_returns(returns):
    """Price path implied by log returns, from 100 on 2020-01-01, one calendar day per row.

    The inverse of to_log_returns up to the initial level; materializes
    simulated returns as a loadable price file, assets named ``asset0``, ``asset1``, ...
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 2:
        raise InvalidArgumentError("returns must be a (T, D) matrix")
    T, D = r.shape
    prices = 100.0 * np.exp(np.cumsum(np.vstack([np.zeros((1, D)), r]), axis=0))
    timestamps = tuple(date(2020, 1, 1) + timedelta(days=t) for t in range(T + 1))
    return PriceSeries(timestamps, prices, tuple(f"asset{d}" for d in range(D)))


def write_price_csv(path, series):
    """Write a PriceSeries in the layout load_price_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("date",) + series.asset_names)
        for day, row in zip(series.timestamps, series.prices):
            writer.writerow([day.isoformat()] + [repr(float(p)) for p in row])
