"""Price panel loading, validation, quality filtering, and simple returns.

Input CSVs come in two shapes: a long format with one row per
(date, ticker) observation and a wide format with one column per ticker.
Both are normalised into a :class:`PriceTable` whose cells are aligned on
the union of dates and the sorted ticker set; absent or invalid cells are
masked rather than dropped so downstream consumers can decide how to treat
gaps.
"""

from __future__ import annotations

import csv
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError, InsufficientHistory

log = logging.getLogger(__name__)

LONG_HEADER = ("date", "ticker", "open", "adj_close")
FORMAT_LONG = "long"
FORMAT_WIDE = "wide"


def _column_map(tickers: tuple[str, ...]) -> dict[str, int]:
    """Column of each ticker; a repeated name maps to its first column, as ``tuple.index`` does."""
    columns: dict[str, int] = {}
    for j, ticker in enumerate(tickers):
        columns.setdefault(ticker, j)
    return columns


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class PriceTable:
    """Aligned date-by-ticker panel of adjusted closes and optional opens.

    ``mask[t, i]`` is True where the cell is missing or invalid; masked
    cells hold NaN in the price arrays.  When an open matrix is present it
    shares the close matrix's shape and mask: a cell with either price
    missing is masked as a whole.
    """

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    adj_close: np.ndarray
    mask: np.ndarray
    open_px: np.ndarray | None = None

    def __post_init__(self) -> None:
        n_d, n_t = len(self.dates), len(self.tickers)
        if any(self.dates[i] >= self.dates[i + 1] for i in range(n_d - 1)):
            raise DataError("dates must be strictly increasing")
        columns = _column_map(self.tickers)
        if len(columns) != n_t:
            raise DataError("duplicate tickers")
        object.__setattr__(self, "_columns", columns)
        closes = np.asarray(self.adj_close, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if closes.shape != (n_d, n_t) or mask.shape != (n_d, n_t):
            raise DataError("price/mask shape does not match dates x tickers")
        closes = np.where(mask, np.nan, closes)
        good = closes[~mask]
        if good.size and (not np.all(np.isfinite(good)) or np.any(good <= 0.0)):
            raise DataError("unmasked prices must be finite and strictly positive")
        object.__setattr__(self, "adj_close", _freeze(closes))
        object.__setattr__(self, "mask", _freeze(mask))
        if self.open_px is not None:
            opens = np.asarray(self.open_px, dtype=float)
            if opens.shape != (n_d, n_t):
                raise DataError("open matrix shape does not match closes")
            opens = np.where(mask, np.nan, opens)
            good = opens[~mask]
            if good.size and (not np.all(np.isfinite(good)) or np.any(good <= 0.0)):
                raise DataError("unmasked open prices must be finite and strictly positive")
            object.__setattr__(self, "open_px", _freeze(opens))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.dates), len(self.tickers))

    def ticker_index(self, ticker: str) -> int:
        try:
            return self._columns[ticker]
        except KeyError:
            raise DataError(f"unknown ticker {ticker!r}") from None


@dataclass(frozen=True, eq=False)
class ReturnMatrix:
    """Simple daily returns aligned to the price panel's dates[1:]."""

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    returns: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        n_d, n_t = len(self.dates), len(self.tickers)
        rets = np.asarray(self.returns, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if rets.shape != (n_d, n_t) or mask.shape != (n_d, n_t):
            raise DataError("return/mask shape does not match dates x tickers")
        rets = np.where(mask, np.nan, rets)
        good = rets[~mask]
        if good.size and not np.all(np.isfinite(good)):
            raise DataError("unmasked returns must be finite")
        object.__setattr__(self, "returns", _freeze(rets))
        object.__setattr__(self, "mask", _freeze(mask))
        object.__setattr__(self, "_columns", _column_map(self.tickers))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.dates), len(self.tickers))

    def ticker_index(self, ticker: str) -> int:
        try:
            return self._columns[ticker]
        except KeyError:
            raise DataError(f"unknown ticker {ticker!r}") from None


def _to_float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        return math.nan


def _parse_prices(cells: Sequence[str]) -> np.ndarray:
    """Prices of a run of cells, NaN where a cell is blank, non-numeric,
    non-finite or not positive.

    ``float`` skips surrounding whitespace itself, so where it parses every
    cell it gives what it gives the stripped cells.  It rejects the ASCII
    separators ``\\x1c``-``\\x1f`` that ``str.strip`` removes, so a run
    that ``float`` cannot parse whole is parsed cell by cell, stripped.
    """
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        values = np.fromiter(map(_to_float, cells), float, len(cells))
    return np.where(np.isfinite(values) & (values > 0.0), values, np.nan)


def _read_rows(path: Path) -> list[tuple[str, ...]]:
    """The file's CSV rows, without blank ones.

    Rows are tuples: a tuple of strings drops out of the garbage collector's
    tracking, so a long file's rows are not rescanned by every collection.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [tuple(row) for row in csv.reader(fh) if "".join(row).strip()]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path}: {exc}") from exc


def _parse_dates(texts: list[str]) -> dict[str, date | None]:
    """Each distinct date cell parsed once; None where it is not a date."""
    parsed: dict[str, date | None] = {}
    for text in set(texts):
        try:
            parsed[text] = date.fromisoformat(text.strip())
        except ValueError:
            parsed[text] = None
    return parsed


def _load_long(path: Path) -> PriceTable:
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = tuple(cell.strip().lower() for cell in rows[0])
    if header != LONG_HEADER:
        raise DataError(f"{path}: expected header {','.join(LONG_HEADER)}")
    # A row is malformed when it is short, its date does not parse or its
    # ticker is blank; extra cells are ignored.
    full = [row for row in rows[1:] if len(row) >= 4]
    day_text, ticker_text, open_text, close_text = ([row[c] for row in full] for c in range(4))
    days = _parse_dates(day_text)
    tickers_of = [t.strip() for t in ticker_text]
    valid = [r for r, (d, t) in enumerate(zip(day_text, tickers_of)) if t and days[d] is not None]
    skipped = len(rows) - 1 - len(valid)
    if not valid:
        raise DataError(f"{path}: zero valid rows")
    dates = tuple(sorted({days[day_text[r]] for r in valid}))
    tickers = tuple(sorted({tickers_of[r] for r in valid}))
    d_idx = {d: i for i, d in enumerate(dates)}
    t_idx = {t: j for j, t in enumerate(tickers)}
    grid_row = {text: d_idx[day] for text, day in days.items() if day in d_idx}
    flat = np.array([grid_row[day_text[r]] * len(tickers) + t_idx[tickers_of[r]] for r in valid])
    n_cells = len(dates) * len(tickers)
    if np.bincount(flat, minlength=n_cells).max() > 1:
        seen = set()
        for r, cell in zip(valid, flat.tolist()):
            if cell in seen:
                key = (days[day_text[r]], tickers_of[r])
                raise DataError(f"{path}: duplicate (date, ticker) pair {key}")
            seen.add(cell)
    if skipped:
        log.warning("%s: skipped %d malformed rows", path, skipped)
    closes = np.full(n_cells, np.nan)
    opens = np.full(n_cells, np.nan)
    closes[flat] = _parse_prices([close_text[r] for r in valid])
    opens[flat] = _parse_prices([open_text[r] for r in valid])
    closes = closes.reshape(len(dates), len(tickers))
    opens = opens.reshape(closes.shape)
    has_opens = bool(np.any(np.isfinite(opens)))
    if has_opens:
        mask = ~(np.isfinite(closes) & np.isfinite(opens))
    else:
        mask = ~np.isfinite(closes)
    return PriceTable(dates, tickers, closes, mask, opens if has_opens else None)


def _parse_wide_grid(path: Path) -> tuple[tuple[date, ...], tuple[str, ...], np.ndarray]:
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2 or header[0].lower() != "date":
        raise DataError(f"{path}: expected header date,<TICKER>[,<TICKER>...]")
    tickers = header[1:]
    if any(not t for t in tickers):
        raise DataError(f"{path}: blank ticker column name")
    if len(set(tickers)) != len(tickers):
        raise DataError(f"{path}: duplicate ticker columns")
    parsed: dict[date, tuple[str, ...]] = {}
    skipped = 0
    for row in rows[1:]:
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError:
            skipped += 1
            continue
        if day in parsed:
            raise DataError(f"{path}: duplicate date {day}")
        parsed[day] = row[1 : len(tickers) + 1]
    if not parsed:
        raise DataError(f"{path}: zero valid rows")
    if skipped:
        log.warning("%s: skipped %d malformed rows", path, skipped)
    dates = tuple(sorted(parsed))
    grid = np.full((len(dates), len(tickers)), np.nan)
    for i, day in enumerate(dates):
        cells = parsed[day]
        grid[i, : len(cells)] = _parse_prices(cells)
    order = np.argsort(tickers)
    return dates, tuple(tickers[j] for j in order), grid[:, order]


def _load_wide(path: Path) -> PriceTable:
    dates, tickers, closes = _parse_wide_grid(path)
    opens = None
    opens_path = path.with_name(path.stem + ".open" + path.suffix)
    if opens_path.exists():
        o_dates, o_tickers, o_grid = _parse_wide_grid(opens_path)
        if o_dates != dates or o_tickers != tickers:
            raise DataError(f"{opens_path}: dates/tickers do not match {path}")
        opens = o_grid
    if opens is None:
        mask = ~np.isfinite(closes)
    else:
        mask = ~(np.isfinite(closes) & np.isfinite(opens))
    return PriceTable(dates, tickers, closes, mask, opens)


def load_prices(path: str | Path, fmt: str = FORMAT_LONG) -> PriceTable:
    """Load a price CSV in ``long`` or ``wide`` format into a PriceTable.

    Long format carries ``date,ticker,open,adj_close`` rows; wide format
    carries adjusted closes with one ticker per column and picks up opens
    from an optional ``<name>.open.csv`` sibling.  Cells that are absent,
    non-numeric, or non-positive are masked.
    """
    path = Path(path)
    if fmt == FORMAT_LONG:
        return _load_long(path)
    if fmt == FORMAT_WIDE:
        return _load_wide(path)
    raise DataError(f"unknown price format {fmt!r}")


def quality_filter(table: PriceTable, max_missing_frac: float) -> PriceTable:
    """Keep tickers whose masked-cell fraction is strictly below the threshold."""
    if not 0.0 <= max_missing_frac <= 1.0:
        raise DataError("max_missing_frac must lie in [0, 1]")
    frac = table.mask.mean(axis=0)
    keep = np.flatnonzero(frac < max_missing_frac)
    if keep.size == 0:
        raise DataError("quality filter removed every ticker")
    return select_tickers(table, [table.tickers[j] for j in keep])


def select_tickers(table: PriceTable, tickers: list[str] | tuple[str, ...]) -> PriceTable:
    """Restrict the panel to the given tickers (original date axis kept)."""
    idx = [table.ticker_index(t) for t in tickers]
    opens = table.open_px[:, idx] if table.open_px is not None else None
    return PriceTable(
        table.dates,
        tuple(table.tickers[j] for j in idx),
        table.adj_close[:, idx],
        table.mask[:, idx],
        opens,
    )


def drop_tickers(table: PriceTable, tickers: set[str] | list[str]) -> PriceTable:
    drop = set(tickers)
    keep = [t for t in table.tickers if t not in drop]
    if not keep:
        raise DataError("cannot drop every ticker")
    return select_tickers(table, keep)


def select_return_tickers(
    returns: ReturnMatrix, tickers: list[str] | tuple[str, ...]
) -> ReturnMatrix:
    """Restrict a return matrix to the given tickers (date axis kept)."""
    idx = [returns.ticker_index(t) for t in tickers]
    return ReturnMatrix(
        returns.dates,
        tuple(returns.tickers[j] for j in idx),
        returns.returns[:, idx],
        returns.mask[:, idx],
    )


def compute_returns(table: PriceTable) -> ReturnMatrix:
    """Simple returns P_t / P_{t-1} - 1; the first date is dropped.

    A return cell is masked when either endpoint price is masked.
    """
    if len(table.dates) < 2:
        raise InsufficientHistory("need at least two dates to compute returns")
    prev = table.adj_close[:-1]
    curr = table.adj_close[1:]
    mask = table.mask[1:] | table.mask[:-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        rets = curr / prev - 1.0
    return ReturnMatrix(table.dates[1:], table.tickers, np.where(mask, np.nan, rets), mask)


def window(returns: ReturnMatrix, end_index: int, length: int) -> ReturnMatrix:
    """Slice of ``length`` return rows ending at ``end_index`` inclusive."""
    if length < 1:
        raise ValueError("window length must be positive")
    if end_index >= len(returns.dates):
        raise InsufficientHistory("window end index beyond available history")
    start = end_index - length + 1
    if start < 0:
        raise InsufficientHistory(
            f"window of {length} rows needs end_index >= {length - 1}, got {end_index}"
        )
    stop = end_index + 1
    return ReturnMatrix(
        returns.dates[start:stop],
        returns.tickers,
        returns.returns[start:stop],
        returns.mask[start:stop],
    )
