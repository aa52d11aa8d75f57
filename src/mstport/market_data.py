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
import io
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from datetime import date
from itertools import repeat
from pathlib import Path
from typing import ClassVar, TypeVar

import numpy as np

from .errors import DataError, InsufficientHistory

log = logging.getLogger(__name__)

LONG_HEADER = ("date", "ticker", "open", "adj_close")
FORMAT_LONG = "long"
FORMAT_WIDE = "wide"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class _Panel:
    """Date-by-ticker grids under one mask, read-only once built.

    ``mask[t, i]`` is True where the cell is missing or invalid; masked
    cells hold NaN in every grid.  A subclass declares its grids, then
    ``mask``, as fields and lists each grid in ``_GRIDS`` with the texts of
    its shape and value errors.  Unmasked cells must be finite, and above
    zero where ``_POSITIVE`` is set; a grid left as None is skipped.
    """

    _GRIDS: ClassVar[tuple[tuple[str, str, str], ...]]
    _POSITIVE: ClassVar[bool]

    dates: tuple[date, ...]
    tickers: tuple[str, ...]

    def __post_init__(self) -> None:
        columns = {ticker: j for j, ticker in enumerate(self.tickers)}
        if len(columns) != len(self.tickers):
            raise DataError("duplicate tickers")
        object.__setattr__(self, "_columns", columns)
        mask = np.asarray(self.mask, dtype=bool)
        if mask.flags.writeable:
            # Freezing a caller's own array would make it read-only for them.
            mask = mask.copy()
        rule = "finite and strictly positive" if self._POSITIVE else "finite"
        for name, shape_error, cells in self._GRIDS:
            grid = getattr(self, name)
            if grid is None:
                continue
            grid = np.asarray(grid, dtype=float)
            if grid.shape != self.shape or mask.shape != self.shape:
                raise DataError(shape_error)
            grid = np.where(mask, np.nan, grid)
            good = grid[~mask]
            if good.size and (not np.all(np.isfinite(good)) or (self._POSITIVE and np.any(good <= 0.0))):
                raise DataError(f"{cells} must be {rule}")
            object.__setattr__(self, name, _freeze(grid))
        object.__setattr__(self, "mask", _freeze(mask))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.dates), len(self.tickers))

    def ticker_index(self, ticker: str) -> int:
        try:
            return self._columns[ticker]
        except KeyError:
            raise DataError(f"unknown ticker {ticker!r}") from None


@dataclass(frozen=True, eq=False)
class PriceTable(_Panel):
    """Aligned date-by-ticker panel of adjusted closes and optional opens.

    When an open matrix is present it shares the close matrix's shape and
    mask: a cell with either price missing is masked as a whole.
    """

    _GRIDS = (
        ("adj_close", "price/mask shape does not match dates x tickers", "unmasked prices"),
        ("open_px", "open matrix shape does not match closes", "unmasked open prices"),
    )
    _POSITIVE = True

    adj_close: np.ndarray
    mask: np.ndarray
    open_px: np.ndarray | None = None

    def __post_init__(self) -> None:
        if any(self.dates[i] >= self.dates[i + 1] for i in range(len(self.dates) - 1)):
            raise DataError("dates must be strictly increasing")
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class ReturnMatrix(_Panel):
    """Simple daily returns aligned to the price panel's dates[1:]."""

    _GRIDS = (("returns", "return/mask shape does not match dates x tickers", "unmasked returns"),)
    _POSITIVE = False

    returns: np.ndarray
    mask: np.ndarray


_PanelT = TypeVar("_PanelT", bound=_Panel)
_K = TypeVar("_K", date, str)


def last_known(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each cell's last unmasked value at or before its row, NaN before the first.

    ``values`` and ``mask`` are one series (1-D) or a dates x tickers grid
    (2-D); rows run along the first axis.
    """
    rows = np.arange(len(values)).reshape((-1,) + (1,) * (np.ndim(values) - 1))
    rows = np.maximum.accumulate(np.where(mask, -1, rows), axis=0)
    last = np.take_along_axis(values, rows, axis=0)
    return np.where(rows >= 0, last, np.nan)


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


def _read_text(path: Path) -> str:
    """The whole file decoded as UTF-8, its line ends kept as they are."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path}: {exc}") from exc


def _csv_rows(path: Path, text: str) -> list[tuple[str, ...]]:
    """The CSV rows of ``text``, read from ``path``, without blank ones.

    Rows are tuples: a tuple of strings drops out of the garbage collector's
    tracking, so a long file's rows are not rescanned by every collection.
    """
    try:
        return [tuple(row) for row in csv.reader(io.StringIO(text, newline="")) if "".join(row).strip()]
    except csv.Error as exc:
        raise DataError(f"cannot parse {path}: {exc}") from exc


def _read_rows(path: Path) -> list[tuple[str, ...]]:
    """The file's CSV rows, without blank ones."""
    return _csv_rows(path, _read_text(path))


def _parse_dates(texts: list[str]) -> dict[str, date | None]:
    """Each distinct date cell parsed once; None where it is not a date."""
    parsed: dict[str, date | None] = {}
    for text in set(texts):
        try:
            parsed[text] = date.fromisoformat(text.strip())
        except ValueError:
            parsed[text] = None
    return parsed


def _splits_plainly(body: str) -> bool:
    """True when splitting ``body`` on newlines and commas gives csv.reader's rows.

    That holds when no cell is quoted, no line ends in a CR, every line
    has four cells, and nothing is there for csv.reader to reject: a NUL
    (before Python 3.11) or a line, and so maybe a cell, longer than its
    field size limit.  The first line must not be blank, because a blank
    row is dropped before the header is read.
    """
    if any(char in body for char in '"\r\0'):
        return False
    lines = body.split("\n")
    return (
        set(map(str.count, lines, repeat(","))) == {3}
        and max(map(len, lines)) <= csv.field_size_limit()
        and bool(lines[0].replace(",", "").strip())
    )


def _load_long(path: Path) -> PriceTable:
    text = _read_text(path)
    body = text[:-1] if text.endswith("\n") else text
    if _splits_plainly(body):
        cells = body.replace("\n", ",").split(",")
        header, columns, short = cells[:4], [cells[c + 4 :: 4] for c in range(4)], 0
    else:
        rows = _csv_rows(path, text)
        if not rows:
            raise DataError(f"{path}: empty file")
        # A short row is malformed, and so is one whose first four cells are
        # blank and a later one is not: _long_table takes it for a blank row.
        full = [row for row in rows[1:] if len(row) >= 4 and "".join(row[:4]).strip()]
        header, short = rows[0], len(rows) - 1 - len(full)
        columns = [[row[c] for row in full] for c in range(4)]
    if tuple(cell.strip().lower() for cell in header) != LONG_HEADER:
        raise DataError(f"{path}: expected header {','.join(LONG_HEADER)}")
    return _long_table(path, columns, short)


def _codes(column: list[str], key_of: dict[str, _K | None]) -> tuple[list[_K], np.ndarray]:
    """The sorted distinct keys of ``column``'s cells, and each row's index
    among them: -1 where ``key_of`` maps its cell to None or blank."""
    keys = sorted({key for key in key_of.values() if key})
    index = {key: i for i, key in enumerate(keys)}
    code = {text: index.get(key, -1) for text, key in key_of.items()}
    return keys, np.fromiter(map(code.__getitem__, column), np.intp, len(column))


def _used(keys: list[_K], codes: np.ndarray) -> tuple[tuple[_K, ...], np.ndarray]:
    """The keys that ``codes`` use, in order, and the codes renumbered among them."""
    used = np.bincount(codes, minlength=len(keys)) > 0
    return tuple(key for key, u in zip(keys, used) if u), (np.cumsum(used) - 1)[codes]


def _long_table(path: Path, columns: list[list[str]], short: int) -> PriceTable:
    """The table of a long file's data rows, given as their four columns.

    ``short`` rows were dropped already as malformed.  Of the rest, a row
    is malformed when its date does not parse or its ticker is blank,
    unless all four of its cells are blank: then it is a blank row.
    """
    day_text, ticker_text, open_text, close_text = columns
    days, day = _codes(day_text, _parse_dates(day_text))
    tickers, ticker = _codes(ticker_text, {text: text.strip() for text in set(ticker_text)})
    valid = (day >= 0) & (ticker >= 0)
    skipped = short
    if not valid.all():
        bad = np.flatnonzero(~valid).tolist()
        skipped += sum(1 for r in bad if (day_text[r] + ticker_text[r] + open_text[r] + close_text[r]).strip())
        day, ticker = day[valid], ticker[valid]
        rows = np.flatnonzero(valid).tolist()
        open_text, close_text = [open_text[r] for r in rows], [close_text[r] for r in rows]
    if not day.size:
        raise DataError(f"{path}: zero valid rows")
    dates, day = _used(days, day)
    tickers, ticker = _used(tickers, ticker)
    flat = day * len(tickers) + ticker
    n_cells = len(dates) * len(tickers)
    if np.bincount(flat, minlength=n_cells).max() > 1:
        seen = set()
        for cell in flat.tolist():
            if cell in seen:
                d, t = divmod(cell, len(tickers))
                key = (dates[d], tickers[t])
                raise DataError(f"{path}: duplicate (date, ticker) pair {key}")
            seen.add(cell)
    if skipped:
        log.warning("%s: skipped %d malformed rows", path, skipped)
    closes = np.full(n_cells, np.nan)
    opens = np.full(n_cells, np.nan)
    closes[flat] = _parse_prices(close_text)
    opens[flat] = _parse_prices(open_text)
    closes = closes.reshape(len(dates), len(tickers))
    opens = opens.reshape(closes.shape) if np.isfinite(opens).any() else None
    return PriceTable(dates, tickers, closes, _unpriced(closes, opens), opens)


def _unpriced(closes: np.ndarray, opens: np.ndarray | None) -> np.ndarray:
    """The mask of a loaded file: no close, or no open where the file gives opens."""
    return ~np.isfinite(closes) if opens is None else ~(np.isfinite(closes) & np.isfinite(opens))


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
        o_dates, o_tickers, opens = _parse_wide_grid(opens_path)
        if o_dates != dates or o_tickers != tickers:
            raise DataError(f"{opens_path}: dates/tickers do not match {path}")
    return PriceTable(dates, tickers, closes, _unpriced(closes, opens), opens)


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


def select_tickers(panel: _PanelT, tickers: list[str] | tuple[str, ...]) -> _PanelT:
    """Restrict prices or returns to the given tickers (date axis kept)."""
    idx = [panel.ticker_index(t) for t in tickers]
    grids = {
        f.name: grid[:, idx]
        for f in fields(panel)
        if isinstance(grid := getattr(panel, f.name), np.ndarray)
    }
    return replace(panel, tickers=tuple(panel.tickers[j] for j in idx), **grids)


def drop_tickers(table: PriceTable, tickers: set[str] | list[str]) -> PriceTable:
    drop = set(tickers)
    keep = [t for t in table.tickers if t not in drop]
    if not keep:
        raise DataError("cannot drop every ticker")
    return select_tickers(table, keep)


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
