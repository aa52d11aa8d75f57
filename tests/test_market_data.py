"""Panel loading, validation, quality filtering, returns, and windowing."""

import codecs
import csv
import logging
import re
import tempfile
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth
from mstport import errors, market_data as md


# ---------------------------------------------------------------------------
# loading: long format
# ---------------------------------------------------------------------------


def test_long_round_trip_preserves_values(tmp_path):
    table = synth.random_walk_table(4, 30, seed=5)
    path = tmp_path / "prices.csv"
    synth.write_long_csv(table, path)
    loaded = md.load_prices(path, md.FORMAT_LONG)
    assert loaded.dates == table.dates
    assert loaded.tickers == table.tickers
    np.testing.assert_array_equal(loaded.adj_close, table.adj_close)
    np.testing.assert_array_equal(loaded.open_px, table.open_px)
    assert not loaded.mask.any()


def test_long_masks_invalid_cells(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,ticker,open,adj_close\n"
        "2021-01-04,A,10.0,11.0\n"
        "2021-01-04,B,5.0,0.0\n"      # non-positive close -> masked
        "2021-01-05,A,,12.0\n"         # blank open -> masked (opens present elsewhere)
        "2021-01-05,B,5.0,abc\n"       # non-numeric close -> masked
    )
    table = md.load_prices(path)
    assert table.shape == (2, 2)
    assert int(table.mask.sum()) == 3
    assert not table.mask[0, 0]
    assert table.mask[0, 1] and table.mask[1, 0] and table.mask[1, 1]
    assert np.isnan(table.adj_close[0, 1])


def test_long_absent_pair_is_masked_not_error(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,ticker,open,adj_close\n"
        "2021-01-04,A,10.0,11.0\n"
        "2021-01-04,B,20.0,21.0\n"
        "2021-01-05,A,11.0,12.0\n"
    )
    table = md.load_prices(path)
    assert table.shape == (2, 2)
    assert int(table.mask.sum()) == 1
    assert table.mask[1, 1]


def test_long_skips_malformed_rows(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,ticker,open,adj_close\n"
        "2021-01-04,A,10.0,11.0\n"
        "not-a-date,A,10.0,11.0\n"
        "2021-01-05,A\n"
        "2021-01-05,,10.0,11.0\n"
        "2021-01-05,A,10.5,11.5\n"
    )
    table = md.load_prices(path)
    assert table.shape == (2, 1)
    assert not table.mask.any()


def test_long_duplicate_pair_rejected(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,ticker,open,adj_close\n"
        "2021-01-04,A,10.0,11.0\n"
        "2021-01-04,A,10.0,11.5\n"
    )
    with pytest.raises(errors.DataError, match="duplicate"):
        md.load_prices(path)


def test_long_rejects_bad_header_and_empty(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("day,symbol,open,close\n2021-01-04,A,1,2\n")
    with pytest.raises(errors.DataError, match="header"):
        md.load_prices(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(errors.DataError, match="empty"):
        md.load_prices(empty)
    no_rows = tmp_path / "norows.csv"
    no_rows.write_text("date,ticker,open,adj_close\nnot-a-date,A,1,2\n")
    with pytest.raises(errors.DataError, match="zero valid rows"):
        md.load_prices(no_rows)


def test_long_without_any_opens_drops_open_matrix(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,ticker,open,adj_close\n"
        "2021-01-04,A,,11.0\n"
        "2021-01-05,A,,12.0\n"
    )
    table = md.load_prices(path)
    assert table.open_px is None
    assert not table.mask.any()


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(errors.DataError, match="cannot read"):
        md.load_prices(tmp_path / "nope.csv")


# ---------------------------------------------------------------------------
# loading: wide format
# ---------------------------------------------------------------------------


def test_wide_round_trip_with_open_sibling(tmp_path):
    table = synth.random_walk_table(3, 12, seed=6)
    path = tmp_path / "panel.csv"
    synth.write_wide_csv(table, path)
    assert (tmp_path / "panel.open.csv").exists()
    loaded = md.load_prices(path, md.FORMAT_WIDE)
    assert loaded.tickers == table.tickers
    np.testing.assert_array_equal(loaded.adj_close, table.adj_close)
    np.testing.assert_array_equal(loaded.open_px, table.open_px)


def test_wide_without_sibling_has_no_opens(tmp_path):
    table = synth.random_walk_table(3, 12, seed=6, with_opens=False)
    path = tmp_path / "panel.csv"
    synth.write_wide_csv(table, path)
    loaded = md.load_prices(path, md.FORMAT_WIDE)
    assert loaded.open_px is None


def test_wide_sibling_mismatch_rejected(tmp_path):
    table = synth.random_walk_table(3, 12, seed=6)
    path = tmp_path / "panel.csv"
    synth.write_wide_csv(table, path)
    sibling = tmp_path / "panel.open.csv"
    text = sibling.read_text().replace("S01", "S09")
    sibling.write_text(text)
    with pytest.raises(errors.DataError, match="do not match"):
        md.load_prices(path, md.FORMAT_WIDE)


def test_wide_sorts_ticker_columns(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "date,ZZ,AA\n"
        "2021-01-04,5.0,1.0\n"
        "2021-01-05,6.0,2.0\n"
    )
    table = md.load_prices(path, md.FORMAT_WIDE)
    assert table.tickers == ("AA", "ZZ")
    np.testing.assert_array_equal(table.adj_close[:, 0], [1.0, 2.0])


@pytest.mark.parametrize("text", ["", " \n\n,,\n"])
def test_wide_rejects_an_empty_file(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_text(text)
    with pytest.raises(errors.DataError, match=f"^{re.escape(str(path))}: empty file$"):
        md.load_prices(path, md.FORMAT_WIDE)


@pytest.mark.parametrize(
    "header, message", [("date,A,,B", "blank ticker column name"), ("date,A,B,A", "duplicate ticker columns")]
)
def test_wide_rejects_a_blank_or_duplicate_ticker_column(tmp_path, header, message):
    path = tmp_path / "panel.csv"
    path.write_text(header + "\n2021-01-04,1.0,2.0,3.0\n")
    with pytest.raises(errors.DataError, match=f"^{re.escape(str(path))}: {message}$"):
        md.load_prices(path, md.FORMAT_WIDE)


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("date,A\n2021-01-04,1.0\n")
    with pytest.raises(errors.DataError, match="unknown price format"):
        md.load_prices(path, "parquet")


# ---------------------------------------------------------------------------
# loading: the date rule
# ---------------------------------------------------------------------------

# ISO 8601 forms of 2020-01-02 that date.fromisoformat reads from Python
# 3.11 on and refuses before it.
OTHER_ISO_FORMS = ("20200102", "2020-W01-4", "2020W014")


@pytest.mark.parametrize(
    "text, day",
    [("2020-01-02", date(2020, 1, 2)), (" 2020-01-02\t", date(2020, 1, 2))]
    + [(text, None) for text in OTHER_ISO_FORMS + ("2020-1-02", "2020-01-02T00:00", "+2020-01-02", "2020-02-30",
                                                   "0000-01-01", "\u0662020-01-02", "")],
)
def test_a_date_cell_is_yyyy_mm_dd(text, day):
    assert md._parse_day(text) == day


@pytest.mark.parametrize("fmt", [md.FORMAT_LONG, md.FORMAT_WIDE])
def test_other_iso_date_forms_are_malformed_rows(tmp_path, caplog, fmt):
    if fmt == md.FORMAT_LONG:
        lines = ["date,ticker,open,adj_close", " 2020-01-03 ,A,1,2"] + [f"{d},A,1,2" for d in OTHER_ISO_FORMS]
    else:
        lines = ["date,A", " 2020-01-03 ,2"] + [f"{d},2" for d in OTHER_ISO_FORMS]
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING, logger=md.__name__):
        table = md.load_prices(path, fmt)
    assert table.dates == (date(2020, 1, 3),)
    assert caplog.messages == [f"{path}: skipped 3 malformed rows"]


# ---------------------------------------------------------------------------
# table invariants
# ---------------------------------------------------------------------------


def test_table_rejects_unsorted_dates_and_duplicate_tickers():
    days = synth.day_range(2)
    grid = np.full((2, 2), 10.0)
    mask = np.zeros((2, 2), dtype=bool)
    with pytest.raises(errors.DataError, match="strictly increasing"):
        md.PriceTable((days[1], days[0]), ("A", "B"), grid, mask)
    with pytest.raises(errors.DataError, match="duplicate"):
        md.PriceTable(days, ("A", "A"), grid, mask)
    with pytest.raises(errors.DataError, match="^price/mask shape does not match dates x tickers$"):
        md.PriceTable(days, ("A", "B"), grid[:, :1], mask)
    with pytest.raises(errors.DataError, match="^open matrix shape does not match closes$"):
        md.PriceTable(days, ("A", "B"), grid, mask, grid[:1])


def test_return_matrix_rejects_duplicate_tickers():
    days = synth.day_range(2)
    with pytest.raises(errors.DataError, match="duplicate tickers"):
        md.ReturnMatrix(days, ("A", "A"), np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))


def test_table_rejects_nonpositive_unmasked_price():
    days = synth.day_range(2)
    grid = np.array([[10.0, -1.0], [10.0, 2.0]])
    mask = np.zeros((2, 2), dtype=bool)
    with pytest.raises(errors.DataError, match="strictly positive"):
        md.PriceTable(days, ("A", "B"), grid, mask)
    # the same cell masked is fine
    mask[0, 1] = True
    table = md.PriceTable(days, ("A", "B"), grid, mask)
    assert np.isnan(table.adj_close[0, 1])


def test_table_arrays_are_frozen():
    table = synth.flat_table(2, 3)
    with pytest.raises(ValueError):
        table.adj_close[0, 0] = 1.0


def test_constructors_leave_the_callers_mask_writeable():
    days = synth.day_range(2)
    m = np.zeros((2, 2), dtype=bool)
    table = md.PriceTable(days, ("A", "B"), np.full((2, 2), 10.0), m)
    returns = md.ReturnMatrix(days, ("A", "B"), np.zeros((2, 2)), m)
    assert m.flags.writeable
    m[0, 0] = True
    assert not table.mask.any() and not returns.mask.any()
    # a read-only slice of a panel's own mask is shared, not copied
    assert np.shares_memory(md.window(returns, 1, 1).mask, returns.mask)


# ---------------------------------------------------------------------------
# quality filter / selection
# ---------------------------------------------------------------------------


def _table_with_missing_fracs() -> md.PriceTable:
    # 100 days x 3 tickers with masked fractions 0.03, 0.12, 0.30
    table = synth.flat_table(3, 100)
    cells = [(i, 0) for i in range(3)]
    cells += [(i, 1) for i in range(12)]
    cells += [(i, 2) for i in range(30)]
    return synth.with_masked(table, cells)


def test_quality_filter_is_strict_threshold():
    table = _table_with_missing_fracs()
    kept_tight = md.quality_filter(table, 0.05)
    assert kept_tight.tickers == ("S00",)
    kept_loose = md.quality_filter(table, 0.20)
    assert kept_loose.tickers == ("S00", "S01")
    # exactly at the boundary is excluded
    boundary = md.quality_filter(table, 0.12)
    assert boundary.tickers == ("S00",)


def test_quality_filter_empty_result_is_error():
    table = _table_with_missing_fracs()
    with pytest.raises(errors.DataError, match="removed every ticker"):
        md.quality_filter(table, 0.01)
    with pytest.raises(errors.DataError):
        md.quality_filter(table, -0.5)


def test_select_and_drop_tickers():
    table = synth.random_walk_table(4, 10, seed=1)
    sub = md.select_tickers(table, ["S02", "S00"])
    assert sub.tickers == ("S02", "S00")
    np.testing.assert_array_equal(sub.adj_close[:, 1], table.adj_close[:, 0])
    dropped = md.drop_tickers(table, {"S01"})
    assert dropped.tickers == ("S00", "S02", "S03")
    with pytest.raises(errors.DataError):
        md.drop_tickers(table, set(table.tickers))
    with pytest.raises(errors.DataError, match="unknown ticker"):
        md.select_tickers(table, ["S99"])


def select_return_columns(returns, tickers):
    """A return matrix restricted to ``tickers`` by its own constructor call."""
    idx = [returns.ticker_index(t) for t in tickers]
    return md.ReturnMatrix(
        returns.dates,
        tuple(returns.tickers[j] for j in idx),
        returns.returns[:, idx],
        returns.mask[:, idx],
    )


@pytest.mark.parametrize("tickers", [["S02", "S00"], ["S03"], ["S00", "S01", "S02", "S03"], []])
def test_select_tickers_on_returns_equals_the_column_pick(tickers):
    table = synth.with_masked(synth.random_walk_table(4, 12, seed=5), [(3, 1), (7, 2)])
    returns = md.compute_returns(table)
    got = md.select_tickers(returns, tickers)
    want = select_return_columns(returns, tickers)
    assert type(got) is md.ReturnMatrix
    assert got.dates == want.dates and got.tickers == want.tickers
    assert got.returns.tobytes() == want.returns.tobytes()
    assert got.mask.tobytes() == want.mask.tobytes()
    assert [got.ticker_index(t) for t in tickers] == list(range(len(tickers)))
    with pytest.raises(errors.DataError, match="unknown ticker"):
        md.select_tickers(returns, ["S99"])


# ---------------------------------------------------------------------------
# returns
# ---------------------------------------------------------------------------


def test_returns_on_known_prices():
    days = synth.day_range(3)
    grid = np.array([[100.0], [90.0], [99.0]])
    table = md.PriceTable(days, ("A",), grid, np.zeros((3, 1), dtype=bool))
    rets = md.compute_returns(table)
    assert rets.dates == days[1:]
    np.testing.assert_allclose(rets.returns[:, 0], [-0.10, 0.10], atol=1e-12)


def test_returns_mask_covers_both_endpoints():
    table = synth.random_walk_table(2, 6, seed=3)
    table = synth.with_masked(table, [(2, 1)])
    rets = md.compute_returns(table)
    # return rows 1 (P2/P1) and 2 (P3/P2) lose the masked price
    assert rets.mask[1, 1] and rets.mask[2, 1]
    assert not rets.mask[:, 0].any()
    assert np.isnan(rets.returns[1, 1])


def test_returns_round_trip_reconstructs_prices():
    table = synth.random_walk_table(5, 60, seed=11)
    rets = md.compute_returns(table)
    rebuilt = table.adj_close[0] * np.cumprod(1.0 + rets.returns, axis=0)
    np.testing.assert_allclose(rebuilt, table.adj_close[1:], rtol=1e-12)


def test_returns_require_two_dates():
    table = synth.flat_table(2, 1)
    with pytest.raises(errors.InsufficientHistory):
        md.compute_returns(table)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


def test_window_slices_inclusive_end():
    rets = synth.random_returns(3, 50, seed=2)
    win = md.window(rets, end_index=29, length=30)
    assert win.shape == (30, 3)
    assert win.dates[-1] == rets.dates[29]
    assert win.dates[0] == rets.dates[0]
    np.testing.assert_array_equal(win.returns, rets.returns[:30])


def test_window_bounds_checked():
    rets = synth.random_returns(3, 50, seed=2)
    with pytest.raises(errors.InsufficientHistory, match="beyond"):
        md.window(rets, end_index=50, length=10)
    with pytest.raises(errors.InsufficientHistory):
        md.window(rets, end_index=8, length=10)
    with pytest.raises(ValueError):
        md.window(rets, end_index=8, length=0)


# ---------------------------------------------------------------------------
# loading: the column-wise loaders against the row-by-row oracle
#
# The oracle is the row loop the loaders replaced: one cell, one row at a
# time, with ``str.strip`` before every parse.  It returns the table (or
# the DataError) and the warnings it would log.


def oracle_parse_price(text):
    text = text.strip()
    if not text:
        return np.nan
    try:
        value = float(text)
    except ValueError:
        return np.nan
    if not np.isfinite(value) or value <= 0.0:
        return np.nan
    return value


def oracle_read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]


def oracle_load_long(path, warnings):
    rows = oracle_read_rows(path)
    if not rows:
        raise errors.DataError(f"{path}: empty file")
    header = tuple(cell.strip().lower() for cell in rows[0])
    if header != md.LONG_HEADER:
        raise errors.DataError(f"{path}: expected header {','.join(md.LONG_HEADER)}")
    cells = {}
    skipped = 0
    for row in rows[1:]:
        if len(row) < 4:
            skipped += 1
            continue
        day = md._parse_day(row[0])
        if day is None:
            skipped += 1
            continue
        ticker = row[1].strip()
        if not ticker:
            skipped += 1
            continue
        key = (day, ticker)
        if key in cells:
            raise errors.DataError(f"{path}: duplicate (date, ticker) pair {key}")
        cells[key] = (oracle_parse_price(row[2]), oracle_parse_price(row[3]))
    if not cells:
        raise errors.DataError(f"{path}: zero valid rows")
    if skipped:
        warnings.append(f"{path}: skipped {skipped} malformed rows")
    dates = tuple(sorted({k[0] for k in cells}))
    tickers = tuple(sorted({k[1] for k in cells}))
    d_idx = {d: i for i, d in enumerate(dates)}
    t_idx = {t: j for j, t in enumerate(tickers)}
    closes = np.full((len(dates), len(tickers)), np.nan)
    opens = np.full_like(closes, np.nan)
    for (day, ticker), (op, cl) in cells.items():
        opens[d_idx[day], t_idx[ticker]] = op
        closes[d_idx[day], t_idx[ticker]] = cl
    has_opens = bool(np.any(np.isfinite(opens)))
    if has_opens:
        mask = ~(np.isfinite(closes) & np.isfinite(opens))
    else:
        mask = ~np.isfinite(closes)
    return md.PriceTable(dates, tickers, closes, mask, opens if has_opens else None)


def oracle_parse_wide_grid(path, warnings):
    rows = oracle_read_rows(path)
    if not rows:
        raise errors.DataError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2 or header[0].lower() != "date":
        raise errors.DataError(f"{path}: expected header date,<TICKER>[,<TICKER>...]")
    tickers = header[1:]
    if any(not t for t in tickers):
        raise errors.DataError(f"{path}: blank ticker column name")
    if len(set(tickers)) != len(tickers):
        raise errors.DataError(f"{path}: duplicate ticker columns")
    parsed = {}
    skipped = 0
    for row in rows[1:]:
        day = md._parse_day(row[0])
        if day is None:
            skipped += 1
            continue
        if day in parsed:
            raise errors.DataError(f"{path}: duplicate date {day}")
        values = [oracle_parse_price(cell) for cell in row[1:]]
        values += [np.nan] * (len(tickers) - len(values))
        parsed[day] = values[: len(tickers)]
    if not parsed:
        raise errors.DataError(f"{path}: zero valid rows")
    if skipped:
        warnings.append(f"{path}: skipped {skipped} malformed rows")
    dates = tuple(sorted(parsed))
    grid = np.array([parsed[d] for d in dates], dtype=float)
    order = np.argsort(tickers)
    return dates, tuple(tickers[j] for j in order), grid[:, order]


def oracle_load_wide(path, warnings):
    dates, tickers, closes = oracle_parse_wide_grid(path, warnings)
    opens = None
    opens_path = path.with_name(path.stem + ".open" + path.suffix)
    if opens_path.exists():
        o_dates, o_tickers, o_grid = oracle_parse_wide_grid(opens_path, warnings)
        if o_dates != dates or o_tickers != tickers:
            raise errors.DataError(f"{opens_path}: dates/tickers do not match {path}")
        opens = o_grid
    if opens is None:
        mask = ~np.isfinite(closes)
    else:
        mask = ~(np.isfinite(closes) & np.isfinite(opens))
    return md.PriceTable(dates, tickers, closes, mask, opens)


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def load_both(path, fmt):
    """``(outcome, warnings)`` of the loader and of the oracle; an outcome
    is a PriceTable or the DataError's message."""
    handler = _Collect()
    logger = logging.getLogger(md.__name__)
    logger.addHandler(handler)
    try:
        got = md.load_prices(path, fmt)
    except errors.DataError as exc:
        got = str(exc)
    finally:
        logger.removeHandler(handler)
    oracle_warnings = []
    try:
        oracle = oracle_load_long if fmt == md.FORMAT_LONG else oracle_load_wide
        want = oracle(path, oracle_warnings)
    except errors.DataError as exc:
        want = str(exc)
    return (got, handler.messages), (want, oracle_warnings)


def assert_same_load(got, want):
    (table, warned), (expected, expected_warned) = got, want
    assert warned == expected_warned
    if isinstance(expected, str):
        assert table == expected
        return
    assert isinstance(table, md.PriceTable), table
    assert table.dates == expected.dates
    assert table.tickers == expected.tickers
    assert np.array_equal(table.adj_close, expected.adj_close, equal_nan=True)
    assert np.array_equal(table.mask, expected.mask)
    assert (table.open_px is None) == (expected.open_px is None)
    if expected.open_px is not None:
        assert np.array_equal(table.open_px, expected.open_px, equal_nan=True)


PRICE_CELLS = (
    "12.5", "7", "0.01", "1e3", "+2.25", " 3.5 ", "\t4\t", "1_0", " 5.5", "\x1c6.0", "4.0\x1f",
    "\u0663.5", "nan", "NaN", " inf", "-inf", "1e400", "0", "-0", "0.0", "-3.2", "", "  ",
    "abc", "1__0", "1.2.3", "1,5", 'say "hi"', "--1",
)
# Cells that ``float`` parses whole, for runs that take the fast path.
NUMERIC_CELLS = ("12.5", "7", "0.01", "1e3", "+2.25", " 3.5 ", "\t4\t", "1_0", " 5.5", "\u0663.5",
                 "nan", " inf", "-inf", "0", "-3.2")


def date_cells(last_day):
    """Date cells: ISO dates up to ``last_day`` (bare or padded) and bad ones."""
    dates = st.dates(date(2021, 1, 1), last_day).map(date.isoformat)
    return st.one_of(
        dates,
        dates,
        dates.map(lambda d: f" {d}\t"),
        st.sampled_from(("20210107", "2021-13-01", "not-a-date", "", "01/04/2021")),
    )


TICKERS = ("A", "B", "C", "D", "E", "^IDX")
TICKER_CELLS = st.one_of(st.sampled_from(TICKERS), st.sampled_from(TICKERS), st.sampled_from((" B ", "a", "", "  ")))


def _csv_cell(text, quoted):
    """``text`` as CSV source; a cell with a comma or quote is always quoted."""
    if quoted or any(c in text for c in ',"'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_text(draw, leads, cell_pool, width):
    """One row per tuple of ``leads``: those cells, then ``width`` cells
    from ``cell_pool``; short, long, blank or quoted now and then."""
    lines = []
    for lead in draw(leads):
        kind = draw(st.sampled_from(("row",) * 8 + ("short", "long", "blank", "spaces")))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(" ,\t, ")
            continue
        n = width + {"row": 0, "short": -draw(st.integers(1, max(width, 1))), "long": draw(st.integers(1, 2))}[kind]
        cells = [*lead, *(draw(st.sampled_from(cell_pool)) for _ in range(n))][: len(lead) + n]
        lines.append(",".join(_csv_cell(c, draw(st.integers(0, 5)) == 0) for c in cells))
    ending = draw(st.sampled_from(("\n", "\r\n")))
    return ending.join(lines) + ending


LONG_LEADS = st.lists(st.tuples(date_cells(date(2021, 1, 31)), TICKER_CELLS), min_size=1, max_size=14)
# Distinct date cells, so that few wide files stop at a duplicate date.
WIDE_LEADS = st.lists(date_cells(date(2021, 12, 31)), min_size=1, max_size=12, unique=True).map(
    lambda days: [(day,) for day in days]
)


@settings(max_examples=150, deadline=None)
@given(
    header=st.sampled_from(("date,ticker,open,adj_close", " Date , TICKER ,Open,ADJ_CLOSE", "date,ticker,close")),
    junk=st.booleans(),
    data=st.data(),
)
def test_long_loader_matches_row_oracle(header, junk, data):
    body = data.draw(csv_text(LONG_LEADS, PRICE_CELLS if junk else NUMERIC_CELLS, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_text(header + "\n" + body, encoding="utf-8")
        got, want = load_both(path, md.FORMAT_LONG)
    assert_same_load(got, want)


# Cells with no comma or quote, for files that split on commas alone.
PLAIN_PRICE_CELLS = tuple(c for c in PRICE_CELLS if not any(ch in c for ch in ',"'))


@st.composite
def plain_long_text(draw, junk):
    """A long file of four unquoted cells a line and ``\n`` line ends,
    with blank (``,,,``) and whitespace rows, with or without a final
    line end; now and then it starts with a blank ``,,,`` line."""
    header = draw(st.sampled_from(
        ("date,ticker,open,adj_close",) * 3 + (" Date , TICKER ,Open,ADJ_CLOSE", ",,,\ndate,ticker,open,adj_close", ",,,")
    ))
    pool = PLAIN_PRICE_CELLS if junk else NUMERIC_CELLS
    lines = [header]
    for day, ticker in draw(LONG_LEADS):
        kind = draw(st.sampled_from(("row",) * 8 + ("blank", "spaces")))
        if kind == "row":
            lines.append(",".join((day, ticker, draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))))
        else:
            lines.append(",,," if kind == "blank" else " ,\t, , ")
    return "\n".join(lines) + draw(st.sampled_from(("\n", "")))


@settings(max_examples=150, deadline=None)
@given(junk=st.booleans(), data=st.data())
def test_plain_long_loader_matches_row_oracle(junk, data):
    text = data.draw(plain_long_text(junk))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            got, want = load_both(path, md.FORMAT_LONG)
    assert_same_load(got, want)
    # The oracle reads through csv.reader once; the loader only when the
    # file starts with a blank line.
    assert reader.call_count == 1 + text.startswith(",,,")


def benchmark_shaped_text(quoted=False, line_end="\n"):
    """A long panel written as the benchmark writes one: an index row and
    then each ticker's row per day, some missing, six decimals a price."""
    lines = ["date,ticker,open,adj_close"]
    for i, day in enumerate(synth.day_range(40)):
        lines.append(f"{day.isoformat()},^IDX,{3000 + i:.6f},{3001 + i:.6f}")
        for j in range(5):
            if (i * 5 + j) % 17:
                ticker = f'"S{j:02d}"' if quoted and j == 2 else f"S{j:02d}"
                lines.append(f"{day.isoformat()},{ticker},{10 + i * 0.1 + j:.6f},{10.5 + i * 0.1 + j:.6f}")
    return line_end.join(lines) + line_end


def test_a_plain_long_file_never_reaches_csv_reader(tmp_path, monkeypatch):
    path = tmp_path / "prices.csv"
    path.write_text(benchmark_shaped_text(), encoding="utf-8")
    want = oracle_load_long(path, [])

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called on a plain file")

    monkeypatch.setattr(md.csv, "reader", refuse)
    assert_same_load((md.load_prices(path), []), (want, []))
    assert want.shape == (40, 6) and int(want.mask.sum()) == 12


@pytest.mark.parametrize("quoted, line_end", [(True, "\n"), (False, "\r\n"), (True, "\r\n")])
def test_a_quoted_or_crlf_long_file_reaches_csv_reader(tmp_path, quoted, line_end):
    plain = tmp_path / "plain.csv"
    plain.write_text(benchmark_shaped_text(), encoding="utf-8")
    path = tmp_path / "prices.csv"
    path.write_bytes(benchmark_shaped_text(quoted, line_end).encode("utf-8"))
    with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        table = md.load_prices(path)
    assert reader.call_count == 1
    assert_same_load((table, []), (md.load_prices(plain), []))


@pytest.mark.parametrize("quoted, line_end", [(False, "\n"), (True, "\r\n")], ids=["split", "csv_reader"])
def test_a_byte_order_mark_leaves_a_long_file_as_it_is(tmp_path, quoted, line_end):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark.
    text = benchmark_shaped_text(quoted, line_end)
    plain = tmp_path / "plain.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        table = md.load_prices(marked)
    assert reader.call_count == quoted
    assert_same_load((table, []), (md.load_prices(plain), []))


def test_a_byte_order_mark_leaves_a_wide_file_and_its_opens_as_they_are(tmp_path):
    table = synth.random_walk_table(3, 12, seed=6)
    path = tmp_path / "panel.csv"
    synth.write_wide_csv(table, path)
    want = md.load_prices(path, md.FORMAT_WIDE)
    for name in ("panel.csv", "panel.open.csv"):
        marked = tmp_path / name
        marked.write_bytes(codecs.BOM_UTF8 + marked.read_bytes())
    got = md.load_prices(path, md.FORMAT_WIDE)
    assert got.open_px is not None
    assert_same_load((got, []), (want, []))


def test_a_line_past_the_csv_field_limit_fails_as_csv_reader_does(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(benchmark_shaped_text().replace(",^IDX,", ",^IDX" + " " * 60 + ",", 1), encoding="utf-8")
    limit = csv.field_size_limit(50)
    try:
        with pytest.raises(csv.Error, match="field larger than field limit"):
            oracle_read_rows(path)
        # Where csv.reader fails, the loader fails too, with a DataError
        # that names the file.
        with pytest.raises(
            errors.DataError, match=rf"^cannot parse {re.escape(str(path))}: field larger than field limit \(50\)$"
        ):
            md.load_prices(path)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize(
    "fmt, text",
    [
        (md.FORMAT_WIDE, "date,AAA\n2021-01-04,{big}\n"),
        (md.FORMAT_LONG, 'date,ticker,open,adj_close\n2021-01-04,"AAA",1.5,{big}\n'),
    ],
    ids=["wide", "quoted_long"],
)
def test_a_cell_past_the_csv_field_limit_is_a_data_error_naming_the_file(tmp_path, fmt, text):
    path = tmp_path / "prices.csv"
    path.write_text(text.format(big="1" * 200_000), encoding="utf-8")
    limit = csv.field_size_limit()
    with pytest.raises(
        errors.DataError, match=rf"^cannot parse {re.escape(str(path))}: field larger than field limit \({limit}\)$"
    ):
        md.load_prices(path, fmt)


def test_decode_error_counts_its_position_from_the_start_of_the_file(tmp_path):
    path = tmp_path / "prices.csv"
    # A byte-order mark is counted too.
    for head in (b"", codecs.BOM_UTF8):
        path.write_bytes(head + (benchmark_shaped_text() * 3).encode("utf-8")[: 23_999 - len(head)] + b"\xff")
        for fmt in (md.FORMAT_LONG, md.FORMAT_WIDE):
            with pytest.raises(errors.DataError, match=rf"^cannot decode {re.escape(str(path))}: .* in position 23999: "):
                md.load_prices(path, fmt)


@settings(max_examples=150, deadline=None)
@given(
    first=st.sampled_from(("date",) * 4 + (" DATE ", "day")),
    tickers=st.lists(st.sampled_from(TICKERS), min_size=1, max_size=5, unique=True),
    odd_ticker=st.sampled_from((None,) * 6 + ("", " A ", "a")),
    junk=st.booleans(),
    sibling=st.sampled_from((None, "same", "other")),
    data=st.data(),
)
def test_wide_loader_matches_row_oracle(first, tickers, odd_ticker, junk, sibling, data):
    if odd_ticker is not None:
        tickers = tickers + [odd_ticker]
    pool = PRICE_CELLS if junk else NUMERIC_CELLS
    header = ",".join([first] + tickers)
    body = data.draw(csv_text(WIDE_LEADS, pool, len(tickers)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_text(header + "\n" + body, encoding="utf-8")
        if sibling is not None:
            if sibling == "other":
                body = data.draw(csv_text(WIDE_LEADS, pool, len(tickers)))
            (Path(tmp) / "panel.open.csv").write_text(header + "\n" + body, encoding="utf-8")
        got, want = load_both(path, md.FORMAT_WIDE)
    assert_same_load(got, want)


def test_price_run_matches_cell_rule():
    for cells in (PRICE_CELLS, NUMERIC_CELLS, ("\x1c6.0",), ("1", "2.5\x1f")):
        want = [oracle_parse_price(c) for c in cells]
        assert np.array_equal(md._parse_prices(cells), want, equal_nan=True)
    assert md._parse_prices([]).shape == (0,)


def test_long_duplicate_reports_first_repeat_in_file_order(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,ticker,open,adj_close\n"
        "2021-01-04,A,1,2\n"
        "2021-01-05,B,1,2\n"
        "2021-01-04, A ,1,2\n"      # the first repeat in file order
        "2021-01-05,B,1,2\n"
    )
    with pytest.raises(errors.DataError, match=r"pair \(datetime.date\(2021, 1, 4\), 'A'\)"):
        md.load_prices(path)


def test_long_skipped_rows_are_counted_and_logged(tmp_path, caplog):
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,ticker,open,adj_close\n"
        "2021-01-04,A,10.0,11.0\n"
        "\n"
        "2021-01-05,A\n"
        "bad,A,1,2\n"
        "2021-01-05,,1,2\n"
        " , , , \n"
    )
    with caplog.at_level(logging.WARNING, logger=md.__name__):
        md.load_prices(path)
    assert caplog.messages == [f"{path}: skipped 3 malformed rows"]


def test_long_row_of_four_blank_cells_and_more_is_malformed(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,ticker,open,adj_close\n2021-01-04,A,1,2\n,,,,x\n,,,, \n,,,\n")
    got, want = load_both(path, md.FORMAT_LONG)
    assert_same_load(got, want)
    assert got[1] == [f"{path}: skipped 1 malformed rows"]
