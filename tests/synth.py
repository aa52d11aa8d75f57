"""Synthetic market fixtures shared across the test modules.

Everything here is seeded and pure: the same arguments always produce the
same panel, so tests can freeze expectations against these builders.
"""

from __future__ import annotations

import csv
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from mstport.market_data import PriceTable, ReturnMatrix


def day_range(n: int, start: date = date(2021, 1, 4)) -> tuple[date, ...]:
    return tuple(start + timedelta(days=i) for i in range(n))


def ticker_names(n: int, prefix: str = "S") -> tuple[str, ...]:
    return tuple(f"{prefix}{i:02d}" for i in range(n))


def random_walk_table(
    n_tickers: int,
    n_days: int,
    seed: int,
    with_opens: bool = True,
    drift: float = 0.0003,
    vol: float = 0.012,
    extra_tickers: tuple[str, ...] = (),
) -> PriceTable:
    """Geometric random walk panel with optional opens near the prior close."""
    rng = np.random.default_rng(seed)
    names = tuple(sorted(ticker_names(n_tickers) + extra_tickers))
    total = len(names)
    base = 40.0 + 120.0 * rng.random(total)
    steps = np.exp(rng.normal(drift, vol, size=(n_days, total)))
    steps[0] = 1.0
    closes = base * np.cumprod(steps, axis=0)
    opens = None
    if with_opens:
        gaps = np.exp(rng.normal(0.0, 0.002, size=(n_days, total)))
        opens = np.vstack([closes[:1] * gaps[0], closes[:-1] * gaps[1:]])
    mask = np.zeros((n_days, total), dtype=bool)
    return PriceTable(day_range(n_days), names, closes, mask, opens)


def flat_table(
    n_tickers: int,
    n_days: int,
    price: float = 100.0,
    with_opens: bool = True,
    extra_tickers: tuple[str, ...] = (),
) -> PriceTable:
    """Panel where every price is the same constant on every day."""
    names = tuple(sorted(ticker_names(n_tickers) + extra_tickers))
    grid = np.full((n_days, len(names)), price)
    mask = np.zeros_like(grid, dtype=bool)
    opens = grid.copy() if with_opens else None
    return PriceTable(day_range(n_days), names, grid, mask, opens)


def with_flat_start(table: PriceTable, n_rows: int) -> PriceTable:
    """Copy of the panel whose first ``n_rows`` prices all equal row ``n_rows``'s close.

    Every return up to row ``n_rows - 1`` is zero, so a window ending there
    has no estimable network.
    """
    closes = table.adj_close.copy()
    closes[:n_rows] = closes[n_rows]
    opens = None
    if table.open_px is not None:
        opens = table.open_px.copy()
        opens[:n_rows] = closes[n_rows]
    return PriceTable(table.dates, table.tickers, closes, table.mask, opens)


def with_masked(table: PriceTable, cells: list[tuple[int, int]]) -> PriceTable:
    """Copy of the panel with the given (row, column) cells masked."""
    mask = table.mask.copy()
    for row, col in cells:
        mask[row, col] = True
    return PriceTable(table.dates, table.tickers, table.adj_close, mask, table.open_px)


def hub_returns(
    seed: int,
    n_hubs: int = 5,
    followers_per: int = 5,
    n_rows: int = 169,
    hub_ar: float = 0.3,
    load: float = 0.8,
    noise: float = 0.01,
) -> tuple[ReturnMatrix, set[str]]:
    """Return panel where each follower tracks one hub's previous move.

    Hubs evolve as independent AR(1) processes; follower j of hub g is
    ``load * hub_g[t-1]`` plus idiosyncratic noise, so hubs drive the
    variance of their cluster while followers drive nothing.
    """
    rng = np.random.default_rng(seed)
    burn = 50
    total = n_rows + burn
    hubs = np.zeros((total, n_hubs))
    for t in range(1, total):
        hubs[t] = hub_ar * hubs[t - 1] + rng.normal(0.0, noise, n_hubs)
    followers = np.zeros((total, n_hubs * followers_per))
    for t in range(1, total):
        for g in range(n_hubs):
            lo = g * followers_per
            followers[t, lo : lo + followers_per] = load * hubs[t - 1, g] + rng.normal(
                0.0, noise, followers_per
            )
    data = np.column_stack([hubs, followers])[burn:]
    names = [f"HUB{g}" for g in range(n_hubs)] + [
        f"F{g}{j}" for g in range(n_hubs) for j in range(followers_per)
    ]
    order = np.argsort(names)
    panel = ReturnMatrix(
        dates=day_range(n_rows),
        tickers=tuple(sorted(names)),
        returns=data[:, order],
        mask=np.zeros_like(data, dtype=bool),
    )
    return panel, {f"HUB{g}" for g in range(n_hubs)}


def random_returns(n_tickers: int, n_rows: int, seed: int, vol: float = 0.01) -> ReturnMatrix:
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, vol, size=(n_rows, n_tickers))
    return ReturnMatrix(
        dates=day_range(n_rows),
        tickers=ticker_names(n_tickers),
        returns=data,
        mask=np.zeros_like(data, dtype=bool),
    )


def write_long_csv(table: PriceTable, path: Path) -> None:
    """Serialize a panel to the one-row-per-observation CSV layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "ticker", "open", "adj_close"])
        for i, day in enumerate(table.dates):
            for j, ticker in enumerate(table.tickers):
                if table.mask[i, j]:
                    writer.writerow([day.isoformat(), ticker, "", ""])
                    continue
                open_text = repr(float(table.open_px[i, j])) if table.open_px is not None else ""
                writer.writerow([day.isoformat(), ticker, open_text, repr(float(table.adj_close[i, j]))])


def write_wide_csv(table: PriceTable, path: Path) -> None:
    """Serialize a panel to the one-column-per-ticker CSV layout."""
    path = Path(path)

    def write_grid(grid: np.ndarray, target: Path) -> None:
        with open(target, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", *table.tickers])
            for i, day in enumerate(table.dates):
                row = [day.isoformat()]
                for j in range(len(table.tickers)):
                    row.append("" if table.mask[i, j] else repr(float(grid[i, j])))
                writer.writerow(row)

    write_grid(table.adj_close, path)
    if table.open_px is not None:
        write_grid(table.open_px, path.with_name(path.stem + ".open" + path.suffix))
