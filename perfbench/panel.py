"""Seeded synthetic price panels for the benchmark.

A panel is a geometric random walk driven by one market factor, with a
few lead-lag hubs whose previous-day move feeds their followers, optional
scattered gaps, and a ``^GSPC`` benchmark column built from the market
factor.  The same arguments always write the same bytes.  This module
depends on numpy only, so edits to the engine or its tests cannot change
the benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

BENCHMARK_TICKER = "^GSPC"
START = date(2012, 1, 3)
N_HUBS = 4  # lead-lag hubs per panel


@dataclass(frozen=True)
class PanelSpec:
    """Shape of one generated panel; the seed comes separately."""

    n_tickers: int
    n_days: int
    fmt: str = "long"  # long | wide
    gap_frac: float = 0.0  # share of cells dropped at random
    over_cut: int = 0  # tickers with more gaps than the quality cut keeps


def business_days(n: int, start: date = START) -> list[date]:
    days = []
    day = start
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def ticker_names(n: int) -> list[str]:
    return [f"S{i:03d}" for i in range(n)]


def simulate_prices(spec: PanelSpec, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closes, opens and gap mask (days x tickers) plus the index series."""
    rng = np.random.default_rng(seed)
    t, n = spec.n_days, spec.n_tickers
    market = rng.normal(0.0003, 0.008, t)
    beta = rng.uniform(0.5, 1.5, n)
    rets = market[:, None] * beta + rng.normal(0.0, 0.012, (t, n))
    hubs = rng.choice(n, size=min(N_HUBS, n), replace=False)
    followers = np.setdiff1d(np.arange(n), hubs)
    leader = hubs[rng.integers(0, hubs.size, followers.size)]
    load = rng.uniform(0.25, 0.45, followers.size)
    rets[1:, followers] += load * rets[:-1, leader]
    closes = rng.uniform(20.0, 200.0, n) * np.cumprod(1.0 + rets, axis=0)
    opens = np.vstack([closes[:1], closes[:-1]]) * np.exp(rng.normal(0.0, 0.002, (t, n)))
    index = 1000.0 * np.cumprod(1.0 + market)
    mask = rng.random((t, n)) < spec.gap_frac
    if spec.over_cut:
        cut = rng.choice(followers, size=spec.over_cut, replace=False)
        mask[:, cut] |= rng.random((t, spec.over_cut)) < 0.15
    mask[0] = False  # every ticker has a first close
    return closes, opens, mask, index


def write_panel(spec: PanelSpec, seed: int, path: Path) -> None:
    """Write the panel CSV in the spec's layout."""
    closes, opens, mask, index = simulate_prices(spec, seed)
    days = [d.isoformat() for d in business_days(spec.n_days)]
    names = ticker_names(spec.n_tickers)
    lines = []
    if spec.fmt == "long":
        lines.append("date,ticker,open,adj_close")
        for i, day in enumerate(days):
            lines.append(f"{day},{BENCHMARK_TICKER},{index[i]:.6f},{index[i]:.6f}")
            for j, name in enumerate(names):
                if not mask[i, j]:
                    lines.append(f"{day},{name},{opens[i, j]:.6f},{closes[i, j]:.6f}")
    elif spec.fmt == "wide":
        lines.append(",".join(["date", BENCHMARK_TICKER, *names]))
        for i, day in enumerate(days):
            cells = ["" if mask[i, j] else f"{closes[i, j]:.6f}" for j in range(len(names))]
            lines.append(",".join([day, f"{index[i]:.6f}", *cells]))
    else:
        raise ValueError(f"unknown panel format {spec.fmt!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config(path: Path, fmt: str, strategy: dict[str, str]) -> None:
    """INI for a panel written as ``prices.csv`` next to the config."""
    lines = [
        "[data]",
        "prices = prices.csv",
        f"format = {fmt}",
        f"benchmark_ticker = {BENCHMARK_TICKER}",
        "max_missing_frac = 0.10",
        "",
        "[strategy]",
        *(f"{key} = {value}" for key, value in strategy.items()),
        "",
        "[output]",
        "dir = out",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
