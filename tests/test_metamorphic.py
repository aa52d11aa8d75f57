"""Metamorphic tests: a run's results do not depend on the column order of
the price panel, on the tickers' names beyond their sort order, on a
ticker that the quality filter removes, on the row order of a long CSV, or
on whether the panel comes as a long or a wide CSV."""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mstport import market_data
from mstport.backtest import STRATEGY_NAMES, StrategyConfig, run_multi_seed
from mstport.cli import main
from mstport.market_data import PriceTable
from synth import random_walk_table, with_masked, write_long_csv, write_wide_csv

# Gaps in three stocks, so masked windows and stale prices take part.
PANEL = with_masked(
    random_walk_table(8, 120, seed=41, extra_tickers=("IDX",)), [(70, 0), (83, 3), (97, 6)]
)
BASE = StrategyConfig(window=60, top_k=3, seeds=(132,), benchmark_ticker="IDX", nnar_epochs=20)


def permuted(table: PriceTable, order: list[int]) -> PriceTable:
    return PriceTable(
        table.dates,
        tuple(table.tickers[j] for j in order),
        table.adj_close[:, order],
        table.mask[:, order],
        table.open_px[:, order],
    )


@functools.cache
def sorted_run():
    return run_multi_seed(BASE, PANEL, market_data.compute_returns(PANEL))


@settings(max_examples=4, deadline=None)
@given(st.permutations(range(len(PANEL.tickers))))
@example(list(range(len(PANEL.tickers)))[::-1])
def test_column_permutation_changes_no_result(order):
    table = permuted(PANEL, order)
    got = run_multi_seed(BASE, table, market_data.compute_returns(table))
    want = sorted_run()
    assert got.strategies == want.strategies == STRATEGY_NAMES
    for key, res in want.results.items():
        assert np.array_equal(got.results[key].values, res.values), key
        assert got.results[key].trade_count == res.trade_count, key
        assert got.results[key].warnings == res.warnings, key
        assert got.results[key].days == res.days, key


# The tier-1 command-line panel and config; ``{strategies}`` and the ticker
# names vary per test.
CLI_PANEL = with_masked(random_walk_table(6, 100, seed=21, extra_tickers=("IDX",)), [(55, 1), (80, 4)])
CONFIG = """[data]
prices = {prices}
format = {fmt}
benchmark_ticker = {benchmark}
max_missing_frac = 0.1

[strategy]
window = 30
top_k = 3
seeds = 11,12
strategies = {strategies}

[forecast]
nnar_epochs = 25

[output]
dir = {out}
"""
# NNAR seeds are derived from ticker names (``forecast.derive_seed``), so a
# relabel re-seeds those strategies; every other strategy is name-blind.
NAME_BLIND = [n for n in STRATEGY_NAMES if "nnar" not in n and "allagree" not in n]


def outputs(
    tmp_path: Path,
    command: str,
    write_prices: Callable[[Path], None],
    *,
    fmt: str = "long",
    benchmark: str = "IDX",
    strategies: Sequence[str] = STRATEGY_NAMES,
) -> dict[str, bytes]:
    """Every output file of ``mstport COMMAND`` on the prices that
    ``write_prices`` writes, by name.  Paths are the same on every call, so
    the config echo in ``summary.json`` is too."""
    prices, out = tmp_path / "prices.csv", tmp_path / "out"
    write_prices(prices)
    config = tmp_path / "run.ini"
    text = CONFIG.format(prices=prices, fmt=fmt, benchmark=benchmark, strategies=",".join(strategies), out=out)
    config.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(config)]) == 0
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    for path in out.iterdir():
        path.unlink()
    return files


def simulate(tmp_path: Path, table: PriceTable, benchmark: str, strategies: Sequence[str]) -> dict[str, bytes]:
    """Every output file of ``mstport simulate`` on the panel, by name."""
    return outputs(
        tmp_path,
        "simulate",
        functools.partial(write_long_csv, table),
        benchmark=benchmark,
        strategies=strategies,
    )


def test_order_preserving_relabel_keeps_every_values_file(tmp_path):
    # Increasing first letters keep the order; shrinking lengths change
    # every name's length rank.
    n = len(CLI_PANEL.tickers)
    names = {t: chr(ord("a") + i) + "z" * (n - i) for i, t in enumerate(CLI_PANEL.tickers)}
    assert sorted(names.values()) == [names[t] for t in CLI_PANEL.tickers]
    relabelled = PriceTable(
        CLI_PANEL.dates,
        tuple(names[t] for t in CLI_PANEL.tickers),
        CLI_PANEL.adj_close,
        CLI_PANEL.mask,
        CLI_PANEL.open_px,
    )
    want = simulate(tmp_path, CLI_PANEL, "IDX", NAME_BLIND)
    got = simulate(tmp_path, relabelled, names["IDX"], NAME_BLIND)
    values = [name for name in want if name.startswith("values_")]
    assert len(values) == 2 * len(NAME_BLIND)
    assert {name: got[name] for name in values} == {name: want[name] for name in values}


def test_ticker_failing_the_quality_cut_changes_no_output_file(tmp_path):
    # The new ticker sorts between two stocks and misses exactly the cut's
    # fraction of days, which the filter's strict ``<`` removes.
    n_days = len(CLI_PANEL.dates)
    rng = np.random.default_rng(3)
    column = 50.0 * np.cumprod(np.exp(rng.normal(0.0, 0.01, n_days)))
    missing = np.zeros(n_days, dtype=bool)
    missing[rng.choice(n_days, size=n_days // 10, replace=False)] = True
    at = CLI_PANEL.tickers.index("S03")
    wider = PriceTable(
        CLI_PANEL.dates,
        CLI_PANEL.tickers[:at] + ("S025",) + CLI_PANEL.tickers[at:],
        np.insert(CLI_PANEL.adj_close, at, column, axis=1),
        np.insert(CLI_PANEL.mask, at, missing, axis=1),
        np.insert(CLI_PANEL.open_px, at, column, axis=1),
    )
    want = simulate(tmp_path, CLI_PANEL, "IDX", list(STRATEGY_NAMES))
    got = simulate(tmp_path, wider, "IDX", list(STRATEGY_NAMES))
    assert len(want) == 2 * len(STRATEGY_NAMES) + 2
    assert got == want


def shuffled_rows(table: PriceTable, seed: int, path: Path) -> None:
    """The long CSV of the panel with its data rows in a seeded random order."""
    write_long_csv(table, path)
    header, *rows = path.read_bytes().splitlines(keepends=True)
    order = np.random.default_rng(seed).permutation(len(rows))
    path.write_bytes(header + b"".join(rows[i] for i in order))


@pytest.mark.parametrize("command", ["network", "simulate"])
def test_long_csv_row_order_changes_no_output_file(tmp_path, command):
    want = outputs(tmp_path, command, functools.partial(write_long_csv, CLI_PANEL))
    assert len(want) == (71 if command == "network" else 2 * len(STRATEGY_NAMES) + 2)
    for seed in (1, 2):
        got = outputs(tmp_path, command, functools.partial(shuffled_rows, CLI_PANEL, seed))
        assert got == want, seed


def test_wide_csv_gives_the_files_of_a_long_csv_without_opens(tmp_path):
    # Closes only, since a long CSV with a blank ``open`` column has none;
    # the wide file lists its tickers in reverse order.
    long_table = dataclasses.replace(CLI_PANEL, open_px=None)
    reverse = list(range(len(CLI_PANEL.tickers)))[::-1]
    wide_table = dataclasses.replace(permuted(CLI_PANEL, reverse), open_px=None)
    long_csv = functools.partial(write_long_csv, long_table)
    wide_csv = functools.partial(write_wide_csv, wide_table)

    want = outputs(tmp_path, "network", long_csv)
    assert len(want) == 71
    assert outputs(tmp_path, "network", wide_csv, fmt="wide") == want

    want = outputs(tmp_path, "simulate", long_csv)
    got = outputs(tmp_path, "simulate", wide_csv, fmt="wide")
    assert len(want) == 2 * len(STRATEGY_NAMES) + 2
    summary_want, summary_got = want.pop("summary.json"), got.pop("summary.json")
    assert got == want
    # Only the config echo and the echoed format may differ.
    changed = [
        (a, b)
        for a, b in zip(summary_want.splitlines(), summary_got.splitlines(), strict=True)
        if a != b
    ]
    assert [b.split(b":")[0].strip() for _, b in changed] == [b'"format"', b'"config_echo"']
    assert json.loads(summary_got)["config"]["format"] == "wide"
