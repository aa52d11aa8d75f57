"""Metamorphic tests: a run's results do not depend on the column order of
the price panel, on the tickers' names beyond their sort order, on a
ticker that the quality filter removes, on the row order of a long CSV, on
whether the panel comes as a long or a wide CSV, or on the rows after the
last day it reaches; and a rerun writes the same bytes."""

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


# A gapless panel, and the same panel with 1% of its stock cells missing.
GAPLESS = random_walk_table(8, 120, seed=43, extra_tickers=("IDX",))
GAPPY = with_masked(
    GAPLESS,
    [(int(r), int(c)) for r, c in zip(*np.nonzero(np.random.default_rng(5).random((120, 8)) < 0.01))],
)


def cut_after(table: PriceTable, day: int) -> PriceTable:
    """The panel's rows up to and including row ``day``."""
    rows = slice(0, day + 1)
    return PriceTable(table.dates[rows], table.tickers, table.adj_close[rows], table.mask[rows], table.open_px[rows])


@pytest.mark.parametrize("table", [GAPLESS, GAPPY], ids=["gapless", "gaps"])
def test_a_panel_cut_after_a_day_leaves_every_earlier_day_unchanged(table):
    # A decision reads no later row: every (strategy, seed) run of the cut
    # panel is a prefix of the full panel's, value for value and day for day.
    assert table is GAPLESS or 5 <= int(table.mask.sum()) <= 15
    base = dataclasses.replace(BASE, seeds=(132, 133))
    want = run_multi_seed(base, table, market_data.compute_returns(table))
    for day in (75, 100):
        cut = cut_after(table, day)
        got = run_multi_seed(base, cut, market_data.compute_returns(cut))
        assert got.results.keys() == want.results.keys()
        for key, res in want.results.items():
            part = got.results[key]
            n = len(part.dates)
            assert 0 < n < len(res.dates), (key, day)
            assert part.dates == res.dates[:n], (key, day)
            assert np.array_equal(part.values, res.values[:n]), (key, day)
            assert part.days == res.days[: len(part.days)], (key, day)
        assert sum(len(res.days) for res in got.results.values()) > 0


def network(tmp_path: Path, table: PriceTable) -> dict[str, bytes]:
    """Every output file of ``mstport network`` on the panel, by name."""
    return outputs(tmp_path, "network", functools.partial(write_long_csv, table))


def test_network_reruns_write_identical_files(tmp_path):
    first = network(tmp_path, GAPLESS)
    assert len(first) == 1 + 90  # costs.csv and the trees of return rows 29..118
    assert network(tmp_path, GAPLESS) == first


def test_network_of_a_panel_cut_after_a_day_is_a_prefix_of_the_full_run(tmp_path):
    # Cut after price row 80, the run keeps the windows ending at return
    # rows 29..79, each with the C(8, 2) pairs of the eight stocks.
    full = network(tmp_path, GAPLESS)
    cut = network(tmp_path, cut_after(GAPLESS, 80))
    costs = cut.pop("costs.csv")
    assert full["costs.csv"].startswith(costs) and len(costs) < len(full["costs.csv"])
    assert costs.count(b"\r\n") == 1 + 51 * 28
    assert len(cut) == 51
    assert {name: full[name] for name in cut} == cut


def test_the_quality_cut_counts_gaps_over_the_whole_file(tmp_path, capsys):
    # Whole-sample preprocessing, as the paper's fixed universe: a ticker
    # whose gaps all fall in the file's last 30 days misses 15% of 200 days
    # and is left out, though the same file cut at day 170 keeps it.
    table = random_walk_table(3, 200, seed=8)
    late_gaps = with_masked(table, [(row, 2) for row in range(170, 200)])
    kept = []
    for panel in (late_gaps, cut_after(late_gaps, 169)):
        prices, config = tmp_path / "prices.csv", tmp_path / "run.ini"
        write_long_csv(panel, prices)
        config.write_text(f"[data]\nprices = {prices}\n\n[strategy]\nstrategies = mst_var\n", encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 0
        kept.append([line for line in capsys.readouterr().out.splitlines() if line.startswith("tickers kept")])
    assert kept == [["tickers kept (missing fraction < 0.1): 2"], ["tickers kept (missing fraction < 0.1): 3"]]
