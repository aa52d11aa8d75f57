"""The shared decision path: multi-strategy runs equal independent runs, and
each window's network and each forecast is computed once per run."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mstport import forecast, market_data, var_fevd
from mstport.backtest import (
    BENCHMARK_STRATEGY,
    STRATEGY_NAMES,
    DecisionPath,
    StrategyConfig,
    benchmark_buy_hold,
    make_strategy,
    run_multi_seed,
    run_simulation,
)
from mstport.errors import ConfigError
from synth import random_walk_table, with_flat_start

# The backtest tests' panel, shortened and with shorter NNAR training: the
# equivalence tests re-run every strategy and seed on its own.
PANEL = random_walk_table(8, 110, seed=41, extra_tickers=("IDX",))
RETURNS = market_data.compute_returns(PANEL)
BASE = StrategyConfig(window=60, top_k=3, seeds=(132,), benchmark_ticker="IDX", nnar_epochs=20)
SEEDS = (7, 8)
NNAR_STRATEGIES = ("mst_nnar_var", "mst_nnar_sharpe", "mst_allagree_var", "mst_allagree_sharpe")


def independent_run(cfg: StrategyConfig, prices, returns, name: str, seed: int):
    if name == BENCHMARK_STRATEGY:
        j = prices.ticker_index(cfg.benchmark_ticker)
        rows = slice(cfg.window, len(prices.dates))
        return benchmark_buy_hold(
            prices.dates[rows], prices.adj_close[rows, j], cfg.initial_capital, prices.mask[rows, j]
        )
    return run_simulation(make_strategy(cfg, name), prices, returns, seed=seed)


def assert_matches_independent_runs(cfg: StrategyConfig, prices) -> dict:
    returns = market_data.compute_returns(prices)
    multi = run_multi_seed(cfg, prices, returns, seeds=SEEDS)
    for name in STRATEGY_NAMES:
        for seed in SEEDS:
            got = multi.results[(name, seed)]
            want = independent_run(cfg, prices, returns, name, seed)
            assert got.seed == seed
            assert np.array_equal(got.values, want.values), (name, seed)
            assert got.trade_count == want.trade_count, (name, seed)
            assert got.warnings == want.warnings, (name, seed)
            assert got.days == want.days, (name, seed)
    return multi.results


def test_shared_path_matches_independent_runs():
    assert_matches_independent_runs(BASE, PANEL)


def test_shared_path_reproduces_network_unavailable_warnings():
    results = assert_matches_independent_runs(BASE, with_flat_start(PANEL, 66))
    for name in STRATEGY_NAMES:
        if name == BENCHMARK_STRATEGY:
            continue
        warned = [w for w in results[(name, SEEDS[0])].warnings if w.startswith("network unavailable")]
        assert warned, name


def test_shared_path_matches_independent_runs_with_sparse_rebalancing():
    assert_matches_independent_runs(replace(BASE, rebalance_every=7), PANEL)


def test_each_window_network_and_forecast_is_computed_once(monkeypatch):
    windows = Counter()
    nnar_fits = Counter()
    arima_fits = Counter()
    influence_matrix, nnar_fit, arima_fit = var_fevd.influence_matrix, forecast.nnar_fit, forecast.arima_fit

    def counted_influence(win, *args, **kwargs):
        windows[win.dates[-1]] += 1
        return influence_matrix(win, *args, **kwargs)

    def counted_nnar(series, *args, **kwargs):
        nnar_fits[(series.tobytes(), args[2])] += 1
        return nnar_fit(series, *args, **kwargs)

    def counted_arima(series, *args, **kwargs):
        arima_fits[series.tobytes()] += 1
        return arima_fit(series, *args, **kwargs)

    monkeypatch.setattr(var_fevd, "influence_matrix", counted_influence)
    monkeypatch.setattr(forecast, "nnar_fit", counted_nnar)
    monkeypatch.setattr(forecast, "arima_fit", counted_arima)
    multi = run_multi_seed(BASE, PANEL, RETURNS, seeds=SEEDS)

    w = BASE.window
    asked = {RETURNS.dates[tau] for tau in range(w - 1, len(RETURNS.dates) - 1)}
    assert windows == Counter({end: 1 for end in asked})
    nnar_tasks = {
        (ticker, rec.date, seed)
        for name in NNAR_STRATEGIES
        for seed in SEEDS
        for rec in multi.results[(name, seed)].days
        for ticker in rec.selection
    }
    assert sum(nnar_fits.values()) == len(nnar_tasks) == len(SEEDS) * len(asked) * BASE.top_k
    assert set(nnar_fits.values()) == {1}
    arima_tasks = {
        (ticker, rec.date)
        for name in ("mst_arima_var", "mst_arima_sharpe")
        for rec in multi.results[(name, SEEDS[0])].days
        for ticker in rec.selection
    }
    assert sum(arima_fits.values()) == len(arima_tasks)
    assert set(arima_fits.values()) == {1}


def test_path_refuses_a_strategy_with_other_upstream_fields():
    path = DecisionPath(BASE, PANEL, RETURNS)
    for name in STRATEGY_NAMES:
        path.check(make_strategy(BASE, name))
    with pytest.raises(ConfigError, match="horizon"):
        path.check(replace(BASE, horizon=BASE.horizon + 1))
