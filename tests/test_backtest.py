"""Trading-engine tests: hand-worked execution days, accounting identities,
and a bit-for-bit comparison against the scalar reference simulator."""

from __future__ import annotations

import math
from dataclasses import replace as dataclass_replace

import numpy as np
import pytest

import reference_sim
from mstport import backtest, market_data
from mstport.allocation import from_raw
from mstport.backtest import (
    EMPTY_WEIGHTS,
    PortfolioState,
    StrategyConfig,
    aggregate_signal,
    benchmark_buy_hold,
    execute_day,
    filter_weights,
    make_strategy,
    run_multi_seed,
    run_simulation,
)
from mstport.errors import ConfigError, DataError, InsufficientHistory
from mstport.forecast import make_forecast
from synth import day_range, flat_table, random_walk_table, with_masked

PANEL = random_walk_table(8, 140, seed=41, extra_tickers=("IDX",))
RETURNS = market_data.compute_returns(PANEL)
BASE = StrategyConfig(
    window=60,
    top_k=3,
    seeds=(132,),
    benchmark_ticker="IDX",
    nnar_epochs=40,
)


def fresh_state(cash: float = 10_000.0) -> PortfolioState:
    return PortfolioState(cash=cash, holdings={}, value=cash)


def last_close_before(prices: market_data.PriceTable, row: int, ticker: str) -> float:
    """Most recent unmasked close for the ticker at or before the row."""
    j = prices.ticker_index(ticker)
    for r in range(row, -1, -1):
        if not prices.mask[r, j]:
            return float(prices.adj_close[r, j])
    raise AssertionError(f"no close ever observed for {ticker}")


def assert_accounting_identity(prices: market_data.PriceTable, result) -> None:
    """Every recorded value must equal cash plus marked holdings exactly."""
    row_of = {d: i for i, d in enumerate(prices.dates)}
    for rec in result.days:
        row = row_of[rec.date]
        marks = [shares * last_close_before(prices, row, t) for t, shares in rec.holdings]
        assert rec.value == math.fsum([rec.cash] + marks)
        assert rec.cash >= 0.0


# ---------------------------------------------------------------------------
# execute_day hand examples


def test_execute_day_buys_with_floor_rule_and_marks_at_close():
    weights = from_raw(("A", "B"), (0.6, 0.4))
    state = execute_day(
        fresh_state(10_000.0),
        1,
        weights,
        exec_prices={"A": 100.0, "B": 50.0},
        close_prices={"A": 101.0, "B": 51.0},
    )
    assert state.holdings == {"A": 60, "B": 80}
    assert state.cash == 0.0
    assert state.value == 60 * 101.0 + 80 * 51.0  # 10140
    assert state.stale == ()


def test_execute_day_keeps_floor_residual_in_cash():
    weights = from_raw(("A", "B"), (0.5, 0.5))
    state = execute_day(
        fresh_state(100.0),
        1,
        weights,
        exec_prices={"A": 3.0, "B": 7.0},
        close_prices={"A": 3.0, "B": 7.0},
    )
    assert state.holdings == {"A": 16, "B": 7}  # floor(50/3), floor(50/7)
    assert state.cash == 100.0 - 16 * 3.0 - 7 * 7.0  # 3.0
    assert state.value == 100.0


def test_execute_day_sell_signal_liquidates():
    start = PortfolioState(cash=5.0, holdings={"A": 10}, value=1105.0)
    state = execute_day(start, -1, EMPTY_WEIGHTS, exec_prices={"A": 110.0}, close_prices={})
    assert state.holdings == {}
    assert state.cash == 1105.0
    assert state.value == 1105.0


def test_execute_day_hold_keeps_positions():
    start = PortfolioState(cash=5.0, holdings={"A": 10}, value=905.0)
    state = execute_day(start, 0, EMPTY_WEIGHTS, exec_prices={}, close_prices={"A": 90.0})
    assert state.holdings == {"A": 10}
    assert state.cash == 5.0
    assert state.value == 905.0


def test_execute_day_reinvests_sale_proceeds():
    start = PortfolioState(cash=0.0, holdings={"A": 2}, value=100.0)
    weights = from_raw(("B",), (1.0,))
    state = execute_day(
        start, 1, weights, exec_prices={"A": 50.0, "B": 10.0}, close_prices={"B": 11.0}
    )
    assert state.holdings == {"B": 10}
    assert state.cash == 0.0
    assert state.value == 110.0


def test_execute_day_all_zero_weights_goes_to_cash():
    start = PortfolioState(cash=0.0, holdings={"A": 2}, value=100.0)
    weights = from_raw(("A", "B"), (0.0, 0.0))
    state = execute_day(start, 1, weights, exec_prices={"A": 50.0}, close_prices={})
    assert state.holdings == {}
    assert state.cash == 100.0


def test_execute_day_marks_missing_close_with_last_known():
    start = PortfolioState(cash=5.0, holdings={"A": 10}, value=905.0)
    state = execute_day(
        start, 0, EMPTY_WEIGHTS, exec_prices={}, close_prices={}, last_known={"A": 88.0}
    )
    assert state.value == 5.0 + 10 * 88.0
    assert state.stale == ("A",)


def test_execute_day_skips_unpriceable_buy_target():
    weights = from_raw(("A", "B"), (0.5, 0.5))
    state = execute_day(
        fresh_state(100.0), 1, weights, exec_prices={"A": 10.0}, close_prices={"A": 10.0}
    )
    assert state.holdings == {"A": 5}
    assert state.cash == 50.0
    assert "B" in state.stale


def test_execute_day_errors_without_prices():
    held = PortfolioState(cash=0.0, holdings={"A": 1}, value=10.0)
    with pytest.raises(DataError):
        execute_day(held, -1, EMPTY_WEIGHTS, exec_prices={}, close_prices={})
    with pytest.raises(DataError):
        execute_day(held, 0, EMPTY_WEIGHTS, exec_prices={}, close_prices={})
    with pytest.raises(DataError):
        execute_day(fresh_state(), 2, EMPTY_WEIGHTS, exec_prices={}, close_prices={})


def test_portfolio_state_invariants():
    with pytest.raises(DataError):
        PortfolioState(cash=-1.0, holdings={}, value=0.0)
    with pytest.raises(DataError):
        PortfolioState(cash=0.0, holdings={"A": 0}, value=0.0)


# ---------------------------------------------------------------------------
# Signals and forecast filtering


def test_aggregate_signal_majority_rules():
    assert aggregate_signal([1, -1, 1, -1, -1]) == -1
    assert aggregate_signal([1, -1]) == 0
    assert aggregate_signal([1, 1]) == 1
    assert aggregate_signal([0, 0, 0]) == 0
    assert aggregate_signal([1, 0, 0]) == 1
    with pytest.raises(DataError):
        aggregate_signal([])
    with pytest.raises(DataError):
        aggregate_signal([2])


def test_filter_weights_zeroes_non_positive_forecasts():
    weights = from_raw(("A", "B", "C"), (2.0, 1.0, 1.0))
    forecasts = [
        make_forecast("A", 0.01),
        make_forecast("B", -0.02),
        make_forecast("C", 0.005),
    ]
    filtered = filter_weights(weights, forecasts)
    assert filtered.tickers == ("A", "B", "C")
    assert filtered.normalized == pytest.approx((2.0 / 3.0, 0.0, 1.0 / 3.0), abs=1e-15)


def test_filter_weights_all_negative_goes_all_zero():
    weights = from_raw(("A", "B"), (1.0, 1.0))
    forecasts = [make_forecast("A", -0.01), make_forecast("B", 0.0)]
    filtered = filter_weights(weights, forecasts)
    assert filtered.is_all_zero()


def test_filter_weights_rejects_mismatched_tickers():
    weights = from_raw(("A", "B"), (1.0, 1.0))
    with pytest.raises(DataError):
        filter_weights(weights, [make_forecast("A", 0.1), make_forecast("X", 0.1)])


# ---------------------------------------------------------------------------
# Strategy configuration


def test_strategy_config_rejects_bad_values():
    bad = [
        dict(window=29),
        dict(horizon=0),
        dict(top_k=0),
        dict(alpha=0.0),
        dict(alpha=0.6),
        dict(initial_capital=0.0),
        dict(seeds=()),
        dict(rebalance_every=0),
        dict(weighting="equal"),
        dict(forecaster="prophet"),
        dict(signal_mode="veto"),
        dict(portfolio_mode="static"),
        dict(signal_mode="all_agree", forecaster="none"),
        dict(fevd_mode="generalized"),
        dict(forecaster="nnar", window=30, nnar_lags=15),
        dict(fee_bps=5.0),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            StrategyConfig(**kwargs)


def test_make_strategy_variant_mapping():
    base = StrategyConfig(window=60)
    nnar_sharpe = make_strategy(base, "mst_nnar_sharpe")
    assert (nnar_sharpe.weighting, nnar_sharpe.forecaster) == ("sharpe", "nnar")
    assert nnar_sharpe.signal_mode == "per_stock_filter"
    assert nnar_sharpe.portfolio_mode == "dynamic"

    allagree = make_strategy(base, "mst_allagree_var")
    assert (allagree.weighting, allagree.forecaster) == ("var", "nnar")
    assert allagree.signal_mode == "all_agree"

    fixed = make_strategy(base, "fixed", fixed_weighting="sharpe")
    assert fixed.portfolio_mode == "fixed"
    assert fixed.weighting == "sharpe"
    assert fixed.forecaster == "none"

    dynamic = make_strategy(base, "dynamic_var")
    assert dynamic.portfolio_mode == "dynamic_var_only"
    assert dynamic.weighting == "var"

    bench = make_strategy(base, "buy_hold")
    assert bench.name == "buy_hold"

    with pytest.raises(ConfigError):
        make_strategy(base, "momentum")


def test_strategy_registry_lists_eleven_variants():
    assert len(backtest.STRATEGY_NAMES) == 11
    assert backtest.STRATEGY_NAMES[0] == "buy_hold"
    assert len(set(backtest.STRATEGY_NAMES)) == 11


# ---------------------------------------------------------------------------
# Full simulations on synthetic panels


def test_simulation_dates_and_value_series_shape():
    cfg = make_strategy(BASE, "mst_var")
    result = run_simulation(cfg, PANEL, RETURNS)
    core_dates = PANEL.dates  # benchmark column is stripped, dates are shared
    assert result.dates == core_dates[BASE.window :]
    assert len(result.values) == len(core_dates) - BASE.window
    assert result.values[0] == BASE.initial_capital
    assert [rec.date for rec in result.days] == list(result.dates[1:])
    assert result.total_return_pct == pytest.approx(
        (result.values[-1] / result.values[0] - 1.0) * 100.0
    )


def test_simulation_accounting_identity_holds_every_day():
    for name in ("mst_var", "mst_arima_sharpe"):
        cfg = make_strategy(BASE, name)
        result = run_simulation(cfg, PANEL, RETURNS)
        assert_accounting_identity(market_data.drop_tickers(PANEL, ["IDX"]), result)


@pytest.mark.parametrize(
    "name",
    [
        "mst_var",
        "mst_sharpe",
        "mst_arima_var",
        "mst_nnar_sharpe",
        "mst_allagree_var",
        "fixed",
        "dynamic_var",
    ],
)
def test_engine_matches_reference_simulator(name):
    cfg = make_strategy(BASE, name, fixed_weighting="sharpe")
    engine = run_simulation(cfg, PANEL, RETURNS)
    reference = reference_sim.simulate(cfg, PANEL, RETURNS)
    assert engine.dates == reference.dates
    assert np.array_equal(engine.values, reference.values)
    assert engine.trade_count == reference.trade_count
    assert engine.total_return_pct == reference.total_return_pct


def test_engine_matches_reference_with_close_execution():
    cfg = dataclass_replace(make_strategy(BASE, "mst_var"), use_open_prices=False)
    engine = run_simulation(cfg, PANEL, RETURNS)
    reference = reference_sim.simulate(cfg, PANEL, RETURNS)
    assert np.array_equal(engine.values, reference.values)


def test_open_execution_changes_fills():
    at_open = run_simulation(make_strategy(BASE, "mst_var"), PANEL, RETURNS)
    at_close = run_simulation(
        dataclass_replace(make_strategy(BASE, "mst_var"), use_open_prices=False), PANEL, RETURNS
    )
    assert not np.array_equal(at_open.values, at_close.values)


def test_missing_opens_fall_back_to_prior_close():
    no_opens = market_data.PriceTable(
        PANEL.dates, PANEL.tickers, PANEL.adj_close, PANEL.mask, None
    )
    cfg_close = dataclass_replace(make_strategy(BASE, "mst_var"), use_open_prices=False)
    with_flag_off = run_simulation(cfg_close, PANEL, RETURNS)
    without_opens = run_simulation(make_strategy(BASE, "mst_var"), no_opens, RETURNS)
    assert np.array_equal(with_flag_off.values, without_opens.values)


def test_fixed_mode_trades_exactly_once():
    cfg = make_strategy(BASE, "fixed")
    result = run_simulation(cfg, PANEL, RETURNS)
    assert result.trade_count == 1
    assert result.days[0].signal == 1
    assert all(rec.signal == 0 for rec in result.days[1:])
    first = result.days[0].holdings
    assert first and all(rec.holdings == first for rec in result.days[1:])


def test_dynamic_var_reuses_first_network():
    cfg = make_strategy(BASE, "dynamic_var")
    result = run_simulation(cfg, PANEL, RETURNS)
    first = result.days[0].selection
    assert len(first) == BASE.top_k
    assert all(rec.selection == first for rec in result.days)
    assert all(rec.signal == 1 for rec in result.days)
    assert result.trade_count >= 2  # daily re-weighting shifts the floor counts


def test_rebalance_cadence_limits_network_updates():
    cfg = dataclass_replace(make_strategy(BASE, "mst_var"), rebalance_every=7)
    result = run_simulation(cfg, PANEL, RETURNS)
    for i in range(1, len(result.days)):
        if i % 7 != 0:
            assert result.days[i].selection == result.days[i - 1].selection


def test_same_seed_reruns_are_bit_identical():
    cfg = make_strategy(BASE, "mst_nnar_var")
    a = run_simulation(cfg, PANEL, RETURNS, seed=7)
    b = run_simulation(cfg, PANEL, RETURNS, seed=7)
    assert np.array_equal(a.values, b.values)
    assert a.trade_count == b.trade_count


def test_thread_count_does_not_change_results():
    cfg = make_strategy(BASE, "mst_var")
    serial = run_simulation(cfg, PANEL, RETURNS, n_jobs=1)
    threaded = run_simulation(cfg, PANEL, RETURNS, n_jobs=4)
    assert np.array_equal(serial.values, threaded.values)


def test_masked_close_marks_stale_and_recovers():
    table = random_walk_table(3, 42, seed=5)
    table = with_masked(table, [(33, 0)])  # S00 unpriced on one later day
    returns = market_data.compute_returns(table)
    cfg = dataclass_replace(
        make_strategy(StrategyConfig(window=30, top_k=3), "mst_var"), benchmark_ticker=None
    )
    result = run_simulation(cfg, table, returns)
    by_date = {rec.date: rec for rec in result.days}
    stale_day = table.dates[33]
    assert by_date[stale_day].stale == ("S00",)
    assert any(w.startswith("stale prices on") for w in result.warnings)
    assert all(rec.stale == () for rec in result.days if rec.date != stale_day)
    assert_accounting_identity(table, result)


def test_flat_market_returns_exactly_zero_for_every_strategy():
    flat = flat_table(8, 140, extra_tickers=("IDX",))
    flat_returns = market_data.compute_returns(flat)
    cfg = dataclass_replace(BASE, nnar_epochs=25)
    multi = run_multi_seed(cfg, flat, flat_returns)
    assert multi.strategies == backtest.STRATEGY_NAMES
    for key, res in multi.results.items():
        assert res.total_return_pct == 0.0, key
        assert np.all(res.values == cfg.initial_capital), key
    trading = multi.results[("mst_var", 132)]
    assert trading.trade_count == 0
    assert any("network unavailable" in w for w in trading.warnings)


def test_network_recovers_after_flat_start():
    closes = PANEL.adj_close.copy()
    closes[:70] = 100.0  # no variation in the early window
    table = market_data.PriceTable(PANEL.dates, PANEL.tickers, closes, PANEL.mask, None)
    returns = market_data.compute_returns(table)
    cfg = make_strategy(BASE, "mst_var")
    result = run_simulation(cfg, table, returns)
    assert any("network unavailable" in w for w in result.warnings)
    assert result.days[0].selection == ()
    assert result.days[0].signal == 0
    assert result.values[1] == cfg.initial_capital  # held cash while degenerate
    assert any(rec.selection for rec in result.days)
    assert result.trade_count >= 1


def test_simulation_rejects_short_history_and_tiny_universe():
    short = random_walk_table(4, 50, seed=3)
    cfg = dataclass_replace(make_strategy(BASE, "mst_var"), benchmark_ticker=None)
    with pytest.raises(InsufficientHistory):
        run_simulation(cfg, short, market_data.compute_returns(short))
    solo = random_walk_table(1, 80, seed=3)
    cfg30 = make_strategy(StrategyConfig(window=30), "mst_var")
    with pytest.raises(DataError):
        run_simulation(cfg30, solo, market_data.compute_returns(solo))


# ---------------------------------------------------------------------------
# Benchmark series


def test_benchmark_buy_hold_tracks_price_ratio():
    dates = day_range(5)
    closes = np.array([100.0, 110.0, 105.0, np.nan, 120.0])
    mask = np.array([False, False, False, True, False])
    result = benchmark_buy_hold(dates, closes, 1000.0, mask)
    assert np.allclose(result.values, [1000.0, 1100.0, 1050.0, 1050.0, 1200.0])
    assert result.total_return_pct == pytest.approx(20.0)
    assert result.trade_count == 1
    assert any("benchmark price missing" in w for w in result.warnings)


def test_benchmark_buy_hold_starts_at_exactly_the_initial_capital():
    # 100000 * p0 / p0 rounds to 99999.99999999999 for this start price.
    p0 = 367.4533148821592
    closes = np.array([p0, 370.0, p0])
    result = benchmark_buy_hold(day_range(3), closes, 100_000.0)
    assert result.values[0] == 100_000.0
    assert result.values[1] == 100_000.0 * 370.0 / p0
    assert result.values[2] == 100_000.0


def test_benchmark_buy_hold_rejects_bad_series():
    with pytest.raises(DataError):
        benchmark_buy_hold(day_range(1), np.array([100.0]), 1000.0)
    with pytest.raises(DataError):
        benchmark_buy_hold(day_range(2), np.array([100.0, 101.0]), 0.0)


# ---------------------------------------------------------------------------
# Multi-seed orchestration


def test_run_multi_seed_replicates_deterministic_strategies():
    cfg = dataclass_replace(BASE, nnar_epochs=30)
    multi = run_multi_seed(
        cfg, PANEL, RETURNS, seeds=(7, 8), strategies=("buy_hold", "mst_var", "mst_nnar_var")
    )
    assert multi.returns_pct.shape == (2, 3)
    assert set(multi.results) == {
        (name, s) for name in ("buy_hold", "mst_var", "mst_nnar_var") for s in (7, 8)
    }
    assert np.array_equal(
        multi.results[("mst_var", 7)].values, multi.results[("mst_var", 8)].values
    )
    assert multi.results[("mst_var", 8)].seed == 8
    assert not np.array_equal(
        multi.results[("mst_nnar_var", 7)].values, multi.results[("mst_nnar_var", 8)].values
    )
    assert np.allclose(multi.means, multi.returns_pct.mean(axis=0))

    bench = multi.results[("buy_hold", 7)]
    j = PANEL.ticker_index("IDX")
    expected_last = cfg.initial_capital * PANEL.adj_close[-1, j] / PANEL.adj_close[cfg.window, j]
    assert bench.values[0] == cfg.initial_capital
    assert bench.values[-1] == pytest.approx(expected_last, rel=1e-12)
    assert len(bench.values) == len(PANEL.dates) - cfg.window


def test_run_multi_seed_validates_inputs():
    with pytest.raises(ConfigError):
        run_multi_seed(BASE, PANEL, RETURNS, seeds=())
    with pytest.raises(ConfigError):
        run_multi_seed(BASE, PANEL, RETURNS, strategies=("momentum",))
    no_bench = dataclass_replace(BASE, benchmark_ticker=None)
    with pytest.raises(ConfigError):
        run_multi_seed(no_bench, PANEL, RETURNS, strategies=("buy_hold",))
