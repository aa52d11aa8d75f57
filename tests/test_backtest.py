"""Trading-engine tests: hand-worked execution days, accounting identities,
and a bit-for-bit comparison against the scalar reference simulator."""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass, replace as dataclass_replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_sim
from mstport import allocation, backtest, forecast, market_data
from mstport.allocation import WeightVector, from_raw
from mstport.backtest import (
    EMPTY_WEIGHTS,
    StrategyConfig,
    aggregate_signal,
    benchmark_buy_hold,
    make_strategy,
    run_multi_seed,
    run_simulation,
)
from mstport.errors import ConfigError, DataError, InsufficientHistory
from synth import day_range, flat_table, random_walk_table, with_flat_rows, with_masked

PANEL = random_walk_table(8, 140, seed=41, extra_tickers=("IDX",))
RETURNS = market_data.compute_returns(PANEL)
BASE = StrategyConfig(
    window=60,
    top_k=3,
    seeds=(132,),
    benchmark_ticker="IDX",
    nnar_epochs=40,
)


def gappy_panel() -> market_data.PriceTable:
    """PANEL with one masked cell per stock after the first window, and a
    slide over the last 40 days steep enough that, in the windows ending on
    the last days, every stock's mean return is negative."""
    slide = np.exp(-0.01 * np.clip(np.arange(140) - 99, 0, None))[:, None]
    opens = PANEL.open_px * np.concatenate([[1.0], slide[:-1, 0]])[:, None]  # near the prior close
    table = market_data.PriceTable(PANEL.dates, PANEL.tickers, PANEL.adj_close * slide, PANEL.mask, opens)
    stocks = [j for j, t in enumerate(PANEL.tickers) if t != "IDX"]
    return with_masked(table, [(64 + 9 * k, j) for k, j in enumerate(stocks)])


GAPPY = gappy_panel()
GAPPY_RETURNS = market_data.compute_returns(GAPPY)


@dataclass(frozen=True, eq=False)
class PortfolioState:
    """Cash, share holdings by ticker, and the day's mark-to-market value."""

    cash: float
    holdings: dict[str, int]
    value: float
    stale: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.cash < -1e-9:
            raise DataError("cash account went negative")
        if any(s <= 0 for s in self.holdings.values()):
            raise DataError("holdings must be positive integer share counts")


def execute_day(
    state: PortfolioState,
    signal: int,
    weights: WeightVector,
    exec_prices: dict[str, float],
    close_prices: dict[str, float],
    last_known: dict[str, float] | None = None,
) -> PortfolioState:
    """One trading day by ticker, through the engine's column kernel ``backtest.execute_day``.

    The tickers held or weighted become the kernel's columns in name
    order.  A ticker missing from a price map, or priced at a non-finite
    value, falls back to ``last_known`` by the day loop's own fallback and
    is flagged as stale.
    """
    if signal not in (-1, 0, 1):
        raise DataError("signal must be -1, 0, or +1")
    names = sorted(set(state.holdings).union(weights.tickers))
    col = {ticker: c for c, ticker in enumerate(names)}
    maps = (exec_prices, close_prices, last_known or {})
    px = np.array([[prices.get(ticker, math.nan) for ticker in names] for prices in maps], dtype=float)
    px[~np.isfinite(px)] = math.nan
    exec_px, exec_stale = backtest._fallback_rows(px[0], px[2])
    close_px, close_stale = backtest._fallback_rows(px[1], px[2])
    cash, held, value, stale = backtest.execute_day(
        state.cash,
        sorted((col[ticker], shares) for ticker, shares in state.holdings.items()),
        signal,
        [(col[ticker], norm) for ticker, _, norm in weights.entries if norm > 0.0],
        exec_px,
        exec_stale,
        close_px,
        close_stale,
        names,
    )
    return PortfolioState(
        cash=cash,
        holdings={names[c]: shares for c, shares in held},
        value=value,
        stale=tuple(names[c] for c in sorted(stale)),
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


def test_execute_day_holds_a_target_column_named_twice_as_two_lots():
    names, fresh = ["A", "B"], [False, False]
    cash, held, value, stale = backtest.execute_day(
        1000.0, [], 1, [(0, 0.3), (1, 0.2), (0, 0.5)], [45.0, 30.0], fresh, [50.0, 31.0], fresh, names
    )
    assert held == [(0, 6), (0, 11), (1, 6)] and not stale
    assert cash == math.fsum([1000.0, -6 * 45.0, -6 * 30.0, -11 * 45.0])
    assert value == math.fsum([cash, 6 * 50.0, 11 * 50.0, 6 * 31.0])
    sold_cash, sold, sold_value, _ = backtest.execute_day(
        cash, held, -1, [], [52.0, 33.0], fresh, [53.0, 34.0], fresh, names
    )
    assert sold == []
    assert sold_cash == sold_value == math.fsum([cash, 6 * 52.0, 11 * 52.0, 6 * 33.0])


# ---------------------------------------------------------------------------
# execute_day properties under random inputs

TICKERS = ("A", "B", "C", "D", "E")
PRICE = st.floats(0.01, 5_000.0)


@st.composite
def trading_days(draw):
    """A portfolio, a day's prices with gaps, weights and a signal.

    Every ticker has a last known close, so a missing price falls back
    instead of failing the day.
    """
    held = draw(st.lists(st.sampled_from(TICKERS), unique=True))
    holdings = {t: draw(st.integers(1, 10_000)) for t in held}
    last_known = {t: draw(PRICE) for t in TICKERS}
    exec_prices = {t: draw(PRICE) for t in TICKERS if draw(st.booleans())}
    close_prices = {t: draw(PRICE) for t in TICKERS if draw(st.booleans())}
    targets = draw(st.lists(st.sampled_from(TICKERS), min_size=1, unique=True))
    raws = draw(st.lists(st.floats(0.0, 10.0), min_size=len(targets), max_size=len(targets)))
    cash = draw(st.floats(0.0, 1e7))
    state = PortfolioState(cash=cash, holdings=holdings, value=cash)
    signal = draw(st.sampled_from((-1, 0, 1)))
    return state, signal, from_raw(tuple(targets), raws), exec_prices, close_prices, last_known


@settings(max_examples=300, deadline=None)
@given(trading_days())
def test_execute_day_keeps_the_books(day):
    state, signal, weights, exec_prices, close_prices, last_known = day
    after = execute_day(state, signal, weights, exec_prices, close_prices, last_known)
    assert after.cash >= 0.0
    assert all(type(n) is int and n > 0 for n in after.holdings.values())
    marks = [n * close_prices.get(t, last_known[t]) for t, n in sorted(after.holdings.items())]
    assert after.value == math.fsum([after.cash] + marks)
    if signal == 0:
        assert after.cash == state.cash and after.holdings == state.holdings
    if signal == -1:
        assert after.holdings == {}


def scalar_execute_day(state, signal, weights, exec_prices, close_prices, last_known=None):
    """The dict-and-closure trading day the column kernel replaced, kept as its oracle."""
    if signal not in (-1, 0, 1):
        raise DataError("signal must be -1, 0, or +1")
    last_known = last_known or {}
    stale: set[str] = set()

    def lookup(prices: dict[str, float], ticker: str) -> float | None:
        px = prices.get(ticker)
        if px is None or not math.isfinite(px):
            px = last_known.get(ticker)
            if px is None or not math.isfinite(px):
                return None
            stale.add(ticker)
        return float(px)

    cash = state.cash
    holdings = dict(state.holdings)
    if signal != 0 and holdings:
        proceeds = []
        for ticker in sorted(holdings):
            px = lookup(exec_prices, ticker)
            if px is None:
                raise DataError(f"no execution price available to sell {ticker}")
            proceeds.append(holdings[ticker] * px)
        cash = math.fsum([cash] + proceeds)
        holdings = {}
    if signal == 1 and not weights.is_all_zero():
        total = cash
        spent = []
        for ticker, _, norm in weights.entries:
            if norm <= 0.0:
                continue
            px = lookup(exec_prices, ticker)
            if px is None:
                stale.add(ticker)
                continue
            shares = int(math.floor(norm * total / px))
            if shares > 0:
                holdings[ticker] = shares
                spent.append(shares * px)
        cash = math.fsum([total] + [-c for c in spent])
    elif signal == -1:
        holdings = {}
    marks = []
    for ticker in sorted(holdings):
        px = lookup(close_prices, ticker)
        if px is None:
            raise DataError(f"no closing price available to value {ticker}")
        marks.append(holdings[ticker] * px)
    value = math.fsum([cash] + marks)
    return PortfolioState(cash=cash, holdings=holdings, value=value, stale=tuple(sorted(stale)))


GAP = st.sampled_from((math.nan, math.inf, -math.inf))


@st.composite
def oracle_days(draw):
    """Any day: prices absent, NaN or infinite, with or without last known closes."""

    def price_map() -> dict[str, float]:
        kinds = {t: draw(st.integers(0, 4)) for t in TICKERS}  # 4 absent, 3 a gap, else a price
        return {t: draw(GAP if kind == 3 else PRICE) for t, kind in kinds.items() if kind != 4}

    held = draw(st.lists(st.sampled_from(TICKERS), unique=True))
    holdings = {t: draw(st.integers(1, 10_000)) for t in held}
    exec_prices, close_prices = price_map(), price_map()
    last_known = price_map() if draw(st.booleans()) else None
    targets = draw(st.lists(st.sampled_from(TICKERS), min_size=1, unique=True))
    raws = [0.0 if draw(st.integers(0, 3)) == 3 else draw(st.floats(0.01, 10.0)) for _ in targets]
    if draw(st.integers(0, 3)) == 3:
        raws = [0.0] * len(targets)
    cash = draw(st.floats(0.0, 1e7))
    state = PortfolioState(cash=cash, holdings=holdings, value=cash)
    signal = draw(st.sampled_from((1, 0, -1)))
    return state, signal, from_raw(tuple(targets), raws), exec_prices, close_prices, last_known


def day_outcome(trade, day):
    try:
        after = trade(*day)
    except DataError as exc:
        return "DataError: " + str(exc)
    return repr(after.cash), after.holdings, repr(after.value), after.stale


@settings(max_examples=400, deadline=None)
@given(oracle_days())
def test_execute_day_equals_the_scalar_oracle(day):
    assert day_outcome(execute_day, day) == day_outcome(scalar_execute_day, day)


def last_close_by_rows(prices, through_row: int) -> np.ndarray:
    """Row-by-row scan: each unmasked close overwrites its ticker's last value."""
    last = np.full(len(prices.tickers), np.nan)
    for row in range(through_row + 1):
        fresh = ~prices.mask[row]
        last[fresh] = prices.adj_close[row, fresh]
    return last


def test_last_closes_match_the_row_scan():
    rng = np.random.default_rng(12)
    table = random_walk_table(7, 40, seed=3)
    for density in (0.1, 0.5, 0.9):
        cells = [tuple(c) for c in np.argwhere(rng.random(table.mask.shape) < density)]
        through = int(rng.integers(0, 39))
        # column 2 has no price through ``through`` and must stay NaN
        cells += [(row, 2) for row in range(through + 1)]
        masked = with_masked(table, cells)
        got = market_data.last_known(masked.adj_close, masked.mask)
        for row in range(40):
            assert np.array_equal(got[row], last_close_by_rows(masked, row), equal_nan=True)
        assert np.isnan(got[through, 2])
        # one series alone gives its column of the grid
        for j in range(7):
            series = market_data.last_known(masked.adj_close[:, j], masked.mask[:, j])
            assert series.tobytes() == got[:, j].tobytes()


def test_portfolio_state_invariants():
    with pytest.raises(DataError):
        PortfolioState(cash=-1.0, holdings={}, value=0.0)
    with pytest.raises(DataError):
        PortfolioState(cash=0.0, holdings={"A": 0}, value=0.0)


# ---------------------------------------------------------------------------
# Signals


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


def test_filter_and_vote_read_dead_zone_and_non_finite_forecasts(monkeypatch):
    # Six stocks, all selected every day, each with one scripted forecast.
    panel = random_walk_table(6, 70, seed=57)
    returns = market_data.compute_returns(panel)
    scripted = dict(zip(panel.tickers, (5e-13, -5e-13, 0.0, 0.01, math.nan, -0.01)))
    cfg = StrategyConfig(window=40, top_k=6, nnar_epochs=5)
    lags = cfg.nnar_lags
    ticker_of = {
        returns.returns[t - lags + 1 : t + 1, j].tobytes(): ticker
        for j, ticker in enumerate(returns.tickers)
        for t in range(lags - 1, len(returns.dates))
    }
    monkeypatch.setattr(forecast, "nnar_forecast", lambda model, tail: scripted[ticker_of[tail.tobytes()]])
    filtered = run_simulation(make_strategy(cfg, "mst_nnar_var"), panel, returns)
    voted = run_simulation(make_strategy(cfg, "mst_allagree_var"), panel, returns)
    for result in (filtered, voted):
        assert result.warnings == (f"forecast failed for {panel.tickers[4]}: forecast must be finite",)
        assert result.days
        for day in result.days:
            assert set(day.selection) == set(panel.tickers)
            # Only a positive forecast keeps its stock's weight, 5e-13 included.
            assert {t for t, raw, _ in day.weights.entries if raw > 0.0} == {panel.tickers[0], panel.tickers[3]}
    assert {day.signal for day in filtered.days} == {1}
    # The votes 0, 0, 0, +1, 0 (failed) and -1 hold: had 5e-13 voted +1 the
    # day would buy, had -5e-13 voted -1 it would sell.
    assert {day.signal for day in voted.days} == {0}
    assert voted.trade_count == 0


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
        dict(initial_capital=math.inf),
        dict(initial_capital=math.nan),
        dict(risk_free=math.inf),
        dict(risk_free=-math.inf),
        dict(risk_free=math.nan),
        dict(seeds=()),
        dict(seeds=(7, 8, 7)),
        dict(rebalance_every=0),
        dict(fixed_weighting="equal"),
        dict(name="momentum"),
        dict(name="strategy"),
        dict(fevd_mode="generalized"),
        dict(nnar_lags=0),
        dict(nnar_hidden=0),
        dict(nnar_epochs=-1),
        dict(nnar_learning_rate=0.0),
        dict(nnar_learning_rate=-0.01),
        dict(nnar_learning_rate=math.inf),
        dict(nnar_learning_rate=math.nan),
        dict(arima_max_p=-1),
        dict(arima_max_q=-1),
        dict(arima_max_d=-1),
        dict(arima_max_d=2),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            StrategyConfig(**kwargs)
    # One problem per rule, as config.parse_seeds reports it for a flag.
    with pytest.raises(ConfigError) as err:
        StrategyConfig(seeds=(7, 8, 7, 8, 7))
    assert err.value.problems == ("repeated seeds: 7, 8",)
    with pytest.raises(ConfigError, match="^empty seed list$"):
        StrategyConfig(seeds=())
    # A variant's row is not a field: a strategy is set by its name alone.
    for field in ("weighting", "forecaster", "signal_mode", "rebalances"):
        with pytest.raises(TypeError):
            StrategyConfig(**{field: "var"})
    # The NNAR lag rule belongs to a strategy list, not to a config.
    assert StrategyConfig(window=30, nnar_lags=15).nnar_lags == 15


# README's Strategies table, row by row: (weighting, forecaster, signal mode,
# whether the schedule rebalances) of each variant; ``fixed``'s weighting is
# the config's ``fixed_weighting``, None in its row.
VARIANT_ROWS = {
    "mst_var": ("var", "none", "per_stock_filter", True),
    "mst_sharpe": ("sharpe", "none", "per_stock_filter", True),
    "mst_arima_var": ("var", "arima", "per_stock_filter", True),
    "mst_arima_sharpe": ("sharpe", "arima", "per_stock_filter", True),
    "mst_nnar_var": ("var", "nnar", "per_stock_filter", True),
    "mst_nnar_sharpe": ("sharpe", "nnar", "per_stock_filter", True),
    "mst_allagree_var": ("var", "nnar", "all_agree", True),
    "mst_allagree_sharpe": ("sharpe", "nnar", "all_agree", True),
    "fixed": (None, "none", "once", False),
    "dynamic_var": ("var", "none", "per_stock_filter", False),
}


@pytest.mark.parametrize("name", sorted(VARIANT_ROWS))
def test_make_strategy_sets_its_variants_row(name):
    # A base named for another variant, with a fixed_weighting other than the default.
    base = StrategyConfig(window=60, fixed_weighting="sharpe", name="mst_allagree_sharpe")
    assert make_strategy(base, name) == dataclass_replace(base, name=name)
    assert backtest._VARIANTS[name] == VARIANT_ROWS[name]


def test_make_strategy_variant_mapping():
    assert backtest.STRATEGY_NAMES == ("buy_hold", *VARIANT_ROWS)
    assert tuple(backtest._VARIANTS) == tuple(VARIANT_ROWS)
    base = StrategyConfig(window=60, fixed_weighting="sharpe", nnar_epochs=7)
    assert base.name == "mst_var"
    for name in backtest.STRATEGY_NAMES:
        assert make_strategy(base, name) == dataclass_replace(base, name=name)

    with pytest.raises(ConfigError, match="^unknown strategy 'momentum'$"):
        make_strategy(base, "momentum")


def test_fixed_keeps_the_base_weighting():
    sharpe = dataclass_replace(BASE, fixed_weighting="sharpe")

    def run(cfg, name):
        return run_simulation(make_strategy(cfg, name), PANEL, RETURNS)

    # fixed buys once, on the first decision day, what the dynamic variant
    # of its weighting buys that day.
    for cfg, dynamic in ((BASE, "mst_var"), (sharpe, "mst_sharpe")):
        assert repr(run(cfg, "fixed").days[0].weights) == repr(run(cfg, dynamic).days[0].weights)
    assert repr(run(BASE, "fixed").days[0].weights) != repr(run(sharpe, "fixed").days[0].weights)
    # Every other variant keeps its own weighting.
    for name in ("mst_var", "mst_sharpe", "dynamic_var"):
        assert run(sharpe, name).values.tobytes() == run(BASE, name).values.tobytes()


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


def assert_days_match(engine, reference) -> None:
    """Each day's cash, holdings and stale tickers equal the reference's."""
    assert len(engine.days) == len(reference.days)
    for rec, want in zip(engine.days, reference.days):
        assert repr(rec.cash) == repr(want.cash), rec.date
        assert rec.holdings == want.holdings, rec.date
        assert rec.stale == want.stale, rec.date


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
    cfg = make_strategy(dataclass_replace(BASE, fixed_weighting="sharpe"), name)
    weighting, forecaster, _, _ = backtest._VARIANTS[name]
    unfiltered = make_strategy(cfg, "mst_" + (weighting or cfg.fixed_weighting))
    seen = set()
    for prices, returns in ((PANEL, RETURNS), (GAPPY, GAPPY_RETURNS)):
        engine = run_simulation(cfg, prices, returns)
        reference = reference_sim.simulate(cfg, prices, returns)
        assert engine.dates == reference.dates
        assert np.array_equal(engine.values, reference.values)
        assert engine.trade_count == reference.trade_count
        assert engine.total_return_pct == reference.total_return_pct
        assert_days_match(engine, reference)
        if forecaster != "none":
            # the forecast filter zeroes some of a day's stocks, and on other days all of them
            for rec, plain in zip(engine.days, run_simulation(unfiltered, prices, returns).days):
                pairs = zip(rec.weights.entries, plain.weights.entries)
                dropped = [raw == 0.0 < plain_raw for (_, raw, _), (_, plain_raw, _) in pairs]
                if any(dropped):
                    seen.add("all" if rec.weights.is_all_zero() else "some")
    assert seen == ({"some", "all"} if forecaster != "none" else set())


@pytest.mark.parametrize(
    "changes",
    [{}, {"rebalance_every": 7}],
    ids=["daily", "weekly"],
)
def test_schedule_weights_equal_per_window_weights(changes):
    cfg = dataclass_replace(BASE, fixed_weighting="sharpe", **changes)
    names = ("mst_var", "mst_sharpe", "fixed", "dynamic_var")
    multi = run_multi_seed(cfg, GAPPY, GAPPY_RETURNS, strategies=names)
    row_of = {d: i for i, d in enumerate(GAPPY.dates)}
    seen = set()
    for name in names:
        weighting = backtest._VARIANTS[name].weighting or cfg.fixed_weighting
        result = multi.results[(name, 132)]
        for rec in result.days:
            if not rec.weights.entries:
                continue  # no trade that day
            win = market_data.window(GAPPY_RETURNS, row_of[rec.date] - 2, cfg.window)
            if weighting == allocation.WEIGHTING_VAR:
                want = reference_sim.var_weights(rec.selection, win, cfg.alpha)
            else:
                want = reference_sim.sharpe_weights(rec.selection, win, cfg.risk_free)
            assert repr(rec.weights.entries) == repr(want.entries), (name, rec.date)
            masked = any(win.mask[:, win.ticker_index(t)].any() for t in rec.selection)
            seen.add((weighting, "masked" if masked else "clean"))
            if weighting == allocation.WEIGHTING_SHARPE and rec.weights.is_all_zero():
                seen.add(("sharpe", "cash"))
        seen.update(("any", "stale") for rec in result.days if rec.stale)
    # the gaps, the slide and the stale closes reach the branches they are for
    assert {("var", "masked"), ("sharpe", "masked"), ("sharpe", "cash"), ("any", "stale")} <= seen
    assert ("var", "clean") in seen and ("sharpe", "clean") in seen


def test_engine_matches_reference_with_close_execution():
    # One run per panel, so the strategies of a portfolio mode read its one
    # plan: close-price rows and stale fallback in every mode.
    cfg = dataclass_replace(BASE, use_open_prices=False)
    names = ("mst_var", "mst_sharpe", "fixed", "dynamic_var")
    stale = set()
    for panel, (prices, returns) in {"PANEL": (PANEL, RETURNS), "GAPPY": (GAPPY, GAPPY_RETURNS)}.items():
        multi = run_multi_seed(cfg, prices, returns, strategies=names)
        for name in names:
            engine = multi.results[(name, cfg.seeds[0])]
            reference = reference_sim.simulate(make_strategy(cfg, name), prices, returns)
            assert np.array_equal(engine.values, reference.values), (name, panel)
            assert engine.trade_count == reference.trade_count, (name, panel)
            assert_days_match(engine, reference)
            stale.update((name, panel) for rec in engine.days if rec.stale)
    # GAPPY's masked closes reach the stale fallback in every mode.
    assert {name for name, panel in stale if panel == "GAPPY"} == set(names)


@st.composite
def drawn_runs(draw):
    """A small panel with a benchmark, a few masked cells and maybe a flat stretch, and a config for it."""
    n, window = draw(st.integers(4, 8)), draw(st.integers(30, 40))
    n_days = window + draw(st.integers(2, 40))
    # Opens present and used twice as often as not, so that the open-price
    # rows get their share of the draws, and a flat stretch half as often as none.
    often = st.sampled_from([True, True, False])
    prices = random_walk_table(
        n, n_days, seed=draw(st.integers(0, 2**16)), with_opens=draw(often), extra_tickers=("IDX",)
    )
    if not draw(often):
        # Long enough that some windows have no estimable network.
        start = draw(st.integers(0, n_days - window - 2))
        prices = with_flat_rows(prices, start, draw(st.integers(start + window + 1, n_days - 1)))
    # A few masked cells anywhere, and some on decision days, where a trade
    # may need the fallback price of a masked open or close: one to three
    # stocks, or maybe every stock on one day, a holiday of the stocks'
    # exchange.
    stocks = [j for j, t in enumerate(prices.tickers) if t != "IDX"]
    late = st.integers(window + 1, n_days - 1)
    cells = draw(st.lists(st.tuples(st.integers(1, n_days - 1), st.integers(0, n)), max_size=3))
    cells += draw(st.lists(st.tuples(late, st.sampled_from(stocks)), min_size=1, max_size=3))
    if draw(st.booleans()):
        holiday = draw(late)
        cells += [(holiday, j) for j in stocks]
    prices = with_masked(prices, cells)
    cfg = StrategyConfig(
        window=window,
        top_k=draw(st.integers(1, n - 1)),
        seeds=(draw(st.integers(0, 1000)),),
        benchmark_ticker="IDX",
        rebalance_every=draw(st.integers(1, 7)),
        use_open_prices=draw(often),
        fevd_mode=draw(st.sampled_from(["orthogonalized", "as_written"])),
        fixed_weighting=draw(st.sampled_from(["var", "sharpe"])),
        nnar_lags=draw(st.integers(1, 5)),
        nnar_hidden=draw(st.integers(1, 3)),
        nnar_epochs=draw(st.integers(0, 5)),
        arima_max_p=draw(st.integers(0, 1)),
        arima_max_d=draw(st.integers(0, 1)),
        arima_max_q=draw(st.integers(0, 1)),
    )
    return cfg, prices


@settings(max_examples=30, deadline=None)
@given(drawn_runs())
def test_engine_matches_reference_on_drawn_runs(run):
    # All eleven strategies in one run, so every cell reads its mode's one
    # plan and NNAR trains stacked, while the reference fits each forecast
    # alone.
    cfg, prices = run
    returns = market_data.compute_returns(prices)
    multi = run_multi_seed(cfg, prices, returns)
    (seed,) = cfg.seeds
    for name in backtest.STRATEGY_NAMES:
        engine = multi.results[(name, seed)]
        if name == "buy_hold":
            rows, j = slice(cfg.window, None), prices.ticker_index("IDX")
            values, warnings = buy_hold_by_dates(
                prices.dates[rows], prices.adj_close[rows, j], cfg.initial_capital, prices.mask[rows, j]
            )
            assert engine.dates == prices.dates[rows]
            assert engine.values.tobytes() == values.tobytes()
            assert engine.total_return_pct == float((values[-1] / values[0] - 1.0) * 100.0)
            assert (engine.trade_count, engine.warnings) == (1, warnings)
            continue
        reference = reference_sim.simulate(make_strategy(cfg, name), prices, returns, seed)
        assert engine.dates == reference.dates, name
        assert np.array_equal(engine.values, reference.values), name
        assert engine.trade_count == reference.trade_count, name
        assert engine.total_return_pct == reference.total_return_pct, name
        assert_days_match(engine, reference)


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


# Digests of values.tobytes() and repr(days), trade counts and final values,
# as the dict-based day loop gave them before the column kernel.
UNPRICED_PINS = {
    "mst_var": (
        "1636f14f3c738e54b079a647d8fa9edda240cb0ae0f42966ded7f1f9e64c8141",
        "c5fe7b51b4f0ae5c62020e6bde659726448a4eb63168e2362a1bcfc118ce28a6",
        138,
        105906.11950416732,
    ),
    "mst_sharpe": (
        "29fc8a936881196f8c79bdfb4e0c0d0ebcf108e6235d463de3184042934b94ee",
        "98315414c1a728becb1562e85e35bfe2d907d07512f74faffd8d8d887d0719ea",
        123,
        95091.27580923811,
    ),
    "fixed": (
        "49818e887697dd3eb6223ff8ea27b8950bbb39c4463afc01c0daff7e43607095",
        "11c2e5989275532838646dbc5cadefa4e56417e48b4c10fcdf670520b6a2dc44",
        1,
        108026.9466109078,
    ),
    "dynamic_var": (
        "ae80bac25b879db0678e9cd97235ed4aaae80aaa29eb1c85faf96fd833a492bc",
        "4e7c455c994e1deed8477403ec399a23ed4c7b56365729baefe144c7731ef13f",
        137,
        109274.81548042956,
    ),
}


def test_unpriceable_selected_stock_stays_in_cash():
    # The library applies no quality filter, so a never-priced stock can be
    # selected; its last-close column is all NaN.
    table = random_walk_table(6, 200, seed=21)
    s02 = table.tickers.index("S02")
    table = with_masked(table, [(row, s02) for row in range(200)])
    cfg = StrategyConfig(window=60, top_k=3)
    multi = run_multi_seed(cfg, table, market_data.compute_returns(table), strategies=tuple(UNPRICED_PINS))
    for name, (values_sha, days_sha, trades, final) in UNPRICED_PINS.items():
        result = multi.results[(name, cfg.seeds[0])]
        assert hashlib.sha256(result.values.tobytes()).hexdigest() == values_sha, name
        assert hashlib.sha256(repr(result.days).encode()).hexdigest() == days_sha, name
        assert result.trade_count == trades, name
        assert result.values[-1] == final, name
        picked = [rec for rec in result.days if "S02" in rec.selection]
        # fixed and dynamic_var keep a first selection without S02
        assert len(picked) == (4 if name.startswith("mst_") else 0), name
        assert all("S02" not in dict(rec.holdings) for rec in result.days), name
        if name == "mst_var":
            assert all(rec.stale == ("S02",) for rec in picked)
            assert [rec.date for rec in result.days if rec.stale] == [rec.date for rec in picked]
            assert result.warnings == tuple(f"stale prices on {rec.date.isoformat()}: S02" for rec in picked)
        else:
            assert result.warnings == () and not any(rec.stale for rec in result.days), name


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


def buy_hold_by_dates(dates, closes, initial_capital, mask=None):
    """Date-by-date scan of the buy-and-hold value path and its warnings."""
    closes = np.asarray(closes, dtype=float)
    masked = np.asarray(mask, dtype=bool) if mask is not None else ~np.isfinite(closes)
    warnings: set[str] = set()
    anchor = None
    last = None
    values = []
    for t in range(closes.size):
        if not masked[t]:
            last = float(closes[t])
            if anchor is None:
                anchor = last
        else:
            warnings.add(f"benchmark price missing on {dates[t].isoformat()}")
        if anchor is None or last == anchor:
            values.append(initial_capital)
        else:
            values.append(initial_capital * last / anchor)
    return np.asarray(values), tuple(sorted(warnings))


@st.composite
def benchmark_series(draw):
    size = draw(st.integers(2, 30))
    # few distinct prices, so the path often returns to its anchor price
    levels = draw(st.lists(PRICE, min_size=1, max_size=4))
    closes = np.array(draw(st.lists(st.sampled_from(levels), min_size=size, max_size=size)))
    # without a mask a non-finite close is the missing one; with one, an
    # unmasked NaN is an invalid price
    for t in draw(st.lists(st.integers(0, size - 1), max_size=size)):
        closes[t] = np.nan
    cut = draw(st.sampled_from(["none", "all", "first", "random"]))
    if cut == "none":
        mask = None
    elif cut == "all":
        mask = np.ones(size, dtype=bool)
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        mask[0] |= cut == "first"
    capital = draw(st.floats(1.0, 1e7, allow_nan=False, allow_infinity=False))
    return day_range(size), closes, capital, mask


@settings(max_examples=400, deadline=None)
@given(benchmark_series())
def test_benchmark_buy_hold_equals_the_date_scan(series):
    _, closes, _, mask = series
    if mask is not None and np.any(~mask & np.isnan(closes)):
        with pytest.raises(DataError, match="unmasked prices must be finite and strictly positive"):
            benchmark_buy_hold(*series)
        return
    result = benchmark_buy_hold(*series)
    values, warnings = buy_hold_by_dates(*series)
    assert result.values.tobytes() == values.tobytes()
    assert result.warnings == warnings


def test_benchmark_buy_hold_rejects_bad_series():
    with pytest.raises(DataError):
        benchmark_buy_hold(day_range(1), np.array([100.0]), 1000.0)
    with pytest.raises(DataError):
        benchmark_buy_hold(day_range(2), np.array([100.0, 101.0]), 0.0)


@pytest.mark.parametrize("capital", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_benchmark_buy_hold_rejects_a_capital_that_is_not_finite_and_positive(capital):
    with pytest.raises(DataError, match="^initial capital must be finite and positive$"):
        benchmark_buy_hold(day_range(2), np.array([100.0, 101.0]), capital)


@pytest.mark.parametrize("closes", [[0.0, 1.0, 2.0], [1.0, -1.0, 2.0]])
def test_benchmark_buy_hold_rejects_a_nonpositive_unmasked_close(closes):
    with pytest.raises(DataError, match="^unmasked prices must be finite and strictly positive$"):
        benchmark_buy_hold(day_range(3), np.array(closes), 1000.0)
    # the same close masked is a missing price
    mask = np.array(closes) <= 0.0
    result = benchmark_buy_hold(day_range(3), np.array(closes), 1000.0, mask)
    assert np.all(np.isfinite(result.values)) and np.all(result.values > 0.0)


# ---------------------------------------------------------------------------
# Multi-seed orchestration


def test_run_multi_seed_replicates_deterministic_strategies():
    cfg = dataclass_replace(BASE, nnar_epochs=30, seeds=(7, 8))
    multi = run_multi_seed(cfg, PANEL, RETURNS, strategies=("buy_hold", "mst_var", "mst_nnar_var"))
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


def count_day_records(monkeypatch) -> list:
    """Patch ``backtest.DayRecord`` to log each record built; returns the log."""
    built: list = []
    record = backtest.DayRecord
    monkeypatch.setattr(backtest, "DayRecord", lambda **fields: built.append(fields) or record(**fields))
    return built


def test_days_are_built_on_first_read_and_kept(monkeypatch):
    built = count_day_records(monkeypatch)
    result = run_simulation(make_strategy(BASE, "mst_var"), GAPPY, GAPPY_RETURNS)
    assert built == []
    days = result.days
    assert len(built) == len(days) == len(result.dates) - 1
    assert result.days is days
    assert len(built) == len(days)  # the second read built nothing


def test_repr_of_a_result_builds_no_day_record(monkeypatch):
    built = count_day_records(monkeypatch)
    result = run_simulation(make_strategy(BASE, "mst_var"), GAPPY, GAPPY_RETURNS)
    text = repr(result)
    assert built == [] and "DayRecord" not in text
    assert len(result.days) == len(built) == len(result.dates) - 1


def test_seed_copies_share_the_days_of_a_lone_run(monkeypatch):
    names = ("mst_var", "mst_arima_sharpe", "fixed", "dynamic_var")
    seeds = (7, 8, 9)
    built = count_day_records(monkeypatch)
    multi = run_multi_seed(dataclass_replace(BASE, seeds=seeds), GAPPY, GAPPY_RETURNS, strategies=names)
    assert built == []  # copying a result for another seed builds no record
    for name in names:
        lone = run_simulation(make_strategy(BASE, name), GAPPY, GAPPY_RETURNS, seed=seeds[-1])
        want = repr(lone.days)
        built.clear()
        for s in seeds:
            got = multi.results[(name, s)]
            assert got.seed == s
            assert repr(got.days) == want, (name, s)
        assert len(built) == len(lone.days), name  # one replay serves every seed


@pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
def test_a_bad_raw_weight_fails_the_schedule_check(monkeypatch, bad):
    raw_weights = allocation.raw_weights

    def poisoned(*args, **kwargs):
        raws = raw_weights(*args, **kwargs)
        raws[-1] = bad
        return raws

    monkeypatch.setattr(allocation, "raw_weights", poisoned)
    for name in ("mst_var", "mst_arima_var"):
        with pytest.raises(DataError, match="^raw weights must be finite and non-negative$"):
            run_multi_seed(BASE, PANEL, RETURNS, strategies=(name,))


def test_run_multi_seed_runs_exactly_the_config_seeds():
    # The seed list has one home: the config.  Neither entry point takes another.
    for entry in (run_multi_seed, backtest.DecisionPath):
        assert "seeds" not in inspect.signature(entry).parameters, entry
    cfg = dataclass_replace(BASE, seeds=(9, 3, 5), nnar_epochs=20)
    multi = run_multi_seed(cfg, PANEL, RETURNS, strategies=("buy_hold", "mst_var", "mst_nnar_var"))
    assert multi.seeds == cfg.seeds
    assert list(multi.results) == [(name, s) for name in multi.strategies for s in cfg.seeds]
    assert all(res.seed == s for (_, s), res in multi.results.items())


def test_run_multi_seed_validates_inputs():
    with pytest.raises(ConfigError):
        run_multi_seed(dataclass_replace(BASE, seeds=()), PANEL, RETURNS)
    with pytest.raises(ConfigError, match="^unknown strategies: momentum$"):
        run_multi_seed(BASE, PANEL, RETURNS, strategies=("momentum",))
    with pytest.raises(ConfigError, match="^repeated seeds: 7$"):
        run_multi_seed(dataclass_replace(BASE, seeds=(7, 8, 7)), PANEL, RETURNS, strategies=("mst_var",))
    with pytest.raises(ConfigError, match="^repeated strategies: mst_var$"):
        run_multi_seed(BASE, PANEL, RETURNS, strategies=("mst_var", "mst_var", "buy_hold"))
    with pytest.raises(ConfigError, match="^empty strategy list$"):
        run_multi_seed(BASE, PANEL, RETURNS, strategies=())
    no_bench = dataclass_replace(BASE, benchmark_ticker=None)
    with pytest.raises(ConfigError):
        run_multi_seed(no_bench, PANEL, RETURNS, strategies=("buy_hold",))


def test_nnar_lag_rule_is_checked_on_the_whole_list_before_a_run(monkeypatch):
    # window 30 is too short for 15 NNAR lags, and long enough for the rest.
    cfg = dataclass_replace(BASE, window=30, nnar_lags=15)
    names = ("mst_var", "mst_arima_var", "mst_nnar_var")

    def no_path(*args):
        raise AssertionError("a decision path was built")

    with monkeypatch.context() as patch:
        patch.setattr(backtest, "DecisionPath", no_path)
        with pytest.raises(ConfigError, match="^window too short for the configured NNAR lag count$"):
            run_multi_seed(cfg, PANEL, RETURNS, strategies=names)
        for name in ("mst_nnar_sharpe", "mst_allagree_var"):
            with pytest.raises(ConfigError, match="^window too short"):
                run_simulation(make_strategy(cfg, name), PANEL, RETURNS)
    multi = run_multi_seed(cfg, PANEL, RETURNS, strategies=names[:2])
    assert multi.strategies == names[:2]
    backtest.check_strategies(names, dataclass_replace(cfg, window=35))  # exactly lags + 20
    with pytest.raises(ConfigError) as err:
        backtest.check_strategies(("momentum", "mst_nnar_var", "mst_nnar_var"), cfg)
    assert err.value.problems == (
        "unknown strategies: momentum",
        "repeated strategies: mst_nnar_var",
        "window too short for the configured NNAR lag count",
    )


def test_run_simulation_gives_run_multi_seeds_buy_hold_cell():
    # One masked benchmark close, so the cells carry a warning.
    prices = with_masked(PANEL, [(90, PANEL.ticker_index("IDX"))])
    returns = market_data.compute_returns(prices)
    cfg = dataclass_replace(BASE, seeds=(7, 8, 9))
    multi = run_multi_seed(cfg, prices, returns, strategies=("mst_var", "buy_hold"))
    for s in cfg.seeds:
        want = multi.results[("buy_hold", s)]
        got = run_simulation(make_strategy(cfg, "buy_hold"), prices, returns, seed=s)
        assert (got.strategy, got.seed, got.dates) == (want.strategy, want.seed, want.dates)
        assert got.values.tobytes() == want.values.tobytes(), s
        assert (got.total_return_pct, got.trade_count, got.warnings) == (
            want.total_return_pct,
            want.trade_count,
            want.warnings,
        )
        assert got.days == want.days == ()
    assert want.trade_count == 1 and want.warnings
    for ticker in (None, "NOPE"):
        bench = make_strategy(dataclass_replace(BASE, benchmark_ticker=ticker), "buy_hold")
        with pytest.raises(ConfigError, match="^buy_hold strategy requires benchmark_ticker present in the data$"):
            run_simulation(bench, prices, returns)
