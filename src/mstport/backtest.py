"""Daily trading simulation over network-selected, risk-weighted portfolios.

Each simulated day repeats the same pipeline on a rolling return window:
estimate pairwise influence, extract the minimum spanning tree, pick the
top-k central stocks, weight them by inverse VaR or Sharpe ratio, apply an
optional one-step forecast filter, and trade with a floor rule at the next
day's execution prices.  Share counts are whole numbers, residual cash
from the floor rule stays in the cash account, and the reported portfolio
value is always cash plus mark-to-market holdings.

The engine exposes eleven named strategy variants, from a plain buy & hold
benchmark to combinations of weighting scheme, forecaster, and signal
aggregation, plus a fixed buy-once portfolio and a network-free dynamic
VaR portfolio.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from datetime import date

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import allocation, forecast, market_data, network, var_fevd
from .allocation import WEIGHTING_SHARPE, WEIGHTING_VAR, WeightVector
from .errors import ConfigError, DataError, EstimationError, InsufficientHistory
from .forecast import Forecast
from .market_data import PriceTable, ReturnMatrix
from .network import MstTree
from .var_fevd import CostMatrix

log = logging.getLogger(__name__)

FORECASTER_NONE = "none"
FORECASTER_ARIMA = "arima"
FORECASTER_NNAR = "nnar"
SIGNAL_PER_STOCK = "per_stock_filter"
SIGNAL_ALL_AGREE = "all_agree"
MODE_DYNAMIC = "dynamic"
MODE_FIXED = "fixed"
MODE_DYNAMIC_VAR_ONLY = "dynamic_var_only"

BENCHMARK_STRATEGY = "buy_hold"

# Each variant's (weighting, forecaster, signal mode, portfolio mode); a None
# weighting is the run's fixed_weighting.  Registry order doubles as the
# column order of the seeds table.
_VARIANTS = {
    "mst_var": (WEIGHTING_VAR, FORECASTER_NONE, SIGNAL_PER_STOCK, MODE_DYNAMIC),
    "mst_sharpe": (WEIGHTING_SHARPE, FORECASTER_NONE, SIGNAL_PER_STOCK, MODE_DYNAMIC),
    "mst_arima_var": (WEIGHTING_VAR, FORECASTER_ARIMA, SIGNAL_PER_STOCK, MODE_DYNAMIC),
    "mst_arima_sharpe": (WEIGHTING_SHARPE, FORECASTER_ARIMA, SIGNAL_PER_STOCK, MODE_DYNAMIC),
    "mst_nnar_var": (WEIGHTING_VAR, FORECASTER_NNAR, SIGNAL_PER_STOCK, MODE_DYNAMIC),
    "mst_nnar_sharpe": (WEIGHTING_SHARPE, FORECASTER_NNAR, SIGNAL_PER_STOCK, MODE_DYNAMIC),
    "mst_allagree_var": (WEIGHTING_VAR, FORECASTER_NNAR, SIGNAL_ALL_AGREE, MODE_DYNAMIC),
    "mst_allagree_sharpe": (WEIGHTING_SHARPE, FORECASTER_NNAR, SIGNAL_ALL_AGREE, MODE_DYNAMIC),
    "fixed": (None, FORECASTER_NONE, SIGNAL_PER_STOCK, MODE_FIXED),
    "dynamic_var": (WEIGHTING_VAR, FORECASTER_NONE, SIGNAL_PER_STOCK, MODE_DYNAMIC_VAR_ONLY),
}
STRATEGY_NAMES = (BENCHMARK_STRATEGY, *_VARIANTS)

# The least value of each integer setting that has one.
_MINIMUMS = dict(
    window=30, horizon=1, top_k=1, nnar_lags=1, nnar_hidden=1, nnar_epochs=0, arima_max_p=0, arima_max_q=0
)


@dataclass(frozen=True)
class StrategyConfig:
    """Parameters of one strategy variant; defaults mirror the base run."""

    window: int = 120
    horizon: int = 10
    top_k: int = 5
    alpha: float = 0.05
    weighting: str = WEIGHTING_VAR
    forecaster: str = FORECASTER_NONE
    signal_mode: str = SIGNAL_PER_STOCK
    portfolio_mode: str = MODE_DYNAMIC
    initial_capital: float = 100_000.0
    seeds: tuple[int, ...] = (132,)
    benchmark_ticker: str | None = None
    risk_free: float = 0.0
    rebalance_every: int = 1
    use_open_prices: bool = True
    fevd_mode: str = var_fevd.MODE_ORTHOGONALIZED
    min_var_history: int | None = None
    nnar_lags: int = 5
    nnar_hidden: int = 3
    nnar_learning_rate: float = 0.01
    nnar_epochs: int = 500
    arima_max_p: int = 2
    arima_max_d: int = 1
    arima_max_q: int = 2
    name: str = "strategy"

    def __post_init__(self) -> None:
        problems = [f"{key} must be at least {low}" for key, low in _MINIMUMS.items() if getattr(self, key) < low]
        if not 0.0 < self.alpha <= 0.5:
            problems.append("alpha must lie in (0, 0.5]")
        if self.initial_capital <= 0.0:
            problems.append("initial_capital must be positive")
        if not self.seeds:
            problems.append("at least one seed is required")
        if self.rebalance_every < 1:
            problems.append("rebalance_every must be at least 1")
        if self.weighting not in (WEIGHTING_VAR, WEIGHTING_SHARPE):
            problems.append(f"unknown weighting {self.weighting!r}")
        if self.forecaster not in (FORECASTER_NONE, FORECASTER_ARIMA, FORECASTER_NNAR):
            problems.append(f"unknown forecaster {self.forecaster!r}")
        if self.signal_mode not in (SIGNAL_PER_STOCK, SIGNAL_ALL_AGREE):
            problems.append(f"unknown signal mode {self.signal_mode!r}")
        if self.portfolio_mode not in (MODE_DYNAMIC, MODE_FIXED, MODE_DYNAMIC_VAR_ONLY):
            problems.append(f"unknown portfolio mode {self.portfolio_mode!r}")
        if self.signal_mode == SIGNAL_ALL_AGREE and self.forecaster == FORECASTER_NONE:
            problems.append("all_agree signal mode requires a forecaster")
        if self.fevd_mode not in (var_fevd.MODE_ORTHOGONALIZED, var_fevd.MODE_AS_WRITTEN):
            problems.append(f"unknown fevd mode {self.fevd_mode!r}")
        if not 0.0 < self.nnar_learning_rate < math.inf:
            problems.append("nnar_learning_rate must be finite and positive")
        if self.arima_max_d not in (0, 1):
            problems.append("arima_max_d must be 0 or 1")
        if self.forecaster == FORECASTER_NNAR and self.nnar_lags + 20 > self.window:
            problems.append("window too short for the configured NNAR lag count")
        if problems:
            raise ConfigError(problems)


def make_strategy(base: StrategyConfig, name: str, fixed_weighting: str = WEIGHTING_VAR) -> StrategyConfig:
    """Instantiate one of the named strategy variants from a base config."""
    if name == BENCHMARK_STRATEGY:
        return replace(base, name=name)
    if name not in _VARIANTS:
        raise ConfigError(f"unknown strategy {name!r}")
    weighting, forecaster, signal_mode, portfolio_mode = _VARIANTS[name]
    return replace(
        base,
        name=name,
        weighting=weighting or fixed_weighting,
        forecaster=forecaster,
        signal_mode=signal_mode,
        portfolio_mode=portfolio_mode,
    )


@dataclass(frozen=True, eq=False)
class PortfolioState:
    """Cash, integer share holdings, and the day's mark-to-market value."""

    cash: float
    holdings: dict[str, int]
    value: float
    stale: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.cash < -1e-9:
            raise DataError("cash account went negative")
        if any(s <= 0 for s in self.holdings.values()):
            raise DataError("holdings must be positive integer share counts")


@dataclass(frozen=True)
class DayRecord:
    """One executed simulation day, for audit and accounting checks."""

    date: date
    signal: int
    selection: tuple[str, ...]
    weights: WeightVector
    cash: float
    holdings: tuple[tuple[str, int], ...]
    value: float
    stale: tuple[str, ...]


@dataclass(eq=False)
class SimulationResult:
    """Value path and audit trail of one strategy run."""

    strategy: str
    seed: int
    dates: tuple[date, ...]
    values: np.ndarray
    total_return_pct: float
    trade_count: int
    days: tuple[DayRecord, ...]
    warnings: tuple[str, ...] = ()


EMPTY_WEIGHTS = WeightVector(entries=())


def aggregate_signal(signals: list[int] | tuple[int, ...]) -> int:
    """Majority trade signal: sign of the sum, zero-sum means hold."""
    if not signals:
        raise DataError("cannot aggregate an empty signal list")
    if any(s not in (-1, 0, 1) for s in signals):
        raise DataError("signals must be -1, 0, or +1")
    total = sum(signals)
    if total == 0:
        return 0
    return 1 if total > 0 else -1


def _trade(
    cash: float,
    held: list[tuple[int, int]],
    signal: int,
    targets: list[tuple[int, float]],
    exec_px: list[float],
    exec_stale: list[bool],
    close_px: list[float],
    close_stale: list[bool],
    names: Sequence[str],
) -> tuple[float, list[tuple[int, int]], float, set[int]]:
    """One trading day on integer columns; the one trading rule of the engine.

    Columns number ``names`` in sorted order and ``held`` holds (column,
    shares) pairs sorted by column, so the loops meet tickers in name
    order.  ``exec_px`` and ``close_px`` hold each column's price after the
    last-known-close fallback, NaN where there is none, and ``exec_stale``
    and ``close_stale`` flag the columns without a price of the day.
    ``targets`` are the (column, normalised weight) pairs with a positive
    weight, in weight order.  Returns the cash, the holdings, the value and
    the stale columns.
    """
    stale: set[int] = set()
    if signal != 0 and held:
        proceeds = [cash]
        for col, shares in held:
            px = exec_px[col]
            if px != px:
                raise DataError(f"no execution price available to sell {names[col]}")
            if exec_stale[col]:
                stale.add(col)
            proceeds.append(shares * px)
        cash = math.fsum(proceeds)
        held = []
    if signal == 1 and targets:
        total = cash
        bought: dict[int, int] = {}
        spent = [total]
        for col, norm in targets:
            px = exec_px[col]
            if px != px:
                stale.add(col)  # unpriceable target: its allocation stays in cash
                continue
            if exec_stale[col]:
                stale.add(col)
            shares = int(math.floor(norm * total / px))
            if shares > 0:
                bought[col] = shares
                spent.append(-(shares * px))
        cash = math.fsum(spent)
        held = sorted(bought.items())
    marks = [cash]
    for col, shares in held:
        px = close_px[col]
        if px != px:
            raise DataError(f"no closing price available to value {names[col]}")
        if close_stale[col]:
            stale.add(col)
        marks.append(shares * px)
    value = math.fsum(marks)
    if signal != 0:  # a hold leaves the cash and the holdings as they were
        if cash < -1e-9:
            raise DataError("cash account went negative")
        if any(shares <= 0 for _, shares in held):
            raise DataError("holdings must be positive integer share counts")
    return cash, held, value, stale


def execute_day(
    state: PortfolioState,
    signal: int,
    weights: WeightVector,
    exec_prices: dict[str, float],
    close_prices: dict[str, float],
    last_known: dict[str, float] | None = None,
) -> PortfolioState:
    """Apply one day's trade signal and revalue at the closing prices.

    Signal +1 liquidates at the execution prices and re-buys the weight
    targets with the floor rule (all-zero weights leave everything in
    cash); -1 liquidates to cash; 0 holds.  A ticker missing from a price
    map, or priced at a non-finite value, falls back to ``last_known`` and
    is flagged as stale, by the day loop's own fallback.
    """
    if signal not in (-1, 0, 1):
        raise DataError("signal must be -1, 0, or +1")
    names = sorted(set(state.holdings).union(weights.tickers))
    col = {ticker: c for c, ticker in enumerate(names)}
    maps = (exec_prices, close_prices, last_known or {})
    px = np.array([[prices.get(ticker, math.nan) for ticker in names] for prices in maps], dtype=float)
    px[~np.isfinite(px)] = math.nan
    exec_px, exec_stale = _fallback_rows(px[0], px[2])
    close_px, close_stale = _fallback_rows(px[1], px[2])
    cash, held, value, stale = _trade(
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


def _fallback_rows(px: np.ndarray, last: np.ndarray) -> tuple[list[list[float]], list[list[bool]]]:
    """Rows of ``px`` as lists with each NaN cell taken from ``last``, and flags of those cells."""
    absent = np.isnan(px)
    return np.where(absent, last, px).tolist(), absent.tolist()


def _strip_benchmark(
    cfg: StrategyConfig, prices: PriceTable, returns: ReturnMatrix
) -> tuple[PriceTable, ReturnMatrix]:
    if cfg.benchmark_ticker and cfg.benchmark_ticker in prices.tickers:
        prices = market_data.drop_tickers(prices, [cfg.benchmark_ticker])
    if tuple(returns.tickers) != tuple(prices.tickers):
        returns = market_data.select_tickers(returns, prices.tickers)
    if returns.dates != prices.dates[1:]:
        raise DataError("returns are not aligned to the price panel")
    return prices, returns


def window_tree(win: ReturnMatrix, cfg: StrategyConfig) -> tuple[CostMatrix, MstTree]:
    """Edge costs of one return window's influence network and their spanning tree.

    Raises :class:`EstimationError` or :class:`DataError` when the window
    has no estimable network (e.g. a flat market).
    """
    influence = var_fevd.influence_matrix(win, cfg.horizon, cfg.fevd_mode)
    costs = var_fevd.to_cost(influence)
    return costs, network.prim_mst(costs)


# NNAR fits trained as one stack.  An epoch costs a fixed numpy call
# overhead plus a share per member, so a fit in a stack of 2 runs at about
# the speed of a lone fit.  On 120-day series (5 lags, 3 units, 500 epochs,
# one core) a fit took 27.9 ms alone and, per member, 14.1 / 12.0 / 8.7 /
# 7.5 / 7.9 / 7.7 ms in stacks of 4 / 8 / 16 / 24 / 32 / 48.
NNAR_CHUNK = 24


@dataclass(frozen=True)
class Decision:
    """One decision day of a strategy: the selection it holds and whether it trades it."""

    tau: int  # return row the day's window ends at
    selection: tuple[str, ...] | None  # None until a network is first estimated
    trades: bool
    warning: str | None


class DecisionPath:
    """Upstream decisions of one run, shared by every strategy and seed.

    A window's top-k selection depends only on the prices and the base
    config's upstream fields, and a forecast additionally on the
    forecaster, the ticker and (for NNAR only) the seed; neither depends on
    a strategy's weighting, signal or accounting, so strategies read those
    fields from ``base``.  The path also holds the rule that turns
    selections into each day's held selection, per portfolio mode.  Each
    selection and forecast is kept once computed, failure message included,
    so a run builds each window's network and fits each forecast once.
    Windows are computed the first time a strategy asks for them; a
    forecaster's first request fits every forecast a strategy of that
    portfolio mode will ask for over the run's seeds, NNAR in stacks.
    """

    def __init__(
        self,
        cfg: StrategyConfig,
        prices: PriceTable,
        returns: ReturnMatrix,
        seeds: tuple[int, ...] | None = None,
    ) -> None:
        self.base = cfg
        self.seeds = tuple(seeds) if seeds is not None else cfg.seeds
        self.prices, self.returns = _strip_benchmark(cfg, prices, returns)
        # Masked returns of each ticker above each row; a window's count is a difference.
        counts = np.cumsum(self.returns.mask, axis=0)
        self._masked_above = np.vstack([np.zeros_like(counts[:1]), counts])
        self._selections: dict[int, tuple[tuple[str, ...] | None, str | None]] = {}
        self._schedules: dict[str, tuple[Decision, ...]] = {}
        self._forecasts: dict[tuple[str, str, int, int | None], tuple[Forecast, str | None]] = {}

    def selection_at(self, tau: int) -> tuple[tuple[str, ...] | None, str | None]:
        """Top-k central tickers of the window ending at return row ``tau``.

        Returns ``(selection, None)``, or ``(None, message)`` when the
        window's network cannot be estimated.
        """
        if tau not in self._selections:
            win = market_data.window(self.returns, tau, self.base.window)
            try:
                _, tree = window_tree(win, self.base)
                ranking = network.degree_centrality(tree)
                self._selections[tau] = (network.select_top_k(ranking, self.base.top_k), None)
            except (EstimationError, DataError) as exc:
                self._selections[tau] = (None, str(exc))
        return self._selections[tau]

    def schedule(self, mode: str) -> tuple[Decision, ...]:
        """Every decision day of a strategy with portfolio mode ``mode``.

        A dynamic strategy re-selects every ``rebalance_every`` days and
        keeps its last selection when a recompute fails; the other modes
        keep their first selection.  Until a first selection exists the
        strategy holds cash and retries every day.  A fixed strategy trades
        only on its first day with a selection.
        """
        if mode not in self._schedules:
            out = []
            held: tuple[str, ...] | None = None
            traded = False
            w = self.base.window
            for step, tau in enumerate(range(w - 1, len(self.returns.dates) - 1)):
                warning = None
                if held is None or (mode == MODE_DYNAMIC and step % self.base.rebalance_every == 0):
                    picked, failure = self.selection_at(tau)
                    end = self.returns.dates[tau]
                    if picked is not None:
                        held = picked
                    elif held is None:
                        # No estimable pair (e.g. a flat market) is a hold, not a
                        # crash: stay in cash and try again on the next window.
                        warning = f"network unavailable at {end}: {failure}; holding cash"
                    else:
                        warning = f"network recompute failed at {end}: {failure}"
                trades = held is not None and not (mode == MODE_FIXED and traded)
                traded = traded or trades
                out.append(Decision(tau, held, trades, warning))
            self._schedules[mode] = tuple(out)
        return self._schedules[mode]

    def weight_windows(self, days: list[Decision]) -> tuple[np.ndarray, np.ndarray]:
        """The return windows of every stock the days select, for weighting them at once.

        Returns ``(windows, clean)``.  ``clean`` has one entry per selected
        stock, day after day in selection order, True where the stock's
        window ending at the day's ``tau`` has no masked cell; ``windows``
        holds those unmasked windows, in order, as the C-contiguous rows of
        one ``(count, window)`` block.
        """
        w = self.base.window
        cols = np.array([self.returns.ticker_index(t) for d in days for t in d.selection], dtype=np.intp)
        taus = np.array([d.tau for d in days], dtype=np.intp)
        ends = np.repeat(taus + 1, [len(d.selection) for d in days])  # one past each window's last row
        clean = self._unmasked(ends, cols)
        windows = sliding_window_view(self.returns.returns, w, axis=0)[ends[clean] - w, cols[clean]]
        return windows, clean

    def _unmasked(self, ends: int | np.ndarray, cols: int | np.ndarray) -> bool | np.ndarray:
        """True where the column's window ending just before row ``ends`` has no masked return."""
        return self._masked_above[ends, cols] == self._masked_above[ends - self.base.window, cols]

    def forecasts(self, cfg: StrategyConfig, day: Decision, seed: int) -> tuple[list[Forecast], list[str]]:
        """``cfg.forecaster``'s one-step forecasts of the day's selection, and failure messages.

        A ticker with a masked return in the window, or whose fit fails,
        gets a neutral forecast, so the filter drops it.  ARIMA ignores the
        seed, so its forecasts are shared across seeds too.  ``day`` must be
        a trading day of the schedule of ``cfg.portfolio_mode``.
        """
        keys = [self._key(cfg.forecaster, ticker, day.tau, seed) for ticker in day.selection]
        if any(key not in self._forecasts for key in keys):
            days = [d for d in self.schedule(cfg.portfolio_mode) if d.trades]
            self._fit(
                self._key(cfg.forecaster, ticker, d.tau, s)
                for d in days
                for ticker in d.selection
                for s in self.seeds
            )
        out, failures = [], []
        for key in keys:
            fc, failure = self._forecasts[key]
            if failure is not None:
                failures.append(f"forecast failed for {fc.ticker}: {failure}")
            out.append(fc)
        return out, failures

    @staticmethod
    def _key(forecaster: str, ticker: str, tau: int, seed: int) -> tuple[str, str, int, int | None]:
        return (forecaster, ticker, tau, None if forecaster == FORECASTER_ARIMA else seed)

    def _fit(self, keys: Iterable[tuple[str, str, int, int | None]]) -> None:
        """Compute the forecasts of ``keys`` not yet kept; NNAR fits train in stacks."""
        cfg, w = self.base, self.base.window
        nnar: list[tuple[tuple[str, str, int, int | None], np.ndarray]] = []
        for key in dict.fromkeys(keys):
            forecaster, ticker, tau, _ = key
            if key in self._forecasts:
                continue
            j = self.returns.ticker_index(ticker)
            series = self.returns.returns[tau - w + 1 : tau + 1, j]
            if not self._unmasked(tau + 1, j):
                # Insufficient history: stay neutral so the filter drops the stock.
                self._forecasts[key] = (forecast.make_forecast(ticker, 0.0), None)
            elif forecaster == FORECASTER_NNAR:
                nnar.append((key, series))
            else:
                orders = (cfg.arima_max_p, cfg.arima_max_d, cfg.arima_max_q)
                self._settle(key, lambda: forecast.arima_forecast(forecast.arima_fit(series, *orders), series))
        for start in range(0, len(nnar), NNAR_CHUNK):
            chunk = nnar[start : start + NNAR_CHUNK]
            models = forecast.nnar_fit_batch(
                [series for _, series in chunk],
                [forecast.derive_seed(seed, ticker, tau) for (_, ticker, tau, seed), _ in chunk],
                cfg.nnar_lags,
                cfg.nnar_hidden,
                learning_rate=cfg.nnar_learning_rate,
                epochs=cfg.nnar_epochs,
            )
            for (key, series), model in zip(chunk, models):
                if isinstance(model, Exception):
                    self._forecasts[key] = (forecast.make_forecast(key[1], 0.0), str(model))
                else:
                    self._settle(key, lambda: forecast.nnar_forecast(model, series[-cfg.nnar_lags :]))

    def _settle(self, key: tuple[str, str, int, int | None], r_hat: Callable[[], float]) -> None:
        """Keep the forecast ``r_hat()`` for ``key``, or a neutral one and the failure."""
        ticker = key[1]
        try:
            self._forecasts[key] = (forecast.make_forecast(ticker, r_hat()), None)
        except (EstimationError, ValueError) as exc:
            self._forecasts[key] = (forecast.make_forecast(ticker, 0.0), str(exc))


def run_simulation(
    cfg: StrategyConfig,
    prices: PriceTable,
    returns: ReturnMatrix,
    seed: int | None = None,
) -> SimulationResult:
    """Simulate one strategy variant over the full history.

    The value series starts at the initial capital on the first decision
    date (price row ``window``) and gains one mark-to-market entry per
    executed day.
    """
    seed = cfg.seeds[0] if seed is None else seed
    return _simulate(cfg, DecisionPath(cfg, prices, returns, (seed,)), seed)


def _simulate(cfg: StrategyConfig, path: DecisionPath, seed: int) -> SimulationResult:
    if seed not in path.seeds:
        raise ConfigError(f"seed {seed} is not one of the path's seeds {path.seeds}")
    prices = path.prices
    w = path.base.window
    n_dates = len(prices.dates)
    if n_dates < w + 1:
        raise InsufficientHistory(f"need at least window + 1 = {w + 1} price dates, got {n_dates}")
    if len(prices.tickers) < 2:
        raise DataError("empty universe after filtering")
    schedule = path.schedule(cfg.portfolio_mode)
    trading = [day for day in schedule if day.trades]
    windows, clean = path.weight_windows(trading)
    raws = allocation.raw_weights(
        cfg.weighting,
        windows,
        clean,
        alpha=cfg.alpha,
        min_history=cfg.min_var_history,
        risk_free=cfg.risk_free,
    ).tolist()
    # Execution and closing prices of the columns the schedule ever selects,
    # one row per schedule day.  The execution prices of price row t sit in
    # row t - 1: the open, or the prior close where the open is masked or
    # unused.  A masked price (NaN) falls back to the last close before the day.
    names = sorted({ticker for day in trading for ticker in day.selection})
    col = {ticker: c for c, ticker in enumerate(names)}
    cols = np.array([prices.ticker_index(ticker) for ticker in names], dtype=np.intp)
    exec_rows = np.array([day.tau + 2 for day in schedule], dtype=np.intp)  # price rows of the execution days
    on_day, day_before = np.ix_(exec_rows, cols), np.ix_(exec_rows - 1, cols)
    closes = prices.adj_close
    if cfg.use_open_prices and prices.open_px is not None:
        exec_px = np.where(prices.mask[on_day], closes[day_before], prices.open_px[on_day])
    else:
        exec_px = closes[day_before]
    last_close = market_data.last_known(closes, prices.mask)[day_before]
    exec_px, exec_stale = _fallback_rows(exec_px, last_close)
    close_px, close_stale = _fallback_rows(closes[on_day], last_close)
    cash, held, value = cfg.initial_capital, [], cfg.initial_capital
    holdings: tuple[tuple[str, int], ...] = ()
    out_dates = [prices.dates[w]]
    values = [cfg.initial_capital]
    records: list[DayRecord] = []
    warnings: set[str] = set()
    trade_count = 0
    start = 0  # first raw weight of the next trading day
    for i, day in enumerate(schedule):
        if day.warning is not None:
            warnings.add(day.warning)
        if not day.trades:
            signal, weights = 0, EMPTY_WEIGHTS
        else:
            stop = start + len(day.selection)
            raw = raws[start:stop]
            start = stop
            if cfg.forecaster != FORECASTER_NONE:
                forecasts, failures = path.forecasts(cfg, day, seed)
                warnings.update(failures)
                raw = [r if f.r_hat > 0.0 else 0.0 for r, f in zip(raw, forecasts)]
            weights = allocation.from_raw(day.selection, raw)
            if cfg.signal_mode == SIGNAL_ALL_AGREE:
                signal = aggregate_signal([f.signal for f in forecasts])
            else:
                signal = 1 if not weights.is_all_zero() else -1
        before = held
        cash, held, value, stale_cols = _trade(
            cash,
            held,
            signal,
            [(col[ticker], norm) for ticker, _, norm in weights.entries if norm > 0.0],
            exec_px[i],
            exec_stale[i],
            close_px[i],
            close_stale[i],
            names,
        )
        if held != before:
            trade_count += 1
            holdings = tuple((names[c], shares) for c, shares in held)
        on = prices.dates[day.tau + 2]
        stale = ()
        if stale_cols:
            stale = tuple(names[c] for c in sorted(stale_cols))
            warnings.add("stale prices on " + on.isoformat() + ": " + ",".join(stale))
        out_dates.append(on)
        values.append(value)
        records.append(
            DayRecord(
                date=on,
                signal=signal,
                selection=day.selection if day.selection is not None else (),
                weights=weights,
                cash=cash,
                holdings=holdings,
                value=value,
                stale=stale,
            )
        )
    values_arr = np.asarray(values)
    total = (values_arr[-1] / values_arr[0] - 1.0) * 100.0
    return SimulationResult(
        strategy=cfg.name,
        seed=seed,
        dates=tuple(out_dates),
        values=values_arr,
        total_return_pct=float(total),
        trade_count=trade_count,
        days=tuple(records),
        warnings=tuple(sorted(warnings)),
    )


def benchmark_buy_hold(
    dates: tuple[date, ...],
    closes: np.ndarray,
    initial_capital: float,
    mask: np.ndarray | None = None,
    seed: int = 0,
) -> SimulationResult:
    """Buy-and-hold value path of an index series: C_t = C_0 * P_t / P_0.

    Masked prices carry the previous value forward and are flagged; an
    unmasked price must be finite and strictly positive, as in a PriceTable.
    """
    closes = np.asarray(closes, dtype=float)
    if closes.ndim != 1 or closes.size != len(dates) or closes.size < 2:
        raise DataError("benchmark needs a 1-d series aligned to at least two dates")
    if initial_capital <= 0.0:
        raise DataError("initial capital must be positive")
    masked = np.asarray(mask, dtype=bool) if mask is not None else ~np.isfinite(closes)
    if np.any(~masked & ~(np.isfinite(closes) & (closes > 0.0))):
        raise DataError("unmasked prices must be finite and strictly positive")
    last = market_data.last_known(closes, masked)
    seen = np.logical_or.accumulate(~masked)
    anchor = closes[np.argmax(seen)]
    # C_0 * P_0 / P_0 can round one ulp away from C_0, so a return to the
    # anchor price is C_0 itself.
    values = np.where(~seen | (last == anchor), initial_capital, initial_capital * last / anchor)
    warnings = {f"benchmark price missing on {dates[t].isoformat()}" for t in np.flatnonzero(masked)}
    total = (values[-1] / values[0] - 1.0) * 100.0
    return SimulationResult(
        strategy=BENCHMARK_STRATEGY,
        seed=seed,
        dates=tuple(dates),
        values=values,
        total_return_pct=float(total),
        trade_count=1,
        days=(),
        warnings=tuple(sorted(warnings)),
    )


@dataclass(eq=False)
class MultiSeedResult:
    """Total returns per (seed, strategy) plus per-strategy means."""

    seeds: tuple[int, ...]
    strategies: tuple[str, ...]
    returns_pct: np.ndarray  # (n_seeds, n_strategies)
    means: np.ndarray  # (n_strategies,)
    results: dict[tuple[str, int], SimulationResult] = field(default_factory=dict)


def run_multi_seed(
    cfg: StrategyConfig,
    prices: PriceTable,
    returns: ReturnMatrix,
    seeds: list[int] | tuple[int, ...] | None = None,
    strategies: tuple[str, ...] | None = None,
    fixed_weighting: str = WEIGHTING_VAR,
) -> MultiSeedResult:
    """Run the selected strategy variants across all seeds.

    Every strategy and seed reads one :class:`DecisionPath`, so each
    window's selection and each forecast is computed once per call.
    Strategies without stochastic components are run once and their cells
    replicated across seeds, which leaves results identical to a full
    re-run because those paths never consume randomness.
    """
    seeds = tuple(seeds) if seeds is not None else cfg.seeds
    if not seeds:
        raise ConfigError("at least one seed is required")
    names = tuple(strategies) if strategies is not None else STRATEGY_NAMES
    unknown = [n for n in names if n not in STRATEGY_NAMES]
    if unknown:
        raise ConfigError([f"unknown strategy {n!r}" for n in unknown])
    finished: dict[tuple[str, int | None], SimulationResult] = {}
    if BENCHMARK_STRATEGY in names:
        if not cfg.benchmark_ticker or cfg.benchmark_ticker not in prices.tickers:
            raise ConfigError("buy_hold strategy requires benchmark_ticker present in the data")
        j = prices.ticker_index(cfg.benchmark_ticker)
        rows = slice(cfg.window, len(prices.dates))
        finished[(BENCHMARK_STRATEGY, None)] = benchmark_buy_hold(
            prices.dates[rows],
            prices.adj_close[rows, j],
            cfg.initial_capital,
            prices.mask[rows, j],
            seeds[0],
        )
    simulated = [n for n in names if n != BENCHMARK_STRATEGY]
    path = DecisionPath(cfg, prices, returns, seeds) if simulated else None
    for name in simulated:
        strat = make_strategy(cfg, name, fixed_weighting)
        if strat.forecaster == FORECASTER_NNAR:
            for s in seeds:
                finished[(name, s)] = _simulate(strat, path, s)
        else:
            finished[(name, None)] = _simulate(strat, path, seeds[0])
    results: dict[tuple[str, int], SimulationResult] = {}
    table = np.empty((len(seeds), len(names)))
    for col, name in enumerate(names):
        for row, s in enumerate(seeds):
            res = finished.get((name, s)) or finished[(name, None)]
            if res.seed != s:
                res = replace(res, seed=s)
            results[(name, s)] = res
            table[row, col] = res.total_return_pct
    means = table.mean(axis=0)
    return MultiSeedResult(
        seeds=seeds, strategies=names, returns_pct=table, means=means, results=results
    )
