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

import functools
import logging
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
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
# weighting is the base config's weighting, which only ``fixed`` reads.
# Registry order doubles as the column order of the seeds table.
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


def repeats(items: Iterable) -> list:
    """The items that occur more than once, each once, in first-seen order."""
    return [item for item, count in Counter(items).items() if count > 1]


def check_strategies(names: Sequence[str]) -> None:
    """Reject a strategy list with an unknown, a repeated or no name, listing each problem.

    A repeat would give one summary key but two table columns.
    """
    problems = []
    unknown = [n for n in names if n not in STRATEGY_NAMES]
    if unknown:
        problems.append(f"unknown strategies: {', '.join(unknown)}")
    if not names:
        problems.append("empty strategy list")
    repeated = repeats(names)
    if repeated:
        problems.append(f"repeated strategies: {', '.join(repeated)}")
    if problems:
        raise ConfigError(problems)


# The least value of each integer setting that has one.
_MINIMUMS = dict(
    window=30,
    horizon=1,
    top_k=1,
    rebalance_every=1,
    nnar_lags=1,
    nnar_hidden=1,
    nnar_epochs=0,
    arima_max_p=0,
    arima_max_q=0,
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
        if not 0.0 < self.initial_capital < math.inf:
            problems.append("initial_capital must be finite and positive")
        if not math.isfinite(self.risk_free):
            problems.append("risk_free must be finite")
        if not self.seeds:
            problems.append("at least one seed is required")
        problems.extend(f"repeated seed {s}" for s in repeats(self.seeds))
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


def make_strategy(base: StrategyConfig, name: str) -> StrategyConfig:
    """Instantiate one of the named strategy variants from a base config.

    A variant sets its row of ``_VARIANTS``; ``fixed`` keeps the base
    config's weighting.
    """
    if name == BENCHMARK_STRATEGY:
        return replace(base, name=name)
    if name not in _VARIANTS:
        raise ConfigError(f"unknown strategy {name!r}")
    weighting, forecaster, signal_mode, portfolio_mode = _VARIANTS[name]
    return replace(
        base,
        name=name,
        weighting=weighting or base.weighting,
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
    """Value path and audit trail of one strategy run.

    ``days`` holds one :class:`DayRecord` per executed day, as ``replay``
    returns them.  An engine run keeps no record while it trades: its
    ``replay`` reruns the strategy's day loop with records on the first
    time it is called, which gives the same days, and returns that tuple
    from then on.  ``dataclasses.replace`` and ``repr`` call no replay, and
    a copy made by ``replace`` shares its result's replay.
    """

    strategy: str
    seed: int
    dates: tuple[date, ...]
    values: np.ndarray
    total_return_pct: float
    trade_count: int
    warnings: tuple[str, ...] = ()
    replay: Callable[[], tuple[DayRecord, ...]] = field(default=tuple, repr=False)

    @property
    def days(self) -> tuple[DayRecord, ...]:
        return self.replay()


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


# NNAR fits trained as one stack.  An epoch costs a fixed numpy call
# overhead plus a share per member, so a fit in a stack of 2 runs at about
# the speed of a lone fit.  On 120-day series (5 lags, 3 units, 500 epochs,
# one AMD EPYC core, OpenBLAS on 1 thread) a fit took 11.7 ms alone and, per
# member, 3.9 / 2.6 / 2.0 / 1.8 / 1.6 / 1.4 ms in stacks of 4 / 8 / 16 / 24 /
# 32 / 48; 240 fits split into stacks of 24 / 48 / 64 / 96 took 1.67 / 1.48 /
# 1.44 / 1.46 ms per fit.
NNAR_CHUNK = 48

# Cost cells (windows x N x N) of the spanning trees grown as one stack, 8
# bytes each: an 8 MiB stack at this cap.  A Prim step costs a fixed numpy
# call overhead plus a share per window, so a tree gets cheaper as the stack
# grows until a step's (windows, N) arrays reach a few thousand cells.
# Milliseconds per tree on random costs (one AMD EPYC core), for the
# one-window loop of tests/reference_prim.py and for stacks of B windows:
#
#     N    loop   B=1    B=2    B=4    B=8    B=16   B=32
#     60   0.37   0.53   0.28   0.16   0.091  0.057  0.040
#     220  1.7    2.3    1.1    0.75   0.47   0.33   0.27
#     490  4.3    5.5    3.0    1.9    1.4    1.1    1.0
#
# The cap stacks 291 windows at N = 60, 21 at N = 220 and 4 at N = 490.
MST_CELLS = 1 << 20


@dataclass(frozen=True)
class Decision:
    """One decision day of a strategy: the selection it holds and whether it trades it."""

    tau: int  # return row the day's window ends at
    selection: tuple[str, ...] | None  # None until a network is first estimated
    trades: bool
    warning: str | None


def _check_dates(cfg: StrategyConfig, n_dates: int, decides: bool = False) -> None:
    """Reject a panel of fewer than ``window + 1`` price dates, too short for one window.

    With ``decides``, also reject exactly ``window + 1`` dates: the one
    window then ends on the last return row, which leaves a simulation no
    day to decide and trade on.
    """
    w = cfg.window
    if n_dates < w + 1:
        raise InsufficientHistory(f"need at least window + 1 = {w + 1} price dates, got {n_dates}")
    if decides and n_dates == w + 1:
        raise InsufficientHistory(
            f"no decision day: a simulation needs at least window + 2 = {w + 2} price dates, got {n_dates}"
        )


class DecisionPath:
    """Upstream decisions of one run, shared by every strategy and seed.

    The path is the one route from a return window to what is decided on
    it: the window's network and spanning tree (:meth:`trees_at`), its
    top-k selection, the rule that turns selections into each day's held
    selection per portfolio mode, the weighted stocks' windows and their
    forecasts.  The trees of a dynamic schedule's rebalance windows grow
    together, in stacks of at most ``MST_CELLS`` cost cells, by the tie
    rule of a lone tree.  A selection depends only on the prices and the
    base config's upstream fields, and a forecast additionally on the
    forecaster and (for NNAR only) the seed; neither depends on a
    strategy's weighting, signal or accounting, so strategies read those
    fields from ``base``.  Each selection, schedule and forecast list is
    kept once computed, failure messages included, so a run builds each
    window's network and fits each forecast once.  NNAR forecasts are
    fitted for every seed of ``cfg.seeds``.  The constructor rejects a
    panel with fewer than ``window`` return rows or two tickers.
    """

    def __init__(self, cfg: StrategyConfig, prices: PriceTable, returns: ReturnMatrix) -> None:
        self.base = cfg
        self.seeds = cfg.seeds
        self.prices, self.returns = _strip_benchmark(cfg, prices, returns)
        _check_dates(cfg, len(self.prices.dates))
        if len(self.prices.tickers) < 2:
            raise DataError("empty universe after filtering")
        # Masked returns of each ticker above each row; a window's count is a difference.
        counts = np.cumsum(self.returns.mask, axis=0)
        self._masked_above = np.vstack([np.zeros_like(counts[:1]), counts])
        self._selections: dict[int, tuple[tuple[str, ...] | None, str | None]] = {}
        self._schedules: dict[str, tuple[Decision, ...]] = {}
        self._forecasts: dict[tuple[str, str], dict[int | None, list[tuple[Forecast, str | None]]]] = {}

    def trees_at(self, taus: Sequence[int]) -> Iterator[tuple[int, tuple[CostMatrix, MstTree] | Exception]]:
        """Edge costs and spanning tree of each window ending at a return row of ``taus``, in order.

        Yields ``(tau, (costs, tree))``, or ``(tau, error)`` with the
        :class:`EstimationError` or :class:`DataError` of a window that has
        no estimable network (e.g. a flat market).  Each window's costs are
        built on their own; the trees of up to ``MST_CELLS // N**2`` windows
        then grow together in one :func:`network.prim_mst_stack` call.
        """
        n = len(self.returns.tickers)
        size = max(1, MST_CELLS // (n * n))
        for start in range(0, len(taus), size):
            chunk = taus[start : start + size]
            stack = np.empty((len(chunk), n, n))
            built: list[tuple[int, CostMatrix | Exception]] = []
            count = 0
            for tau in chunk:
                try:
                    win = market_data.window(self.returns, tau, self.base.window)
                    costs = var_fevd.to_cost(var_fevd.influence_matrix(win, self.base.horizon, self.base.fevd_mode))
                    network.check_costs(costs.tickers, costs.symmetric)
                except (EstimationError, DataError) as exc:
                    built.append((tau, exc))
                    continue
                # The stack holds the window's symmetric costs from here on.
                stack[count] = costs.symmetric
                built.append((tau, replace(costs, symmetric=stack[count])))
                count += 1
            trees = iter(network.prim_mst_stack(self.returns.tickers, stack[:count]) if count else ())
            for tau, entry in built:
                yield tau, entry if isinstance(entry, Exception) else (entry, next(trees))

    def _select(self, taus: Iterable[int]) -> None:
        """Keep the top-k selection, or the failure message, of each window of ``taus`` not yet kept."""
        todo = [tau for tau in taus if tau not in self._selections]
        for tau, built in self.trees_at(todo):
            if isinstance(built, Exception):
                self._selections[tau] = (None, str(built))
            else:
                ranking = network.degree_centrality(built[1])
                self._selections[tau] = (network.select_top_k(ranking, self.base.top_k), None)

    def selection_at(self, tau: int) -> tuple[tuple[str, ...] | None, str | None]:
        """Top-k central tickers of the window ending at return row ``tau``.

        Returns ``(selection, None)``, or ``(None, message)`` when the
        window's network cannot be estimated.
        """
        self._select((tau,))
        return self._selections[tau]

    def schedule(self, mode: str) -> tuple[Decision, ...]:
        """Every decision day of a strategy with portfolio mode ``mode``.

        A dynamic strategy re-selects every ``rebalance_every`` days and
        keeps its last selection when a recompute fails; the other modes
        keep their first selection.  Until a first selection exists the
        strategy holds cash and retries every day.  A fixed strategy trades
        only on its first day with a selection.  A dynamic schedule asks for
        the trees of all its rebalance days at once, as they grow faster
        stacked; a retry day asks for its own window alone.
        """
        if mode not in self._schedules:
            out = []
            held: tuple[str, ...] | None = None
            traded = False
            w = self.base.window
            if mode == MODE_DYNAMIC:
                self._select(range(w - 1, len(self.returns.dates) - 1, self.base.rebalance_every))
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
        """The return windows of every stock the days select, to weight and forecast them at once.

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
        clean = self._masked_above[ends, cols] == self._masked_above[ends - w, cols]
        windows = sliding_window_view(self.returns.returns, w, axis=0)[ends[clean] - w, cols[clean]]
        return windows, clean

    def forecasts(self, cfg: StrategyConfig, seed: int) -> list[tuple[Forecast, str | None]]:
        """``cfg.forecaster``'s one-step forecast and failure message for each weight row.

        There is one entry per row of :meth:`weight_windows` over the
        trading days of ``cfg.portfolio_mode``'s schedule, fitted on that
        row's window.  A row that is not clean (a masked return in the
        window) gets a neutral forecast without a fit, and one whose fit
        fails a neutral forecast and the failure, so the filter drops the
        stock.  The list is computed once per forecaster and portfolio mode,
        NNAR over all of the path's seeds in stacks of ``NNAR_CHUNK``; ARIMA
        ignores the seed, so its list serves every seed.
        """
        key = (cfg.forecaster, cfg.portfolio_mode)
        if key not in self._forecasts:
            days = [d for d in self.schedule(cfg.portfolio_mode) if d.trades]
            self._forecasts[key] = self._fit(cfg.forecaster, days)
        return self._forecasts[key][seed if cfg.forecaster == FORECASTER_NNAR else None]

    def _fit(self, forecaster: str, days: list[Decision]) -> dict[int | None, list[tuple[Forecast, str | None]]]:
        """Each seed's (None for ARIMA) forecasts of the weight rows of ``days``."""
        cfg = self.base
        rows = [(ticker, d.tau) for d in days for ticker in d.selection]
        windows, clean = self.weight_windows(days)
        seeds = self.seeds if forecaster == FORECASTER_NNAR else (None,)
        out = {s: [(forecast.make_forecast(ticker, 0.0), None) for ticker, _ in rows] for s in seeds}
        fits = [(i, series, s) for i, series in zip(np.flatnonzero(clean).tolist(), windows) for s in seeds]
        orders = (cfg.arima_max_p, cfg.arima_max_d, cfg.arima_max_q)
        models: list = []
        if forecaster == FORECASTER_NNAR:
            for start in range(0, len(fits), NNAR_CHUNK):
                chunk = fits[start : start + NNAR_CHUNK]
                models += forecast.nnar_fit_batch(
                    [series for _, series, _ in chunk],
                    [forecast.derive_seed(s, *rows[i]) for i, _, s in chunk],
                    cfg.nnar_lags,
                    cfg.nnar_hidden,
                    learning_rate=cfg.nnar_learning_rate,
                    epochs=cfg.nnar_epochs,
                )
        for n, (i, series, s) in enumerate(fits):
            ticker = rows[i][0]
            try:
                if forecaster == FORECASTER_NNAR:
                    if isinstance(models[n], Exception):
                        raise models[n]
                    r_hat = forecast.nnar_forecast(models[n], series[-cfg.nnar_lags :])
                else:
                    r_hat = forecast.arima_forecast(forecast.arima_fit(series, *orders), series)
                out[s][i] = (forecast.make_forecast(ticker, r_hat), None)
            except (EstimationError, ValueError) as exc:
                out[s][i] = (forecast.make_forecast(ticker, 0.0), str(exc))
        return out


def run_simulation(
    cfg: StrategyConfig,
    prices: PriceTable,
    returns: ReturnMatrix,
    seed: int | None = None,
) -> SimulationResult:
    """Simulate one strategy variant over the full history.

    The value series starts at the initial capital on the first decision
    date (price row ``window``) and gains one mark-to-market entry per
    executed day.  The path fits forecasts for ``seed`` alone.  A config
    named ``buy_hold`` (see :func:`make_strategy`) gives the benchmark path
    of :func:`run_multi_seed`'s ``buy_hold`` cell and builds no path.
    """
    seed = cfg.seeds[0] if seed is None else seed
    _check_dates(cfg, len(prices.dates), decides=True)
    if cfg.name == BENCHMARK_STRATEGY:
        return _buy_hold(cfg, prices, seed)
    return _simulate(cfg, DecisionPath(replace(cfg, seeds=(seed,)), prices, returns), seed)


def _simulate(cfg: StrategyConfig, path: DecisionPath, seed: int) -> SimulationResult:
    """Run one strategy on ``path`` for ``seed``, keeping no per-day record.

    The result's ``replay`` reruns the same day loop with records on the
    first time ``days`` is read, and keeps what it returns.
    """
    if seed not in path.seeds:
        raise ConfigError(f"seed {seed} is not one of the path's seeds {path.seeds}")
    dates, values, trade_count, warnings = _day_loop(cfg, path, seed)
    values_arr = np.asarray(values)
    total = (values_arr[-1] / values_arr[0] - 1.0) * 100.0
    return SimulationResult(
        strategy=cfg.name,
        seed=seed,
        dates=tuple(dates),
        values=values_arr,
        total_return_pct=float(total),
        trade_count=trade_count,
        warnings=tuple(sorted(warnings)),
        replay=functools.cache(functools.partial(_records, cfg, path, seed)),
    )


def _day_loop(
    cfg: StrategyConfig, path: DecisionPath, seed: int, records: list[DayRecord] | None = None
) -> tuple[list[date], list[float], int, set[str]]:
    """Trade every day of the strategy's schedule; the value dates, values, trade count and warnings.

    The raw weights of the whole schedule are checked once, then each
    trading day's are normalised by :func:`allocation.normalize`, which
    gives the trade targets and the signal.  With a ``records`` list, each
    day's :class:`DayRecord` is appended to it, its weights built by
    :func:`allocation.from_raw`; without one the loop builds no per-day
    object.  The loop reads only the path's schedule and forecasts, so
    a rerun gives the same days.
    """
    prices = path.prices
    w = path.base.window
    schedule = path.schedule(cfg.portfolio_mode)
    trading = [day for day in schedule if day.trades]
    raws = allocation.raw_weights(
        cfg.weighting,
        *path.weight_windows(trading),
        alpha=cfg.alpha,
        risk_free=cfg.risk_free,
    )
    allocation.check_raws(raws)
    raws = raws.tolist()
    fits = path.forecasts(cfg, seed) if cfg.forecaster != FORECASTER_NONE else None
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
    all_agree = cfg.signal_mode == SIGNAL_ALL_AGREE
    cash, held, value = cfg.initial_capital, [], cfg.initial_capital
    out_dates = [prices.dates[w]]
    values = [cfg.initial_capital]
    warnings: set[str] = set()
    trade_count = 0
    start = 0  # first raw weight of the next trading day
    for i, day in enumerate(schedule):
        if day.warning is not None:
            warnings.add(day.warning)
        if not day.trades:
            signal, targets = 0, []
        else:
            stop = start + len(day.selection)
            raw = raws[start:stop]
            if fits is not None:
                picked = fits[start:stop]
                forecasts = [fc for fc, _ in picked]
                warnings.update(f"forecast failed for {fc.ticker}: {why}" for fc, why in picked if why is not None)
                raw = [r if f.r_hat > 0.0 else 0.0 for r, f in zip(raw, forecasts)]
            start = stop
            targets = [(col[t], n) for t, n in zip(day.selection, allocation.normalize(raw)) if n > 0.0]
            if all_agree:
                signal = aggregate_signal([f.signal for f in forecasts])
            else:
                signal = 1 if targets else -1
        before = held
        cash, held, value, stale_cols = _trade(
            cash,
            held,
            signal,
            targets,
            exec_px[i],
            exec_stale[i],
            close_px[i],
            close_stale[i],
            names,
        )
        if held != before:
            trade_count += 1
        on = prices.dates[day.tau + 2]
        stale = ()
        if stale_cols:
            stale = tuple(names[c] for c in sorted(stale_cols))
            warnings.add("stale prices on " + on.isoformat() + ": " + ",".join(stale))
        out_dates.append(on)
        values.append(value)
        if records is not None:
            records.append(
                DayRecord(
                    date=on,
                    signal=signal,
                    selection=day.selection if day.selection is not None else (),
                    weights=allocation.from_raw(day.selection, raw) if day.trades else EMPTY_WEIGHTS,
                    cash=cash,
                    holdings=tuple((names[c], shares) for c, shares in held),
                    value=value,
                    stale=stale,
                )
            )
    return out_dates, values, trade_count, warnings


def _records(cfg: StrategyConfig, path: DecisionPath, seed: int) -> tuple[DayRecord, ...]:
    """The day records of one strategy run, from a rerun of its day loop with records on."""
    records: list[DayRecord] = []
    _day_loop(cfg, path, seed, records)
    return tuple(records)


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
        warnings=tuple(sorted(warnings)),
    )


def _buy_hold(cfg: StrategyConfig, prices: PriceTable, seed: int) -> SimulationResult:
    """The ``buy_hold`` result: ``cfg.benchmark_ticker`` bought on price row ``window`` and held."""
    if not cfg.benchmark_ticker or cfg.benchmark_ticker not in prices.tickers:
        raise ConfigError("buy_hold strategy requires benchmark_ticker present in the data")
    j = prices.ticker_index(cfg.benchmark_ticker)
    rows = slice(cfg.window, len(prices.dates))
    return benchmark_buy_hold(
        prices.dates[rows], prices.adj_close[rows, j], cfg.initial_capital, prices.mask[rows, j], seed
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
    strategies: tuple[str, ...] | None = None,
) -> MultiSeedResult:
    """Run the selected strategy variants across every seed of ``cfg.seeds``.

    ``fixed`` weights by ``cfg.weighting``; every other variant sets its
    own (see :func:`make_strategy`).  Every strategy and seed reads one
    :class:`DecisionPath`, so each window's selection and each forecast is
    computed once per call.  ``buy_hold`` is computed as
    :func:`run_simulation` computes it, before the path is built.  Any
    strategy list, ``buy_hold`` alone included, needs at least
    ``window + 2`` price dates: one window and a decision day.
    Strategies without stochastic components are run once, for the first
    seed, and each later seed gets a ``dataclasses.replace`` copy, which
    leaves results identical to a full re-run because those paths never
    consume randomness.  No run builds its day records here: each seed's
    copy of a result shares the one replay that builds them when ``days``
    is first read.
    """
    seeds = cfg.seeds
    names = tuple(strategies) if strategies is not None else STRATEGY_NAMES
    check_strategies(names)
    _check_dates(cfg, len(prices.dates), decides=True)
    bench = _buy_hold(cfg, prices, seeds[0]) if BENCHMARK_STRATEGY in names else None
    path = DecisionPath(cfg, prices, returns) if set(names) - {BENCHMARK_STRATEGY} else None
    results: dict[tuple[str, int], SimulationResult] = {}
    table = np.empty((len(seeds), len(names)))
    for col, name in enumerate(names):
        strat = make_strategy(cfg, name)
        seeded = name != BENCHMARK_STRATEGY and strat.forecaster == FORECASTER_NNAR
        for row, s in enumerate(seeds):
            if row and not seeded:
                res = replace(first, seed=s)
            else:
                res = first = bench if name == BENCHMARK_STRATEGY else _simulate(strat, path, s)
            results[(name, s)] = res
            table[row, col] = res.total_return_pct
    means = table.mean(axis=0)
    return MultiSeedResult(
        seeds=seeds, strategies=names, returns_pct=table, means=means, results=results
    )
