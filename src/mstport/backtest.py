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
aggregation, plus two that hold the first MST selection: a fixed portfolio
that trades it once and a dynamic VaR portfolio that re-weights it daily.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from datetime import date
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import allocation, forecast, market_data, network, var_fevd
from .allocation import WEIGHTING_SHARPE, WEIGHTING_VAR, WeightVector
from .errors import ConfigError, DataError, EstimationError, InsufficientHistory
from .market_data import PriceTable, ReturnMatrix
from .network import MstTree
from .var_fevd import CostMatrix

log = logging.getLogger(__name__)

FORECASTER_NONE = "none"
FORECASTER_ARIMA = "arima"
FORECASTER_NNAR = "nnar"
SIGNAL_PER_STOCK = "per_stock_filter"
SIGNAL_ALL_AGREE = "all_agree"
SIGNAL_ONCE = "once"

BENCHMARK_STRATEGY = "buy_hold"

# A strategy is its row here, read by its config's name: its weighting (None
# for the config's ``fixed_weighting``), forecaster, signal mode and whether
# it rebalances.  Registry order doubles as the column order of the seeds table.
Variant = namedtuple("Variant", "weighting forecaster signal_mode rebalances")
_VARIANTS = {
    "mst_var": Variant(WEIGHTING_VAR, FORECASTER_NONE, SIGNAL_PER_STOCK, True),
    "mst_sharpe": Variant(WEIGHTING_SHARPE, FORECASTER_NONE, SIGNAL_PER_STOCK, True),
    "mst_arima_var": Variant(WEIGHTING_VAR, FORECASTER_ARIMA, SIGNAL_PER_STOCK, True),
    "mst_arima_sharpe": Variant(WEIGHTING_SHARPE, FORECASTER_ARIMA, SIGNAL_PER_STOCK, True),
    "mst_nnar_var": Variant(WEIGHTING_VAR, FORECASTER_NNAR, SIGNAL_PER_STOCK, True),
    "mst_nnar_sharpe": Variant(WEIGHTING_SHARPE, FORECASTER_NNAR, SIGNAL_PER_STOCK, True),
    "mst_allagree_var": Variant(WEIGHTING_VAR, FORECASTER_NNAR, SIGNAL_ALL_AGREE, True),
    "mst_allagree_sharpe": Variant(WEIGHTING_SHARPE, FORECASTER_NNAR, SIGNAL_ALL_AGREE, True),
    "fixed": Variant(None, FORECASTER_NONE, SIGNAL_ONCE, False),
    "dynamic_var": Variant(WEIGHTING_VAR, FORECASTER_NONE, SIGNAL_PER_STOCK, False),
}
STRATEGY_NAMES = (BENCHMARK_STRATEGY, *_VARIANTS)


def repeats(items: Iterable) -> list:
    """The items that occur more than once, each once, in first-seen order."""
    return [item for item, count in Counter(items).items() if count > 1]


def check_strategies(names: Sequence[str], cfg: StrategyConfig | None = None) -> None:
    """Reject a strategy list with an unknown, a repeated or no name, listing each problem.

    A repeat would give one summary key but two table columns.  Given the
    run's ``cfg``, also reject a list that ``cfg`` cannot run: an NNAR
    strategy needs ``window >= nnar_lags + forecast.NNAR_MIN_SPARE`` (20).
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
    nnar = any(n in _VARIANTS and _VARIANTS[n].forecaster == FORECASTER_NNAR for n in names)
    if cfg is not None and nnar and cfg.nnar_lags + forecast.NNAR_MIN_SPARE > cfg.window:
        problems.append("window too short for the configured NNAR lag count")
    if problems:
        raise ConfigError(problems)


def check_seeds(seeds: Sequence[int]) -> None:
    """Reject an empty seed list or one that repeats a seed, listing each problem."""
    problems = [] if seeds else ["empty seed list"]
    repeated = repeats(seeds)
    if repeated:
        problems.append(f"repeated seeds: {', '.join(map(str, repeated))}")
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
    """Parameters of a run of strategy ``name``; defaults mirror the base run."""

    window: int = 120
    horizon: int = 10
    top_k: int = 5
    alpha: float = 0.05
    fixed_weighting: str = WEIGHTING_VAR
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
    name: str = "mst_var"

    def __post_init__(self) -> None:
        problems = [f"{key} must be at least {low}" for key, low in _MINIMUMS.items() if getattr(self, key) < low]
        if not 0.0 < self.alpha <= 0.5:
            problems.append("alpha must lie in (0, 0.5]")
        if not 0.0 < self.initial_capital < math.inf:
            problems.append("initial_capital must be finite and positive")
        if not math.isfinite(self.risk_free):
            problems.append("risk_free must be finite")
        try:
            check_seeds(self.seeds)
        except ConfigError as exc:
            problems.extend(exc.problems)
        if self.fixed_weighting not in (WEIGHTING_VAR, WEIGHTING_SHARPE):
            problems.append(f"unknown weighting {self.fixed_weighting!r}")
        if self.name not in STRATEGY_NAMES:
            problems.append(f"unknown strategy {self.name!r}")
        if self.fevd_mode not in (var_fevd.MODE_ORTHOGONALIZED, var_fevd.MODE_AS_WRITTEN):
            problems.append(f"unknown fevd mode {self.fevd_mode!r}")
        if not 0.0 < self.nnar_learning_rate < math.inf:
            problems.append("nnar_learning_rate must be finite and positive")
        if self.arima_max_d not in (0, 1):
            problems.append("arima_max_d must be 0 or 1")
        if problems:
            raise ConfigError(problems)


def make_strategy(base: StrategyConfig, name: str) -> StrategyConfig:
    """``base`` named ``name``: a strategy is its ``_VARIANTS`` row, read by name."""
    return replace(base, name=name)


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


def execute_day(
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
    """Apply one day's trade signal on integer columns; the one trading rule of the engine.

    Signal +1 liquidates at the execution prices and re-buys the
    ``targets`` with the floor rule (no targets leave everything in cash);
    -1 liquidates to cash; 0 holds.  The holdings are then revalued at the
    closing prices; every sum is a ``math.fsum``.  Columns number
    ``names`` in sorted order and ``held`` holds (column, shares) pairs
    sorted by column, so the loops meet tickers in name order.
    ``exec_px`` and ``close_px`` hold each column's price after the
    last-known-close fallback, NaN where there is none, and ``exec_stale``
    and ``close_stale`` flag the columns without a price of the day.
    ``targets`` are the (column, normalised weight) pairs with a positive
    weight, in weight order; each one bought is a lot of its own, so a
    column named twice is held as two lots.  Returns the cash, the
    holdings, the value and the stale columns.
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
        bought: list[tuple[int, int]] = []
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
                bought.append((col, shares))
                spent.append(-(shares * px))
        cash = math.fsum(spent)
        held = sorted(bought)
    marks = [cash]
    for col, shares in held:
        px = close_px[col]
        if px != px:
            raise DataError(f"no closing price available to value {names[col]}")
        if close_stale[col]:
            stale.add(col)
        marks.append(shares * px)
    value = math.fsum(marks)
    if signal != 0 and cash < -1e-9:  # a hold leaves the cash as it was
        raise DataError("cash account went negative")
    return cash, held, value, stale


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


# A forecast entry of Plan.forecasts: (r_hat, signals, warnings).
Forecasts = tuple[np.ndarray, list[int], list[str]]


class Decision(NamedTuple):
    """One decision day of a schedule: the selection it holds, and trades, if any."""

    tau: int  # return row the day's window ends at
    selection: tuple[str, ...] | None  # None until a network is first estimated
    warning: str | None


# One schedule day of a Plan: ``span`` is None on a day without a selection, else
# ``(start, stop, cols)``: the day's weight rows ``start:stop`` and the
# Plan.names column of each selected stock; then the day's price rows.
PlanDay = tuple[tuple[int, int, list[int]] | None, list[float], list[bool], list[float], list[bool]]


@dataclass(frozen=True, eq=False)
class Plan:
    """All that the strategies of one schedule rule read: see :meth:`DecisionPath.plan`.

    A strategy's day loop and its result's replay read the plan alone, not
    the path.  The weight rows are one per stock that a day with a
    selection holds, day after day in selection order.
    """

    schedule: tuple[Decision, ...]
    dates: tuple[date, ...]  # price row ``window``, then each schedule day's execution date
    warnings: frozenset[str]  # the schedule's network warnings
    names: tuple[str, ...]  # the tickers the schedule ever selects, sorted: the traded columns
    days: tuple[PlanDay, ...]  # one per schedule day
    raws: dict[str, np.ndarray]  # each weighting's checked, read-only raw weights of the weight rows it is read on
    forecasts: dict[tuple[str, int], Forecasts]  # each (forecaster, seed)'s forecasts of the weight rows


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
    it: the window's network and spanning tree (:meth:`trees_at`) and its
    top-k selection (:meth:`selection_at`).  The trees of a dynamic
    schedule's rebalance windows grow together, in stacks of at most
    ``MST_CELLS`` cost cells, by the tie rule of a lone tree.  Each
    selection is kept once computed, failure message included, so a run
    builds each window's network once.  Each schedule rule's :meth:`plan`
    is built once, with what the run's ``strategies`` of that rule read.
    A selection depends only on the prices and the base config's upstream
    fields, and a forecast additionally on the forecaster and (for NNAR
    only) the seed; neither depends on a strategy's weighting, signal or
    accounting, so strategies read those fields from ``base``.  The
    constructor rejects a panel with fewer than ``window`` return rows or
    two tickers.
    """

    def __init__(
        self, cfg: StrategyConfig, prices: PriceTable, returns: ReturnMatrix, strategies: Sequence[str]
    ) -> None:
        self.base = cfg
        self.strategies = tuple(strategies)
        self.prices, self.returns = _strip_benchmark(cfg, prices, returns)
        _check_dates(cfg, len(self.prices.dates))
        if len(self.prices.tickers) < 2:
            raise DataError("empty universe after filtering")
        # Masked returns of each ticker above each row; a window's count is a difference.
        counts = np.cumsum(self.returns.mask, axis=0)
        self._masked_above = np.vstack([np.zeros_like(counts[:1]), counts])
        self._selections: dict[int, tuple[tuple[str, ...] | None, str | None]] = {}
        self._plans: dict[bool, Plan] = {}
        self._last_close: np.ndarray | None = None

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

    def plan(self, rebalances: bool) -> Plan:
        """All that the path's strategies that rebalance (or hold) read, built once per path.

        Building the plan takes four steps.

        - The schedule: one that ``rebalances`` re-selects every
          ``rebalance_every`` days and keeps its last selection when a
          recompute fails; the other keeps its first selection.  Until a
          first selection exists the schedule holds cash and retries every
          day; from then on each day trades its selection.  A rebalancing
          schedule asks for the trees of all its rebalance days at once, as
          they grow faster stacked; a retry day asks for its own window alone.
        - The price rows: each schedule day's execution and closing prices
          of the traded columns, the tickers the schedule ever selects.
          The execution prices of price row t sit in row t - 1: the open,
          or the prior close where the open is masked or unused.  A masked
          price (NaN) falls back to the last close before the day, from one
          :func:`market_data.last_known` call per path, and is flagged
          stale.
        - The weight rows' return windows, gathered as one block.
        - What the rule's listed strategies read of that block: the raw
          weights of each of their weightings, by
          :func:`allocation.raw_weights` at the base config's ``alpha`` and
          ``risk_free``, checked and read-only, and the forecasts of each
          of their forecasters (:meth:`_fit`).  A weighting that only
          trade-once strategies read is weighed on the first trading day's
          rows alone.  The block is then dropped.
        """
        if rebalances not in self._plans:
            cfg, prices, w = self.base, self.prices, self.base.window
            schedule = self._schedule(rebalances)
            # The trading days, those with a selection, follow the days in cash.
            trading = [day for day in schedule if day.selection is not None]
            selections = {day.selection for day in trading}
            names = tuple(sorted({ticker for sel in selections for ticker in sel}))
            col = {ticker: c for c, ticker in enumerate(names)}
            cols_of = {sel: [col[t] for t in sel] for sel in selections}
            spans: list[tuple[int, int, list[int]] | None] = [None] * (len(schedule) - len(trading))
            start = 0
            for day in trading:
                spans.append((start, start + len(day.selection), cols_of[day.selection]))
                start += len(day.selection)
            # Schedule day i executes on price row w + 1 + i, the last day on the last row.
            cols = np.array([prices.ticker_index(ticker) for ticker in names], dtype=np.intp)
            closes = prices.adj_close
            day_before = closes[w:-1, cols]
            if cfg.use_open_prices and prices.open_px is not None:
                exec_px = np.where(prices.mask[w + 1 :, cols], day_before, prices.open_px[w + 1 :, cols])
            else:
                exec_px = day_before
            if self._last_close is None:
                self._last_close = market_data.last_known(closes, prices.mask)
            last_close = self._last_close[w:-1, cols]
            exec_px, exec_stale = _fallback_rows(exec_px, last_close)
            close_px, close_stale = _fallback_rows(closes[w + 1 :, cols], last_close)
            # Each weight row's return window; ``clean`` is True where it has
            # no masked cell, and ``windows`` holds the clean ones, in order,
            # as the C-contiguous rows of one block.
            # _strip_benchmark gives the return panel the price panel's columns.
            return_cols = cols[[c for d in trading for c in cols_of[d.selection]]]
            taus = np.array([d.tau for d in trading], dtype=np.intp)
            ends = np.repeat(taus + 1, [len(d.selection) for d in trading])  # one past each window's last row
            clean = self._masked_above[ends, return_cols] == self._masked_above[ends - w, return_cols]
            windows = sliding_window_view(self.returns.returns, w, axis=0)[ends[clean] - w, return_cols[clean]]
            listed = [_VARIANTS[n] for n in self.strategies if n in _VARIANTS and _VARIANTS[n].rebalances == rebalances]
            # A weighting that only trade-once strategies read is weighed on
            # the first trading day's rows alone, the only ones they trade.
            daily = {row.weighting or cfg.fixed_weighting for row in listed if row.signal_mode != SIGNAL_ONCE}
            first_rows = len(trading[0].selection) if trading else 0
            raws = {}
            for weighting in dict.fromkeys(row.weighting or cfg.fixed_weighting for row in listed):
                head = clean[: len(clean) if weighting in daily else first_rows]
                raws[weighting] = allocation.raw_weights(
                    weighting, windows[: np.count_nonzero(head)], head, alpha=cfg.alpha, risk_free=cfg.risk_free
                )
                allocation.check_raws(raws[weighting])
                raws[weighting].flags.writeable = False
            forecasts: dict[tuple[str, int], Forecasts] = {}
            weight_rows = [(ticker, d.tau) for d in trading for ticker in d.selection]
            for forecaster in dict.fromkeys(row.forecaster for row in listed if row.forecaster != FORECASTER_NONE):
                forecasts.update(self._fit(forecaster, weight_rows, windows, clean))
            self._plans[rebalances] = Plan(
                schedule=schedule,
                dates=prices.dates[w:],
                warnings=frozenset(day.warning for day in schedule if day.warning is not None),
                names=names,
                days=tuple(zip(spans, exec_px, exec_stale, close_px, close_stale)),
                raws=raws,
                forecasts=forecasts,
            )
        return self._plans[rebalances]

    def _schedule(self, rebalances: bool) -> tuple[Decision, ...]:
        """Every decision day of a schedule that ``rebalances`` or not, by the rule :meth:`plan` gives."""
        out = []
        held: tuple[str, ...] | None = None
        w = self.base.window
        if rebalances:
            self._select(range(w - 1, len(self.returns.dates) - 1, self.base.rebalance_every))
        for step, tau in enumerate(range(w - 1, len(self.returns.dates) - 1)):
            warning = None
            if held is None or (rebalances and step % self.base.rebalance_every == 0):
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
            out.append(Decision(tau, held, warning))
        return tuple(out)

    def _fit(
        self, forecaster: str, rows: list[tuple[str, int]], windows: np.ndarray, clean: np.ndarray
    ) -> dict[tuple[str, int], Forecasts]:
        """``(r_hat, signals, warnings)`` of ``forecaster`` on the weight rows, keyed by (forecaster, seed).

        ``rows`` names each weight row's (ticker, tau), and ``windows`` and
        ``clean`` are its return windows as :meth:`plan` gathers them.  Each
        entry holds each row's one-step forecast as a float64 array, its
        :func:`forecast.to_signal` vote, and a ``forecast failed for
        <ticker>: <why>`` line per failed row, in row order.  A row that is
        not clean (a masked return in its window) gets 0.0 and vote 0
        without a fit, and so does one whose fit fails or forecasts a
        non-finite value, so the filter drops the stock.  NNAR fits every
        seed of the base config in one :func:`forecast.nnar_fit_batch`
        call; ARIMA ignores the seed, so its one entry serves every seed.
        """
        cfg = self.base
        seeds = cfg.seeds if forecaster == FORECASTER_NNAR else (None,)
        out = {s: (np.zeros(len(rows)), [0] * len(rows), []) for s in seeds}
        fits = [(i, series, s) for i, series in zip(np.flatnonzero(clean).tolist(), windows) for s in seeds]
        orders = (cfg.arima_max_p, cfg.arima_max_d, cfg.arima_max_q)
        if forecaster == FORECASTER_NNAR:
            models = forecast.nnar_fit_batch(
                [series for _, series, _ in fits],
                [forecast.derive_seed(s, *rows[i]) for i, _, s in fits],
                cfg.nnar_lags,
                cfg.nnar_hidden,
                learning_rate=cfg.nnar_learning_rate,
                epochs=cfg.nnar_epochs,
            )
        for n, (i, series, s) in enumerate(fits):
            r_hats, signals, warnings = out[s]
            try:
                if forecaster == FORECASTER_NNAR:
                    if isinstance(models[n], Exception):
                        raise models[n]
                    r_hat = forecast.nnar_forecast(models[n], series[-cfg.nnar_lags :])
                else:
                    r_hat = forecast.arima_forecast(forecast.arima_fit(series, *orders), series)
                signals[i] = forecast.to_signal(r_hat)  # a non-finite forecast fails here
                r_hats[i] = r_hat
            except (EstimationError, ValueError) as exc:
                warnings.append(f"forecast failed for {rows[i][0]}: {exc}")
        return {(forecaster, s): out[s if forecaster == FORECASTER_NNAR else None] for s in cfg.seeds}


def run_simulation(
    cfg: StrategyConfig,
    prices: PriceTable,
    returns: ReturnMatrix,
    seed: int | None = None,
) -> SimulationResult:
    """Simulate one strategy variant over the full history.

    This is :func:`run_multi_seed` of the one strategy ``cfg.name`` and the
    one seed ``seed`` (``cfg.seeds[0]`` by default), and returns its one
    cell.  The value series starts at the initial capital on the first
    decision date (price row ``window``) and gains one mark-to-market entry
    per executed day.
    """
    seed = cfg.seeds[0] if seed is None else seed
    return run_multi_seed(replace(cfg, seeds=(seed,)), prices, returns, (cfg.name,)).results[(cfg.name, seed)]


def _simulate(cfg: StrategyConfig, plan: Plan, seed: int) -> SimulationResult:
    """Run one strategy on its schedule rule's ``plan`` for ``seed``, keeping no per-day record.

    The result's ``replay`` reruns the same day loop on the plan with
    records on the first time ``days`` is read, and keeps what it returns.
    """
    dates, values, trade_count, warnings = _day_loop(cfg, plan, seed)
    values_arr = np.asarray(values)
    total = (values_arr[-1] / values_arr[0] - 1.0) * 100.0
    return SimulationResult(
        strategy=cfg.name,
        seed=seed,
        dates=dates,
        values=values_arr,
        total_return_pct=float(total),
        trade_count=trade_count,
        warnings=tuple(sorted(warnings)),
        replay=functools.cache(functools.partial(_records, cfg, plan, seed)),
    )


def _day_loop(
    cfg: StrategyConfig, plan: Plan, seed: int, records: list[DayRecord] | None = None
) -> tuple[tuple[date, ...], list[float], int, set[str]]:
    """Trade every day of the strategy's schedule; the value dates, values, trade count and warnings.

    The strategy is its ``_VARIANTS`` row, read by ``cfg.name``, and
    ``plan`` is the :meth:`DecisionPath.plan` of its schedule rule: the
    schedule, the traded columns, each day's prices, the checked raw
    weights of the whole schedule and the forecasts, by which a forecaster
    filters those weights once.  Each trading day's are then normalised by
    :func:`allocation.normalize`, which gives the trade targets and the
    signal of the day's :func:`execute_day`, looked up on the module at
    each call; an all-agree strategy's signal is the vote of the day's
    forecasts instead, and a trade-once strategy holds, signal 0, on every
    day after its first with a selection.  With a ``records`` list, each day's
    :class:`DayRecord` is appended to it, its weights built by
    :func:`allocation.from_raw`; without one the loop builds no per-day
    object.  The loop reads only the plan, so a rerun gives the same days.
    """
    weighting, forecaster, signal_mode, _ = _VARIANTS[cfg.name]
    raws = plan.raws[weighting or cfg.fixed_weighting]
    warnings = set(plan.warnings)
    if forecaster != FORECASTER_NONE:
        # The filter: a stock without a positive forecast gets no weight.
        r_hat, signals, failures = plan.forecasts[forecaster, seed]
        raws = np.where(r_hat > 0.0, raws, 0.0)
        warnings.update(failures)
    raws = raws.tolist()
    names = plan.names
    all_agree = signal_mode == SIGNAL_ALL_AGREE
    cash, held, value = cfg.initial_capital, [], cfg.initial_capital
    values = [cfg.initial_capital]
    trade_count = 0
    done = False  # a trade-once strategy has made its trade
    for i, (span, exec_px, exec_stale, close_px, close_stale) in enumerate(plan.days):
        if span is None or done:
            span, signal, targets = None, 0, []
        else:
            done = signal_mode == SIGNAL_ONCE
            start, stop, cols = span
            raw = raws[start:stop]
            targets = [(c, n) for c, n in zip(cols, allocation.normalize(raw)) if n > 0.0]
            if all_agree:
                signal = aggregate_signal(signals[start:stop])
            else:
                signal = 1 if targets else -1
        before = held
        cash, held, value, stale_cols = execute_day(
            cash, held, signal, targets, exec_px, exec_stale, close_px, close_stale, names
        )
        if held != before:
            trade_count += 1
        stale = ()
        if stale_cols:
            stale = tuple(names[c] for c in sorted(stale_cols))
            warnings.add("stale prices on " + plan.dates[i + 1].isoformat() + ": " + ",".join(stale))
        values.append(value)
        if records is not None:
            selection = plan.schedule[i].selection
            records.append(
                DayRecord(
                    date=plan.dates[i + 1],
                    signal=signal,
                    selection=selection if selection is not None else (),
                    weights=allocation.from_raw(selection, raw) if span is not None else EMPTY_WEIGHTS,
                    cash=cash,
                    holdings=tuple((names[c], shares) for c, shares in held),
                    value=value,
                    stale=stale,
                )
            )
    return plan.dates, values, trade_count, warnings


def _records(cfg: StrategyConfig, plan: Plan, seed: int) -> tuple[DayRecord, ...]:
    """The day records of one strategy run, from a rerun of its day loop with records on."""
    records: list[DayRecord] = []
    _day_loop(cfg, plan, seed, records)
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
    if not 0.0 < initial_capital < math.inf:
        raise DataError("initial capital must be finite and positive")
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

    ``fixed`` weights by ``cfg.fixed_weighting``; every other variant
    sets its own (see :func:`make_strategy`).  The list is checked
    against ``cfg`` by :func:`check_strategies` before anything runs.
    Every strategy and seed reads one
    :class:`DecisionPath`, so each window's selection and each forecast is
    computed once per call.  It builds one :class:`Plan` per schedule
    rule, so ``fixed`` and ``dynamic_var`` read one.  A result keeps only
    its rule's plan, so the path is freed when the call returns.
    ``buy_hold`` is ``cfg.benchmark_ticker`` held from price row
    ``window``, computed before the path is built.  Any strategy list,
    ``buy_hold`` alone included, needs at least ``window + 2`` price dates:
    one window and a decision day.
    Strategies without stochastic components are run once, for the first
    seed, and each later seed gets a ``dataclasses.replace`` copy, which
    leaves results identical to a full re-run because those paths never
    consume randomness.  No run builds its day records here: each seed's
    copy of a result shares the one replay that builds them when ``days``
    is first read.
    """
    seeds = cfg.seeds
    names = tuple(strategies) if strategies is not None else STRATEGY_NAMES
    check_strategies(names, cfg)
    _check_dates(cfg, len(prices.dates), decides=True)
    bench = _buy_hold(cfg, prices, seeds[0]) if BENCHMARK_STRATEGY in names else None
    path = DecisionPath(cfg, prices, returns, names) if set(names) - {BENCHMARK_STRATEGY} else None
    results: dict[tuple[str, int], SimulationResult] = {}
    table = np.empty((len(seeds), len(names)))
    for col, name in enumerate(names):
        strat = make_strategy(cfg, name)
        seeded = name in _VARIANTS and _VARIANTS[name].forecaster == FORECASTER_NNAR
        for row, s in enumerate(seeds):
            if row and not seeded:
                res = replace(first, seed=s)
            elif name == BENCHMARK_STRATEGY:
                res = first = bench
            else:
                res = first = _simulate(strat, path.plan(_VARIANTS[name].rebalances), s)
            results[(name, s)] = res
            table[row, col] = res.total_return_pct
    return MultiSeedResult(seeds=seeds, strategies=names, returns_pct=table, means=table.mean(axis=0), results=results)
