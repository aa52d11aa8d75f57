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
from dataclasses import dataclass, field, replace
from datetime import date

import numpy as np

from . import allocation, forecast, market_data, network, var_fevd
from .allocation import WeightVector
from .errors import ConfigError, DataError, EstimationError, InsufficientHistory
from .forecast import Forecast
from .market_data import PriceTable, ReturnMatrix
from .network import MstTree
from .var_fevd import CostMatrix

log = logging.getLogger(__name__)

WEIGHTING_VAR = "var"
WEIGHTING_SHARPE = "sharpe"
FORECASTER_NONE = "none"
FORECASTER_ARIMA = "arima"
FORECASTER_NNAR = "nnar"
SIGNAL_PER_STOCK = "per_stock_filter"
SIGNAL_ALL_AGREE = "all_agree"
MODE_DYNAMIC = "dynamic"
MODE_FIXED = "fixed"
MODE_DYNAMIC_VAR_ONLY = "dynamic_var_only"

BENCHMARK_STRATEGY = "buy_hold"

# Registry order doubles as the column order of the seeds table.
STRATEGY_NAMES = (
    "buy_hold",
    "mst_var",
    "mst_sharpe",
    "mst_arima_var",
    "mst_arima_sharpe",
    "mst_nnar_var",
    "mst_nnar_sharpe",
    "mst_allagree_var",
    "mst_allagree_sharpe",
    "fixed",
    "dynamic_var",
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
    fee_bps: float = 0.0  # reserved hook; fees are not modelled yet
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
        problems = []
        if self.window < 30:
            problems.append("window must be at least 30")
        if self.horizon < 1:
            problems.append("horizon must be at least 1")
        if self.top_k < 1:
            problems.append("top_k must be at least 1")
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
        if self.forecaster == FORECASTER_NNAR and self.nnar_lags + 20 > self.window:
            problems.append("window too short for the configured NNAR lag count")
        if self.fee_bps != 0.0:
            problems.append("transaction fees are a reserved hook; fee_bps must be 0")
        if problems:
            raise ConfigError(problems)


def make_strategy(base: StrategyConfig, name: str, fixed_weighting: str = WEIGHTING_VAR) -> StrategyConfig:
    """Instantiate one of the named strategy variants from a base config."""
    variants = {
        "mst_var": dict(weighting=WEIGHTING_VAR, forecaster=FORECASTER_NONE),
        "mst_sharpe": dict(weighting=WEIGHTING_SHARPE, forecaster=FORECASTER_NONE),
        "mst_arima_var": dict(weighting=WEIGHTING_VAR, forecaster=FORECASTER_ARIMA),
        "mst_arima_sharpe": dict(weighting=WEIGHTING_SHARPE, forecaster=FORECASTER_ARIMA),
        "mst_nnar_var": dict(weighting=WEIGHTING_VAR, forecaster=FORECASTER_NNAR),
        "mst_nnar_sharpe": dict(weighting=WEIGHTING_SHARPE, forecaster=FORECASTER_NNAR),
        "mst_allagree_var": dict(
            weighting=WEIGHTING_VAR, forecaster=FORECASTER_NNAR, signal_mode=SIGNAL_ALL_AGREE
        ),
        "mst_allagree_sharpe": dict(
            weighting=WEIGHTING_SHARPE, forecaster=FORECASTER_NNAR, signal_mode=SIGNAL_ALL_AGREE
        ),
        "fixed": dict(weighting=fixed_weighting, forecaster=FORECASTER_NONE, portfolio_mode=MODE_FIXED),
        "dynamic_var": dict(
            weighting=WEIGHTING_VAR, forecaster=FORECASTER_NONE, portfolio_mode=MODE_DYNAMIC_VAR_ONLY
        ),
    }
    if name == BENCHMARK_STRATEGY:
        return replace(base, name=name)
    if name not in variants:
        raise ConfigError(f"unknown strategy {name!r}")
    return replace(
        base,
        name=name,
        signal_mode=variants[name].get("signal_mode", SIGNAL_PER_STOCK),
        portfolio_mode=variants[name].get("portfolio_mode", MODE_DYNAMIC),
        **{k: v for k, v in variants[name].items() if k in ("weighting", "forecaster")},
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


def filter_weights(weights: WeightVector, forecasts: list[Forecast] | tuple[Forecast, ...]) -> WeightVector:
    """Zero the raw weight of stocks with non-positive forecasts, renormalise."""
    by_ticker = {f.ticker: f for f in forecasts}
    if set(by_ticker) != set(weights.tickers) or len(forecasts) != len(weights.entries):
        raise DataError("forecasts and weights cover different tickers")
    raws = [
        raw if by_ticker[t].r_hat > 0.0 else 0.0
        for t, raw, _ in weights.entries
    ]
    return allocation.from_raw(weights.tickers, raws)


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
    map falls back to ``last_known`` and is flagged as stale.
    """
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
                stale.add(ticker)  # unpriceable target: its allocation stays in cash
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


def _initial_last_close(prices: PriceTable, through_row: int) -> np.ndarray:
    """Last unmasked close per ticker over rows [0, through_row]."""
    last = np.full(len(prices.tickers), np.nan)
    for row in range(through_row + 1):
        fresh = ~prices.mask[row]
        last[fresh] = prices.adj_close[row, fresh]
    return last


def _forecast_selection(
    path: DecisionPath,
    forecaster: str,
    win: ReturnMatrix,
    selection: tuple[str, ...],
    tau: int,
    seed: int,
    warnings: set[str],
) -> list[Forecast]:
    out = []
    for ticker in selection:
        j = win.ticker_index(ticker)
        if win.mask[:, j].any():
            # Insufficient history: stay neutral so the filter drops the stock.
            out.append(forecast.make_forecast(ticker, 0.0))
            continue
        fc, failure = path.forecast_at(forecaster, ticker, tau, seed, win.returns[:, j])
        if failure is not None:
            warnings.add(f"forecast failed for {ticker}: {failure}")
        out.append(fc)
    return out


def _weights_for(cfg: StrategyConfig, selection: tuple[str, ...], win: ReturnMatrix) -> WeightVector:
    if cfg.weighting == WEIGHTING_VAR:
        required = cfg.min_var_history if cfg.min_var_history is not None else cfg.window
        return allocation.var_weights(selection, win, cfg.alpha, min_history=required)
    return allocation.sharpe_weights(selection, win, risk_free=cfg.risk_free)


def _strip_benchmark(
    cfg: StrategyConfig, prices: PriceTable, returns: ReturnMatrix
) -> tuple[PriceTable, ReturnMatrix]:
    if cfg.benchmark_ticker and cfg.benchmark_ticker in prices.tickers:
        prices = market_data.drop_tickers(prices, [cfg.benchmark_ticker])
    if tuple(returns.tickers) != tuple(prices.tickers):
        returns = market_data.select_return_tickers(returns, prices.tickers)
    if returns.dates != prices.dates[1:]:
        raise DataError("returns are not aligned to the price panel")
    return prices, returns


def window_tree(win: ReturnMatrix, cfg: StrategyConfig, n_jobs: int = 1) -> tuple[CostMatrix, MstTree]:
    """Edge costs of one return window's influence network and their spanning tree.

    Raises :class:`EstimationError` or :class:`DataError` when the window
    has no estimable network (e.g. a flat market).
    """
    influence = var_fevd.influence_matrix(win, cfg.horizon, cfg.fevd_mode, n_jobs=n_jobs)
    costs = var_fevd.to_cost(influence)
    return costs, network.prim_mst(costs)


# Fields that decide the selections and forecasts a DecisionPath shares.
_UPSTREAM_FIELDS = (
    "window",
    "horizon",
    "top_k",
    "fevd_mode",
    "benchmark_ticker",
    "nnar_lags",
    "nnar_hidden",
    "nnar_learning_rate",
    "nnar_epochs",
    "arima_max_p",
    "arima_max_d",
    "arima_max_q",
)


class DecisionPath:
    """Upstream decisions of one run, shared by every strategy and seed.

    A window's top-k selection depends only on the prices and the base
    config's upstream fields, and a forecast additionally on the
    forecaster, the ticker and (for NNAR only) the seed; neither depends on
    a strategy's weighting, signal or accounting.  Each is computed the
    first time a strategy asks for it and kept, failure message included,
    so a run builds each window's network and fits each forecast once and
    nothing is computed for a window no strategy asks for.
    """

    def __init__(
        self, cfg: StrategyConfig, prices: PriceTable, returns: ReturnMatrix, n_jobs: int = 1
    ) -> None:
        self.base = cfg
        self.prices, self.returns = _strip_benchmark(cfg, prices, returns)
        self._n_jobs = n_jobs
        self._selections: dict[int, tuple[tuple[str, ...] | None, str | None]] = {}
        self._forecasts: dict[tuple[str, str, int, int | None], tuple[Forecast, str | None]] = {}

    def check(self, cfg: StrategyConfig) -> None:
        """Refuse a strategy whose upstream fields differ from the base config."""
        differ = [f for f in _UPSTREAM_FIELDS if getattr(cfg, f) != getattr(self.base, f)]
        if differ:
            raise ConfigError([f"strategy {cfg.name!r} differs from the shared {f}" for f in differ])

    def selection_at(self, tau: int) -> tuple[tuple[str, ...] | None, str | None]:
        """Top-k central tickers of the window ending at return row ``tau``.

        Returns ``(selection, None)``, or ``(None, message)`` when the
        window's network cannot be estimated.
        """
        if tau not in self._selections:
            win = market_data.window(self.returns, tau, self.base.window)
            try:
                _, tree = window_tree(win, self.base, self._n_jobs)
                ranking = network.degree_centrality(tree)
                self._selections[tau] = (network.select_top_k(ranking, self.base.top_k), None)
            except (EstimationError, DataError) as exc:
                self._selections[tau] = (None, str(exc))
        return self._selections[tau]

    def forecast_at(
        self, forecaster: str, ticker: str, tau: int, seed: int, series: np.ndarray
    ) -> tuple[Forecast, str | None]:
        """One-step forecast of ``ticker`` from ``series``.

        ``series`` is the ticker's return column of the window ending at
        return row ``tau``.  Returns ``(forecast, None)``, or a neutral
        forecast and the failure message.  ARIMA ignores the seed, so its
        forecasts are shared across seeds too.
        """
        key = (forecaster, ticker, tau, None if forecaster == FORECASTER_ARIMA else seed)
        if key not in self._forecasts:
            cfg = self.base
            try:
                if forecaster == FORECASTER_ARIMA:
                    model = forecast.arima_fit(series, cfg.arima_max_p, cfg.arima_max_d, cfg.arima_max_q)
                    r_hat = forecast.arima_forecast(model, series)
                else:
                    model = forecast.nnar_fit(
                        series,
                        cfg.nnar_lags,
                        cfg.nnar_hidden,
                        forecast.derive_seed(seed, ticker, tau),
                        learning_rate=cfg.nnar_learning_rate,
                        epochs=cfg.nnar_epochs,
                    )
                    r_hat = forecast.nnar_forecast(model, series[-cfg.nnar_lags :])
                self._forecasts[key] = (forecast.make_forecast(ticker, r_hat), None)
            except (EstimationError, ValueError) as exc:
                self._forecasts[key] = (forecast.make_forecast(ticker, 0.0), str(exc))
        return self._forecasts[key]


def run_simulation(
    cfg: StrategyConfig,
    prices: PriceTable,
    returns: ReturnMatrix,
    seed: int | None = None,
    n_jobs: int = 1,
) -> SimulationResult:
    """Simulate one strategy variant over the full history.

    The value series starts at the initial capital on the first decision
    date (price row ``window``) and gains one mark-to-market entry per
    executed day.
    """
    seed = cfg.seeds[0] if seed is None else seed
    return _simulate(cfg, DecisionPath(cfg, prices, returns, n_jobs=n_jobs), seed)


def _simulate(cfg: StrategyConfig, path: DecisionPath, seed: int) -> SimulationResult:
    path.check(cfg)
    prices, returns = path.prices, path.returns
    w = cfg.window
    n_dates = len(prices.dates)
    if n_dates < w + 1:
        raise InsufficientHistory(f"need at least window + 1 = {w + 1} price dates, got {n_dates}")
    if len(prices.tickers) < 2:
        raise DataError("empty universe after filtering")
    n_returns = len(returns.dates)
    closes = prices.adj_close
    cmask = prices.mask
    opens = prices.open_px
    use_opens = cfg.use_open_prices and opens is not None
    last_close = _initial_last_close(prices, w)
    state = PortfolioState(cash=cfg.initial_capital, holdings={}, value=cfg.initial_capital)
    out_dates = [prices.dates[w]]
    values = [cfg.initial_capital]
    records: list[DayRecord] = []
    warnings: set[str] = set()
    selection: tuple[str, ...] | None = None
    trade_count = 0
    step = 0
    fixed_done = False
    for tau in range(w - 1, n_returns - 1):
        win = market_data.window(returns, tau, w)
        needs_network = selection is None or (
            cfg.portfolio_mode == MODE_DYNAMIC and step % cfg.rebalance_every == 0
        )
        if needs_network:
            picked, failure = path.selection_at(tau)
            if picked is not None:
                selection = picked
            elif selection is None:
                # No estimable pair (e.g. a flat market) is a hold, not a
                # crash: stay in cash and try again on the next window.
                warnings.add(f"network unavailable at {win.dates[-1]}: {failure}; holding cash")
            else:
                warnings.add(f"network recompute failed at {win.dates[-1]}: {failure}")
        exec_row = tau + 2  # price row of the execution day
        if selection is None or (cfg.portfolio_mode == MODE_FIXED and fixed_done):
            signal, weights = 0, EMPTY_WEIGHTS
        else:
            if cfg.portfolio_mode == MODE_FIXED:
                fixed_done = True
            weights = _weights_for(cfg, selection, win)
            if cfg.forecaster == FORECASTER_NONE:
                signal = 1 if not weights.is_all_zero() else -1
            else:
                forecasts = _forecast_selection(path, cfg.forecaster, win, selection, tau, seed, warnings)
                weights = filter_weights(weights, forecasts)
                if cfg.signal_mode == SIGNAL_ALL_AGREE:
                    signal = aggregate_signal([f.signal for f in forecasts])
                else:
                    signal = 1 if not weights.is_all_zero() else -1
        needed = set(state.holdings)
        needed.update(t for t, _, norm in weights.entries if norm > 0.0)
        exec_prices: dict[str, float] = {}
        close_prices: dict[str, float] = {}
        last_known: dict[str, float] = {}
        for ticker in needed:
            j = prices.ticker_index(ticker)
            if use_opens and not cmask[exec_row, j]:
                exec_prices[ticker] = float(opens[exec_row, j])
            elif not cmask[exec_row - 1, j]:
                exec_prices[ticker] = float(closes[exec_row - 1, j])
            if not cmask[exec_row, j]:
                close_prices[ticker] = float(closes[exec_row, j])
            if np.isfinite(last_close[j]):
                last_known[ticker] = float(last_close[j])
        before = state.holdings
        state = execute_day(state, signal, weights, exec_prices, close_prices, last_known)
        if state.holdings != before:
            trade_count += 1
        if state.stale:
            warnings.add(
                "stale prices on " + prices.dates[exec_row].isoformat() + ": " + ",".join(state.stale)
            )
        fresh = ~cmask[exec_row]
        last_close = np.where(fresh, closes[exec_row], last_close)
        out_dates.append(prices.dates[exec_row])
        values.append(state.value)
        records.append(
            DayRecord(
                date=prices.dates[exec_row],
                signal=signal,
                selection=selection if selection is not None else (),
                weights=weights,
                cash=state.cash,
                holdings=tuple(sorted(state.holdings.items())),
                value=state.value,
                stale=state.stale,
            )
        )
        step += 1
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

    Masked prices carry the previous value forward and are flagged.
    """
    closes = np.asarray(closes, dtype=float)
    if closes.ndim != 1 or closes.size != len(dates) or closes.size < 2:
        raise DataError("benchmark needs a 1-d series aligned to at least two dates")
    if initial_capital <= 0.0:
        raise DataError("initial capital must be positive")
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
            # C_0 * P_0 / P_0 can round one ulp away from C_0.
            values.append(initial_capital)
        else:
            values.append(initial_capital * last / anchor)
    values_arr = np.asarray(values)
    total = (values_arr[-1] / values_arr[0] - 1.0) * 100.0
    return SimulationResult(
        strategy=BENCHMARK_STRATEGY,
        seed=seed,
        dates=tuple(dates),
        values=values_arr,
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
    path = DecisionPath(cfg, prices, returns) if simulated else None
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
