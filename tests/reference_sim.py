"""Plain-loop portfolio simulator used to cross-check the trading engine.

Decision inputs (network selection, risk weights, forecasts) reuse the
public pipeline stages, each of which is tested against its own oracle
elsewhere.  A selection's risk weights come from the engine's block
kernels through ``var_weights`` and ``sharpe_weights`` here, the
one-window weightings that the allocation tests also check.  The spanning
tree comes from the one-window loop of ``reference_prim``, so the
reference does not share the engine's stacked Prim kernel.  The trading
mechanics — execution-price fallbacks, floor-rule share sizing, cash
bookkeeping, and mark-to-market valuation — are re-implemented here from
scratch, scalar style, so the engine's vectorised wiring can be compared
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from mstport import allocation, backtest, forecast, market_data, network, var_fevd
from mstport.allocation import WeightVector
from mstport.backtest import StrategyConfig
from mstport.errors import DataError
from mstport.market_data import PriceTable, ReturnMatrix
from reference_prim import prim_mst


@dataclass
class ReferenceDay:
    cash: float
    holdings: tuple[tuple[str, int], ...]  # sorted by ticker
    stale: tuple[str, ...]  # sorted tickers priced from the last known close, or unpriceable targets


@dataclass
class ReferenceResult:
    dates: tuple[date, ...]
    values: np.ndarray
    trade_count: int
    total_return_pct: float
    days: tuple[ReferenceDay, ...]


def _select_stocks(cfg: StrategyConfig, win: ReturnMatrix) -> tuple[str, ...]:
    influence = var_fevd.influence_matrix(win, cfg.horizon, cfg.fevd_mode)
    tree = prim_mst(var_fevd.to_cost(influence))
    return network.select_top_k(network.degree_centrality(tree), cfg.top_k)


def _clean_block(win: ReturnMatrix, stocks: tuple[str, ...] | list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The stocks' unmasked columns as C-contiguous rows, and which stocks they are."""
    if not stocks:
        raise DataError("cannot weight an empty stock set")
    idx = [win.ticker_index(t) for t in stocks]
    clean = ~win.mask.T[idx].any(axis=1)
    return np.ascontiguousarray(win.returns.T[idx][clean]), clean


def var_weights(stocks: tuple[str, ...] | list[str], win: ReturnMatrix, alpha: float) -> WeightVector:
    """Inverse-VaR weights of the selected stocks over one window, by the engine's block kernel.

    A stock with any masked cell in the window receives the VaR penalty value.
    """
    windows, clean = _clean_block(win, stocks)
    return allocation.from_raw(tuple(stocks), allocation.var_weights(windows, clean, alpha).tolist())


def sharpe_weights(stocks: tuple[str, ...] | list[str], win: ReturnMatrix, risk_free: float = 0.0) -> WeightVector:
    """Sharpe-proportional weights of the selected stocks over one window, by the engine's block kernel.

    Negative ratios floor at zero, so all ratios non-positive yield the
    all-zero vector (stay in cash); a stock with a masked cell gets zero.
    """
    windows, clean = _clean_block(win, stocks)
    return allocation.from_raw(tuple(stocks), allocation.sharpe_weights(windows, clean, risk_free).tolist())


def _raw_weights(weighting: str, cfg: StrategyConfig, selection: tuple[str, ...], win: ReturnMatrix):
    if weighting == backtest.WEIGHTING_VAR:
        return var_weights(selection, win, cfg.alpha)
    return sharpe_weights(selection, win, risk_free=cfg.risk_free)


def _forecasts(forecaster: str, cfg: StrategyConfig, win: ReturnMatrix, selection, tau: int, seed: int):
    """``(r_hat, signal)`` of each selected stock, neutral for a masked window."""
    out = []
    for ticker in selection:
        j = win.ticker_index(ticker)
        col = win.returns[:, j]
        if win.mask[:, j].any():
            out.append((0.0, 0))
            continue
        if forecaster == backtest.FORECASTER_ARIMA:
            model = forecast.arima_fit(col, cfg.arima_max_p, cfg.arima_max_d, cfg.arima_max_q)
            r_hat = forecast.arima_forecast(model, col)
        else:
            model = forecast.nnar_fit(
                col,
                cfg.nnar_lags,
                cfg.nnar_hidden,
                forecast.derive_seed(seed, ticker, tau),
                learning_rate=cfg.nnar_learning_rate,
                epochs=cfg.nnar_epochs,
            )
            r_hat = forecast.nnar_forecast(model, col[-cfg.nnar_lags :])
        out.append((r_hat, forecast.to_signal(r_hat)))
    return out


def simulate(
    cfg: StrategyConfig,
    prices: PriceTable,
    returns: ReturnMatrix,
    seed: int | None = None,
) -> ReferenceResult:
    """Replay one strategy, the variant ``cfg.name`` names, with independent bookkeeping arithmetic."""
    weighting, forecaster, signal_mode, rebalances = backtest._VARIANTS[cfg.name]
    weighting = weighting or cfg.fixed_weighting
    seed = cfg.seeds[0] if seed is None else seed
    if cfg.benchmark_ticker and cfg.benchmark_ticker in prices.tickers:
        prices = market_data.drop_tickers(prices, [cfg.benchmark_ticker])
        returns = market_data.select_tickers(returns, prices.tickers)
    w = cfg.window
    closes, opens, mask = prices.adj_close, prices.open_px, prices.mask
    use_opens = cfg.use_open_prices and opens is not None
    col_of = {t: j for j, t in enumerate(prices.tickers)}

    last_known: dict[str, float] = {}

    def remember_closes(row: int) -> None:
        for ticker, j in col_of.items():
            if not mask[row, j]:
                last_known[ticker] = float(closes[row, j])

    for row in range(w + 1):
        remember_closes(row)

    cash = cfg.initial_capital
    holdings: dict[str, int] = {}
    out_dates = [prices.dates[w]]
    values = [cfg.initial_capital]
    days: list[ReferenceDay] = []
    trade_count = 0
    selection: tuple[str, ...] | None = None
    step = 0
    fixed_done = False
    for tau in range(w - 1, len(returns.dates) - 1):
        win = market_data.window(returns, tau, w)
        if selection is None or (rebalances and step % cfg.rebalance_every == 0):
            try:
                selection = _select_stocks(cfg, win)
            except (var_fevd.EstimationError, var_fevd.DataError):
                pass
        if selection is None or (signal_mode == backtest.SIGNAL_ONCE and fixed_done):
            signal, weights = 0, backtest.EMPTY_WEIGHTS
        else:
            if signal_mode == backtest.SIGNAL_ONCE:
                fixed_done = True
            weights = _raw_weights(weighting, cfg, selection, win)
            if forecaster == backtest.FORECASTER_NONE:
                signal = 1 if not weights.is_all_zero() else -1
            else:
                fcs = _forecasts(forecaster, cfg, win, selection, tau, seed)
                by_ticker = dict(zip(selection, fcs))
                weights = allocation.from_raw(
                    weights.tickers,
                    [raw if by_ticker[t][0] > 0.0 else 0.0 for t, raw, _ in weights.entries],
                )
                if signal_mode == backtest.SIGNAL_ALL_AGREE:
                    total = sum(signal for _, signal in fcs)
                    signal = 0 if total == 0 else (1 if total > 0 else -1)
                else:
                    signal = 1 if not weights.is_all_zero() else -1

        exec_row = tau + 2
        stale: set[str] = set()

        def from_last_known(ticker: str) -> float | None:
            px = last_known.get(ticker)
            if px is not None:
                stale.add(ticker)
            return px

        def exec_price(ticker: str) -> float | None:
            j = col_of[ticker]
            if use_opens and not mask[exec_row, j]:
                return float(opens[exec_row, j])
            if not mask[exec_row - 1, j]:
                return float(closes[exec_row - 1, j])
            return from_last_known(ticker)

        def close_price(ticker: str) -> float | None:
            j = col_of[ticker]
            if not mask[exec_row, j]:
                return float(closes[exec_row, j])
            return from_last_known(ticker)

        before = dict(holdings)
        if signal != 0 and holdings:
            proceeds = [holdings[t] * exec_price(t) for t in sorted(holdings)]
            if any(p is None for p in proceeds):
                raise RuntimeError("reference: missing execution price")
            cash = math.fsum([cash] + proceeds)
            holdings = {}
        if signal == 1 and not weights.is_all_zero():
            total = cash
            spent = []
            for ticker, _, norm in weights.entries:
                if norm <= 0.0:
                    continue
                px = exec_price(ticker)
                if px is None:
                    stale.add(ticker)
                    continue
                shares = int(math.floor(norm * total / px))
                if shares > 0:
                    holdings[ticker] = shares
                    spent.append(shares * px)
            cash = math.fsum([total] + [-s for s in spent])
        elif signal == -1:
            holdings = {}
        marks = [holdings[t] * close_price(t) for t in sorted(holdings)]
        if any(m is None for m in marks):
            raise RuntimeError("reference: missing closing price")
        value = math.fsum([cash] + marks)

        if holdings != before:
            trade_count += 1
        remember_closes(exec_row)
        out_dates.append(prices.dates[exec_row])
        values.append(value)
        days.append(ReferenceDay(cash, tuple(sorted(holdings.items())), tuple(sorted(stale))))
        step += 1
    arr = np.asarray(values)
    return ReferenceResult(
        dates=tuple(out_dates),
        values=arr,
        trade_count=trade_count,
        total_return_pct=float((arr[-1] / arr[0] - 1.0) * 100.0),
        days=tuple(days),
    )
