"""Influence-network portfolio engine.

Builds directed influence networks over a stock universe from pairwise
vector-autoregression variance decompositions, selects central stocks on
the minimum spanning tree, weights them by inverse VaR or Sharpe ratio,
optionally filters by one-step forecasts, and simulates daily trading.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .allocation import WeightVector, historical_var, sharpe_ratio
from .backtest import (
    STRATEGY_NAMES,
    SimulationResult,
    StrategyConfig,
    benchmark_buy_hold,
    run_multi_seed,
    run_simulation,
)
from .market_data import PriceTable, ReturnMatrix, compute_returns, load_prices, quality_filter, window
from .network import degree_centrality, export_dot, prim_mst, select_top_k
from .var_fevd import fevd, fit_var1, influence_matrix, to_cost

__all__ = [
    "__version__",
    "PriceTable",
    "ReturnMatrix",
    "SimulationResult",
    "StrategyConfig",
    "STRATEGY_NAMES",
    "WeightVector",
    "benchmark_buy_hold",
    "compute_returns",
    "degree_centrality",
    "export_dot",
    "fevd",
    "fit_var1",
    "historical_var",
    "influence_matrix",
    "load_prices",
    "prim_mst",
    "quality_filter",
    "run_multi_seed",
    "run_simulation",
    "select_top_k",
    "sharpe_ratio",
    "to_cost",
    "window",
]
