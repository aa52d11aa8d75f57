"""Historical VaR and Sharpe-ratio portfolio weighting.

VaR is the negated empirical alpha-quantile taken as an order statistic
(no interpolation).  Estimates are clipped into [0.001, 10.0]: a
non-positive VaR floors at 0.001 and a series shorter than the required
history is penalised with 10.0 so that thin histories receive near-zero
weight.  Weights are inverse-VaR or non-negative Sharpe ratios, normalised
to sum to one; an all-zero weight vector is legal and means "stay in cash".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .market_data import ReturnMatrix

VAR_FLOOR = 0.001
VAR_PENALTY = 10.0
_SHARPE_MIN_STD = 1e-8


@dataclass(frozen=True)
class RiskEstimate:
    """Per-ticker risk numbers backing a weight vector."""

    ticker: str
    window_length: int
    var_value: float | None = None
    sharpe_value: float | None = None


@dataclass(frozen=True)
class WeightVector:
    """Per-ticker raw and normalised weights, in selection order."""

    entries: tuple[tuple[str, float, float], ...]

    def __post_init__(self) -> None:
        norms = [w for _, _, w in self.entries]
        if any(w < 0.0 for w in norms):
            raise DataError("normalised weights must be non-negative")
        total = math.fsum(norms)
        if total != 0.0 and abs(total - 1.0) > 1e-9:
            raise DataError("normalised weights must sum to one or be all zero")

    @property
    def tickers(self) -> tuple[str, ...]:
        return tuple(t for t, _, _ in self.entries)

    @property
    def normalized(self) -> tuple[float, ...]:
        return tuple(w for _, _, w in self.entries)

    def is_all_zero(self) -> bool:
        return all(w == 0.0 for _, _, w in self.entries)


def from_raw(tickers: tuple[str, ...] | list[str], raws: list[float]) -> WeightVector:
    """Normalise raw non-negative weights; all-zero stays all-zero."""
    if len(tickers) != len(raws):
        raise DataError("tickers and raw weights are misaligned")
    if any(not math.isfinite(r) or r < 0.0 for r in raws):
        raise DataError("raw weights must be finite and non-negative")
    total = math.fsum(raws)
    if total == 0.0:
        entries = tuple((t, 0.0, 0.0) for t in tickers)
    else:
        entries = tuple((t, float(r), float(r / total)) for t, r in zip(tickers, raws))
    return WeightVector(entries=entries)


def _series(series: np.ndarray, min_n: int, message: str) -> np.ndarray:
    """A finite 1-d series or 2-d block of series (one per row) as floats."""
    x = np.asarray(series, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < min_n:
        raise DataError(message)
    if not np.isfinite(x).all():
        raise DataError("series contains non-finite values")
    return x


def _scalar_or_rows(x: np.ndarray, values: np.ndarray) -> float | np.ndarray:
    return float(values) if x.ndim == 1 else values


def historical_var(
    series: np.ndarray, alpha: float, min_length: int | None = None
) -> float | np.ndarray:
    """Clipped historical value-at-risk of a return series.

    The raw estimate is minus the ceil(alpha * n)-th smallest return.  A
    series shorter than ``min_length`` yields the 10.0 penalty value; the
    result always lies in [0.001, 10.0].  A 2-d block gives one value per
    row, each equal to the value of that row alone.
    """
    if not 0.0 < alpha <= 0.5:
        raise DataError("alpha must lie in (0, 0.5]")
    x = _series(series, 1, "series must be a non-empty 1-d array or 2-d block of rows")
    n = x.shape[-1]
    if min_length is not None and n < min_length:
        return _scalar_or_rows(x, np.full(x.shape[:-1], VAR_PENALTY))
    # Guard against float noise pushing alpha*n just above an integer.
    k = max(math.ceil(alpha * n - 1e-9), 1)
    raw = -np.sort(x, axis=-1)[..., k - 1]
    return _scalar_or_rows(x, np.minimum(np.maximum(raw, VAR_FLOOR), VAR_PENALTY))


def sharpe_ratio(series: np.ndarray, risk_free: float = 0.0) -> float | np.ndarray:
    """Mean excess return over sample standard deviation (ddof=1).

    A 2-d block gives one ratio per row; each row of a C-contiguous block
    is summed pairwise exactly as it is alone, so the bits match.
    """
    x = _series(series, 2, "sharpe ratio needs at least two observations")
    std = np.std(x, ddof=1, axis=-1)
    flat = std < _SHARPE_MIN_STD
    ratio = (np.mean(x, axis=-1) - risk_free) / np.where(flat, 1.0, std)
    return _scalar_or_rows(x, np.where(flat, 0.0, ratio))


def _clean_block(win: ReturnMatrix, stocks: tuple[str, ...] | list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The stocks' unmasked columns as C-contiguous rows, and which stocks they are."""
    if not stocks:
        raise DataError("cannot weight an empty stock set")
    idx = [win.ticker_index(t) for t in stocks]
    clean = ~win.mask.T[idx].any(axis=1)
    return np.ascontiguousarray(win.returns.T[idx][clean]), clean


def var_weights(
    stocks: tuple[str, ...] | list[str],
    win: ReturnMatrix,
    alpha: float,
    min_history: int | None = None,
) -> WeightVector:
    """Inverse-VaR weights over the window for the selected stocks.

    A stock with any masked cell in the window is treated as having
    insufficient history and receives the VaR penalty value.
    """
    block, clean = _clean_block(win, stocks)
    required = min_history if min_history is not None else win.returns.shape[0]
    var = np.full(clean.size, VAR_PENALTY)
    if clean.any():  # only unmasked columns are estimated, and checked
        var[clean] = historical_var(block, alpha, min_length=required)
    return from_raw(tuple(stocks), (1.0 / var).tolist())


def sharpe_weights(
    stocks: tuple[str, ...] | list[str],
    win: ReturnMatrix,
    risk_free: float = 0.0,
) -> WeightVector:
    """Sharpe-proportional weights; negative ratios floor at zero.

    All ratios non-positive yields the all-zero vector (stay in cash).
    Stocks with masked cells in the window contribute zero weight.
    """
    block, clean = _clean_block(win, stocks)
    ratio = np.zeros(clean.size)
    if clean.any():  # only unmasked columns are estimated, and checked
        ratio[clean] = sharpe_ratio(block, risk_free)
    # ``max(ratio, 0.0)``, which keeps a -0.0 ratio as it is.
    return from_raw(tuple(stocks), np.where(ratio < 0.0, 0.0, ratio).tolist())
