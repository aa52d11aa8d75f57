"""Historical VaR and Sharpe-ratio portfolio weighting.

VaR is the negated empirical alpha-quantile taken as an order statistic
(no interpolation).  Estimates are clipped into [0.001, 10.0]: a
non-positive VaR floors at 0.001, and a window with a masked return is
given the 10.0 penalty without an estimate, so that it receives near-zero
weight.  Raw weights are inverse-VaR or non-negative Sharpe ratios, computed
by :func:`var_weights` or :func:`sharpe_weights` for a block of stock
windows at once, and normalised to sum to one; an all-zero weight vector
is legal and means "stay in cash".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

WEIGHTING_VAR = "var"
WEIGHTING_SHARPE = "sharpe"

VAR_FLOOR = 0.001
VAR_PENALTY = 10.0
_SHARPE_MIN_STD = 1e-8


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


def normalize(raws: list[float]) -> list[float]:
    """Each raw weight over their ``math.fsum`` total; all zeros when the total is 0.0."""
    total = math.fsum(raws)
    if total == 0.0:
        return [0.0] * len(raws)
    return [r / total for r in raws]


def check_raws(raws: np.ndarray) -> None:
    """Reject raw weights that are not all finite and non-negative."""
    if not np.all(np.isfinite(raws) & (raws >= 0.0)):
        raise DataError("raw weights must be finite and non-negative")


def from_raw(tickers: tuple[str, ...] | list[str], raws: list[float]) -> WeightVector:
    """Normalise raw non-negative weights; all-zero stays all-zero."""
    if len(tickers) != len(raws):
        raise DataError("tickers and raw weights are misaligned")
    check_raws(np.asarray(raws, dtype=float))
    norms = normalize(raws)
    if not any(norms):
        entries = tuple((t, 0.0, 0.0) for t in tickers)
    else:
        entries = tuple((t, float(r), float(n)) for t, r, n in zip(tickers, raws, norms))
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


def historical_var(series: np.ndarray, alpha: float) -> float | np.ndarray:
    """Clipped historical value-at-risk of a return series.

    The raw estimate is minus the ceil(alpha * n)-th smallest return; the
    result always lies in [0.001, 10.0].  A 2-d block gives one value per
    row, each equal to the value of that row alone.
    """
    if not 0.0 < alpha <= 0.5:
        raise DataError("alpha must lie in (0, 0.5]")
    x = _series(series, 1, "series must be a non-empty 1-d array or 2-d block of rows")
    n = x.shape[-1]
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


def var_weights(windows: np.ndarray, clean: np.ndarray, alpha: float) -> np.ndarray:
    """Inverse-VaR raw weights of many stock windows at once, shaped like ``clean``.

    ``clean`` is True where a stock's return window has no masked cell;
    those windows, in order, are the C-contiguous rows of ``windows``.  A
    masked window gets no estimate, and the inverse of the VaR penalty
    value.  Each weight equals the weight of its window alone.
    """
    var = np.full(clean.shape, VAR_PENALTY)
    if clean.any():  # only unmasked windows are estimated, and checked
        var[clean] = historical_var(windows, alpha)
    return 1.0 / var


def sharpe_weights(windows: np.ndarray, clean: np.ndarray, risk_free: float) -> np.ndarray:
    """Sharpe-ratio raw weights of many stock windows at once, shaped like ``clean``.

    ``windows`` and ``clean`` are as in :func:`var_weights`.  A masked
    window gets zero, and a negative ratio floors at zero, so all ratios
    non-positive give all zeros (stay in cash).  Each weight equals the
    weight of its window alone.
    """
    ratio = np.zeros(clean.shape)
    if clean.any():
        ratio[clean] = sharpe_ratio(windows, risk_free)
    # ``max(ratio, 0.0)``, which keeps a -0.0 ratio as it is.
    return np.where(ratio < 0.0, 0.0, ratio)


def raw_weights(
    weighting: str,
    windows: np.ndarray,
    clean: np.ndarray,
    *,
    alpha: float = 0.05,
    risk_free: float = 0.0,
) -> np.ndarray:
    """Raw weights of ``weighting``: :func:`var_weights` at ``alpha``, or :func:`sharpe_weights` at ``risk_free``."""
    if weighting == WEIGHTING_VAR:
        return var_weights(windows, clean, alpha)
    return sharpe_weights(windows, clean, risk_free)
