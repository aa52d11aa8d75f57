"""Candidate-by-candidate ARIMA grid search used to cross-check ``arima_fit``.

This is the engine's earlier search, kept as an oracle: every (p, d, q)
candidate is fitted on its own, differencing the series and running the
stage-one AR(p) regression again each time, and a model is built for every
candidate that succeeds.  The engine shares those stages across the grid,
and must pick the same candidate with the same bits.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

from mstport.errors import InsufficientHistory
from mstport.forecast import ArimaModel

log = logging.getLogger(__name__)

ARIMA_MIN_OBS = 30
_LOG_FLOOR = 1e-300


def _ols(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise np.linalg.LinAlgError("rank deficient design")
    resid = target - design @ beta
    return beta, resid


def _lag_columns(x: np.ndarray, rows: np.ndarray, n_lags: int) -> list[np.ndarray]:
    return [x[rows - lag] for lag in range(1, n_lags + 1)]


def fit_candidate(x: np.ndarray, p: int, q: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Conditional least squares for one (p, q) on the differenced series."""
    m = x.size
    n_eff = m - p - q
    if n_eff < p + q + 2:
        raise InsufficientHistory("too few observations for candidate order")
    # Stage one: an AR(p) regression (intercept-only when p == 0, i.e. the
    # demeaned series).  It is the fit when q == 0; otherwise its residuals
    # are the innovation proxies.
    if p > 0:
        rows1 = np.arange(p, m)
        design1 = np.column_stack([np.ones(rows1.size)] + _lag_columns(x, rows1, p))
        beta1, resid1 = _ols(design1, x[rows1])
    else:
        beta1, resid1 = np.array([x.mean()]), x - x.mean()
    if q == 0:
        sse = float(resid1 @ resid1)
        return float(beta1[0]), beta1[1:], np.empty(0), resid1, sse, resid1.size
    # Stage two: joint regression on AR lags and lagged innovation proxies.
    rows = np.arange(p + q, m)
    cols = [np.ones(rows.size)]
    cols += _lag_columns(x, rows, p)
    cols += [resid1[rows - lag - p] for lag in range(1, q + 1)]
    design = np.column_stack(cols)
    beta, resid = _ols(design, x[rows])
    sse = float(resid @ resid)
    return float(beta[0]), beta[1 : 1 + p], beta[1 + p :], resid, sse, rows.size


def arima_fit(
    series: np.ndarray,
    max_p: int = 2,
    max_d: int = 1,
    max_q: int = 2,
    order: tuple[int, int, int] | None = None,
) -> ArimaModel:
    """Grid-search ARIMA fit; pass ``order`` to force a single candidate."""
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if y.size < ARIMA_MIN_OBS:
        raise InsufficientHistory(f"ARIMA needs at least {ARIMA_MIN_OBS} observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("series contains non-finite values")
    if order is not None:
        grid = [order]
    else:
        grid = list(itertools.product(range(max_p + 1), range(max_d + 1), range(max_q + 1)))
    best: tuple[tuple[float, int, int, int, int], ArimaModel] | None = None
    for p, d, q in grid:
        try:
            x = np.diff(y, n=d)
            intercept, phi, theta, resid, sse, n_eff = fit_candidate(x, p, q)
        except (np.linalg.LinAlgError, InsufficientHistory):
            continue
        if not np.isfinite(sse):
            continue
        aic = n_eff * math.log(max(sse / n_eff, _LOG_FLOOR)) + 2.0 * (p + q + 1)
        key = (aic, p + d + q, d, q, p)
        model = ArimaModel(
            order=(p, d, q),
            intercept=intercept,
            phi=np.asarray(phi, dtype=float),
            theta_ma=np.asarray(theta, dtype=float),
            residuals=np.asarray(resid, dtype=float),
            aic=aic,
            n_obs=n_eff,
        )
        if best is None or key < best[0]:
            best = (key, model)
    if best is not None:
        return best[1]
    log.warning("all ARIMA candidates failed; falling back to flagged (0,0,0)")
    intercept = float(y.mean())
    resid = y - intercept
    return ArimaModel(
        order=(0, 0, 0),
        intercept=intercept,
        phi=np.empty(0),
        theta_ma=np.empty(0),
        residuals=resid,
        aic=math.inf,
        n_obs=y.size,
        fallback=True,
    )
