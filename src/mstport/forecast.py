"""One-step return forecasting: ARIMA grid search and a small neural net.

ARIMA(p, d, q) candidates over p in {0..2}, d in {0, 1}, q in {0..2} are
estimated by conditional least squares: the AR terms by direct regression
and the MA terms by a two-stage residual regression (stage one produces
innovation proxies, stage two regresses the series on its own lags and the
lagged proxies jointly).  Candidates are scored with

    AIC = n * ln(SSE / n) + 2 * (p + q + 1)

where n is the number of observations entering the candidate's final
regression, and ties break toward smaller p + d + q.  If every candidate
fails the fallback is a flagged (0, 0, 0) model whose intercept is the
sample mean.

The neural model (autoregressive single-hidden-layer perceptron) feeds the
last p observations, standardised by the training series mean and scale,
through k sigmoid units to a linear output.  Training is full-batch
gradient descent on the mean squared error with a fixed learning rate;
an update that would increase the loss is reverted and training stops, so
the recorded loss history is non-increasing.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InsufficientHistory

log = logging.getLogger(__name__)

ARIMA_MIN_OBS = 30
_SIGNAL_DEADZONE = 1e-12
_LOG_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class ArimaModel:
    """Fitted ARIMA(p, d, q) with conditional-least-squares parameters.

    ``residuals`` are the final-stage regression residuals on the
    differenced scale, aligned to the tail of the training series; they
    supply the lagged innovation terms for one-step forecasting.
    """

    order: tuple[int, int, int]
    intercept: float
    phi: np.ndarray
    theta_ma: np.ndarray
    residuals: np.ndarray
    aic: float
    n_obs: int
    fallback: bool = False


@dataclass(frozen=True, eq=False)
class NnarModel:
    """Autoregressive neural net: p standardised lags, k sigmoid units."""

    lags: int
    hidden: int
    w_hidden: np.ndarray  # (k, p)
    b_hidden: np.ndarray  # (k,)
    w_out: np.ndarray  # (k,)
    b_out: float
    input_mean: float
    input_scale: float
    seed: int
    train_mse: float
    epochs_run: int


@dataclass(frozen=True)
class Forecast:
    """One-step-ahead return forecast and its trading signal."""

    ticker: str
    r_hat: float
    signal: int


def to_signal(r_hat: float) -> int:
    """Sign of the forecast with a dead zone for numerically-zero values."""
    if not math.isfinite(r_hat):
        raise ValueError("forecast must be finite")
    if abs(r_hat) < _SIGNAL_DEADZONE:
        return 0
    return 1 if r_hat > 0.0 else -1


def make_forecast(ticker: str, r_hat: float) -> Forecast:
    return Forecast(ticker=ticker, r_hat=r_hat, signal=to_signal(r_hat))


def derive_seed(global_seed: int, ticker: str, window_index: int) -> int:
    """Stable per-task seed from (global seed, ticker, window index).

    Uses a keyed digest rather than Python's salted ``hash`` so results
    are reproducible across processes and platforms.
    """
    payload = f"{global_seed}|{window_index}|{ticker}".encode()
    digest = hashlib.blake2s(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


# ---------------------------------------------------------------------------
# ARIMA
# ---------------------------------------------------------------------------


def _difference(y: np.ndarray, d: int) -> np.ndarray:
    x = y
    for _ in range(d):
        x = x[1:] - x[:-1]
    return x


def _ols(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise np.linalg.LinAlgError("rank deficient design")
    resid = target - design @ beta
    return beta, resid


def _lag_columns(x: np.ndarray, rows: np.ndarray, n_lags: int) -> list[np.ndarray]:
    return [x[rows - lag] for lag in range(1, n_lags + 1)]


def _fit_candidate(x: np.ndarray, p: int, q: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Conditional least squares for one (p, q) on the differenced series."""
    m = x.size
    n_eff = m - p - q
    if n_eff < p + q + 2:
        raise InsufficientHistory("too few observations for candidate order")
    # Stage one: innovation proxies from an AR(p) regression (intercept-only
    # when p == 0, i.e. proxies are the demeaned series).
    if p > 0:
        rows1 = np.arange(p, m)
        design1 = np.column_stack([np.ones(rows1.size)] + _lag_columns(x, rows1, p))
        _, resid1 = _ols(design1, x[rows1])
        proxy_start = p
    else:
        resid1 = x - x.mean()
        proxy_start = 0
    if q == 0:
        if p == 0:
            intercept = float(x.mean())
            resid = x - intercept
            sse = float(resid @ resid)
            return intercept, np.empty(0), np.empty(0), resid, sse, m
        rows = np.arange(p, m)
        design = np.column_stack([np.ones(rows.size)] + _lag_columns(x, rows, p))
        beta, resid = _ols(design, x[rows])
        sse = float(resid @ resid)
        return float(beta[0]), beta[1:], np.empty(0), resid, sse, rows.size
    # Stage two: joint regression on AR lags and lagged innovation proxies.
    rows = np.arange(p + q, m)
    cols = [np.ones(rows.size)]
    cols += _lag_columns(x, rows, p)
    cols += [resid1[rows - lag - proxy_start] for lag in range(1, q + 1)]
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
        grid = list(
            itertools.product(range(max_p + 1), range(max_d + 1), range(max_q + 1))
        )
    best: tuple[tuple[float, int, int, int, int], ArimaModel] | None = None
    for p, d, q in grid:
        try:
            x = _difference(y, d)
            intercept, phi, theta, resid, sse, n_eff = _fit_candidate(x, p, q)
        except (np.linalg.LinAlgError, InsufficientHistory):
            continue
        if not np.isfinite(sse):
            continue
        aic = n_eff * math.log(max(sse / n_eff, _LOG_FLOOR)) + 2.0 * (p + q + 1)
        # Equal-score ties prefer the autoregressive parameterization: at the
        # forecast step AR terms read observed values while MA terms read
        # estimated innovation proxies.
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


def arima_forecast(model: ArimaModel, series: np.ndarray) -> float:
    """One-step conditional expectation; d=1 forecasts integrate to level."""
    y = np.asarray(series, dtype=float)
    p, d, q = model.order
    if d not in (0, 1):
        raise ValueError("only d in {0, 1} is supported")
    x = _difference(y, d)
    if x.size < p:
        raise InsufficientHistory("series shorter than the AR order")
    acc = model.intercept
    for lag in range(1, p + 1):
        acc += float(model.phi[lag - 1]) * float(x[-lag])
    for lag in range(1, q + 1):
        resid = float(model.residuals[-lag]) if lag <= model.residuals.size else 0.0
        acc += float(model.theta_ma[lag - 1]) * resid
    if d == 1:
        return float(y[-1]) + acc
    return acc


# ---------------------------------------------------------------------------
# NNAR
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) <= 1 never overflows; each sign takes the form that keeps
    # full precision for large |z|.
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _nnar_design(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Training pairs: row t holds [z_{t-1}, ..., z_{t-p}], target z_t."""
    n = z.size
    rows = np.arange(p, n)
    x = np.column_stack([z[rows - lag] for lag in range(1, p + 1)])
    return x, z[rows]


def _nnar_forward(
    x: np.ndarray, w_hidden: np.ndarray, b_hidden: np.ndarray, w_out: np.ndarray, b_out: float
) -> tuple[np.ndarray, np.ndarray]:
    hidden = _sigmoid(x @ w_hidden.T + b_hidden)
    return hidden @ w_out + b_out, hidden


def _nnar_loss_and_grads(
    x: np.ndarray,
    target: np.ndarray,
    w_hidden: np.ndarray,
    b_hidden: np.ndarray,
    w_out: np.ndarray,
    b_out: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """Mean squared error and its analytic gradients for all parameters."""
    pred, hidden = _nnar_forward(x, w_hidden, b_hidden, w_out, b_out)
    err = pred - target
    n = target.size
    loss = float(err @ err) / n
    g_pred = 2.0 * err / n
    g_w_out = hidden.T @ g_pred
    g_b_out = float(g_pred.sum())
    g_hidden = g_pred[:, None] * w_out
    g_act = g_hidden * hidden * (1.0 - hidden)
    g_w_hidden = g_act.T @ x
    g_b_hidden = g_act.sum(axis=0)
    return loss, g_w_hidden, g_b_hidden, g_w_out, g_b_out


def _train_nnar(
    x: np.ndarray,
    target: np.ndarray,
    p: int,
    k: int,
    seed: int,
    learning_rate: float,
    epochs: int,
    tol: float,
    patience: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float, int] | None:
    rng = np.random.default_rng(seed)
    w_hidden = rng.uniform(-0.5, 0.5, size=(k, p))
    b_hidden = rng.uniform(-0.5, 0.5, size=k)
    w_out = rng.uniform(-0.5, 0.5, size=k)
    b_out = float(rng.uniform(-0.5, 0.5))
    loss, g_wh, g_bh, g_wo, g_bo = _nnar_loss_and_grads(x, target, w_hidden, b_hidden, w_out, b_out)
    if not math.isfinite(loss):
        return None
    history = [loss]
    epochs_run = 0
    for _ in range(epochs):
        new_wh = w_hidden - learning_rate * g_wh
        new_bh = b_hidden - learning_rate * g_bh
        new_wo = w_out - learning_rate * g_wo
        new_bo = b_out - learning_rate * g_bo
        new_loss, n_g_wh, n_g_bh, n_g_wo, n_g_bo = _nnar_loss_and_grads(
            x, target, new_wh, new_bh, new_wo, new_bo
        )
        if not math.isfinite(new_loss):
            return None
        if new_loss > history[-1]:
            # Reverting keeps the recorded loss history non-increasing.
            break
        w_hidden, b_hidden, w_out, b_out = new_wh, new_bh, new_wo, new_bo
        g_wh, g_bh, g_wo, g_bo = n_g_wh, n_g_bh, n_g_wo, n_g_bo
        history.append(new_loss)
        epochs_run += 1
        if len(history) > patience and history[-patience - 1] - history[-1] < tol:
            break
    return w_hidden, b_hidden, w_out, b_out, history[-1], epochs_run


def nnar_fit(
    series: np.ndarray,
    p: int = 5,
    k: int = 3,
    seed: int = 0,
    learning_rate: float = 0.01,
    epochs: int = 500,
    tol: float = 1e-9,
    patience: int = 25,
) -> NnarModel:
    """Train the autoregressive neural net on a return series.

    Initial weights are uniform(-0.5, 0.5) draws from a generator seeded
    with ``seed``; a non-finite loss triggers one retry with ``seed + 1``
    before giving up.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if p < 1 or k < 1:
        raise ValueError("p and k must be positive")
    if y.size < p + 20:
        raise InsufficientHistory(f"NNAR needs at least p + 20 = {p + 20} observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("series contains non-finite values")
    mean = float(y.mean())
    scale = float(y.std())
    if scale <= 0.0:
        scale = 1.0
    z = (y - mean) / scale
    x, target = _nnar_design(z, p)
    for attempt, try_seed in enumerate((seed, seed + 1)):
        trained = _train_nnar(x, target, p, k, try_seed, learning_rate, epochs, tol, patience)
        if trained is not None:
            w_hidden, b_hidden, w_out, b_out, mse, epochs_run = trained
            if attempt:
                log.warning("NNAR training diverged for seed %d; retried with %d", seed, try_seed)
            return NnarModel(
                lags=p,
                hidden=k,
                w_hidden=w_hidden,
                b_hidden=b_hidden,
                w_out=w_out,
                b_out=b_out,
                input_mean=mean,
                input_scale=scale,
                seed=try_seed,
                train_mse=mse,
                epochs_run=epochs_run,
            )
    raise EstimationError("NNAR training diverged for seed and seed + 1")


def nnar_forecast(model: NnarModel, last_values: np.ndarray) -> float:
    """One-step forecast from the last p observations (oldest first)."""
    tail = np.asarray(last_values, dtype=float)
    if tail.shape != (model.lags,):
        raise ValueError(f"expected exactly {model.lags} trailing observations")
    if not np.all(np.isfinite(tail)):
        raise ValueError("inputs contain non-finite values")
    z = (tail - model.input_mean) / model.input_scale
    inputs = z[::-1][None, :]  # most recent observation first
    pred, _ = _nnar_forward(inputs, model.w_hidden, model.b_hidden, model.w_out, model.b_out)
    return float(pred[0]) * model.input_scale + model.input_mean
