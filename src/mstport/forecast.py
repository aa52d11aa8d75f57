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
    d = 1.0 + ez
    return np.where(z >= 0, 1.0 / d, ez / d)


def _nnar_design(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Training pairs: row t holds [z_{t-1}, ..., z_{t-p}], target z_t."""
    n = z.size
    rows = np.arange(p, n)
    x = np.column_stack([z[rows - lag] for lag in range(1, p + 1)])
    return x, z[rows]


def _nnar_forward(
    x: np.ndarray, w_hidden: np.ndarray, b_hidden: np.ndarray, w_out: np.ndarray, b_out
) -> tuple[np.ndarray, np.ndarray]:
    """Predictions ``(..., n)`` and hidden activations ``(..., n, k)``.

    Takes one net (``x`` of shape ``(n, p)``) or a stack of B nets, each
    with its own inputs, on leading axes.  Every product is a (stacked)
    ``np.matmul``, which runs the same BLAS call per member as the
    unstacked product, so a member's numbers do not depend on the stack.
    """
    hidden = _sigmoid(x @ np.swapaxes(w_hidden, -1, -2) + b_hidden[..., None, :])
    return (hidden @ w_out[..., None])[..., 0] + np.asarray(b_out)[..., None], hidden


def _nnar_loss_and_grads(
    x: np.ndarray,
    target: np.ndarray,
    w_hidden: np.ndarray,
    b_hidden: np.ndarray,
    w_out: np.ndarray,
    b_out,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean squared error and its analytic gradients for all parameters.

    Shapes as in :func:`_nnar_forward`: one net, or a stack of nets whose
    losses, gradients and ``b_out`` carry a leading batch axis.
    """
    pred, hidden = _nnar_forward(x, w_hidden, b_hidden, w_out, b_out)
    err = pred - target
    n = target.shape[-1]
    loss = (err[..., None, :] @ err[..., :, None])[..., 0, 0] / n
    g_pred = 2.0 * err / n
    g_w_out = (np.swapaxes(hidden, -1, -2) @ g_pred[..., None])[..., 0]
    g_b_out = g_pred.sum(axis=-1)
    g_hidden = g_pred[..., :, None] * w_out[..., None, :]
    g_act = g_hidden * hidden * (1.0 - hidden)
    g_w_hidden = np.swapaxes(g_act, -1, -2) @ x
    g_b_hidden = g_act.sum(axis=-2)
    return loss, g_w_hidden, g_b_hidden, g_w_out, g_b_out


def _train_stack(
    x: np.ndarray,
    target: np.ndarray,
    seeds: list[int],
    k: int,
    learning_rate: float,
    epochs: int,
    tol: float,
    patience: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float, float, int] | None]:
    """Train one net per seed on the stacked designs ``x`` ``(B, n, p)``.

    Members train in lockstep, each by the rules of a lone fit: an update
    that would increase its loss is reverted and it stops; it also stops
    once its loss fell by less than ``tol`` over the last ``patience``
    epochs.  A member whose loss turns non-finite yields ``None``.  A
    stopped member leaves the stack, so later epochs compute only the
    members still training.
    """
    p = x.shape[2]
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append(
            (
                rng.uniform(-0.5, 0.5, size=(k, p)),
                rng.uniform(-0.5, 0.5, size=k),
                rng.uniform(-0.5, 0.5, size=k),
                rng.uniform(-0.5, 0.5),
            )
        )
    params = [np.stack(arrays) for arrays in zip(*draws)]
    results: list[tuple[np.ndarray, np.ndarray, np.ndarray, float, float, int] | None] = [None] * len(seeds)
    live = np.arange(len(seeds))  # member of each stack row
    loss, *grads = _nnar_loss_and_grads(x, target, *params)
    history = np.empty((len(seeds), epochs + 1))  # row i: losses of member live[i]
    history[:, 0] = loss

    def finish(rows: np.ndarray, epochs_run: int) -> None:
        for i in np.flatnonzero(rows):
            wh, bh, wo, bo = (a[i] for a in params)
            results[live[i]] = (wh, bh, wo, float(bo), float(loss[i]), epochs_run)

    def keep(rows: np.ndarray) -> None:
        nonlocal x, target, live, loss, grads, params, history
        x, target, live, loss, history = x[rows], target[rows], live[rows], loss[rows], history[rows]
        grads = [g[rows] for g in grads]
        params = [a[rows] for a in params]

    keep(np.isfinite(loss))
    # A diverging member overflows on its way to a non-finite loss, which
    # the ``moved`` test and the caller's ``seed + 1`` retry handle.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            if not live.size:
                break
            new_params = [a - learning_rate * g for a, g in zip(params, grads)]
            new_loss, *new_grads = _nnar_loss_and_grads(x, target, *new_params)
            moved = new_loss <= loss  # false for a non-finite loss too
            if not moved.all():
                # Reverting keeps each recorded loss history non-increasing.
                finish(np.isfinite(new_loss) & ~moved, epoch)
                keep(moved)
                new_params = [a[moved] for a in new_params]
                new_loss = new_loss[moved]
                new_grads = [g[moved] for g in new_grads]
            params, loss, grads = new_params, new_loss, new_grads
            history[:, epoch + 1] = loss
            if epoch + 1 >= patience:
                plateau = history[:, epoch + 1 - patience] - loss < tol
                if plateau.any():
                    finish(plateau, epoch + 1)
                    keep(~plateau)
    finish(np.ones(live.size, dtype=bool), epochs)
    return results


def _nnar_inputs(series: np.ndarray, p: int, k: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Validated training design of one series, and its mean and scale."""
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
    return x, target, mean, scale


def nnar_fit_batch(
    series: list[np.ndarray] | tuple[np.ndarray, ...],
    seeds: list[int] | tuple[int, ...],
    p: int = 5,
    k: int = 3,
    learning_rate: float = 0.01,
    epochs: int = 500,
    tol: float = 1e-9,
    patience: int = 25,
) -> list[NnarModel | Exception]:
    """Train one net per (series, seed) pair, stacked; see :func:`nnar_fit`.

    Series of equal length train as one stacked problem, and every member
    gets exactly the model a lone :func:`nnar_fit` call would give it.  A
    member that cannot be fitted gets the exception that call would
    raise (``ValueError``, ``InsufficientHistory`` or ``EstimationError``)
    in its place, and the other members are unaffected.
    """
    if len(series) != len(seeds):
        raise ValueError("need one seed per series")
    out: list[NnarModel | Exception] = [None] * len(series)
    inputs = {}
    for i, y in enumerate(series):
        try:
            inputs[i] = _nnar_inputs(y, p, k)
        except ValueError as exc:
            out[i] = exc
    pending = {i: seeds[i] for i in inputs}  # member -> seed to try next
    for attempt in range(2):
        by_rows: dict[int, list[int]] = {}
        for i in pending:
            by_rows.setdefault(inputs[i][0].shape[0], []).append(i)
        diverged = {}
        for members in by_rows.values():
            trained = _train_stack(
                np.stack([inputs[i][0] for i in members]),
                np.stack([inputs[i][1] for i in members]),
                [pending[i] for i in members],
                k,
                learning_rate,
                epochs,
                tol,
                patience,
            )
            for i, fit in zip(members, trained):
                if fit is None:
                    diverged[i] = pending[i] + 1
                    continue
                if attempt:
                    log.warning("NNAR training diverged for seed %d; retried with %d", seeds[i], pending[i])
                w_hidden, b_hidden, w_out, b_out, mse, epochs_run = fit
                out[i] = NnarModel(
                    lags=p,
                    hidden=k,
                    w_hidden=w_hidden,
                    b_hidden=b_hidden,
                    w_out=w_out,
                    b_out=b_out,
                    input_mean=inputs[i][2],
                    input_scale=inputs[i][3],
                    seed=pending[i],
                    train_mse=mse,
                    epochs_run=epochs_run,
                )
        pending = diverged
    for i in pending:
        out[i] = EstimationError("NNAR training diverged for seed and seed + 1")
    return out


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
    before giving up.  This is :func:`nnar_fit_batch` with one member.
    """
    (model,) = nnar_fit_batch([series], [seed], p, k, learning_rate, epochs, tol, patience)
    if isinstance(model, Exception):
        raise model
    return model


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
