"""One-step return forecasting: ARIMA grid search and a small neural net.

ARIMA(p, d, q) candidates over p in {0..2}, d in {0, 1}, q in {0..2} are
estimated by conditional least squares: the AR terms by direct regression
and the MA terms by a two-stage residual regression (stage one produces
innovation proxies, stage two regresses the series on its own lags and the
lagged proxies jointly).  Candidates are scored with

    AIC = n * ln(SSE / n) + 2 * (p + q + 1)

where n is the number of observations entering the candidate's final
regression, and ties break toward smaller p + d + q.  The search shares
each stage: one difference per d, and one stage-one regression per
(p, d), which is the q = 0 fit and supplies the proxies of every q > 0.
Grid settings out of range raise ``ValueError``.  If every candidate
fails the fallback is a flagged (0, 0, 0) model whose intercept is the
sample mean.

The neural model (autoregressive single-hidden-layer perceptron) feeds the
last p observations, standardised by the training series mean and scale,
through k sigmoid units to a linear output.  Training is full-batch
gradient descent on the mean squared error with a fixed learning rate;
an update that would increase the loss is reverted and training stops, so
the recorded loss history is non-increasing.  Training also stops once the
loss fell by less than ``NNAR_TOL`` over the last ``NNAR_PATIENCE`` epochs.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InsufficientHistory

log = logging.getLogger(__name__)

ARIMA_MIN_OBS = 30
# Observations an NNAR fit needs beyond its lag count: p + NNAR_MIN_SPARE in all.
NNAR_MIN_SPARE = 20
# The NNAR stop rule: a fit stops once its loss fell by less than NNAR_TOL
# over the last NNAR_PATIENCE epochs.
NNAR_TOL = 1e-9
NNAR_PATIENCE = 25
_SIGNAL_DEADZONE = 1e-12
_LOG_FLOOR = 1e-300

# Most NNAR fits trained as one stack.  An epoch costs a fixed numpy call
# overhead plus a share per member, so a fit in a stack of 2 runs at about
# the speed of a lone fit.  On 120-day series (5 lags, 3 units, 500 epochs,
# one Intel Xeon core, OpenBLAS's SkylakeX kernels on 1 thread) a fit took
# 18.1 ms alone and, per member, 5.9 / 4.0 / 2.8 / 2.4 / 2.1 / 2.0 / 1.9 / 1.9
# ms in stacks of 4 / 8 / 16 / 24 / 32 / 48 / 64 / 96; 384 fits split into
# stacks of 24 / 32 / 48 / 64 / 96 took 2.36 / 2.27 / 2.00 / 1.91 / 1.93 ms
# per fit (medians of five rounds).
NNAR_CHUNK = 48


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


def to_signal(r_hat: float) -> int:
    """Sign of the forecast with a dead zone for numerically-zero values."""
    if not math.isfinite(r_hat):
        raise ValueError("forecast must be finite")
    if abs(r_hat) < _SIGNAL_DEADZONE:
        return 0
    return 1 if r_hat > 0.0 else -1


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


def _ols(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise np.linalg.LinAlgError("rank deficient design")
    resid = target - design @ beta
    return beta, resid


def _lag_columns(x: np.ndarray, rows: np.ndarray, n_lags: int) -> list[np.ndarray]:
    return [x[rows - lag] for lag in range(1, n_lags + 1)]


def arima_fit(
    series: np.ndarray,
    max_p: int = 2,
    max_d: int = 1,
    max_q: int = 2,
    order: tuple[int, int, int] | None = None,
) -> ArimaModel:
    """Grid-search ARIMA fit; pass ``order`` to force a single candidate.

    ``max_p`` or ``max_q`` below 0, ``max_d`` outside {0, 1}, or an
    ``order`` with the same problems raises ``ValueError`` before any fit.
    """
    if min(max_p, max_q) < 0 or max_d not in (0, 1):
        raise ValueError(f"max_p and max_q must be at least 0 and max_d 0 or 1, got {(max_p, max_d, max_q)}")
    if order is not None and (min(order[0], order[2]) < 0 or order[1] not in (0, 1)):
        raise ValueError(f"order needs p and q at least 0 and d 0 or 1, got {order}")
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if y.size < ARIMA_MIN_OBS:
        raise InsufficientHistory(f"ARIMA needs at least {ARIMA_MIN_OBS} observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("series contains non-finite values")
    ps, ds, qs = (range(k + 1) for k in (max_p, max_d, max_q)) if order is None else ([k] for k in order)
    best = None
    for d in ds:
        x = np.diff(y, n=d)
        m = x.size
        for p in ps:
            # A (p, q) candidate needs m - p - q >= p + q + 2 observations,
            # so too few for q == 0 is too few for every q.
            if m - p < p + 2:
                continue
            # Stage one: an AR(p) regression (intercept-only when p == 0, i.e.
            # the demeaned series).  It is the fit when q == 0, and its
            # residuals are the innovation proxies of every q > 0, so its
            # failure fails them all.
            if p > 0:
                rows1 = np.arange(p, m)
                try:
                    beta1, resid1 = _ols(np.column_stack([np.ones(rows1.size)] + _lag_columns(x, rows1, p)), x[rows1])
                except np.linalg.LinAlgError:
                    continue
            else:
                beta1, resid1 = np.array([x.mean()]), x - x.mean()
            for q in qs:
                if q == 0:
                    beta, resid = beta1, resid1
                elif m - p - q < p + q + 2:
                    continue
                else:
                    # Stage two: joint regression on AR lags and lagged
                    # innovation proxies.
                    rows = np.arange(p + q, m)
                    cols = [np.ones(rows.size)] + _lag_columns(x, rows, p)
                    cols += [resid1[rows - lag - p] for lag in range(1, q + 1)]
                    try:
                        beta, resid = _ols(np.column_stack(cols), x[rows])
                    except np.linalg.LinAlgError:
                        continue
                sse = float(resid @ resid)
                if not np.isfinite(sse):
                    continue
                aic = resid.size * math.log(max(sse / resid.size, _LOG_FLOOR)) + 2.0 * (p + q + 1)
                # Equal-score ties prefer the autoregressive parameterization:
                # at the forecast step AR terms read observed values while MA
                # terms read estimated innovation proxies.
                key = (aic, p + d + q, d, q, p)
                if best is None or key < best[0]:
                    best = (key, beta, resid)
    if best is not None:
        (aic, _, d, q, p), beta, resid = best
        return ArimaModel((p, d, q), float(beta[0]), beta[1 : 1 + p], beta[1 + p :], resid, aic, resid.size)
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
    x = np.diff(y, n=d)
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
    # full precision for large |z|: 1 / (1 + ez) or ez / (1 + ez), one
    # division either way.  Each step writes into a buffer it owns: the
    # same operations on the same values as the unbuffered form.  The
    # numerator is max(ez, z >= 0), with the bool taken as 0.0 or 1.0: ez
    # lies in [0, 1], so z >= 0 (-0.0 and +inf too) gives 1.0, z < 0 gives
    # ez, and a NaN z gives the NaN in ez, which maximum passes through:
    # the bits of np.where(z >= 0, 1.0, ez), in a fraction of its time.
    ez = np.abs(z)
    np.exp(np.negative(ez, out=ez), out=ez)
    out = np.maximum(ez, z >= 0)
    ez += 1.0
    return np.divide(out, ez, out=out)


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

    A plain ``x`` takes ``x @ Wᵀ + b`` as written, the tests' oracle.
    ``x`` may instead carry a trailing column of ones, ``(..., n, p + 1)``,
    as :func:`_train_stack` gives it where :func:`_bias_rides` allows, the
    one fast route.  The hidden bias then rides in the product: ``x``
    multiplies a C-contiguous ``(p + 1, k)`` block [Wᵀ; b], so each
    element's bias is the gemm's last multiply-add, 1 * b added to the
    finished sum of the p lag terms, the rounding of the separate add.
    One-row calls (``nnar_forecast``) always pass a plain ``x``.
    """
    p = w_hidden.shape[-1]
    w_t = np.swapaxes(w_hidden, -1, -2)
    if x.shape[-1] > p:
        w_b = np.empty(w_t.shape[:-2] + (p + 1, w_t.shape[-1]))
        w_b[..., :p, :] = w_t
        w_b[..., p, :] = b_hidden
        z = x @ w_b
    else:
        z = x @ w_t + b_hidden[..., None, :]
    hidden = _sigmoid(z)
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
    losses, gradients and ``b_out`` carry a leading batch axis.  With the
    trailing ones column in ``x``, both hidden gradients are the two parts
    of one product ``g_actᵀ @ [x, 1]``, whose last column adds each unit's
    n rows one after another, as ``sum(axis=-2)`` does.
    """
    pred, hidden = _nnar_forward(x, w_hidden, b_hidden, w_out, b_out)
    err = pred - target
    n = target.shape[-1]
    loss = (err[..., None, :] @ err[..., :, None])[..., 0, 0] / n
    g_pred = 2.0 * err / n
    g_w_out = (np.swapaxes(hidden, -1, -2) @ g_pred[..., None])[..., 0]
    g_b_out = g_pred.sum(axis=-1)
    # g_act = g_pred[..., :, None] * w_out[..., None, :] * hidden * (1 - hidden),
    # its outer product through a (..., k, n) view with C-order iteration:
    # numpy's inner loop then runs along the n rows, not along the k units,
    # faster, and each element gets the same multiply.
    g_act = np.empty_like(hidden)
    np.multiply(g_pred[..., None, :], w_out[..., :, None], out=np.swapaxes(g_act, -1, -2), order="C")
    g_act *= hidden
    g_act *= 1.0 - hidden
    g_w_hidden = np.swapaxes(g_act, -1, -2) @ x
    if x.shape[-1] > w_hidden.shape[-1]:
        return loss, g_w_hidden[..., :-1], g_w_hidden[..., -1], g_w_out, g_b_out
    # With k >= 2, sum(axis=-2) adds the n rows one after another, and so
    # does this einsum, faster.  With k == 1 that axis is contiguous and
    # numpy sums it pairwise, so only sum(axis=-2) itself gives its bits.
    if g_act.shape[-1] == 1:
        g_b_hidden = g_act.sum(axis=-2)
    else:
        g_b_hidden = np.einsum("...nk->...k", g_act)
    return loss, g_w_hidden, g_b_hidden, g_w_out, g_b_out


def _with_ones(x: np.ndarray) -> np.ndarray:
    """The design ``x`` ``(..., n, p)`` with a trailing column of ones."""
    return np.concatenate((x, np.ones(x.shape[:-1] + (1,))), axis=-1)


# _bias_rides's verdicts by (n, p, k), which hold for the BLAS this process loaded.
_BIAS_RIDES: dict[tuple[int, int, int], bool] = {}


def _bias_rides(n: int, p: int, k: int) -> bool:
    """Whether nets of k units on ``(n, p)`` designs may take the bias in their gemms.

    The ones column keeps every bit only where the BLAS sums each element
    of both products in one chain, in order, the ones column's term last,
    as the separate add and the row-by-row sum do.  That depends on the
    shape and on the BLAS kernel.  numpy runs a product with one column
    as a gemv, whose sums are not that chain on most kernels: the forward
    product when k == 1, the backward one when p == 1.  OpenBLAS's Haswell
    kernels (Zen uses them too) and Sandybridge kernels split a sum of
    more than 256 rows, Haswell's also sum some shapes in another order
    (p = 3 or 7 at k = 3 or 5, among others), and its SSE kernels
    (Nehalem) keep no shape's bits.  So each shape is tried once per
    process, on a stack of random nets with and without the ones column,
    and the route is taken only where every output has the same bytes.
    """
    if (n, p, k) not in _BIAS_RIDES:
        rng = np.random.default_rng(0)
        x, target = rng.normal(size=(8, n, p)), rng.normal(size=(8, n))
        net = [rng.uniform(-2.0, 2.0, size) for size in ((8, k, p), (8, k), (8, k), 8)]
        plain = _nnar_loss_and_grads(x, target, *net)
        ones = _nnar_loss_and_grads(_with_ones(x), target, *net)
        _BIAS_RIDES[n, p, k] = all(a.tobytes() == b.tobytes() for a, b in zip(plain, ones))
    return _BIAS_RIDES[n, p, k]


def _train_stack(
    x: np.ndarray,
    target: np.ndarray,
    seeds: list[int],
    k: int,
    learning_rate: float,
    epochs: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float, float, int] | None]:
    """Train one net per seed on the stacked designs ``x`` ``(B, n, p)``.

    Members train in lockstep, each by the rules of a lone fit: an update
    that would increase its loss is reverted and it stops; it also stops
    once its loss fell by less than ``NNAR_TOL`` over the last
    ``NNAR_PATIENCE`` epochs.  A member whose loss turns non-finite yields
    ``None``.  A stopped member leaves the stack, so later epochs compute
    only the members still training.

    Where :func:`_bias_rides` allows it, the design gains a trailing
    column of ones here, once per stack, and :func:`_nnar_loss_and_grads`
    takes the hidden bias and its gradient inside its two gemms, with the
    bits of the plain design's separate bias add and sum.
    """
    n, p = x.shape[1:]
    if _bias_rides(n, p, k):
        x = _with_ones(x)
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
            if epoch + 1 >= NNAR_PATIENCE:
                plateau = history[:, epoch + 1 - NNAR_PATIENCE] - loss < NNAR_TOL
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
    if y.size < p + NNAR_MIN_SPARE:
        raise InsufficientHistory(f"NNAR needs at least p + {NNAR_MIN_SPARE} = {p + NNAR_MIN_SPARE} observations")
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
) -> list[NnarModel | Exception]:
    """Train one net per (series, seed) pair, stacked; see :func:`nnar_fit`.

    The pairs are split into consecutive chunks of ``NNAR_CHUNK``, each with
    its own ``seed + 1`` retry pass.  Series of equal length in a chunk
    train as one stacked problem, and every member gets exactly the model a
    lone :func:`nnar_fit` call would give it.  A member that cannot be
    fitted gets the exception that call would raise (``ValueError``,
    ``InsufficientHistory`` or ``EstimationError``) in its place, and the
    other members are unaffected.  A setting out of range (``epochs`` < 0,
    ``learning_rate`` not finite and positive) raises ``ValueError`` before
    anything trains.
    """
    if len(series) != len(seeds):
        raise ValueError("need one seed per series")
    if epochs < 0:
        raise ValueError("epochs must be at least 0")
    if not 0.0 < learning_rate < math.inf:
        raise ValueError("learning_rate must be finite and positive")
    out: list[NnarModel | Exception] = [None] * len(series)
    for start in range(0, len(series), NNAR_CHUNK):
        inputs = {}
        for i in range(start, min(start + NNAR_CHUNK, len(series))):
            try:
                inputs[i] = _nnar_inputs(series[i], p, k)
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
) -> NnarModel:
    """Train the autoregressive neural net on a return series.

    Initial weights are uniform(-0.5, 0.5) draws from a generator seeded
    with ``seed``; a non-finite loss triggers one retry with ``seed + 1``
    before giving up.  This is :func:`nnar_fit_batch` with one member.
    """
    (model,) = nnar_fit_batch([series], [seed], p, k, learning_rate, epochs)
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
