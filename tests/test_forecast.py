"""One-step forecasting: ARIMA grid search, neural autoregression, signals."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_arima
from mstport import errors, forecast as fc


def ar1_series(phi: float, n: int, seed: int, intercept: float = 0.0, scale: float = 0.01) -> np.ndarray:
    rng = np.random.default_rng(seed)
    burn = 100
    x = np.zeros(n + burn)
    for t in range(1, n + burn):
        x[t] = intercept + phi * x[t - 1] + rng.normal(0.0, scale)
    return x[burn:]


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------


def test_signal_sign_with_dead_zone():
    assert fc.to_signal(0.01) == 1
    assert fc.to_signal(-0.005) == -1
    assert fc.to_signal(0.0) == 0
    assert fc.to_signal(5e-13) == 0
    assert fc.to_signal(-5e-13) == 0


def test_signal_is_odd():
    for x in (1e-12, 3e-4, 0.02, 1.5):
        assert fc.to_signal(-x) == -fc.to_signal(x)


def test_signal_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            fc.to_signal(bad)


# ---------------------------------------------------------------------------
# ARIMA
# ---------------------------------------------------------------------------


def test_ar1_fit_matches_regression_oracle():
    x = ar1_series(0.6, 500, seed=14)
    model = fc.arima_fit(x, order=(1, 0, 0))
    design = np.column_stack([np.ones(len(x) - 1), x[:-1]])
    coef, *_ = np.linalg.lstsq(design, x[1:], rcond=None)
    assert model.intercept == pytest.approx(coef[0], abs=1e-12)
    assert model.phi[0] == pytest.approx(coef[1], abs=1e-12)
    assert model.order == (1, 0, 0)
    assert not model.fallback


def test_ar1_forecast_is_closed_form():
    x = ar1_series(0.6, 400, seed=15, intercept=0.002)
    model = fc.arima_fit(x, order=(1, 0, 0))
    expected = model.intercept + float(model.phi[0]) * x[-1]
    assert fc.arima_forecast(model, x) == pytest.approx(expected, abs=1e-10)


def test_constant_model_forecasts_the_mean():
    rng = np.random.default_rng(16)
    x = rng.normal(0.001, 0.01, 60)
    model = fc.arima_fit(x, order=(0, 0, 0))
    assert model.intercept == pytest.approx(float(x.mean()), abs=1e-12)
    assert fc.arima_forecast(model, x) == pytest.approx(model.intercept, abs=1e-15)


def test_moving_average_with_zero_residuals_forecasts_intercept():
    model = fc.ArimaModel(
        order=(0, 0, 1),
        intercept=0.0042,
        phi=np.empty(0),
        theta_ma=np.array([0.5]),
        residuals=np.zeros(40),
        aic=0.0,
        n_obs=40,
    )
    x = np.full(40, 0.0042)
    assert fc.arima_forecast(model, x) == 0.0042


def test_white_noise_mostly_selects_constant_order():
    rng = np.random.default_rng(52)
    hits = 0
    for _ in range(25):
        x = rng.normal(0.0, 0.01, 200)
        hits += fc.arima_fit(x).order == (0, 0, 0)
    assert hits >= 23


def test_autoregressive_series_selects_lag_term():
    x = ar1_series(0.6, 1000, seed=9)
    model = fc.arima_fit(x)
    p = model.order[0]
    assert p >= 1
    assert abs(model.phi[0] - 0.6) <= 0.1


def test_trending_series_forecast_continues_the_trend():
    delta = 0.004
    y = 1.0 + delta * np.arange(60)
    model = fc.arima_fit(y)
    forecast = fc.arima_forecast(model, y)
    assert forecast == pytest.approx(y[-1] + delta, abs=1e-9)


def test_differencing_inverts_back_to_levels():
    rng = np.random.default_rng(17)
    steps = rng.normal(0.0005, 0.01, 200)
    y = 50.0 + np.cumsum(steps)
    model = fc.arima_fit(y, order=(1, 1, 0))
    x = np.diff(y)
    expected = y[-1] + model.intercept + float(model.phi[0]) * x[-1]
    assert fc.arima_forecast(model, y) == pytest.approx(expected, abs=1e-12)


def test_arima_needs_thirty_observations():
    rng = np.random.default_rng(18)
    with pytest.raises(errors.InsufficientHistory):
        fc.arima_fit(rng.normal(0.0, 0.01, 10))
    with pytest.raises(errors.InsufficientHistory):
        fc.arima_fit(rng.normal(0.0, 0.01, 29))
    fc.arima_fit(rng.normal(0.0, 0.01, 30))


def test_arima_rejects_non_finite_series():
    x = np.full(60, 0.01)
    x[3] = np.nan
    with pytest.raises(ValueError):
        fc.arima_fit(x)


# Every candidate's sum of squared residuals overflows to inf.
OVERFLOW_SERIES = np.tile([3e160, -1e160], 20)


def test_all_candidates_failing_yields_flagged_mean_model():
    x = OVERFLOW_SERIES
    with np.errstate(over="ignore"):
        model = fc.arima_fit(x)
    assert model.fallback
    assert model.order == (0, 0, 0)
    assert model.intercept == pytest.approx(float(x.mean()))
    assert fc.arima_forecast(model, x) == pytest.approx(float(x.mean()))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(max_p=-1), "max_p and max_q must be at least 0 and max_d 0 or 1"),
        (dict(max_q=-1), "max_p and max_q must be at least 0 and max_d 0 or 1"),
        (dict(max_d=-1), "max_p and max_q must be at least 0 and max_d 0 or 1"),
        (dict(max_d=2), "max_p and max_q must be at least 0 and max_d 0 or 1"),
        (dict(order=(-1, 0, 0)), "order needs p and q at least 0 and d 0 or 1"),
        (dict(order=(0, 0, -1)), "order needs p and q at least 0 and d 0 or 1"),
        (dict(order=(0, -1, 0)), "order needs p and q at least 0 and d 0 or 1"),
        (dict(order=(0, 3, 0)), "order needs p and q at least 0 and d 0 or 1"),
    ],
)
def test_arima_rejects_grid_settings_out_of_range(kwargs, message):
    x = np.random.default_rng(18).normal(0.0, 0.01, 60)
    # x[:10] is too short to fit: the settings are checked before the series.
    for series in (x, x[:10]):
        with pytest.raises(ValueError, match=message) as err:
            fc.arima_fit(series, **kwargs)
        assert not isinstance(err.value, errors.InsufficientHistory)


def test_arima_accepts_the_edges_of_its_grid_settings():
    x = np.random.default_rng(18).normal(0.0, 0.01, 60)
    assert fc.arima_fit(x, 0, 0, 0).order == (0, 0, 0)
    assert fc.arima_fit(x, order=(0, 1, 0)).order == (0, 1, 0)


def test_aic_prefers_parsimony_on_ties():
    # all candidates see the same white noise; extra parameters never pay rent
    rng = np.random.default_rng(20)
    x = rng.normal(0.0, 0.01, 400)
    model = fc.arima_fit(x)
    best = model.order
    assert sum(best) <= 1


def assert_same_arima(got: fc.ArimaModel, want: fc.ArimaModel) -> None:
    """Every field equal bit for bit: floats by their bytes, arrays by shape and bytes."""
    assert got.order == want.order
    assert (got.n_obs, got.fallback) == (want.n_obs, want.fallback)
    for name in ("intercept", "aic"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes(), name
    for name in ("phi", "theta_ma", "residuals"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def arima_oracle_cases():
    rng = np.random.default_rng(61)
    noise = [rng.normal(0.0, 0.01, n) for n in (30, 45, 120, 250)]
    walks = [100.0 + np.cumsum(rng.normal(0.0, 1.0, n)) for n in (30, 60, 120)]
    cases = [pytest.param(x, (), id=f"white-noise-{x.size}") for x in noise]
    cases += [pytest.param(x, (), id=f"random-walk-{x.size}") for x in walks]
    cases += [
        pytest.param(noise[2], (3, 1, 3), id="white-noise-wide-grid"),
        pytest.param(walks[2], (1, 0, 2), id="random-walk-no-difference"),
        # stage one is rank deficient for every p > 0
        pytest.param(np.full(60, 0.01), (), id="constant"),
        # the first difference is constant, so stage two fails at d = 1
        pytest.param(1.0 + 0.5 * np.arange(60), (), id="linear-trend"),
        # too few observations for the high orders
        pytest.param(noise[0], (14, 1, 2), id="thirty-points-max-p-14"),
        pytest.param(OVERFLOW_SERIES, (), id="every-candidate-fails"),
    ]
    for order in ((0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 1, 2), (14, 1, 0)):
        cases.append(pytest.param(walks[1], dict(order=order), id=f"order-{order}"))
    cases.append(pytest.param(np.full(60, 0.01), dict(order=(1, 0, 0)), id="order-fails"))
    return cases


@pytest.mark.parametrize("series, grid", arima_oracle_cases())
def test_arima_fit_matches_the_per_candidate_oracle(series, grid):
    args, kwargs = (grid, {}) if isinstance(grid, tuple) else ((), grid)
    with np.errstate(over="ignore"):
        assert_same_arima(fc.arima_fit(series, *args, **kwargs), reference_arima.arima_fit(series, *args, **kwargs))


@st.composite
def arima_problems(draw):
    n = draw(st.integers(30, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), n)
    kind = draw(st.sampled_from(["noise", "walk", "rounded", "repeats"]))
    if kind == "walk":
        x = np.cumsum(x)
    elif kind == "rounded":
        x = np.round(x, draw(st.integers(-3, 1)))
    elif kind == "repeats":
        x = np.repeat(x[: n // 3 + 1], 3)[:n]
    if draw(st.booleans()):
        return x, (), dict(order=(draw(st.integers(0, 4)), draw(st.integers(0, 1)), draw(st.integers(0, 3))))
    return x, (draw(st.integers(0, 5)), draw(st.integers(0, 1)), draw(st.integers(0, 3))), {}


@settings(max_examples=300, deadline=None)
@given(arima_problems())
def test_arima_fit_matches_the_per_candidate_oracle_on_drawn_series(problem):
    series, args, kwargs = problem
    assert_same_arima(fc.arima_fit(series, *args, **kwargs), reference_arima.arima_fit(series, *args, **kwargs))


# ---------------------------------------------------------------------------
# NNAR
# ---------------------------------------------------------------------------


def finite_difference_grads(x, target, w_hidden, b_hidden, w_out, b_out, step=1e-5):
    """Central differences of the mean-squared training loss."""

    def loss_at(wh, bh, wo, bo):
        pred, _ = fc._nnar_forward(x, wh, bh, wo, bo)
        err = pred - target
        return float(err @ err) / target.size

    grads = []
    for arr in (w_hidden, b_hidden, w_out):
        g = np.zeros_like(arr)
        flat = arr.ravel()
        g_flat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = loss_at(w_hidden, b_hidden, w_out, b_out)
            flat[idx] = orig - step
            lo = loss_at(w_hidden, b_hidden, w_out, b_out)
            flat[idx] = orig
            g_flat[idx] = (hi - lo) / (2.0 * step)
        grads.append(g)
    hi = loss_at(w_hidden, b_hidden, w_out, b_out + step)
    lo = loss_at(w_hidden, b_hidden, w_out, b_out - step)
    grads.append((hi - lo) / (2.0 * step))
    return grads


def test_backprop_gradients_match_finite_differences():
    rng = np.random.default_rng(25)
    for _ in range(3):
        p, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        z = rng.normal(0.0, 1.0, 30)
        x, target = fc._nnar_design(z, p)
        w_hidden = rng.uniform(-0.5, 0.5, (k, p))
        b_hidden = rng.uniform(-0.5, 0.5, k)
        w_out = rng.uniform(-0.5, 0.5, k)
        b_out = float(rng.uniform(-0.5, 0.5))
        loss, g_wh, g_bh, g_wo, g_bo = fc._nnar_loss_and_grads(
            x, target, w_hidden, b_hidden, w_out, b_out
        )
        fd_wh, fd_bh, fd_wo, fd_bo = finite_difference_grads(
            x, target, w_hidden, b_hidden, w_out, b_out
        )
        for got, want in ((g_wh, fd_wh), (g_bh, fd_bh), (g_wo, fd_wo)):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)
        assert g_bo == pytest.approx(fd_bo, rel=1e-5, abs=1e-8)


def split_by_sign_sigmoid(z: np.ndarray) -> np.ndarray:
    """Sigmoid evaluated separately on each sign, by boolean indexing."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_split_by_sign_form():
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0, 800.0, -800.0])
    draws = np.random.default_rng(8).normal(0.0, 30.0, size=(4000, 3))
    for z in (edges, draws):
        got, want = fc._sigmoid(z), split_by_sign_sigmoid(z)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# The frozen NNAR kernel: the plain broadcast form of the sigmoid, the
# forward pass and the backward pass.  The engine's kernel must match it
# bit for bit, and the scalar trainer below trains on it, so a change to
# the engine's rounding fails here even when it moves the stacked and the
# lone fit alike.


def oracle_sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) <= 1 never overflows; each sign takes the form that keeps
    # full precision for large |z|.
    ez = np.exp(-np.abs(z))
    d = 1.0 + ez
    return np.where(z >= 0, 1.0 / d, ez / d)


def oracle_forward(
    x: np.ndarray, w_hidden: np.ndarray, b_hidden: np.ndarray, w_out: np.ndarray, b_out
) -> tuple[np.ndarray, np.ndarray]:
    hidden = oracle_sigmoid(x @ np.swapaxes(w_hidden, -1, -2) + b_hidden[..., None, :])
    return (hidden @ w_out[..., None])[..., 0] + np.asarray(b_out)[..., None], hidden


def oracle_loss_and_grads(
    x: np.ndarray,
    target: np.ndarray,
    w_hidden: np.ndarray,
    b_hidden: np.ndarray,
    w_out: np.ndarray,
    b_out,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    pred, hidden = oracle_forward(x, w_hidden, b_hidden, w_out, b_out)
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


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sigmoid_matches_oracle_at_its_edges_and_on_stacks():
    # Both infinities, NaN of both signs (one with a payload), signed zeros
    # and subnormals, and the ends of exp's subnormal (745.2) and normal
    # (709.8) range, alone and at the head of each stack the trainer runs.
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123], dtype=np.uint64).view(float)
    magnitudes = np.array([np.inf, 0.0, 5e-324, 745.2, 709.8])
    edges = np.concatenate([magnitudes, -magnitudes, nans])
    rng = np.random.default_rng(36)
    stacks = [rng.normal(0.0, 30.0, (24, 115, 3))]
    stacks += [rng.normal(0.0, 30.0, (fc.NNAR_CHUNK, 115, k)) for k in (1, 2, 3, 5)]
    for z in stacks:
        z.flat[: edges.size] = edges
    with np.errstate(invalid="ignore"):
        for z in [edges, *stacks]:
            assert_same_bits(fc._sigmoid(z), oracle_sigmoid(z))


def random_net(rng, batch, n, p, k, scale):
    """Inputs and weights of one net (``batch`` None) or a stack of ``batch``."""
    lead = () if batch is None else (batch,)
    x = rng.normal(0.0, scale, lead + (n, p))
    target = rng.normal(0.0, scale, lead + (n,))
    w_hidden = rng.uniform(-2.0, 2.0, lead + (k, p)) / scale
    b_hidden = rng.uniform(-2.0, 2.0, lead + (k,))
    w_out = rng.uniform(-2.0, 2.0, lead + (k,))
    b_out = float(rng.uniform(-2.0, 2.0)) if batch is None else rng.uniform(-2.0, 2.0, batch)
    return x, target, w_hidden, b_hidden, w_out, b_out


def assert_kernel_matches_oracle(batch, k, design):
    """The kernel against the frozen oracle, bit for bit, at p from 1 to 6.

    ``design(x)`` is what the kernel gets in place of the oracle's plain
    design ``x``, or None on a shape where the trainer would not pass it.
    """
    rng = np.random.default_rng(1000 * k + (batch or 0))
    for p in range(1, 7):
        n = int(rng.integers(20, 251))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        net = random_net(rng, batch, n, p, k, scale)
        x, target, *weights = net
        x_in = design(x)
        if x_in is None:
            continue
        got, want = fc._nnar_loss_and_grads(x_in, target, *weights), oracle_loss_and_grads(*net)
        for a, b in zip(got, want):
            assert_same_bits(a, b)
        for a, b in zip(fc._nnar_forward(x_in, *weights), oracle_forward(x, *weights)):
            assert_same_bits(a, b)
        # A zero output weight and exactly fitted rows give signed zeros.
        x, target, w_hidden, b_hidden, w_out, b_out = net
        w_out[..., 0] = 0.0
        target[..., :3] = oracle_forward(x, w_hidden, b_hidden, w_out, b_out)[0][..., :3]
        for a, b in zip(fc._nnar_loss_and_grads(x_in, *net[1:]), oracle_loss_and_grads(*net)):
            assert_same_bits(a, b)
    # An overflowing step, as the trainer takes one on its way to a
    # non-finite loss: inf and nan must come out where the oracle has them.
    x, target, w_hidden, b_hidden, w_out, b_out = random_net(rng, batch, 60, 3, k, 1.0)
    x_in = design(x)
    if x_in is None:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        for step in (1e160, 1e300):
            weights = (w_hidden * step, b_hidden * step, w_out * step, b_out)
            got, want = fc._nnar_loss_and_grads(x_in, target, *weights), oracle_loss_and_grads(x, target, *weights)
            assert not np.all(np.isfinite(want[0]))
            for a, b in zip(got, want):
                assert_same_bits(a, b)


@pytest.mark.parametrize("batch", [None, 1, 2, 24, fc.NNAR_CHUNK])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_kernel_matches_frozen_oracle_bit_for_bit(batch, k):
    assert_kernel_matches_oracle(batch, k, lambda x: x)


@pytest.mark.parametrize("batch", [None, 1, 2, 24, fc.NNAR_CHUNK])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_bias_in_the_gemms_matches_frozen_oracle_bit_for_bit(batch, k):
    # The design with its trailing ones column, as _train_stack hands it to
    # the kernel on every shape where _bias_rides lets it: the hidden bias
    # and its gradient ride in the gemms, and the oracle takes plain x.
    def with_ones(x):
        return fc._with_ones(x) if fc._bias_rides(*x.shape[-2:], k) else None

    assert_kernel_matches_oracle(batch, k, with_ones)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_one_row_forward_matches_frozen_oracle_bit_for_bit(k):
    # A forecast's shape: one input row.  numpy multiplies a contiguous row
    # as a gemv, whose bits follow the weights' layout, and the reversed
    # view nnar_forecast passes in its own loop.  The weights are unstacked
    # (k, p) arrays, and row views of a stack, as _train_stack hands them
    # to NnarModel.
    rng = np.random.default_rng(2000 + k)
    for p in range(1, 7):
        for _ in range(40):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            x = rng.normal(0.0, scale, (1, p))
            _, _, *lone = random_net(rng, None, 1, p, k, scale)
            _, _, *stack = random_net(rng, 8, 1, p, k, scale)
            m = int(rng.integers(8))
            member = [a[m] for a in stack[:3]] + [float(stack[3][m])]
            for row in (x, x[0, ::-1][None, :]):
                for weights in (lone, member):
                    for a, b in zip(fc._nnar_forward(row, *weights), oracle_forward(row, *weights)):
                        assert_same_bits(a, b)


@pytest.mark.parametrize("p, k", [(1, 1), (2, 3), (5, 3), (6, 5)])
def test_forecast_matches_frozen_oracle_on_fitted_models(p, k):
    series = [ar1_series(0.6, 60 + 5 * s, 500 + s, scale=0.02) for s in range(6)]
    models = fc.nnar_fit_batch(series * 2, list(range(12)), p, k, epochs=50)
    for y, model in zip(series * 2, models):
        tail = y[-p:]
        z = (tail - model.input_mean) / model.input_scale
        pred, _ = oracle_forward(z[::-1][None, :], model.w_hidden, model.b_hidden, model.w_out, model.b_out)
        want = float(pred[0]) * model.input_scale + model.input_mean
        assert_same_bits(fc.nnar_forecast(model, tail), want)


# The scalar trainer: one net, one epoch at a time, on the frozen kernel.
# The stacked trainer must give every member exactly what this loop gives
# it alone.


def scalar_train(x, target, p, k, seed, learning_rate, epochs, tol, patience):
    """Returns the trained parameters, loss, epochs run and why training stopped."""
    rng = np.random.default_rng(seed)
    w_hidden = rng.uniform(-0.5, 0.5, size=(k, p))
    b_hidden = rng.uniform(-0.5, 0.5, size=k)
    w_out = rng.uniform(-0.5, 0.5, size=k)
    b_out = float(rng.uniform(-0.5, 0.5))
    loss, g_wh, g_bh, g_wo, g_bo = oracle_loss_and_grads(x, target, w_hidden, b_hidden, w_out, b_out)
    if not math.isfinite(loss):
        return None
    history = [float(loss)]
    epochs_run = 0
    stop = "epochs"
    with np.errstate(over="ignore", invalid="ignore"):  # as the stacked trainer
        for _ in range(epochs):
            new_wh = w_hidden - learning_rate * g_wh
            new_bh = b_hidden - learning_rate * g_bh
            new_wo = w_out - learning_rate * g_wo
            new_bo = b_out - learning_rate * float(g_bo)
            new_loss, n_g_wh, n_g_bh, n_g_wo, n_g_bo = oracle_loss_and_grads(
                x, target, new_wh, new_bh, new_wo, new_bo
            )
            if not math.isfinite(new_loss):
                return None
            if new_loss > history[-1]:
                stop = "revert"
                break
            w_hidden, b_hidden, w_out, b_out = new_wh, new_bh, new_wo, new_bo
            g_wh, g_bh, g_wo, g_bo = n_g_wh, n_g_bh, n_g_wo, n_g_bo
            history.append(float(new_loss))
            epochs_run += 1
            if len(history) > patience and history[-patience - 1] - history[-1] < tol:
                stop = "plateau"
                break
    return w_hidden, b_hidden, w_out, b_out, history[-1], epochs_run, stop


def scalar_fit(series, p, k, seed, learning_rate, epochs, tol, patience):
    """The per-fit ``nnar_fit``: validation, then ``seed`` and one retry at ``seed + 1``.

    Returns ``(model, stop)``, or ``(exception, None)`` where the fit fails.
    """
    y = np.asarray(series, dtype=float)
    if y.size < p + 20:
        return errors.InsufficientHistory(f"NNAR needs at least p + 20 = {p + 20} observations"), None
    if not np.all(np.isfinite(y)):
        return ValueError("series contains non-finite values"), None
    mean, scale = float(y.mean()), float(y.std())
    scale = scale if scale > 0.0 else 1.0
    x, target = fc._nnar_design((y - mean) / scale, p)
    for try_seed in (seed, seed + 1):
        trained = scalar_train(x, target, p, k, try_seed, learning_rate, epochs, tol, patience)
        if trained is not None:
            w_hidden, b_hidden, w_out, b_out, mse, epochs_run, stop = trained
            model = fc.NnarModel(
                p, k, w_hidden, b_hidden, w_out, b_out, mean, scale, try_seed, mse, epochs_run
            )
            return model, stop
    return errors.EstimationError("NNAR training diverged for seed and seed + 1"), None


NNAR_FIELDS = ("lags", "hidden", "w_hidden", "b_hidden", "w_out", "b_out", "input_mean", "input_scale",
               "seed", "train_mse", "epochs_run")


def assert_same_fit(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, fc.NnarModel)
    for name in NNAR_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) or isinstance(a, np.ndarray), name
        assert np.array_equal(a, b), name


def test_stacked_kernel_equals_each_member_alone():
    rng = np.random.default_rng(61)
    for _ in range(30):
        b, n, p, k = (int(v) for v in rng.integers((1, 20, 1, 1), (25, 130, 7, 5)))
        x, target = rng.normal(size=(b, n, p)), rng.normal(size=(b, n))
        w_hidden, b_hidden = rng.uniform(-2, 2, (b, k, p)), rng.uniform(-2, 2, (b, k))
        w_out, b_out = rng.uniform(-2, 2, (b, k)), rng.uniform(-2, 2, b)
        stacked = fc._nnar_loss_and_grads(x, target, w_hidden, b_hidden, w_out, b_out)
        for m in range(b):
            alone = fc._nnar_loss_and_grads(
                x[m], target[m], w_hidden[m], b_hidden[m], w_out[m], float(b_out[m])
            )
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[m], want)


# Ordinary steps: members that run every epoch, revert an increase, or
# stop on a plateau, next to a series too short to fit at 5 lags.
ORDINARY_MEMBERS = [(ar1_series(0.9, 90, 200 + s), s) for s in range(4)] + [
    (np.full(61, 0.01), 31),
    (ar1_series(0.5, 24, 3), 4),
]


@pytest.mark.parametrize(
    "learning_rate, tol, patience, members, p, k, outcomes, plain",
    [
        pytest.param(
            0.5,
            1e-4,
            10,
            ORDINARY_MEMBERS,
            5,
            3,
            {"epochs", "revert", "plateau", "InsufficientHistory"},
            False,
            id="0.5-0.0001-10-members0-outcomes0",
        ),
        # Steps of 1e153 overflow the loss for some initial weights only:
        # a member that diverges at its seed and trains at seed + 1, one
        # that diverges at both, one that reverts its first step, one too
        # short and one with a non-finite input.
        pytest.param(
            1e153,
            1e-9,
            25,
            [(ar1_series(0.4, 80, 28), s) for s in (0, 14, 1)]
            + [(ar1_series(0.4, 24, 5), 2), (np.r_[ar1_series(0.4, 40, 6), np.nan], 3)],
            5,
            3,
            {"retry", "EstimationError", "revert", "InsufficientHistory", "ValueError"},
            False,
            id="1e+153-1e-09-25-members1-outcomes1",
        ),
        # The ordinary steps at the other unit counts, and at one and three
        # lags, shapes where the bias leaves the gemms on some BLAS kernels
        # (see forecast._bias_rides).
        *(
            pytest.param(0.5, 1e-4, 10, ORDINARY_MEMBERS, p, k, None, False, id=f"ordinary-p{p}-k{k}")
            for p, k in [(5, 1), (5, 2), (5, 5), (1, 3), (3, 3)]
        ),
        # Every ordinary case with the bias out of the gemms on every shape,
        # as on the kernels where _bias_rides rejects them all (Nehalem's),
        # so the plain route trains k >= 2 stacks whatever this host's BLAS.
        *(
            pytest.param(0.5, 1e-4, 10, ORDINARY_MEMBERS, p, k, None, True, id=f"plain-p{p}-k{k}")
            for p, k in [(5, 3), (5, 1), (5, 2), (5, 5), (1, 3), (3, 3)]
        ),
    ],
)
def test_stacked_trainer_equals_scalar_trainer(
    monkeypatch, learning_rate, tol, patience, members, p, k, outcomes, plain
):
    if plain:
        monkeypatch.setattr(fc, "_bias_rides", lambda n, p, k: False)
    monkeypatch.setattr(fc, "NNAR_TOL", tol)
    monkeypatch.setattr(fc, "NNAR_PATIENCE", patience)
    epochs = 80
    series, seeds = [m[0] for m in members], [m[1] for m in members]
    got = fc.nnar_fit_batch(series, seeds, p, k, learning_rate, epochs)
    seen = set()
    for y, seed, fit in zip(series, seeds, got):
        want, stop = scalar_fit(y, p, k, seed, learning_rate, epochs, tol, patience)
        assert_same_fit(fit, want)
        if isinstance(want, Exception):
            seen.add(type(want).__name__)
        else:
            seen.add("retry" if want.seed != seed else stop)
    if outcomes is not None:
        assert seen == outcomes
    for y, seed, fit in zip(series, seeds, got):
        try:
            alone = fc.nnar_fit(y, p, k, seed, learning_rate, epochs)
        except (ValueError, errors.EstimationError) as exc:
            alone = exc
        assert_same_fit(alone, fit)


def test_stacked_trainer_groups_series_of_different_lengths():
    series = [ar1_series(0.3, n, 40 + n) for n in (60, 45, 60, 45, 70)]
    got = fc.nnar_fit_batch(series, [1, 2, 3, 4, 5], p=4, k=2, epochs=40)
    for y, seed, fit in zip(series, [1, 2, 3, 4, 5], got):
        assert_same_fit(fit, scalar_fit(y, 4, 2, seed, 0.01, 40, 1e-9, 25)[0])


def test_stacked_trainer_splits_a_long_list_into_chunks(monkeypatch):
    # Two full chunks and a short one, all of one length: unsplit, they
    # would train as one stack of 2 * NNAR_CHUNK + 5.
    count = 2 * fc.NNAR_CHUNK + 5
    series = [ar1_series(0.3, 40, 300 + s) for s in range(count)]
    seeds = list(range(count))
    stacks = []
    train_stack = fc._train_stack

    def recorded(x, *args):
        stacks.append(len(x))
        return train_stack(x, *args)

    monkeypatch.setattr(fc, "_train_stack", recorded)
    got = fc.nnar_fit_batch(series, seeds, p=4, k=2, epochs=30)
    assert stacks == [fc.NNAR_CHUNK, fc.NNAR_CHUNK, 5]
    monkeypatch.undo()
    for y, seed, fit in zip(series, seeds, got):
        alone = fc.nnar_fit(y, 4, 2, seed, epochs=30)
        assert_same_fit(fit, alone)
        for name in NNAR_FIELDS:
            assert np.asarray(getattr(fit, name)).tobytes() == np.asarray(getattr(alone, name)).tobytes(), name


# One NNAR_CHUNK stack of 120-day series, trained in a fresh process; prints
# each member's fields as the hex of their bytes.
THREAD_PROBE = """
import dataclasses
import json
import numpy as np
from mstport import forecast as fc
rng = np.random.default_rng(13)
series = [np.cumsum(rng.normal(0.0, 0.01, 120)) for _ in range(fc.NNAR_CHUNK)]
models = fc.nnar_fit_batch(series, list(range(fc.NNAR_CHUNK)))
print(json.dumps([{f.name: np.asarray(getattr(m, f.name)).tobytes().hex() for f in dataclasses.fields(m)} for m in models]))
"""


def test_stacked_fits_do_not_depend_on_the_blas_thread_count():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than two usable CPUs: a second BLAS thread would share the first one's core")
    src = str(Path(fc.__file__).resolve().parents[1])
    fits = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        fits.append(json.loads(done.stdout))
    one, two = fits
    assert len(one) == fc.NNAR_CHUNK
    for member, (a, b) in enumerate(zip(one, two)):
        assert a == b, member


def test_stacked_trainer_refuses_mismatched_seeds():
    with pytest.raises(ValueError, match="one seed per series"):
        fc.nnar_fit_batch([ar1_series(0.3, 60, 1)], [1, 2])


# Fixed ids, so that a case keeps its test name as others come and go.
@pytest.mark.parametrize(
    "setting, match",
    [
        pytest.param({"epochs": -1}, "epochs must be at least 0", id="setting0-epochs must be at least 0"),
        *(
            pytest.param({"learning_rate": rate}, "learning_rate must be finite and positive",
                         id=f"setting{case}-learning_rate must be finite and positive")
            for case, rate in [(3, -0.01), (4, 0.0), (5, math.inf), (6, math.nan)]
        ),
    ],
)
def test_stacked_trainer_refuses_bad_settings_before_training(monkeypatch, setting, match):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(fc, "_train_stack", no_training)
    series = ar1_series(0.3, 60, 1)
    with pytest.raises(ValueError, match=match):
        fc.nnar_fit_batch([series], [1], **setting)
    with pytest.raises(ValueError, match=match):
        fc.nnar_fit(series, **setting)


def test_stacked_trainer_accepts_the_edges_of_its_settings(monkeypatch):
    monkeypatch.setattr(fc, "NNAR_TOL", 0.0)
    monkeypatch.setattr(fc, "NNAR_PATIENCE", 1)
    series = ar1_series(0.3, 60, 1)
    (model,) = fc.nnar_fit_batch([series], [1], epochs=0)
    assert model.epochs_run == 0
    assert fc.nnar_fit(series, seed=1, epochs=30).epochs_run >= 1


def test_single_unit_network_hand_evaluation():
    model = fc.NnarModel(
        lags=1,
        hidden=1,
        w_hidden=np.array([[1.0]]),
        b_hidden=np.array([0.0]),
        w_out=np.array([2.0]),
        b_out=0.1,
        input_mean=0.0,
        input_scale=1.0,
        seed=0,
        train_mse=0.0,
        epochs_run=0,
    )
    # sigmoid(0) = 0.5, so the output is 2 * 0.5 + 0.1
    assert fc.nnar_forecast(model, np.array([0.0])) == pytest.approx(1.1, abs=1e-15)


def test_zero_output_weights_collapse_to_bias():
    rng = np.random.default_rng(26)
    model = fc.NnarModel(
        lags=3,
        hidden=2,
        w_hidden=rng.normal(size=(2, 3)),
        b_hidden=rng.normal(size=2),
        w_out=np.zeros(2),
        b_out=0.07,
        input_mean=0.001,
        input_scale=0.02,
        seed=0,
        train_mse=0.0,
        epochs_run=0,
    )
    for _ in range(3):
        inputs = rng.normal(0.0, 0.05, 3)
        expected = 0.07 * model.input_scale + model.input_mean
        assert fc.nnar_forecast(model, inputs) == pytest.approx(expected, abs=1e-15)


def test_inputs_at_training_mean_hit_hidden_biases():
    rng = np.random.default_rng(27)
    k, p = 3, 4
    model = fc.NnarModel(
        lags=p,
        hidden=k,
        w_hidden=rng.normal(size=(k, p)),
        b_hidden=rng.normal(size=k),
        w_out=rng.normal(size=k),
        b_out=0.3,
        input_mean=0.005,
        input_scale=0.015,
        seed=0,
        train_mse=0.0,
        epochs_run=0,
    )
    raw = fc.nnar_forecast(model, np.full(p, model.input_mean))
    sig = 1.0 / (1.0 + np.exp(-model.b_hidden))
    expected = (float(model.w_out @ sig) + model.b_out) * model.input_scale + model.input_mean
    assert raw == pytest.approx(expected, rel=1e-14)


def test_training_is_deterministic_and_pure():
    series = ar1_series(0.4, 80, seed=28)
    m1 = fc.nnar_fit(series, p=5, k=3, seed=11, epochs=60)
    m2 = fc.nnar_fit(series, p=5, k=3, seed=11, epochs=60)
    np.testing.assert_array_equal(m1.w_hidden, m2.w_hidden)
    np.testing.assert_array_equal(m1.b_hidden, m2.b_hidden)
    np.testing.assert_array_equal(m1.w_out, m2.w_out)
    assert m1.b_out == m2.b_out and m1.train_mse == m2.train_mse
    f1 = fc.nnar_forecast(m1, series[-5:])
    f2 = fc.nnar_forecast(m2, series[-5:])
    assert f1 == f2
    different = fc.nnar_fit(series, p=5, k=3, seed=12, epochs=60)
    assert not np.array_equal(m1.w_hidden, different.w_hidden)


def test_training_loss_never_increases_with_more_epochs():
    series = ar1_series(0.5, 70, seed=29)
    mean, scale = float(series.mean()), float(series.std())
    z = (series - mean) / scale
    x, target = fc._nnar_design(z, 5)

    def training_mse(model):
        pred, _ = fc._nnar_forward(x, model.w_hidden, model.b_hidden, model.w_out, model.b_out)
        err = pred - target
        return float(err @ err) / target.size

    losses = []
    for epochs in range(1, 14):
        model = fc.nnar_fit(series, p=5, k=3, seed=30, epochs=epochs)
        mse = training_mse(model)
        assert mse == pytest.approx(model.train_mse, rel=1e-12)
        losses.append(mse)
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def test_early_stop_on_plateau():
    # a constant target is learned quickly; training must stop well short
    series = np.concatenate([np.full(60, 0.01), [0.01]])
    model = fc.nnar_fit(series, p=5, k=3, seed=31, epochs=500)
    assert model.epochs_run < 500


def test_nnar_input_validation():
    series = ar1_series(0.4, 80, seed=32)
    with pytest.raises(errors.InsufficientHistory):
        fc.nnar_fit(series[:24], p=5, k=3, seed=0)
    with pytest.raises(ValueError):
        fc.nnar_fit(series, p=0, k=3, seed=0)
    bad = series.copy()
    bad[5] = np.inf
    with pytest.raises(ValueError):
        fc.nnar_fit(bad, p=5, k=3, seed=0)
    model = fc.nnar_fit(series, p=5, k=3, seed=0, epochs=10)
    with pytest.raises(ValueError):
        fc.nnar_forecast(model, series[-4:])
    with pytest.raises(ValueError):
        fc.nnar_forecast(model, series[-6:])


def test_forecast_uses_most_recent_observation_first():
    # an asymmetric single-lag-dominant network must react to the last value,
    # not the first, proving the chronological tail is reversed internally
    series = ar1_series(0.9, 90, seed=33, scale=0.05)
    model = fc.nnar_fit(series, p=3, k=2, seed=5, epochs=200)
    tail = series[-3:].copy()
    bumped_last = tail.copy()
    bumped_last[-1] += 0.2
    bumped_first = tail.copy()
    bumped_first[0] += 0.2
    base = fc.nnar_forecast(model, tail)
    with_last = fc.nnar_forecast(model, bumped_last)
    with_first = fc.nnar_forecast(model, bumped_first)
    assert with_last != base and with_first != base
    assert abs(with_last - base) != pytest.approx(abs(with_first - base), rel=1e-6)


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------


def test_task_seeds_are_stable_and_distinct():
    assert fc.derive_seed(132, "AAPL", 0) == 4055822640808436916
    assert fc.derive_seed(132, "AAPL", 1) == 6951140431228900836
    assert fc.derive_seed(132, "MSFT", 0) == 8501109355995586920
    assert fc.derive_seed(7, "AAPL", 0) == 7552504269050450915
    seeds = {
        fc.derive_seed(gs, t, w)
        for gs in (1, 2)
        for t in ("A", "B", "C")
        for w in (0, 1, 2)
    }
    assert len(seeds) == 18
    assert all(0 <= s < 2**63 for s in seeds)
