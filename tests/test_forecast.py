"""One-step forecasting: ARIMA grid search, neural autoregression, signals."""

import math

import numpy as np
import pytest

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


def test_make_forecast_carries_signal():
    f = fc.make_forecast("AAA", -0.004)
    assert (f.ticker, f.signal) == ("AAA", -1)
    assert f.r_hat == -0.004


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


def test_all_candidates_failing_yields_flagged_mean_model(monkeypatch):
    def boom(x, p, q):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(fc, "_fit_candidate", boom)
    rng = np.random.default_rng(19)
    x = rng.normal(0.002, 0.01, 50)
    model = fc.arima_fit(x)
    assert model.fallback
    assert model.order == (0, 0, 0)
    assert model.intercept == pytest.approx(float(x.mean()))
    assert fc.arima_forecast(model, x) == pytest.approx(float(x.mean()))


def test_aic_prefers_parsimony_on_ties():
    # all candidates see the same white noise; extra parameters never pay rent
    rng = np.random.default_rng(20)
    x = rng.normal(0.0, 0.01, 400)
    model = fc.arima_fit(x)
    best = model.order
    assert sum(best) <= 1


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


# The scalar trainer: one net, one epoch at a time.  The stacked trainer
# must give every member exactly what this loop gives it alone.


def scalar_train(x, target, p, k, seed, learning_rate, epochs, tol, patience):
    """Returns the trained parameters, loss, epochs run and why training stopped."""
    rng = np.random.default_rng(seed)
    w_hidden = rng.uniform(-0.5, 0.5, size=(k, p))
    b_hidden = rng.uniform(-0.5, 0.5, size=k)
    w_out = rng.uniform(-0.5, 0.5, size=k)
    b_out = float(rng.uniform(-0.5, 0.5))
    loss, g_wh, g_bh, g_wo, g_bo = fc._nnar_loss_and_grads(x, target, w_hidden, b_hidden, w_out, b_out)
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
            new_loss, n_g_wh, n_g_bh, n_g_wo, n_g_bo = fc._nnar_loss_and_grads(
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


@pytest.mark.parametrize(
    "learning_rate, tol, patience, members, outcomes",
    [
        # Ordinary steps: members that run every epoch, revert an increase,
        # or stop on a plateau, next to a series too short to fit.
        (
            0.5,
            1e-4,
            10,
            [(ar1_series(0.9, 90, 200 + s), s) for s in range(4)]
            + [(np.full(61, 0.01), 31), (ar1_series(0.5, 24, 3), 4)],
            {"epochs", "revert", "plateau", "InsufficientHistory"},
        ),
        # Steps of 1e153 overflow the loss for some initial weights only:
        # a member that diverges at its seed and trains at seed + 1, one
        # that diverges at both, one that reverts its first step, one too
        # short and one with a non-finite input.
        (
            1e153,
            1e-9,
            25,
            [(ar1_series(0.4, 80, 28), s) for s in (0, 14, 1)]
            + [(ar1_series(0.4, 24, 5), 2), (np.r_[ar1_series(0.4, 40, 6), np.nan], 3)],
            {"retry", "EstimationError", "revert", "InsufficientHistory", "ValueError"},
        ),
    ],
)
def test_stacked_trainer_equals_scalar_trainer(learning_rate, tol, patience, members, outcomes):
    epochs = 80
    series, seeds = [m[0] for m in members], [m[1] for m in members]
    got = fc.nnar_fit_batch(series, seeds, 5, 3, learning_rate, epochs, tol, patience)
    seen = set()
    for y, seed, fit in zip(series, seeds, got):
        want, stop = scalar_fit(y, 5, 3, seed, learning_rate, epochs, tol, patience)
        assert_same_fit(fit, want)
        if isinstance(want, Exception):
            seen.add(type(want).__name__)
        else:
            seen.add("retry" if want.seed != seed else stop)
    assert seen == outcomes
    for y, seed, fit in zip(series, seeds, got):
        try:
            alone = fc.nnar_fit(y, 5, 3, seed, learning_rate, epochs, tol, patience)
        except (ValueError, errors.EstimationError) as exc:
            alone = exc
        assert_same_fit(alone, fit)


def test_stacked_trainer_groups_series_of_different_lengths():
    series = [ar1_series(0.3, n, 40 + n) for n in (60, 45, 60, 45, 70)]
    got = fc.nnar_fit_batch(series, [1, 2, 3, 4, 5], p=4, k=2, epochs=40)
    for y, seed, fit in zip(series, [1, 2, 3, 4, 5], got):
        assert_same_fit(fit, scalar_fit(y, 4, 2, seed, 0.01, 40, 1e-9, 25)[0])


def test_stacked_trainer_refuses_mismatched_seeds():
    with pytest.raises(ValueError, match="one seed per series"):
        fc.nnar_fit_batch([ar1_series(0.3, 60, 1)], [1, 2])


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
