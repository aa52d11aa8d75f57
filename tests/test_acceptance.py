"""Release gate: ten end-to-end checks, each printing one PASS/FAIL line.

Every check pins its tolerance and seed, and the statistical ones use
independently derived oracles (closed forms, exhaustive enumeration,
finite differences) rather than the module's own arithmetic.
"""

from __future__ import annotations

import functools
import json
import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from mstport import allocation, backtest, forecast, market_data, network, var_fevd
from mstport.backtest import StrategyConfig, make_strategy, run_multi_seed, run_simulation
from mstport.cli import main
from synth import flat_table, hub_returns, random_returns, random_walk_table, write_long_csv
from test_allocation import var_oracle
from test_network import brute_force_tree_cost, random_cost


def criterion(num: int, label: str):
    """Record one acceptance line for the terminal summary."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_acceptance(f"criterion {num:02d} {label}: FAIL")
                raise
            record_acceptance(f"criterion {num:02d} {label}: PASS")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. Lag-matrix recovery on simulated bivariate series


@criterion(1, "var coefficient recovery")
def test_var_recovery_rate():
    a_true = np.array([[0.3, 0.2], [0.1, 0.4]])
    t, reps, burn = 2000, 100, 100
    started = time.perf_counter()
    rng = np.random.default_rng(236)
    noise = rng.normal(0.0, 0.1, size=(t + burn, reps, 2))
    state = np.zeros((reps, 2))
    rows = np.empty((t, reps, 2))
    for step in range(t + burn):
        state = state @ a_true.T + noise[step]
        if step >= burn:
            rows[step - burn] = state
    passes = 0
    for rep in range(reps):
        model = var_fevd.fit_var1(rows[:, rep, :])
        if np.all(np.abs(model.a1 - a_true) <= 0.05):
            passes += 1
    elapsed = time.perf_counter() - started
    assert passes >= 95, f"only {passes}/100 recoveries within +-0.05"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. Variance-share completeness on random stable models


@criterion(2, "fevd share completeness")
def test_fevd_rows_complete_and_bounded():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        a1 = rng.uniform(-0.6, 0.6, (2, 2))
        if np.max(np.abs(np.linalg.eigvals(a1))) >= 0.95:
            continue
        b = rng.normal(0.0, 0.1, (2, 2))
        sigma = b @ b.T + 1e-4 * np.eye(2)
        model = var_fevd.VarModel(a0=np.zeros(2), a1=a1, sigma_u=sigma, n_obs=100)
        orth = var_fevd.fevd(model, 10, var_fevd.MODE_ORTHOGONALIZED)
        raw = var_fevd.fevd(model, 10, var_fevd.MODE_AS_WRITTEN)
        assert not orth.fallback
        assert np.all(np.abs(orth.shares.sum(axis=1) - 1.0) <= 1e-10)
        for shares in (orth.shares, raw.shares):
            assert np.all(shares >= 0.0) and np.all(shares <= 1.0)
        checked += 1


# ---------------------------------------------------------------------------
# 3. Spanning-tree optimality against exhaustive enumeration


@criterion(3, "mst equals exhaustive search")
def test_mst_matches_enumeration():
    started = time.perf_counter()
    for case in range(200):
        n = 3 + case % 4
        cost = random_cost(n, seed=1000 + case)
        tree = network.prim_mst(cost)
        assert len(tree.edges) == n - 1
        assert tree.total_cost == pytest.approx(brute_force_tree_cost(cost.symmetric), abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4. Historical loss quantile against a sort-and-index oracle


@criterion(4, "historical var oracle and clipping")
def test_var_oracle_and_clipping_bounds():
    rng = np.random.default_rng(11)
    alphas = (0.01, 0.05, 0.10, 0.25, 0.5)
    for case in range(1000):
        n = int(rng.integers(1, 251))
        series = rng.normal(0.0, 0.02, n)
        alpha = alphas[case % len(alphas)]
        got = allocation.historical_var(series, alpha)
        assert got == var_oracle(series, alpha)
        assert allocation.VAR_FLOOR <= got <= allocation.VAR_PENALTY
    adversarial = [
        np.abs(rng.normal(0.02, 0.01, 40)) + 1e-4,  # all positive: raw estimate negative
        np.array([-50.0]),  # catastrophic single-loss series
        np.array([0.004]),  # single small gain
        np.full(30, -25.0),  # uniform huge losses
    ]
    for series in adversarial:
        for alpha in alphas:
            got = allocation.historical_var(series, alpha)
            assert allocation.VAR_FLOOR <= got <= allocation.VAR_PENALTY
            assert got == var_oracle(series, alpha)


# ---------------------------------------------------------------------------
# 5. One-step autoregressive closed form and white-noise parsimony


@criterion(5, "arima closed form and order selection")
def test_arima_closed_form_and_white_noise():
    rng = np.random.default_rng(9)
    x = np.empty(400)
    x[0] = 0.0
    shocks = rng.normal(0.0, 0.01, 400)
    for i in range(1, 400):
        x[i] = 0.001 + 0.6 * x[i - 1] + shocks[i]
    model = forecast.arima_fit(x, 1, 0, 0)
    assert model.order == (1, 0, 0)
    closed_form = model.intercept + model.phi[0] * x[-1]
    assert forecast.arima_forecast(model, x) == pytest.approx(closed_form, abs=1e-10)

    noise_rng = np.random.default_rng(101)
    flat_orders = 0
    for _ in range(100):
        series = noise_rng.normal(0.0, 0.01, 200)
        picked = forecast.arima_fit(series, 2, 1, 2)
        if picked.order == (0, 0, 0):
            flat_orders += 1
    assert flat_orders >= 90, f"white noise picked (0,0,0) only {flat_orders}/100 times"


# ---------------------------------------------------------------------------
# 6. Backpropagation against central finite differences


@criterion(6, "nnar gradients match finite differences")
def test_nnar_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    step = 1e-5
    for _ in range(20):
        p = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        rows = int(rng.integers(25, 60))
        x = rng.normal(0.0, 1.0, (rows, p))
        target = rng.normal(0.0, 1.0, rows)
        w_hidden = rng.normal(0.0, 0.5, (k, p))
        b_hidden = rng.normal(0.0, 0.5, k)
        w_out = rng.normal(0.0, 0.5, k)
        b_out = np.array([rng.normal(0.0, 0.5)])

        def current_loss():
            return forecast._nnar_loss_and_grads(
                x, target, w_hidden, b_hidden, w_out, float(b_out[0])
            )[0]

        _, g_wh, g_bh, g_wo, g_bo = forecast._nnar_loss_and_grads(
            x, target, w_hidden, b_hidden, w_out, float(b_out[0])
        )
        blocks = ((w_hidden, g_wh), (b_hidden, g_bh), (w_out, g_wo), (b_out, np.array([g_bo])))
        for values, grads in blocks:
            flat = values.ravel()
            gflat = np.asarray(grads).ravel()
            for pos in range(flat.size):
                keep = flat[pos]
                flat[pos] = keep + step
                up = current_loss()
                flat[pos] = keep - step
                down = current_loss()
                flat[pos] = keep
                fd = (up - down) / (2.0 * step)
                assert abs(gflat[pos] - fd) <= 1e-5 * max(1.0, abs(gflat[pos]), abs(fd))


# ---------------------------------------------------------------------------
# 7. Daily accounting identity and the flat-market no-op


@criterion(7, "simulation accounting and flat market")
def test_accounting_identity_and_flat_market():
    table = random_walk_table(30, 300, seed=58)
    returns = market_data.compute_returns(table)
    cfg = make_strategy(StrategyConfig(window=120, top_k=5), "mst_var")
    result = run_simulation(cfg, table, returns)
    row_of = {d: i for i, d in enumerate(table.dates)}

    def last_close(row: int, ticker: str) -> float:
        j = table.ticker_index(ticker)
        for r in range(row, -1, -1):
            if not table.mask[r, j]:
                return float(table.adj_close[r, j])
        raise AssertionError("no observable close")

    for rec in result.days:
        marks = [shares * last_close(row_of[rec.date], t) for t, shares in rec.holdings]
        recomputed = math.fsum([rec.cash] + marks)
        assert abs(rec.value - recomputed) <= 1e-9 * max(1.0, abs(recomputed))

    flat = flat_table(12, 140, extra_tickers=("IDX",))
    flat_cfg = StrategyConfig(
        window=120, top_k=5, benchmark_ticker="IDX", nnar_epochs=50, seeds=(132,)
    )
    multi = run_multi_seed(flat_cfg, flat, market_data.compute_returns(flat))
    assert multi.strategies == backtest.STRATEGY_NAMES
    for key, res in multi.results.items():
        assert res.total_return_pct == 0.0, key
        assert np.all(res.values == flat_cfg.initial_capital), key


# ---------------------------------------------------------------------------
# 8. Byte-identical reruns and seed-independence of deterministic variants


@criterion(8, "deterministic outputs")
def test_simulate_outputs_are_deterministic(tmp_path):
    panel = random_walk_table(6, 100, seed=21, extra_tickers=("IDX",))
    prices = tmp_path / "prices.csv"
    write_long_csv(panel, prices)
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        f"""[data]
prices = {prices}
benchmark_ticker = IDX

[strategy]
window = 30
top_k = 3
seeds = 11,12
strategies = buy_hold,mst_var,mst_nnar_var

[forecast]
nnar_epochs = 25

[output]
dir = {tmp_path / "a"}
""",
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    assert (tmp_path / "a" / "values_mst_var_11.csv").read_bytes() == (
        tmp_path / "a" / "values_mst_var_12.csv"
    ).read_bytes()
    blob = json.loads((tmp_path / "a" / "summary.json").read_text(encoding="utf-8"))
    per_seed = blob["strategies"]["mst_var"]["seeds"]
    assert per_seed["11"]["total_return_pct"] == per_seed["12"]["total_return_pct"]


# ---------------------------------------------------------------------------
# 9. Central stocks recovered from a planted influence structure


@criterion(9, "hub recovery through the network")
def test_hub_tickers_dominate_selection():
    panel, hubs = hub_returns(seed=17)
    window = 120
    n_rows = len(panel.dates)
    good = 0
    total = 0
    for tau in range(window - 1, n_rows):
        win = market_data.window(panel, tau, window)
        influence = var_fevd.influence_matrix(win, 10, var_fevd.MODE_ORTHOGONALIZED)
        tree = network.prim_mst(var_fevd.to_cost(influence))
        chosen = network.select_top_k(network.degree_centrality(tree), 5)
        total += 1
        if len(set(chosen) & hubs) >= 4:
            good += 1
    assert total == 50
    assert good >= 40, f"hubs recovered in only {good}/{total} windows"


# ---------------------------------------------------------------------------
# 10. Full network construction stays tractable as the universe grows


@criterion(10, "network construction speed")
def test_network_construction_speed():
    def build(n_tickers: int, seed: int) -> float:
        panel = random_returns(n_tickers, 120, seed=seed)
        started = time.perf_counter()
        influence = var_fevd.influence_matrix(panel, 10, var_fevd.MODE_ORTHOGONALIZED)
        tree = network.prim_mst(var_fevd.to_cost(influence))
        network.select_top_k(network.degree_centrality(tree), 5)
        return time.perf_counter() - started

    small = build(100, seed=3)
    assert small < 2.0, f"N=100 took {small:.2f}s"
    large = build(490, seed=4)
    assert large < 60.0, f"N=490 took {large:.2f}s"
