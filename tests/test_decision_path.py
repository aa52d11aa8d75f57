"""The shared decision path: multi-strategy runs equal independent runs, and
each window's network and each forecast is computed once per run."""

from __future__ import annotations

import dataclasses
import gc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import reference_prim
from mstport import allocation, backtest, forecast, market_data, network, var_fevd
from mstport.backtest import (
    BENCHMARK_STRATEGY,
    FORECASTER_ARIMA,
    FORECASTER_NNAR,
    FORECASTER_NONE,
    STRATEGY_NAMES,
    Decision,
    DecisionPath,
    StrategyConfig,
    make_strategy,
    run_multi_seed,
    run_simulation,
)
from mstport.errors import DataError, EstimationError
from mstport.forecast import NNAR_CHUNK
from synth import random_walk_table, with_flat_rows, with_flat_start, with_masked

# The backtest tests' panel, shortened and with shorter NNAR training: the
# equivalence tests re-run every strategy and seed on its own.
PANEL = random_walk_table(8, 110, seed=41, extra_tickers=("IDX",))
RETURNS = market_data.compute_returns(PANEL)
BASE = StrategyConfig(window=60, top_k=3, seeds=(132,), benchmark_ticker="IDX", nnar_epochs=20)
SEEDS = (7, 8)
NNAR_STRATEGIES = ("mst_nnar_var", "mst_nnar_sharpe", "mst_allagree_var", "mst_allagree_sharpe")
# A schedule rebalances or holds its first selection.
RULES = (True, False)


def assert_matches_independent_runs(cfg: StrategyConfig, prices) -> dict:
    returns = market_data.compute_returns(prices)
    multi = run_multi_seed(replace(cfg, seeds=SEEDS), prices, returns)
    for name in STRATEGY_NAMES:
        for seed in SEEDS:
            got = multi.results[(name, seed)]
            want = run_simulation(make_strategy(cfg, name), prices, returns, seed=seed)
            assert got.seed == want.seed == seed
            assert np.array_equal(got.values, want.values), (name, seed)
            assert got.trade_count == want.trade_count, (name, seed)
            assert got.warnings == want.warnings, (name, seed)
            assert got.days == want.days, (name, seed)
    return multi.results


def test_shared_path_matches_independent_runs():
    assert_matches_independent_runs(BASE, PANEL)


def test_shared_path_reproduces_network_unavailable_warnings():
    results = assert_matches_independent_runs(BASE, with_flat_start(PANEL, 66))
    for name in STRATEGY_NAMES:
        if name == BENCHMARK_STRATEGY:
            continue
        warned = [w for w in results[(name, SEEDS[0])].warnings if w.startswith("network unavailable")]
        assert warned, name


def test_shared_path_matches_independent_runs_with_sparse_rebalancing():
    assert_matches_independent_runs(replace(BASE, rebalance_every=7), PANEL)


def test_each_window_network_and_forecast_is_computed_once(monkeypatch):
    windows = Counter()
    nnar_fits = Counter()
    nnar_batches = []
    stacks = []
    arima_fits = Counter()
    influence_matrix, nnar_fit_batch, train_stack, arima_fit = (
        var_fevd.influence_matrix,
        forecast.nnar_fit_batch,
        forecast._train_stack,
        forecast.arima_fit,
    )

    def counted_influence(win, *args, **kwargs):
        windows[win.dates[-1]] += 1
        return influence_matrix(win, *args, **kwargs)

    def counted_nnar(series, seeds, *args, **kwargs):
        nnar_batches.append(len(series))
        nnar_fits.update((s.tobytes(), seed) for s, seed in zip(series, seeds))
        return nnar_fit_batch(series, seeds, *args, **kwargs)

    def counted_stack(x, *args):
        stacks.append(len(x))
        return train_stack(x, *args)

    def counted_arima(series, *args, **kwargs):
        arima_fits[series.tobytes()] += 1
        return arima_fit(series, *args, **kwargs)

    monkeypatch.setattr(var_fevd, "influence_matrix", counted_influence)
    monkeypatch.setattr(forecast, "nnar_fit_batch", counted_nnar)
    monkeypatch.setattr(forecast, "_train_stack", counted_stack)
    monkeypatch.setattr(forecast, "arima_fit", counted_arima)
    multi = run_multi_seed(replace(BASE, seeds=SEEDS), PANEL, RETURNS)

    w = BASE.window
    asked = {RETURNS.dates[tau] for tau in range(w - 1, len(RETURNS.dates) - 1)}
    assert windows == Counter({end: 1 for end in asked})
    nnar_tasks = {
        (ticker, rec.date, seed)
        for name in NNAR_STRATEGIES
        for seed in SEEDS
        for rec in multi.results[(name, seed)].days
        for ticker in rec.selection
    }
    assert sum(nnar_fits.values()) == len(nnar_tasks) == len(SEEDS) * len(asked) * BASE.top_k
    assert set(nnar_fits.values()) == {1}
    # One call per (forecaster, schedule rule), which nnar_fit_batch trains
    # in stacks of at most NNAR_CHUNK.
    rows = [backtest._VARIANTS[name] for name in NNAR_STRATEGIES]
    assert len(nnar_batches) == len({(row.forecaster, row.rebalances) for row in rows}) == 1
    assert len(nnar_tasks) > NNAR_CHUNK
    assert max(stacks) == NNAR_CHUNK
    arima_tasks = {
        (ticker, rec.date)
        for name in ("mst_arima_var", "mst_arima_sharpe")
        for rec in multi.results[(name, SEEDS[0])].days
        for ticker in rec.selection
    }
    assert sum(arima_fits.values()) == len(arima_tasks)
    assert set(arima_fits.values()) == {1}


def test_each_mode_plan_and_raw_weights_are_built_once(monkeypatch):
    grids, gathers, weighed = [], [], Counter()
    last_known, sliding_window_view, raw_weights = (
        market_data.last_known,
        backtest.sliding_window_view,
        allocation.raw_weights,
    )

    def counted_last_known(values, mask):
        if np.ndim(values) == 2:  # the benchmark's own call is on its one series
            grids.append(values.shape)
        return last_known(values, mask)

    def counted_gather(returns, window, **kwargs):
        gathers.append(window)
        return sliding_window_view(returns, window, **kwargs)

    def counted_raws(weighting, windows, clean, **kwargs):
        weighed[(weighting, windows.tobytes(), clean.tobytes())] += 1
        return raw_weights(weighting, windows, clean, **kwargs)

    monkeypatch.setattr(market_data, "last_known", counted_last_known)
    monkeypatch.setattr(backtest, "sliding_window_view", counted_gather)
    monkeypatch.setattr(allocation, "raw_weights", counted_raws)
    multi = run_multi_seed(replace(BASE, seeds=SEEDS), PANEL, RETURNS)

    assert len(grids) == 1
    rows = [backtest._VARIANTS[name] for name in STRATEGY_NAMES if name != BENCHMARK_STRATEGY]
    rules = {row.rebalances for row in rows}
    assert len(gathers) == len(rules) == 2  # one gather per plan
    assert all(clean for _, _, clean in weighed)  # every rule trades
    pairs = {(row.weighting or BASE.fixed_weighting, row.rebalances) for row in rows}
    assert len(weighed) == len(pairs) == 3
    assert set(weighed.values()) == {1}
    # Reading the day records replays the loops on the kept plans.
    assert all(res.days for (name, _), res in multi.results.items() if name != BENCHMARK_STRATEGY)
    assert (len(grids), len(gathers), sum(weighed.values())) == (1, 2, 3)


@pytest.mark.parametrize("fixed_weighting", ["var", "sharpe"])
def test_fixed_and_dynamic_var_read_one_plan_and_part_after_the_first_trade(monkeypatch, fixed_weighting):
    # A flat start opens both schedules with days in cash before the first selection.
    prices = with_flat_start(PANEL, 66)
    read = {}
    simulate = backtest._simulate

    def recorded_simulate(cfg, plan, seed):
        read[cfg.name] = plan
        return simulate(cfg, plan, seed)

    monkeypatch.setattr(backtest, "_simulate", recorded_simulate)
    cfg = replace(BASE, fixed_weighting=fixed_weighting)
    multi = run_multi_seed(cfg, prices, market_data.compute_returns(prices))

    assert read["fixed"] is read["dynamic_var"]
    assert len({id(plan) for plan in read.values()}) == 2
    fixed, dynamic = (multi.results[name, BASE.seeds[0]].days for name in ("fixed", "dynamic_var"))
    first = next(i for i, day in enumerate(dynamic) if day.selection)
    assert first > 0
    assert fixed[:first] == dynamic[:first]
    if fixed_weighting == "var":
        assert fixed[first] == dynamic[first]
    else:
        assert (fixed[first].date, fixed[first].signal, fixed[first].selection) == (
            dynamic[first].date,
            dynamic[first].signal,
            dynamic[first].selection,
        )
        assert fixed[first].weights.tickers == dynamic[first].weights.tickers
        assert fixed[first].weights != dynamic[first].weights
    for day, other in zip(fixed[first + 1 :], dynamic[first + 1 :]):
        assert (day.signal, day.weights, day.holdings) == (0, backtest.EMPTY_WEIGHTS, fixed[first].holdings)
        assert day.selection == other.selection == dynamic[first].selection
        assert other.signal != 0 and other.weights != backtest.EMPTY_WEIGHTS
    assert multi.results["fixed", BASE.seeds[0]].trade_count == 1


@pytest.mark.parametrize("fixed_weighting", ["var", "sharpe"])
def test_a_weighting_only_fixed_reads_is_weighed_on_its_first_trading_day(monkeypatch, fixed_weighting):
    # Days in cash come first, so the first trading day is not the first day.
    prices = with_flat_start(PANEL, 66)
    returns = market_data.compute_returns(prices)
    cfg = replace(BASE, fixed_weighting=fixed_weighting)
    full = run_multi_seed(cfg, prices, returns)
    dynamic = full.results["dynamic_var", BASE.seeds[0]].days
    rows = sum(len(day.selection) for day in dynamic)  # one weight row per held stock and day
    assert rows > BASE.top_k
    weighed = []
    raw_weights = allocation.raw_weights

    def counted_raws(weighting, windows, clean, **kwargs):
        weighed.append((weighting, len(clean)))
        return raw_weights(weighting, windows, clean, **kwargs)

    monkeypatch.setattr(allocation, "raw_weights", counted_raws)
    lone = run_multi_seed(cfg, prices, returns, ("fixed",))
    assert weighed == [(fixed_weighting, BASE.top_k)]
    weighed.clear()
    pair = run_multi_seed(cfg, prices, returns, ("fixed", "dynamic_var"))
    if fixed_weighting == "var":
        assert weighed == [("var", rows)]
    else:
        assert sorted(weighed) == [("sharpe", BASE.top_k), ("var", rows)]
    for multi in (lone, pair):
        for (name, seed), res in multi.results.items():
            want = full.results[name, seed]
            assert res.values.tobytes() == want.values.tobytes()
            assert (res.days, res.warnings, res.trade_count) == (want.days, want.warnings, want.trade_count)


def recorded_paths(monkeypatch) -> list:
    """A weak reference to every ``DecisionPath`` a run builds from here on."""
    refs = []

    class Recorded(DecisionPath):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(backtest, "DecisionPath", Recorded)
    return refs


def test_a_finished_run_frees_its_path_and_replays_from_its_plans(monkeypatch):
    refs = recorded_paths(monkeypatch)
    multi = run_multi_seed(replace(BASE, seeds=SEEDS), PANEL, RETURNS)
    days = {key: res.days for key, res in multi.results.items()}
    gc.collect()
    [path] = refs
    assert path() is None
    for (name, seed), res in multi.results.items():
        if name != BENCHMARK_STRATEGY:
            # An uncached replay reruns the day loop on the kept plan alone.
            assert days[name, seed] and res.replay.__wrapped__() == days[name, seed], (name, seed)


def arrays(obj):
    """Every numpy array inside ``obj``, through tuples, lists and dict values."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from arrays(item)


def test_a_plan_holds_one_entry_per_weight_row_and_no_window_block():
    path = DecisionPath(replace(BASE, seeds=SEEDS), PANEL, RETURNS, STRATEGY_NAMES)
    for rebalances in RULES:
        plan = path.plan(rebalances)
        rows = sum(len(day.selection) for day in plan.schedule if day.selection is not None)
        held = [a for f in dataclasses.fields(plan) for a in arrays(getattr(plan, f.name))]
        assert held and rows != BASE.window, rebalances
        assert all(a.shape == (rows,) for a in held), (rebalances, [a.shape for a in held])


@pytest.mark.parametrize(
    "names, fixed_weighting",
    [
        (("mst_sharpe", "mst_allagree_var", "fixed"), "var"),
        (("buy_hold", "mst_arima_var", "dynamic_var"), "var"),
        (("fixed", "mst_nnar_sharpe"), "sharpe"),
    ],
)
def test_a_strategy_subset_weighs_and_fits_only_what_it_reads(monkeypatch, names, fixed_weighting):
    cfg = replace(BASE, seeds=SEEDS, fixed_weighting=fixed_weighting)
    full = run_multi_seed(cfg, PANEL, RETURNS)
    building, weighed, fitted = [], Counter(), Counter()
    plan, raw_weights, nnar_fit_batch, arima_fit = (
        DecisionPath.plan,
        allocation.raw_weights,
        forecast.nnar_fit_batch,
        forecast.arima_fit,
    )

    def tracked_plan(self, rebalances):
        building.append(rebalances)  # what is weighed or fitted from here is this rule's
        try:
            return plan(self, rebalances)
        finally:
            building.pop()

    def counted_raws(weighting, *args, **kwargs):
        weighed[weighting, building[-1]] += 1
        return raw_weights(weighting, *args, **kwargs)

    def counted_nnar(*args, **kwargs):
        fitted[FORECASTER_NNAR, building[-1]] += 1
        return nnar_fit_batch(*args, **kwargs)

    def counted_arima(*args, **kwargs):
        fitted[FORECASTER_ARIMA, building[-1]] += 1
        return arima_fit(*args, **kwargs)

    monkeypatch.setattr(DecisionPath, "plan", tracked_plan)
    monkeypatch.setattr(allocation, "raw_weights", counted_raws)
    monkeypatch.setattr(forecast, "nnar_fit_batch", counted_nnar)
    monkeypatch.setattr(forecast, "arima_fit", counted_arima)
    subset = run_multi_seed(cfg, PANEL, RETURNS, strategies=names)

    rows = [backtest._VARIANTS[name] for name in names if name != BENCHMARK_STRATEGY]
    assert weighed == Counter({(row.weighting or fixed_weighting, row.rebalances): 1 for row in rows})
    assert set(fitted) == {(row.forecaster, row.rebalances) for row in rows if row.forecaster != FORECASTER_NONE}
    assert all(fitted[key] == 1 for key in fitted if key[0] == FORECASTER_NNAR)
    # A plan built for a subset gives each strategy what the full run gives it.
    for name in names:
        for seed in SEEDS:
            got, want = subset.results[name, seed], full.results[name, seed]
            assert got.values.tobytes() == want.values.tobytes(), (name, seed)
            assert (got.warnings, got.days) == (want.warnings, want.days), (name, seed)


def test_masked_window_column_gets_a_neutral_forecast_without_a_fit(monkeypatch):
    cfg = replace(BASE, rebalance_every=1000)  # the first selection is held all run
    ticker = DecisionPath(cfg, PANEL, RETURNS, ()).plan(True).schedule[0].selection[0]
    prices = with_masked(PANEL, [(80, PANEL.ticker_index(ticker))])
    fitted = []
    nnar_fit_batch = forecast.nnar_fit_batch

    def counted_nnar(series, seeds, *args, **kwargs):
        fitted.extend(series)
        return nnar_fit_batch(series, seeds, *args, **kwargs)

    monkeypatch.setattr(forecast, "nnar_fit_batch", counted_nnar)
    path = DecisionPath(replace(cfg, seeds=SEEDS), prices, market_data.compute_returns(prices), ("mst_nnar_var",))
    j = path.returns.ticker_index(ticker)
    plan = path.plan(True)
    r_hats, signals, failures = plan.forecasts[FORECASTER_NNAR, SEEDS[0]]
    assert failures == []
    start = 0
    neutral = 0
    for day in plan.schedule:
        if path.returns.mask[day.tau - cfg.window + 1 : day.tau + 1, j].any():
            row = start + day.selection.index(ticker)
            assert (r_hats[row].tobytes(), signals[row]) == (np.float64(0.0).tobytes(), 0)
            neutral += 1
        start += len(day.selection)
    assert start == len(r_hats) == len(signals)
    assert neutral > 0
    assert fitted and all(np.isfinite(series).all() for series in fitted)


def lone_forecast(forecaster: str, cfg: StrategyConfig, series: np.ndarray, ticker: str, tau: int, seed: int):
    """``(r_hat, signal, failure)`` of one fit on ``series`` alone, as the path keeps it."""
    try:
        if forecaster == FORECASTER_ARIMA:
            model = forecast.arima_fit(series, cfg.arima_max_p, cfg.arima_max_d, cfg.arima_max_q)
            r_hat = forecast.arima_forecast(model, series)
        else:
            model = forecast.nnar_fit(
                series,
                cfg.nnar_lags,
                cfg.nnar_hidden,
                forecast.derive_seed(seed, ticker, tau),
                learning_rate=cfg.nnar_learning_rate,
                epochs=cfg.nnar_epochs,
            )
            r_hat = forecast.nnar_forecast(model, series[-cfg.nnar_lags :])
        return r_hat, forecast.to_signal(r_hat), None
    except (EstimationError, ValueError) as exc:
        return 0.0, 0, str(exc)


@pytest.mark.parametrize(
    "name, learning_rate",
    [("mst_arima_var", 0.01), ("mst_nnar_var", 0.01), ("mst_nnar_var", 1e305)],
)
def test_forecasts_line_up_with_weight_rows_and_equal_lone_fits(monkeypatch, name, learning_rate):
    # Two masked cells leave some weight rows unclean; rebalancing every
    # five days repeats a selection on several window ends.
    first = DecisionPath(BASE, PANEL, RETURNS, ()).plan(True).schedule[0].selection
    prices = with_masked(PANEL, [(80, PANEL.ticker_index(first[0])), (95, PANEL.ticker_index(first[1]))])
    cfg = replace(BASE, rebalance_every=5, nnar_learning_rate=learning_rate)
    gathered = []
    raw_weights = allocation.raw_weights

    def recorded_raws(weighting, windows, clean, **kwargs):
        gathered.append((windows.copy(), clean.copy()))
        return raw_weights(weighting, windows, clean, **kwargs)

    monkeypatch.setattr(allocation, "raw_weights", recorded_raws)
    path = DecisionPath(replace(cfg, seeds=SEEDS), prices, market_data.compute_returns(prices), (name,))
    _, forecaster, _, rebalances = backtest._VARIANTS[name]
    plan = path.plan(rebalances)
    days = [d for d in plan.schedule if d.selection is not None]
    rows = [(ticker, d.tau) for d in days for ticker in d.selection]
    [(windows, clean)] = gathered  # the one weighting's weights, and the block the forecasts read
    assert not clean.all() and clean.any()
    w = cfg.window
    strided = [path.returns.returns[tau - w + 1 : tau + 1, path.returns.ticker_index(ticker)] for ticker, tau in rows]
    # The weight rows are the strided columns' windows, bit for bit.
    assert [s.tobytes() for s, ok in zip(strided, clean) if ok] == [row.tobytes() for row in windows]
    failed = 0
    for seed in SEEDS:
        r_hats, signals, failures = plan.forecasts[forecaster, seed]
        assert r_hats.dtype == np.float64
        assert len(r_hats) == len(signals) == len(rows)
        want_failures = []
        for row, ((ticker, tau), series, ok) in enumerate(zip(rows, strided, clean)):
            r_hat, signal = 0.0, 0
            if ok:
                r_hat, signal, failure = lone_forecast(forecaster, cfg, series, ticker, tau, seed)
                if failure is not None:
                    want_failures.append(f"forecast failed for {ticker}: {failure}")
            got = (r_hats[row].tobytes(), signals[row])
            assert got == (np.float64(r_hat).tobytes(), signal), (ticker, tau, seed)
        assert failures == want_failures
        failed += len(failures)
    if forecaster == FORECASTER_ARIMA:
        assert plan.forecasts[forecaster, SEEDS[0]] is plan.forecasts[forecaster, SEEDS[1]]
    assert (failed > 0) == (learning_rate > 1.0)


# Zero returns in rows 0-32 and 60-99: at window 30 the windows ending at
# return rows 29-32 and at most of 60-99 have no estimable network, so a
# schedule opens with retry days and meets failed recomputes mid-run.
FLAT = with_flat_rows(with_flat_start(random_walk_table(8, 160, seed=43, extra_tickers=("IDX",)), 33), 60, 100)
FLAT_BASE = StrategyConfig(window=30, top_k=3, seeds=(132,), benchmark_ticker="IDX")


def recorded_stacks(monkeypatch) -> list[int]:
    """The window count of every ``prim_mst_stack`` call from here on."""
    sizes: list[int] = []
    prim_mst_stack = network.prim_mst_stack

    def recorded(tickers, symmetric):
        sizes.append(len(symmetric))
        return prim_mst_stack(tickers, symmetric)

    monkeypatch.setattr(network, "prim_mst_stack", recorded)
    return sizes


def oracle_selection(cfg: StrategyConfig, returns, tau: int) -> tuple[tuple[str, ...] | None, str | None]:
    """One window's selection or failure, its tree from the one-window loop."""
    try:
        win = market_data.window(returns, tau, cfg.window)
        costs = var_fevd.to_cost(var_fevd.influence_matrix(win, cfg.horizon, cfg.fevd_mode))
        tree = reference_prim.prim_mst(costs)
    except (EstimationError, DataError) as exc:
        return None, str(exc)
    return network.select_top_k(network.degree_centrality(tree), cfg.top_k), None


def oracle_schedule(cfg: StrategyConfig, returns, rebalances: bool) -> tuple[Decision, ...]:
    """The schedule rule, asking for one window at a time as its day comes."""
    out = []
    held = None
    for step, tau in enumerate(range(cfg.window - 1, len(returns.dates) - 1)):
        warning = None
        if held is None or (rebalances and step % cfg.rebalance_every == 0):
            picked, failure = oracle_selection(cfg, returns, tau)
            end = returns.dates[tau]
            if picked is not None:
                held = picked
            elif held is None:
                warning = f"network unavailable at {end}: {failure}; holding cash"
            else:
                warning = f"network recompute failed at {end}: {failure}"
        out.append(Decision(tau, held, warning))
    return tuple(out)


def test_unestimable_windows_inside_a_batch_keep_their_messages(monkeypatch):
    stacks = recorded_stacks(monkeypatch)
    path = DecisionPath(FLAT_BASE, FLAT, market_data.compute_returns(FLAT), ())
    path.plan(True)
    taus = range(FLAT_BASE.window - 1, len(path.returns.dates) - 1)
    batched = {tau: path.selection_at(tau) for tau in taus}
    failed = [tau for tau, (picked, _) in batched.items() if picked is None]
    # One stack of every estimable window, built before the day loop.
    assert stacks == [len(taus) - len(failed)]
    # Failures before, among and after estimable windows of the batch.
    assert failed[0] == taus[0] and failed[-1] < taus[-1]
    assert any(batched[tau][0] is not None for tau in range(failed[0], failed[-1]))
    assert all(batched[tau][1] for tau in failed)
    stacks.clear()
    lone = DecisionPath(FLAT_BASE, FLAT, market_data.compute_returns(FLAT), ())
    assert {tau: lone.selection_at(tau) for tau in taus} == batched
    assert stacks == [1] * (len(taus) - len(failed))


@pytest.mark.parametrize("rebalance_every", [1, 3])
@pytest.mark.parametrize("rebalances", RULES, ids=["rebalances", "holds"])
def test_schedules_equal_the_one_window_at_a_time_rule(rebalances, rebalance_every):
    cfg = replace(FLAT_BASE, rebalance_every=rebalance_every)
    path = DecisionPath(cfg, FLAT, market_data.compute_returns(FLAT), ())
    want = oracle_schedule(cfg, path.returns, rebalances)
    assert path.plan(rebalances).schedule == want
    assert any(d.warning and d.warning.startswith("network unavailable") for d in want)
    if rebalances:
        assert any(d.warning and d.warning.startswith("network recompute failed") for d in want)
    # Both rules from one path, the rebalancing schedule's batch first or last.
    for order in (RULES, RULES[::-1]):
        shared = DecisionPath(cfg, FLAT, market_data.compute_returns(FLAT), ())
        assert {r: shared.plan(r).schedule for r in order}[rebalances] == want


@pytest.mark.parametrize("windows_per_stack", [1, 2, 5])
def test_a_small_cell_cap_splits_the_stack_and_keeps_the_schedules(monkeypatch, windows_per_stack):
    returns = market_data.compute_returns(FLAT)
    want = {r: DecisionPath(FLAT_BASE, FLAT, returns, ()).plan(r).schedule for r in RULES}
    n = len(FLAT.tickers) - 1  # the benchmark column is stripped
    monkeypatch.setattr(backtest, "MST_CELLS", windows_per_stack * n * n + n)
    stacks = recorded_stacks(monkeypatch)
    path = DecisionPath(FLAT_BASE, FLAT, returns, ())
    assert {r: path.plan(r).schedule for r in RULES} == want
    assert len(stacks) > 1 and max(stacks) == windows_per_stack
