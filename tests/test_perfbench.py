"""The benchmark probe wraps engine functions by name: every name must exist,
and every one but the few that only the library calls must be called."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

from mstport import backtest, cli, forecast
from synth import random_walk_table, write_long_csv

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def load_probe(monkeypatch):
    """``perfbench/probe.py`` as a module, loaded without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_every_name_the_probe_wraps_exists_and_is_callable(monkeypatch):
    probe = load_probe(monkeypatch)
    for module_name, names in probe.TRACED.items():
        module = importlib.import_module(f"mstport.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mstport.{module_name}.{name}"
    assert callable(cli.main) and callable(cli.parse_config)
    traced = {f"{module_name}.{name}" for module_name, names in probe.TRACED.items() for name in names}
    assert set(probe.KEYS) <= traced


def test_arima_fit_keeps_the_positional_grid_the_probe_keys_on():
    # The probe keys an arima_fit span on args[1:], the positional grid.
    params = list(inspect.signature(forecast.arima_fit).parameters)
    assert params == ["series", "max_p", "max_d", "max_q", "order"]


def test_a_traced_run_calls_every_wrapped_name_but_the_library_only_ones(monkeypatch, tmp_path):
    # Wrapped by ``setattr`` as the probe wraps them, each name counts the
    # calls that the engine makes through its module attribute; a name the
    # engine never calls would leave its layer's time with its caller.
    probe = load_probe(monkeypatch)
    calls: Counter[str] = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    traced = []
    for module_name, names in probe.TRACED.items():
        module = importlib.import_module(f"mstport.{module_name}")
        for name in names:
            traced.append(f"{module_name}.{name}")
            monkeypatch.setattr(module, name, counting(traced[-1], getattr(module, name)))
    prices = tmp_path / "prices.csv"
    write_long_csv(random_walk_table(6, 60, seed=5, extra_tickers=("IDX",)), prices)
    config = tmp_path / "run.ini"
    config.write_text(
        f"[data]\nprices = {prices}\nformat = long\nbenchmark_ticker = IDX\n\n"
        f"[strategy]\nwindow = 30\ntop_k = 3\nrebalance_every = 5\nstrategies = {','.join(backtest.STRATEGY_NAMES)}\n\n"
        "[forecast]\nnnar_epochs = 5\n",
        encoding="utf-8",
    )
    assert len(backtest.STRATEGY_NAMES) == 11
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
    assert cli.main(["network", "--config", str(config), "--out", str(tmp_path / "net")]) == 0
    never = {name for name in traced if calls[name] == 0}
    assert never == {"network.prim_mst", "forecast.nnar_fit", "backtest.run_simulation"}
