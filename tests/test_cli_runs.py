"""Whole command-line runs on the benchmark's panel generator: a full
``simulate`` whose values files are the library's day records, subset and
lone-strategy runs that write the full run's bytes, and ``network`` on
windows of two pair blocks.

``perfbench/panel.py`` is loaded read-only, so each panel here is the
kind the benchmark runs, and each config names ``prices.csv`` and ``out``
relative to its run directory.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

from mstport import backtest, var_fevd
from mstport.cli import main

PANEL_PY = Path(__file__).resolve().parents[1] / "perfbench" / "panel.py"

# Both schedule rules, and two weightings of the rebalancing one.
STRATEGY = {
    "window": "40",
    "top_k": "3",
    "rebalance_every": "10",
    "seeds": "1,2",
    "strategies": "buy_hold,mst_var,mst_sharpe,mst_arima_var,mst_nnar_var,mst_allagree_var,fixed,dynamic_var",
}


@pytest.fixture(scope="module")
def panel():
    """``perfbench/panel.py`` as a module, loaded without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_panel", PANEL_PY)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.setitem(sys.modules, spec.name, module)  # where @dataclass looks for it
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def full_run(panel, tmp_path_factory):
    """The run directory of one ``simulate`` of every strategy in ``STRATEGY``, and its
    ``run_multi_seed`` arguments and result."""
    run = tmp_path_factory.mktemp("run")
    panel.write_panel(panel.PanelSpec(n_tickers=12, n_days=100), 3, run / "prices.csv")
    panel.write_config(run / "run.ini", "long", STRATEGY)
    calls = []
    run_multi_seed = backtest.run_multi_seed

    def recorded(*args, **kwargs):
        calls.append((args, run_multi_seed(*args, **kwargs)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(run)
        patch.setattr(backtest, "run_multi_seed", recorded)
        assert main(["simulate", "--config", "run.ini"]) == 0
    ((args, summary),) = calls
    return run, args, summary


def test_each_values_file_is_its_runs_day_records(full_run):
    # The day loop keeps no records; reading them replays it.  After its
    # initial-capital row a file is each record's date and repr of its
    # value.  buy_hold keeps no records: its file is its lone run's path.
    run, (cfg, table, returns), summary = full_run
    assert len(summary.results) == 8 * 2
    for (name, seed), result in summary.results.items():
        with open(run / "out" / f"values_{name}_{seed}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if name == backtest.BENCHMARK_STRATEGY:
            lone = backtest.run_simulation(backtest.make_strategy(cfg, name), table, returns, seed=seed)
            want = [[day.isoformat(), repr(value)] for day, value in zip(lone.dates, lone.values.tolist())]
        else:
            rows = rows[1:]
            want = [[day.date.isoformat(), repr(day.value)] for day in result.days]
        assert want and rows == want, (name, seed)


@pytest.mark.parametrize("strategies", ["mst_sharpe,mst_allagree_var,fixed", "fixed", "dynamic_var"])
def test_a_strategy_subset_writes_the_full_runs_bytes(full_run, monkeypatch, strategies):
    # A subset's plans are built for its strategies alone; fixed and
    # dynamic_var share the plan of the schedule that holds its first
    # selection, and each alone still gets the full run's bytes.
    run, _, _ = full_run
    monkeypatch.chdir(run)
    out = f"only_{strategies.replace(',', '_')}"
    assert main(["simulate", "--config", "run.ini", "--strategies", strategies, "--out", out]) == 0
    written = sorted(p.name for p in (run / out).glob("values_*.csv"))
    assert written == sorted(f"values_{name}_{seed}.csv" for name in strategies.split(",") for seed in (1, 2))
    for name in written:
        assert (run / out / name).read_bytes() == (run / "out" / name).read_bytes(), name


def test_network_on_windows_of_two_pair_blocks_writes_each_pair_once(panel, tmp_path, monkeypatch):
    # 100 tickers make 4,950 pairs, more than one block holds.
    assert var_fevd.PAIR_BLOCK < 4950 <= 2 * var_fevd.PAIR_BLOCK
    monkeypatch.chdir(tmp_path)
    panel.write_panel(panel.PanelSpec(n_tickers=100, n_days=60), 3, tmp_path / "prices.csv")
    panel.write_config(tmp_path / "run.ini", "long", {"window": "40", "rebalance_every": "5"})
    runs = []
    for out in ("net", "net2"):
        assert main(["network", "--config", "run.ini", "--out", out]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted((tmp_path / out).iterdir())})
    assert runs[0] == runs[1]
    text = runs[0]["costs.csv"].decode("utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    per_window = Counter(row[0] for row in rows[1:])
    assert len(per_window) == 4 and set(per_window.values()) == {4950}
    assert sorted(runs[0]) == ["costs.csv", *sorted(f"mst_{day}.dot" for day in per_window)]
    # costs.csv is the bytes csv.writer writes for the rows csv.reader reads
    # back (compared as a bool: pytest's diff of 1.5 MB of text takes minutes).
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    rewritten = buf.getvalue() == text
    assert rewritten, "costs.csv is not the bytes csv.writer writes"
