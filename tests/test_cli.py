"""End-to-end command-line tests: config parsing, subcommands, file outputs,
and byte-identical reruns."""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mstport
from mstport import backtest, cli, config, market_data, var_fevd
from mstport.backtest import StrategyConfig
from mstport.cli import main
from mstport.config import RunConfig, parse_config, parse_seeds, parse_strategies
from mstport.errors import ConfigError
from mstport.market_data import PriceTable, compute_returns, drop_tickers, select_tickers
from synth import (
    flat_cost_rows,
    random_walk_table,
    with_flat_rows,
    with_flat_start,
    with_masked,
    write_long_csv,
    write_wide_csv,
)

PANEL = random_walk_table(6, 100, seed=21, extra_tickers=("IDX",))


def write_panel(tmp_path: Path) -> Path:
    path = tmp_path / "prices.csv"
    write_long_csv(PANEL, path)
    return path


def write_config(
    tmp_path: Path,
    prices: Path,
    out_dir: Path,
    *,
    seeds: str = "11,12",
    strategies: str = "buy_hold,mst_var,mst_nnar_var",
    name: str = "run.ini",
    extra_data: str = "",
) -> Path:
    text = f"""[data]
prices = {prices}
format = long
benchmark_ticker = IDX
{extra_data}
[strategy]
window = 30
top_k = 3
seeds = {seeds}
strategies = {strategies}

[forecast]
nnar_epochs = 25

[output]
dir = {out_dir}
"""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Config file parsing


def test_config_round_trip_fields(tmp_path):
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "out")
    cfg = parse_config(cfg_path)
    assert cfg.prices == prices
    assert cfg.format == "long"
    assert cfg.strategy.benchmark_ticker == "IDX"
    assert cfg.strategy.window == 30
    assert cfg.strategy.top_k == 3
    assert cfg.strategy.seeds == (11, 12)
    assert cfg.strategy.nnar_epochs == 25
    assert cfg.strategies == ("buy_hold", "mst_var", "mst_nnar_var")
    assert cfg.dir == tmp_path / "out"
    assert cfg.raw_text == cfg_path.read_text(encoding="utf-8")


def test_config_rejects_unknown_keys_and_sections(tmp_path):
    prices = write_panel(tmp_path)
    bad = write_config(
        tmp_path, prices, tmp_path / "out", name="bad.ini", extra_data="lookahead = 1\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "data.lookahead: unknown key" in str(err.value)

    odd = tmp_path / "odd.ini"
    odd.write_text(f"[data]\nprices = {prices}\n\n[plotting]\nstyle = dark\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(odd)
    assert "plotting: unknown section" in str(err.value)


def test_config_rejects_the_removed_fee_bps_key(tmp_path):
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "out")
    text = cfg_path.read_text(encoding="utf-8").replace("[strategy]\n", "[strategy]\nfee_bps = 0\n")
    cfg_path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path)
    assert "strategy.fee_bps: unknown key" in str(err.value)


def test_a_config_with_the_removed_min_var_history_key_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, write_panel(tmp_path), tmp_path / "out")
    text = cfg_path.read_text(encoding="utf-8").replace("[strategy]\n", "[strategy]\nmin_var_history = 60\n")
    cfg_path.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: strategy.min_var_history: unknown key\n"
    assert not (tmp_path / "out").exists()


def test_an_nnar_lag_count_too_long_for_the_window_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # window 30 is too short for 15 NNAR lags, and long enough for the rest.
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, write_panel(tmp_path), out, strategies="mst_var,mst_arima_var,mst_nnar_var")
    text = cfg_path.read_text(encoding="utf-8").replace("[forecast]\n", "[forecast]\nnnar_lags = 15\n")
    cfg_path.write_text(text, encoding="utf-8")

    def not_reached(*args, **kwargs):
        raise AssertionError("the run started")

    with monkeypatch.context() as patch:
        patch.setattr(market_data, "load_prices", not_reached)
        patch.setattr(backtest, "_simulate", not_reached)
        assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: strategy: window too short for the configured NNAR lag count\n"
    assert not out.exists()
    # Without an NNAR strategy the same config runs.
    assert main(["simulate", "--config", str(cfg_path), "--strategies", "mst_var,mst_arima_var"]) == 0
    assert (out / "values_mst_arima_var_11.csv").exists()


def test_fixed_weighting_sets_the_base_weighting_that_fixed_reads(tmp_path):
    cfg_path = write_config(tmp_path, write_panel(tmp_path), tmp_path / "out", strategies="mst_var,fixed")
    text = cfg_path.read_text(encoding="utf-8").replace("[strategy]\n", "[strategy]\nfixed_weighting = sharpe\n")
    cfg_path.write_text(text, encoding="utf-8")
    cfg = parse_config(cfg_path)
    assert cfg.strategy.fixed_weighting == "sharpe"
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    returns = compute_returns(PANEL)
    fixed = backtest.make_strategy(cfg.strategy, "fixed")
    at_var = backtest.run_simulation(replace(fixed, fixed_weighting="var"), PANEL, returns)
    for seed in cfg.strategy.seeds:
        lone = backtest.run_simulation(fixed, PANEL, returns, seed=seed)
        assert (tmp_path / "out" / f"values_fixed_{seed}.csv").read_bytes() == oracle_values_csv(lone)
        # the weighting reaches the run: fixed at var weights holds other values
        assert not np.array_equal(lone.values, at_var.values)


def test_config_requires_prices_path(tmp_path):
    empty = tmp_path / "empty.ini"
    empty.write_text("[strategy]\nwindow = 60\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(empty)
    assert "data.prices: required path is missing" in str(err.value)


def test_config_reports_missing_files_by_field(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[data]\nprices = nowhere.csv\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path)
    assert "data.prices: file not found" in str(err.value)


@pytest.mark.parametrize("command", ["ingest", "report"])
def test_a_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, command):
    cfg_path = tmp_path / "latin.ini"
    cfg_path.write_bytes(b"[data]\nprices = p\xe9.csv\n")
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot decode config {cfg_path}: ") and err.count("\n") == 1


def test_a_byte_order_mark_leaves_a_config_as_it_is(tmp_path):
    plain = write_config(tmp_path, write_panel(tmp_path), tmp_path / "out")
    marked = tmp_path / "marked.ini"
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    cfg = parse_config(marked)
    assert cfg == parse_config(plain)
    assert cfg.raw_text == plain.read_text(encoding="utf-8")


CONFIG_ERRORS = {
    "unreadable": "error: cannot read config ",
    "syntax": "error: config syntax error: ",
    "report without a dir": "error: report needs --out or a config with an output dir\n",
    "format csv": "error: data.format: expected long or wide, got 'csv'\n",
    "max_missing_frac 1.5": "error: data.max_missing_frac: must lie in [0, 1]\n",
    "nnar_epochs -1": "error: strategy: nnar_epochs must be at least 0\n",
    "initial_capital inf": "error: strategy: initial_capital must be finite and positive\n",
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_a_config_error_exits_2_with_its_message(tmp_path, capsys, case):
    cfg_path = write_config(tmp_path, write_panel(tmp_path), tmp_path / "out")
    text = cfg_path.read_text(encoding="utf-8")
    argv = ["ingest", "--config", str(cfg_path)]
    if case == "unreadable":
        argv[-1] = str(tmp_path / "missing.ini")
    elif case == "syntax":
        cfg_path.write_text(text + "[data]\n", encoding="utf-8")
    elif case == "report without a dir":
        argv = ["report"]
    elif case == "format csv":
        cfg_path.write_text(text.replace("format = long", "format = csv"), encoding="utf-8")
    elif case == "nnar_epochs -1":
        argv[0] = "simulate"
        cfg_path.write_text(text.replace("nnar_epochs = 25", "nnar_epochs = -1"), encoding="utf-8")
    elif case == "initial_capital inf":
        argv[0] = "simulate"
        cfg_path.write_text(text.replace("[strategy]\n", "[strategy]\ninitial_capital = inf\n"), encoding="utf-8")
    else:
        cfg_path.write_text(text.replace("[data]\n", "[data]\nmax_missing_frac = 1.5\n"), encoding="utf-8")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(CONFIG_ERRORS[case]) and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


BUY_HOLD_NEEDS_TICKER = "error: buy_hold strategy requires benchmark_ticker present in the data\n"


def test_config_buy_hold_needs_benchmark_ticker(tmp_path, capsys):
    # The config reads; the engine's buy_hold check rejects the run before
    # anything is written.
    prices = write_panel(tmp_path)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        f"[data]\nprices = {prices}\n\n[strategy]\nwindow = 30\nstrategies = buy_hold\n", encoding="utf-8"
    )
    assert parse_config(cfg_path).strategies == ("buy_hold",)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == BUY_HOLD_NEEDS_TICKER
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "prices.csv"]


def test_config_strategy_problems_are_field_qualified(tmp_path):
    prices = write_panel(tmp_path)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        f"[data]\nprices = {prices}\n\n[strategy]\nwindow = 10\nstrategies = mst_var\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path)
    assert "strategy: window must be at least 30" in str(err.value)


def test_parse_seeds_forms():
    assert parse_seeds("132") == (132,)
    assert parse_seeds("99,103,124") == (99, 103, 124)
    assert parse_seeds("99..108") == tuple(range(99, 109))
    with pytest.raises(ValueError):
        parse_seeds("108..99")
    with pytest.raises(ValueError):
        parse_seeds("")
    with pytest.raises(ValueError):
        parse_strategies("momentum")
    assert parse_strategies("mst_var, buy_hold") == ("mst_var", "buy_hold")


# Every config key: a non-default value as written in the file, and that
# value as parsed into the field of the key's name.
ROUND_TRIP = {
    "prices": ("other.csv", Path("other.csv")),
    "format": ("wide", "wide"),
    "benchmark_ticker": ("SPX", "SPX"),
    "benchmark_prices": ("other.csv", Path("other.csv")),
    "sectors": ("other.csv", Path("other.csv")),
    "max_missing_frac": ("0.25", 0.25),
    "window": ("60", 60),
    "horizon": ("4", 4),
    "top_k": ("2", 2),
    "alpha": ("0.1", 0.1),
    "initial_capital": ("5000", 5000.0),
    "risk_free": ("0.001", 0.001),
    "seeds": ("3..5", (3, 4, 5)),
    "strategies": ("mst_var, fixed", ("mst_var", "fixed")),
    "rebalance_every": ("3", 3),
    "use_open_prices": ("off", False),
    "fevd_mode": ("as_written", "as_written"),
    "fixed_weighting": ("sharpe", "sharpe"),
    "nnar_lags": ("4", 4),
    "nnar_hidden": ("2", 2),
    "nnar_learning_rate": ("0.05", 0.05),
    "nnar_epochs": ("50", 50),
    "arima_max_p": ("1", 1),
    "arima_max_d": ("0", 0),
    "arima_max_q": ("1", 1),
    "dir": ("elsewhere", Path("elsewhere")),
}


STRATEGY_FIELDS = {f.name for f in fields(StrategyConfig)}


def field_of(cfg: RunConfig, key: str):
    """The value of setting ``key``: its field of the same name, on ``cfg.strategy`` where it has one."""
    return getattr(cfg.strategy if key in STRATEGY_FIELDS else cfg, key)


def write_ini(tmp_path: Path, prices: Path, key: str | None = None, raw: str = "") -> Path:
    """A minimal valid config (prices and the benchmark ticker), plus ``key = raw``."""
    sections = {"data": {"prices": str(prices), "benchmark_ticker": "IDX"}}
    if key is not None:
        sections.setdefault(config._KEYS[key][0], {})[key] = raw
    path = tmp_path / "run.ini"
    path.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            for name, items in sections.items()
        ),
        encoding="utf-8",
    )
    return path


def test_config_defaults_come_from_the_dataclasses(tmp_path):
    prices = write_panel(tmp_path)
    only_prices = tmp_path / "only.ini"
    only_prices.write_text(f"[data]\nprices = {prices}\n", encoding="utf-8")
    assert parse_config(only_prices) == RunConfig(
        prices=prices,
        raw_text=only_prices.read_text(encoding="utf-8"),
    )
    cfg_path = write_ini(tmp_path, prices)
    assert parse_config(cfg_path) == RunConfig(
        prices=prices,
        strategy=StrategyConfig(benchmark_ticker="IDX"),
        raw_text=cfg_path.read_text(encoding="utf-8"),
    )


@pytest.mark.parametrize("key", sorted(ROUND_TRIP))
def test_config_key_round_trip(tmp_path, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    prices = write_panel(tmp_path)
    (tmp_path / "other.csv").write_text("", encoding="utf-8")
    raw, expected = ROUND_TRIP[key]
    assert field_of(parse_config(write_ini(tmp_path, prices)), key) != expected
    assert field_of(parse_config(write_ini(tmp_path, prices, key, raw)), key) == expected


@pytest.mark.parametrize(
    "key, raw, message",
    [
        ("window", "abc", "strategy.window: invalid literal for int() with base 10: 'abc'"),
        ("alpha", "low", "strategy.alpha: could not convert string to float: 'low'"),
        ("use_open_prices", "maybe", "strategy.use_open_prices: expected a boolean, got 'maybe'"),
        ("seeds", "5..3", "strategy.seeds: seed range upper bound below lower bound"),
        ("strategies", "momentum", "strategy.strategies: unknown strategies: momentum"),
        ("seeds", "132,132", "strategy.seeds: repeated seeds: 132"),
        ("strategies", "mst_var,mst_var,buy_hold", "strategy.strategies: repeated strategies: mst_var"),
        ("rebalance_every", "0", "strategy: rebalance_every must be at least 1"),
        ("nnar_lags", "0", "strategy: nnar_lags must be at least 1"),
        ("nnar_hidden", "0", "strategy: nnar_hidden must be at least 1"),
        ("nnar_epochs", "-1", "strategy: nnar_epochs must be at least 0"),
        ("nnar_learning_rate", "0", "strategy: nnar_learning_rate must be finite and positive"),
        ("nnar_learning_rate", "inf", "strategy: nnar_learning_rate must be finite and positive"),
        ("arima_max_p", "-1", "strategy: arima_max_p must be at least 0"),
        ("arima_max_q", "-1", "strategy: arima_max_q must be at least 0"),
        ("arima_max_d", "2", "strategy: arima_max_d must be 0 or 1"),
        ("initial_capital", "inf", "strategy: initial_capital must be finite and positive"),
        ("initial_capital", "nan", "strategy: initial_capital must be finite and positive"),
        ("risk_free", "inf", "strategy: risk_free must be finite"),
        ("risk_free", "nan", "strategy: risk_free must be finite"),
        ("fixed_weighting", "equal", "strategy: unknown weighting 'equal'"),
    ],
)
def test_config_bad_value_names_its_key(tmp_path, key, raw, message):
    prices = write_panel(tmp_path)
    with pytest.raises(ConfigError) as err:
        parse_config(write_ini(tmp_path, prices, key, raw))
    assert err.value.problems == (message,)


def readme_config_lines() -> list[tuple[str, str, str, str]]:
    """(section, key, value, comment) for each key line of README's ``ini`` block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    lines, section = [], ""
    for line in block.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            key, rest = line.split("=", 1)
            value, _, comment = rest.partition(";")
            lines.append((section, key.strip(), value.strip(), comment))
    return lines


def test_readme_config_block_lists_every_key_with_its_default(tmp_path):
    lines = readme_config_lines()
    assert sorted((s, k) for s, k, _, _ in lines) == sorted(
        (section, key) for key, (section, _) in config._KEYS.items()
    )
    assert set(ROUND_TRIP) == set(config._KEYS)
    prices = write_panel(tmp_path)
    defaults = parse_config(write_ini(tmp_path, prices))
    for _, key, value, comment in lines:
        if "optional" in comment or "required" in comment or value == "...":
            continue
        assert field_of(parse_config(write_ini(tmp_path, prices, key, value)), key) == field_of(
            defaults, key
        ), key


# ---------------------------------------------------------------------------
# Subcommands


def test_ingest_prints_panel_statistics(tmp_path, capsys):
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "dates: 100" in out
    assert "tickers kept" in out
    assert "return rows: 99" in out
    assert "benchmark series: present" in out


def test_ingest_prints_one_panel_for_a_plain_a_quoted_crlf_and_a_marked_file(tmp_path, capsys):
    # The loader splits a plain file column-wise and reads a quoted or CRLF
    # one through csv.reader; a UTF-8 byte-order mark is dropped.
    plain = write_panel(tmp_path).read_text(encoding="utf-8").replace("\r\n", "\n")
    quoted = plain.replace(",S01,", ',"S01",').replace("\n", "\r\n")
    assert '"S01"' in quoted
    printed = []
    for name, data in (
        ("plain", plain.encode("utf-8")),
        ("quoted", quoted.encode("utf-8")),
        ("marked", codecs.BOM_UTF8 + plain.encode("utf-8")),
    ):
        prices = tmp_path / f"{name}.csv"
        prices.write_bytes(data)
        assert main(["ingest", "--config", str(write_config(tmp_path, prices, tmp_path / "out"))]) == 0
        printed.append(capsys.readouterr())
    assert printed[0].out.startswith("dates: 100 (") and printed[0].err == ""
    assert printed[1] == printed[0] and printed[2] == printed[0]


def test_a_price_cell_past_the_csv_field_limit_exits_2(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    prices.write_text("date,AAA\n2021-01-04," + "1" * 200_000 + "\n", encoding="utf-8")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(f"[data]\nprices = {prices}\nformat = wide\n", encoding="utf-8")
    assert main(["ingest", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot parse {prices}: field larger than field limit")


@pytest.mark.parametrize("key", ["prices", "benchmark_prices", "sectors"])
def test_an_input_path_too_long_to_stat_exits_2(tmp_path, capsys, key):
    cfg_path = write_ini(tmp_path, write_panel(tmp_path), key, str(tmp_path / ("x" * 300 + ".csv")))
    assert main(["ingest", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"data.{key}: file not found" in err
    assert "Traceback" not in err


def test_a_wide_file_whose_opens_name_is_too_long_loads_without_opens(tmp_path, capsys):
    # The opens sibling's name, "<stem>.open.csv", is past the 255-byte limit.
    prices = tmp_path / ("p" * 248 + ".csv")
    write_wide_csv(random_walk_table(6, 100, seed=21, with_opens=False, extra_tickers=("IDX",)), prices)
    cfg_path = write_ini(tmp_path, prices, "format", "wide")
    assert main(["ingest", "--config", str(cfg_path)]) == 0
    assert "opens present: False" in capsys.readouterr().out


def test_network_writes_trees_and_costs(tmp_path):
    prices = write_panel(tmp_path)
    out_dir = tmp_path / "net"
    cfg_path = write_config(tmp_path, prices, out_dir)
    code = main(["network", "--config", str(cfg_path), "--rebalance-every", "30"])
    assert code == 0
    dots = sorted(out_dir.glob("mst_*.dot"))
    assert len(dots) == 3  # return rows 29, 59, 89 of 99
    for dot in dots:
        text = dot.read_text(encoding="utf-8")
        assert " -- " in text and text.rstrip().endswith("}")
    with open(out_dir / "costs.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["window_end", "ticker_i", "ticker_j", "cost"]
    assert len(rows) - 1 == 3 * 15  # three windows of C(6, 2) pairs
    stamps = {row[0] for row in rows[1:]}
    assert len(stamps) == 3
    for row in rows[1:]:
        assert 0.0 <= float(row[3]) <= 1.0


def test_network_skips_unestimable_windows(tmp_path, capsys):
    # Prices are flat through row 40, so the window ending at return row 29
    # has no estimable pair; the ones ending at rows 59 and 89 do.
    prices = tmp_path / "prices.csv"
    write_long_csv(with_flat_start(PANEL, 40), prices)
    out_dir = tmp_path / "net"
    cfg_path = write_config(tmp_path, prices, out_dir)
    assert main(["network", "--config", str(cfg_path), "--rebalance-every", "30"]) == 0
    flat_end = PANEL.dates[30].isoformat()  # return row 29 ends on price row 30
    err = capsys.readouterr().err
    assert err.startswith("warning:") and flat_end in err
    dots = sorted(p.name for p in out_dir.glob("mst_*.dot"))
    assert dots == [f"mst_{PANEL.dates[r].isoformat()}.dot" for r in (60, 90)]
    with open(out_dir / "costs.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert {row[0] for row in rows[1:]} == {PANEL.dates[60].isoformat(), PANEL.dates[90].isoformat()}
    assert len(rows) - 1 == 2 * 15


def test_network_files_do_not_depend_on_the_tree_stack_size(tmp_path, capsys, monkeypatch):
    # Flat prices through row 40 and again over rows 60-95: unestimable
    # windows before and among estimable ones, every window rebuilt.
    prices = tmp_path / "prices.csv"
    write_long_csv(with_flat_rows(with_flat_start(PANEL, 40), 60, 95), prices)
    outputs = []
    for cells in (backtest.MST_CELLS, 1):  # one stack, then one window per stack
        monkeypatch.setattr(backtest, "MST_CELLS", cells)
        out_dir = tmp_path / f"net{cells}"
        cfg_path = write_config(tmp_path, prices, out_dir)
        assert main(["network", "--config", str(cfg_path), "--rebalance-every", "1"]) == 0
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        outputs.append((captured.out.replace(str(out_dir), "OUT"), captured.err, files))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count("warning: skipped window") > 0 and len(outputs[0][2]) > 2


def test_network_and_simulate_files_do_not_depend_on_the_pair_block_size(tmp_path, capsys, monkeypatch):
    # The same flat stretches, with each window's 15 pairs in one block,
    # in blocks of 4 (the last one partial) and one pair to a block.
    prices = tmp_path / "prices.csv"
    write_long_csv(with_flat_rows(with_flat_start(PANEL, 40), 60, 95), prices)
    net_dir, sim_dir = tmp_path / "net", tmp_path / "sim"
    cfg_path = write_config(tmp_path, prices, net_dir, strategies="buy_hold,mst_var,mst_sharpe,fixed,dynamic_var")
    outputs = []
    for block in (var_fevd.PAIR_BLOCK, 4, 1):
        monkeypatch.setattr(var_fevd, "PAIR_BLOCK", block)
        assert main(["network", "--config", str(cfg_path), "--rebalance-every", "1"]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--rebalance-every", "1", "--out", str(sim_dir)]) == 0
        captured = capsys.readouterr()
        files = {(d.name, p.name): p.read_bytes() for d in (net_dir, sim_dir) for p in sorted(d.iterdir())}
        outputs.append((captured.out, captured.err, files))
        shutil.rmtree(net_dir)
        shutil.rmtree(sim_dir)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][1].count("warning: skipped window") > 0 and len(outputs[0][2]) > 10
    # Both commands finish: network skips the flat windows, and simulate
    # reports the rebuilds that failed amid estimable ones.
    assert outputs[0][1].startswith("warning: skipped window ending ")
    assert b"network recompute failed at " in outputs[0][2][("sim", "summary.json")]


def test_network_and_simulate_reject_a_single_ticker_universe(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    write_long_csv(random_walk_table(1, 100, seed=3, extra_tickers=("IDX",)), prices)
    cfg_path = write_config(tmp_path, prices, tmp_path / "out", strategies="mst_var")
    for command in ("network", "simulate"):
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "empty universe" in capsys.readouterr().err


def test_network_labels_nodes_from_the_sectors_file(tmp_path):
    sectors = tmp_path / "sectors.csv"
    sectors.write_text("Ticker,Sector\n S00 , Energy \n\nS01,Tech\nS02\n", encoding="utf-8")
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "net", extra_data=f"sectors = {sectors}\n")
    assert main(["network", "--config", str(cfg_path), "--rebalance-every", "70"]) == 0
    (dot,) = (tmp_path / "net").glob("mst_*.dot")
    text = dot.read_text(encoding="utf-8")
    assert '"S00" [sector="Energy"];' in text and '"S01" [sector="Tech"];' in text
    assert '"S02";' in text  # a row without a sector labels nothing


def test_a_byte_order_mark_leaves_a_sectors_file_as_it_is(tmp_path):
    prices = write_panel(tmp_path)
    # Without a header row, the mark would sit at the start of the first ticker.
    text = "S00,Energy\nS01,Tech\n"
    outputs = []
    for name, head in (("plain", b""), ("marked", codecs.BOM_UTF8)):
        sectors = tmp_path / f"{name}.csv"
        sectors.write_bytes(head + text.encode("utf-8"))
        out = tmp_path / name
        cfg_path = write_config(tmp_path, prices, out, name=f"{name}.ini", extra_data=f"sectors = {sectors}\n")
        assert main(["network", "--config", str(cfg_path), "--rebalance-every", "70"]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert any(b'"S00" [sector="Energy"];' in dot for dot in outputs[1].values())


@pytest.mark.parametrize(
    "kind, message",
    [("directory", "cannot read"), ("not_utf8", "cannot decode"), ("huge_cell", "cannot parse")],
)
def test_network_reports_an_unreadable_sectors_file(tmp_path, capsys, kind, message):
    sectors = tmp_path / "sectors.csv"
    if kind == "directory":
        sectors.mkdir()
    elif kind == "not_utf8":
        sectors.write_bytes("ticker,sector\nS00,Caf\xe9s\n".encode("latin-1"))
    else:
        sectors.write_text(f"ticker,sector\nS00,{'x' * 200_000}\n", encoding="utf-8")
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "net", extra_data=f"sectors = {sectors}\n")
    assert main(["network", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and str(sectors) in err
    assert not (tmp_path / "net").exists()


def write_split_panel(tmp_path: Path, benchmark: PriceTable) -> Path:
    """Prices without IDX, and a config that reads the benchmark from ``benchmark``."""
    prices = tmp_path / "stocks.csv"
    write_long_csv(drop_tickers(PANEL, ["IDX"]), prices)
    bench = tmp_path / "bench.csv"
    write_long_csv(benchmark, bench)
    return write_config(
        tmp_path,
        prices,
        tmp_path / "split",
        strategies="buy_hold,mst_var",
        name="split.ini",
        extra_data=f"benchmark_prices = {bench}\n",
    )


def test_simulate_reads_the_benchmark_from_a_separate_file(tmp_path):
    same = write_config(tmp_path, write_panel(tmp_path), tmp_path / "same", strategies="buy_hold,mst_var")
    assert main(["simulate", "--config", str(same)]) == 0
    names = sorted(p.name for p in (tmp_path / "same").iterdir() if p.suffix == ".csv")
    assert len(names) == 2 * 2 + 1
    # The second benchmark file leaves its opens blank while the prices keep theirs.
    idx = select_tickers(PANEL, ["IDX"])
    for k, benchmark in enumerate((idx, replace(idx, open_px=None))):
        run_dir = tmp_path / f"bench{k}"
        run_dir.mkdir()
        assert main(["simulate", "--config", str(write_split_panel(run_dir, benchmark))]) == 0
        assert names == sorted(p.name for p in (run_dir / "split").iterdir() if p.suffix == ".csv")
        for name in names:
            assert (tmp_path / "same" / name).read_bytes() == (run_dir / "split" / name).read_bytes(), name


def test_simulate_matches_the_library_run_on_the_loaded_panel(tmp_path):
    cfg_path = write_config(tmp_path, write_panel(tmp_path), tmp_path / "out", strategies="buy_hold,mst_var")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    cfg = parse_config(cfg_path)
    returns = compute_returns(PANEL)
    want = backtest.run_multi_seed(cfg.strategy, PANEL, returns, strategies=cfg.strategies)
    for (name, seed), result in want.results.items():
        assert (tmp_path / "out" / f"values_{name}_{seed}.csv").read_bytes() == oracle_values_csv(result)
    # The panel's opens reach the engine: trading at closes gives other values.
    at_close = backtest.run_multi_seed(replace(cfg.strategy, use_open_prices=False), PANEL, returns)
    assert not np.array_equal(at_close.results[("mst_var", 11)].values, want.results[("mst_var", 11)].values)


def test_benchmark_file_without_the_ticker_is_an_error(tmp_path, capsys):
    split = write_split_panel(tmp_path, select_tickers(PANEL, ["S00", "S01"]))
    assert main(["simulate", "--config", str(split)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "benchmark ticker 'IDX' not found in" in err and str(tmp_path / "bench.csv") in err
    assert not (tmp_path / "split").exists()


@pytest.mark.parametrize("command", ["ingest", "network", "simulate"])
def test_a_benchmark_file_on_other_dates_is_an_error(tmp_path, capsys, command):
    idx = select_tickers(PANEL, ["IDX"])
    short = PriceTable(idx.dates[:-1], idx.tickers, idx.adj_close[:-1], idx.mask[:-1], idx.open_px[:-1])
    split = write_split_panel(tmp_path, short)
    assert main([command, "--config", str(split)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: benchmark dates do not align with the trading panel\n")
    assert not (tmp_path / "split").exists()


def test_undecodable_prices_exit_2_naming_the_file(tmp_path, capsys):
    prices = write_panel(tmp_path)
    # the bad byte ends a 24,000-byte file, past the first read chunk
    prices.write_bytes(prices.read_bytes()[:23_999] + b"\xff")
    cfg_path = write_config(tmp_path, prices, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot decode {prices}: ")
    assert "in position 23999:" in err


def test_benchmark_file_needs_the_benchmark_ticker_key(tmp_path, capsys):
    prices = tmp_path / "stocks.csv"
    write_long_csv(drop_tickers(PANEL, ["IDX"]), prices)
    bench = tmp_path / "bench.csv"
    write_long_csv(select_tickers(PANEL, ["S00", "S01"]), bench)
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        f"[data]\nprices = {prices}\nbenchmark_prices = {bench}\n\n"
        f"[strategy]\nwindow = 30\nstrategies = mst_var\n\n[output]\ndir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    for command in ("ingest", "network", "simulate"):
        assert main([command, "--config", str(cfg_path)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "data.benchmark_prices requires data.benchmark_ticker" in err
    assert not (tmp_path / "out").exists()


def test_simulate_writes_all_result_files(tmp_path):
    prices = write_panel(tmp_path)
    out_dir = tmp_path / "out"
    cfg_path = write_config(tmp_path, prices, out_dir)
    assert main(["simulate", "--config", str(cfg_path)]) == 0

    names = ("buy_hold", "mst_var", "mst_nnar_var")
    for name in names:
        for seed in (11, 12):
            values_path = out_dir / f"values_{name}_{seed}.csv"
            with open(values_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["date", "portfolio_value"]
            assert len(rows) - 1 == 100 - 30  # one value per date from the window on
            assert float(rows[1][1]) == 100_000.0

    blob = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert blob["engine_version"] == mstport.__version__
    assert blob["config_echo"] == cfg_path.read_text(encoding="utf-8")
    assert blob["seeds"] == [11, 12]
    assert set(blob["strategies"]) == set(names)
    for name in names:
        per_seed = blob["strategies"][name]["seeds"]
        assert set(per_seed) == {"11", "12"}
        totals = [per_seed[s]["total_return_pct"] for s in ("11", "12")]
        assert all(isinstance(t, float) for t in totals)
        assert blob["strategies"][name]["mean_total_return_pct"] == pytest.approx(
            sum(totals) / 2.0
        )

    with open(out_dir / "seeds_table.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", *names]
    assert [row[0] for row in rows[1:]] == ["11", "12", "average"]
    mst_var_col = rows[0].index("mst_var")
    assert rows[1][mst_var_col] == rows[2][mst_var_col]  # deterministic across seeds


def test_summary_config_lists_each_setting_by_its_key(tmp_path):
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "out", strategies="buy_hold,mst_var")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    block = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))["config"]
    # Nested as the dataclasses are: every key but dir, and the strategy's
    # name, the one field that is not a key.
    assert set(block) == {key for key in config._KEYS if key not in STRATEGY_FIELDS} - {"dir"} | {"strategy"}
    assert set(block["strategy"]) == {key for key in config._KEYS if key in STRATEGY_FIELDS} | {"name"}
    assert (block["prices"], block["format"], block["sectors"]) == (str(prices), "long", None)
    assert block["strategies"] == ["buy_hold", "mst_var"]
    assert block["strategy"]["window"] == 30


def test_simulate_builds_no_day_record(tmp_path, monkeypatch):
    gappy = with_masked(PANEL, [(40, 1), (55, 2), (71, 4)])
    prices = tmp_path / "prices.csv"
    write_long_csv(gappy, prices)
    strategies = "buy_hold,mst_var,mst_sharpe,fixed,dynamic_var"
    cfg_path = write_config(tmp_path, prices, tmp_path / "out", strategies=strategies)
    built: list = []
    record = backtest.DayRecord
    monkeypatch.setattr(backtest, "DayRecord", lambda **fields: built.append(fields) or record(**fields))
    assert main(["simulate", "--config", str(cfg_path), "--rebalance-every", "1"]) == 0
    assert len(list((tmp_path / "out").glob("values_*.csv"))) == 5 * 2
    assert built == []


def test_simulate_reruns_are_byte_identical(tmp_path):
    prices = write_panel(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config(tmp_path, prices, out_a, name="a.ini")
    assert main(["simulate", "--config", str(cfg_a)]) == 0
    assert main(["simulate", "--config", str(cfg_a), "--out", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_simulate_cli_overrides_seeds_strategies_and_out(tmp_path):
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "ignored")
    other = tmp_path / "override"
    code = main(
        [
            "simulate",
            "--config",
            str(cfg_path),
            "--out",
            str(other),
            "--seeds",
            "5",
            "--strategies",
            "mst_var",
        ]
    )
    assert code == 0
    assert not (tmp_path / "ignored").exists()
    blob = json.loads((other / "summary.json").read_text(encoding="utf-8"))
    assert blob["seeds"] == [5]
    assert list(blob["strategies"]) == ["mst_var"]
    assert (other / "values_mst_var_5.csv").exists()


def test_report_rebuilds_seed_table(tmp_path, capsys):
    prices = write_panel(tmp_path)
    out_dir = tmp_path / "out"
    cfg_path = write_config(tmp_path, prices, out_dir, strategies="buy_hold,mst_var")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    table_bytes = (out_dir / "seeds_table.csv").read_bytes()
    (out_dir / "seeds_table.csv").unlink()
    assert main(["report", "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "total return (%) by strategy" in printed
    assert "mst_var" in printed
    assert (out_dir / "seeds_table.csv").read_bytes() == table_bytes


def test_report_reads_only_the_output_dir_of_its_config(tmp_path, capsys):
    # report reads nothing but <dir>/summary.json, so a run whose price file
    # has since gone still reports from its config.
    prices = write_panel(tmp_path)
    out_dir = tmp_path / "out"
    cfg_path = write_config(tmp_path, prices, out_dir, strategies="buy_hold,mst_var")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    table_bytes = (out_dir / "seeds_table.csv").read_bytes()
    (out_dir / "seeds_table.csv").unlink()
    prices.unlink()
    capsys.readouterr()
    assert main(["report", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == ""
    assert (out_dir / "seeds_table.csv").read_bytes() == table_bytes


def test_report_keeps_the_run_column_and_row_order(tmp_path):
    # summary.json sorts its strategy keys; the table follows the run's list.
    out_dir = tmp_path / "out"
    cfg_path = write_config(tmp_path, write_panel(tmp_path), out_dir, seeds="12,11", strategies="mst_var,buy_hold")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    table_bytes = (out_dir / "seeds_table.csv").read_bytes()
    assert table_bytes.startswith(b"seed,mst_var,buy_hold\r\n12,")
    (out_dir / "seeds_table.csv").unlink()
    assert main(["report", "--out", str(out_dir)]) == 0
    assert (out_dir / "seeds_table.csv").read_bytes() == table_bytes


def test_report_errors_without_summary(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no summary.json under {tmp_path}\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe not utf-8", "not a simulate summary"),
        (b"{not json", "not a simulate summary"),
        (b"[]", "not a simulate summary"),
        (b'{"seeds": [1]}', "missing key 'strategies'"),
        (b'{"strategies": {"mst_var": {"seeds": {}, "mean_total_return_pct": 0.0}}}', "missing key 'seeds'"),
        (b'{"seeds": [1], "strategies": {"mst_var": {"mean_total_return_pct": 0.0}}}', "missing key 'seeds'"),
        (b'{"seeds": [1], "strategies": {}}', "lists no strategies"),
        (
            b'{"seeds": [1], "strategies": {"mst_var": {"seeds": {"1": {"total_return_pct": null}},'
            b' "mean_total_return_pct": null}}}',
            "null or not finite",
        ),
        (
            b'{"seeds": [1], "strategies": {"mst_var": {"seeds": {"1": {"total_return_pct": 1.5}},'
            b' "mean_total_return_pct": NaN}}}',
            "null or not finite",
        ),
        (
            b'{"config": {"strategies": ["fixed", "mst_var"]}, "seeds": [1], "strategies": {"mst_var":'
            b' {"seeds": {"1": {"total_return_pct": 1.5}}, "mean_total_return_pct": 1.5}}}',
            "config lists strategies ['fixed', 'mst_var'], results hold ['mst_var']",
        ),
        (
            b'{"config": [], "seeds": [1], "strategies": {"mst_var":'
            b' {"seeds": {"1": {"total_return_pct": 1.5}}, "mean_total_return_pct": 1.5}}}',
            "not a simulate summary",
        ),
    ],
    ids=[
        "not_utf8",
        "not_json",
        "list",
        "no_strategies_key",
        "no_seeds_key",
        "strategy_without_seeds",
        "empty",
        "null_return",
        "nan_mean",
        "config_lists_other_strategies",
        "config_not_an_object",
    ],
)
def test_report_rejects_a_malformed_summary(tmp_path, capsys, content, message):
    (tmp_path / "summary.json").write_bytes(content)
    assert main(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / "summary.json") in err and message in err
    assert not (tmp_path / "seeds_table.csv").exists()


def test_cli_reports_config_errors_with_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[data]\nprices = nowhere.csv\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "data.prices" in err


def test_cli_rejects_bad_seed_override(tmp_path, capsys):
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "out")
    assert main(["simulate", "--config", str(cfg_path), "--seeds", "abc"]) == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("network", "--rebalance-every", "0", "rebalance_every must be at least 1"),
        ("simulate", "--seeds", "", "--seeds: empty seed list"),
        ("simulate", "--strategies", "", "--strategies: empty strategy list"),
        ("simulate", "--out", "", "--out: empty path"),
        ("report", "--out", "", "--out: empty path"),
    ],
)
def test_cli_rejects_falsy_overrides(tmp_path, capsys, command, flag, value, message):
    # A zero or empty override is checked like any other value, not
    # dropped in favour of the config's.
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "out")
    assert main([command, "--config", str(cfg_path), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seeds", "132,132", "--seeds: repeated seeds: 132"),
        ("--strategies", "mst_var,mst_var,buy_hold", "--strategies: repeated strategies: mst_var"),
    ],
)
def test_cli_rejects_repeated_seeds_and_strategies(tmp_path, capsys, flag, value, message):
    # A repeat would write one summary.json key but two seeds_table.csv
    # rows or columns, so report would re-render a different table.
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "out")
    assert main(["simulate", "--config", str(cfg_path), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, key, value",
    [
        ("--seeds", "seeds", "abc"),
        ("--seeds", "seeds", "5..3"),
        ("--strategies", "strategies", "momentum"),
        ("--rebalance-every", "rebalance_every", "abc"),
        ("--rebalance-every", "rebalance_every", "0"),
        ("--out", "dir", ""),
    ],
)
def test_a_flag_is_read_as_its_config_key(tmp_path, monkeypatch, capsys, flag, key, value):
    # The flag's text meets the file key's reader and checks; only the
    # label differs.
    monkeypatch.chdir(tmp_path)
    prices = write_panel(tmp_path)
    with pytest.raises(ConfigError) as err:
        parse_config(write_ini(tmp_path, prices, key, value))
    expected = str(err.value).replace(f"{config._KEYS[key][0]}.{key}:", f"{flag}:")
    assert main(["simulate", "--config", str(write_ini(tmp_path, prices)), flag, value]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prices.csv", "run.ini"]


def test_strategies_flag_meets_the_benchmark_ticker_check(tmp_path, capsys):
    prices = write_panel(tmp_path)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        f"[data]\nprices = {prices}\n\n[strategy]\nwindow = 30\nstrategies = mst_var\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(cfg_path), "--strategies", "buy_hold,mst_var"]) == 2
    assert capsys.readouterr().err == BUY_HOLD_NEEDS_TICKER
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "prices.csv"]


def test_ingest_and_network_run_without_a_benchmark_ticker(tmp_path, capsys):
    # A panel with no index column and a config with no benchmark_ticker:
    # only buy_hold, in simulate's default list, needs one.
    prices = tmp_path / "prices.csv"
    write_long_csv(drop_tickers(PANEL, ["IDX"]), prices)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        f"[data]\nprices = {prices}\n\n[strategy]\nwindow = 30\nrebalance_every = 30\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == BUY_HOLD_NEEDS_TICKER
    assert not (tmp_path / "out").exists()
    assert main(["ingest", "--config", str(cfg_path)]) == 0
    assert "benchmark series: absent\n" in capsys.readouterr().out
    assert main(["network", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "costs.csv").exists() and list((tmp_path / "out").glob("mst_*.dot"))


@pytest.mark.parametrize("command", ["network", "simulate"])
@pytest.mark.parametrize("source", ["file", "flag", "default"])
def test_an_output_dir_that_is_a_file_is_rejected(tmp_path, monkeypatch, capsys, command, source):
    monkeypatch.chdir(tmp_path)
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, prices if source == "file" else tmp_path / "out")
    flags = ["--out", str(prices)] if source == "flag" else []
    out, label = {"file": (prices, "output.dir"), "flag": (prices, "--out"), "default": ("out", "output.dir")}[source]
    if source == "default":
        text = cfg_path.read_text(encoding="utf-8").replace(f"[output]\ndir = {tmp_path / 'out'}\n", "")
        cfg_path.write_text(text, encoding="utf-8")
        (tmp_path / "out").write_text("not a directory\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([command, "--config", str(cfg_path), *flags]) == 2
    assert capsys.readouterr().err == f"error: {label}: not a directory: {out}\n"
    if source == "default":
        # An unreadable dir is not checked as the default it does not name.
        assert main([command, "--config", str(cfg_path), "--out", ""]) == 2
        assert capsys.readouterr().err == "error: --out: empty path\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["network", "simulate"])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_an_output_dir_beneath_a_file_is_rejected(tmp_path, capsys, command, source):
    prices = write_panel(tmp_path)
    out = prices / "sub"
    cfg_path = write_config(tmp_path, prices, out if source == "file" else tmp_path / "out")
    flags = ["--out", str(out)] if source == "flag" else []
    label = "--out" if source == "flag" else "output.dir"
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([command, "--config", str(cfg_path), *flags]) == 2
    assert capsys.readouterr().err == f"error: {label}: not a directory: {prices}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["network", "simulate"])
def test_an_output_dir_that_cannot_be_made_is_an_input_error(tmp_path, capsys, command):
    # A name past the file system's length limit: no part of the path is a
    # file, so the config is accepted and mkdir itself fails.
    prices = write_panel(tmp_path)
    out = tmp_path / ("x" * 300) / "sub"
    cfg_path = write_config(tmp_path, prices, out, strategies="buy_hold,mst_var")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output dir {out}: ") and err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("via_flag", [False, True])
def test_an_unreadable_strategy_list_is_not_checked_as_the_default_list(tmp_path, capsys, via_flag):
    # The default list holds buy_hold; a list that fails to read must not
    # stand in for it in the benchmark_ticker check.
    prices = write_panel(tmp_path)
    cfg_path = tmp_path / "cfg.ini"
    listed = "" if via_flag else "\n[strategy]\nstrategies = momentum\n"
    cfg_path.write_text(f"[data]\nprices = {prices}\n{listed}", encoding="utf-8")
    flags = ["--strategies", "momentum"] if via_flag else []
    assert main(["simulate", "--config", str(cfg_path), *flags]) == 2
    label = "--strategies" if via_flag else "strategy.strategies"
    assert capsys.readouterr().err == f"error: {label}: unknown strategies: momentum\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "prices.csv"]


@pytest.mark.parametrize("key", ["prices", "benchmark_prices", "sectors", "dir"])
def test_an_empty_path_key_is_rejected(tmp_path, monkeypatch, capsys, key):
    monkeypatch.chdir(tmp_path)
    prices = write_panel(tmp_path)
    cfg_path = write_ini(tmp_path, prices, key, "")
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {config._KEYS[key][0]}.{key}: empty path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prices.csv", "run.ini"]


def test_a_flag_replaces_the_file_value_unread(tmp_path):
    # Every file value below fails its check, and each flag stands in for it.
    prices = write_panel(tmp_path)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        f"[data]\nprices = {prices}\n\n[strategy]\nwindow = 30\nrebalance_every = 0\n"
        "seeds = abc\nstrategies = buy_hold\n\n[output]\ndir =\n",
        encoding="utf-8",
    )
    flags = {"dir": "net", "rebalance_every": "30", "seeds": "5", "strategies": "mst_var"}
    cfg = parse_config(cfg_path, flags)
    assert (cfg.dir, cfg.strategy.rebalance_every, cfg.strategy.seeds, cfg.strategies) == (
        Path("net"),
        30,
        (5,),
        ("mst_var",),
    )
    cfg_path.write_text(
        f"[data]\nprices = {prices}\nbenchmark_ticker = IDX\n\n"
        "[strategy]\nwindow = 30\nrebalance_every = 0\n\n[output]\ndir =\n",
        encoding="utf-8",
    )
    out = tmp_path / "net"
    assert main(["network", "--config", str(cfg_path), "--rebalance-every", "30", "--out", str(out)]) == 0
    assert (out / "costs.csv").exists()


def test_each_flag_stores_its_text_under_its_config_key():
    parser = cli._build_parser()
    for key, flag in config.FLAGS.items():
        args = parser.parse_args(["simulate", "--config", "run.ini", flag, "text"])
        assert getattr(args, key) == "text"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this checkout's ``mstport``."""
    src = str(Path(mstport.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_the_module_entry_runs_main_and_exits_with_its_code(tmp_path):
    done = run_python("-m", "mstport.cli", "--help")
    assert (done.returncode, done.stderr) == (0, "")
    listed = [line.split()[0] for line in done.stdout.splitlines() if line.startswith("    ")]
    assert listed == ["ingest", "network", "simulate", "report"]
    cfg_path = write_config(tmp_path, write_panel(tmp_path), tmp_path / "out")
    text = cfg_path.read_text(encoding="utf-8").replace("[strategy]\n", "[strategy]\nmin_var_history = 60\n")
    cfg_path.write_text(text, encoding="utf-8")
    done = run_python("-m", "mstport.cli", "simulate", "--config", str(cfg_path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: strategy.min_var_history: unknown key\n"
    assert not (tmp_path / "out").exists()


# Run in a fresh interpreter: the test process itself is frozen by the
# first ``main`` call of any earlier test.
FREEZE_PROBE = """
import gc, json, sys, weakref
import mstport.cli
counts = [gc.get_freeze_count()]
for _ in range(2):
    assert mstport.cli.main(["ingest", "--config", sys.argv[1]]) == 0
    counts.append(gc.get_freeze_count())
class Node:
    pass
node = Node()
node.cycle = node
alive = weakref.ref(node)
del node
gc.collect()
print(json.dumps({"counts": counts, "cycle_reclaimed": alive() is None}))
"""


def test_main_freezes_the_import_time_heap_once_per_process(tmp_path):
    cfg_path = write_config(tmp_path, write_panel(tmp_path), tmp_path / "out")
    done = run_python("-c", FREEZE_PROBE, str(cfg_path))
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.strip().splitlines()[-1])
    imported, first, second = got["counts"]
    assert imported == 0  # importing the engine freezes nothing
    assert first > 0
    assert second == first  # a second call does not freeze its leftovers
    assert got["cycle_reclaimed"]


# ---------------------------------------------------------------------------
# CSV encoding: the ``csv.writer`` row loops the command line used before it
# wrote encoded blocks, kept here as the oracle for its output bytes.


def oracle_costs_csv(rows: list[tuple[str, str, str, float]]) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["window_end", "ticker_i", "ticker_j", "cost"])
    writer.writerows((stamp, ti, tj, repr(cost)) for stamp, ti, tj, cost in rows)
    return buf.getvalue().encode("utf-8")


def oracle_values_csv(result: backtest.SimulationResult) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["date", "portfolio_value"])
    for day, value in zip(result.dates, result.values):
        writer.writerow([day.isoformat(), repr(float(value))])
    return buf.getvalue().encode("utf-8")


def oracle_seeds_table(summary: backtest.MultiSeedResult) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["seed"] + list(summary.strategies))
    for row, seed in enumerate(summary.seeds):
        writer.writerow([seed] + [repr(float(v)) for v in summary.returns_pct[row]])
    writer.writerow(["average"] + [repr(float(v)) for v in summary.means])
    return buf.getvalue().encode("utf-8")


# Names that ``csv.writer`` must quote: a delimiter, a quote and a line break.
QUOTED_NAMES = {"S01": "A,B", "S02": 'A"B', "S04": "A\nB"}


def test_outputs_match_the_csv_writer_oracle_on_names_that_need_quoting(tmp_path, monkeypatch):
    masked = with_masked(PANEL, [(55, 1), (80, 4)])
    names = tuple(QUOTED_NAMES.get(t, t) for t in masked.tickers)
    order = sorted(range(len(names)), key=names.__getitem__)
    table = PriceTable(
        masked.dates,
        tuple(names[j] for j in order),
        masked.adj_close[:, order],
        masked.mask[:, order],
        masked.open_px[:, order],
    )
    prices = tmp_path / "prices.csv"
    write_long_csv(table, prices)
    out_dir = tmp_path / "out"
    cfg_path = write_config(tmp_path, prices, out_dir, strategies="buy_hold,mst_var,mst_sharpe")

    rows: list[tuple[str, str, str, float]] = []
    cost_records = var_fevd.cost_records

    def recorded_cost_records(*args, **kwargs):
        blocks = cost_records(*args, **kwargs)
        rows.extend(flat_cost_rows(blocks))
        return blocks

    monkeypatch.setattr(var_fevd, "cost_records", recorded_cost_records)
    assert main(["network", "--config", str(cfg_path), "--rebalance-every", "20"]) == 0
    got = (out_dir / "costs.csv").read_bytes()
    assert len(rows) == 4 * 15
    assert {name for row in rows for name in row[1:3]} >= set(QUOTED_NAMES.values())
    assert b'"A,B"' in got and b'"A""B"' in got and b'"A\nB"' in got
    assert got == oracle_costs_csv(rows)

    runs: list[backtest.MultiSeedResult] = []
    run_multi_seed = backtest.run_multi_seed

    def recorded_run_multi_seed(*args, **kwargs):
        runs.append(run_multi_seed(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(backtest, "run_multi_seed", recorded_run_multi_seed)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    (summary,) = runs
    assert len(summary.results) == 3 * 2
    for (name, seed), result in summary.results.items():
        assert (out_dir / f"values_{name}_{seed}.csv").read_bytes() == oracle_values_csv(result)
    assert (out_dir / "seeds_table.csv").read_bytes() == oracle_seeds_table(summary)


# Characters that ``csv.writer`` quotes or doubles (comma, quote, CR, LF),
# spaces it keeps as they are, non-ASCII text, and both cases of a letter.
NAME_TEXT = st.text(st.sampled_from(list(',"\r\n aAbBé中')), min_size=1, max_size=5)
EDGE_COSTS = [0.0, 1.0, 5e-324, float(np.nextafter(1.0, 0.0))]


@st.composite
def cost_matrices(draw) -> tuple[tuple[str, ...], list[float]]:
    """Sorted distinct tickers and the upper triangle of their costs, row by row."""
    tickers = tuple(sorted(draw(st.lists(NAME_TEXT, min_size=2, max_size=12, unique=True))))
    pairs = len(tickers) * (len(tickers) - 1) // 2
    upper = draw(st.lists(st.sampled_from(EDGE_COSTS) | st.floats(0.0, 1.0), min_size=pairs, max_size=pairs))
    return tickers, upper


@settings(max_examples=200, deadline=None)
@given(cost_matrices(), st.dates())
@example((("A", "B", "a", "aB"), EDGE_COSTS + [0.25, 0.75]), date(2021, 1, 4))
@example(((" a ", "a,b", 'a"b', "a\r\nb", "é中"), EDGE_COSTS * 2 + [0.5, 0.125]), date(1999, 12, 31))
def test_cost_lines_match_the_csv_writer_oracle(matrix, window_end):
    tickers, upper = matrix
    n = len(tickers)
    symmetric = np.full((n, n), np.inf)
    symmetric[np.triu_indices(n, k=1)] = upper
    symmetric.T[np.triu_indices(n, k=1)] = upper
    cost = var_fevd.CostMatrix(tickers=tickers, symmetric=symmetric)
    rows = [
        (window_end.isoformat(), tickers[i], tickers[j], float(symmetric[i, j]))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    got = "window_end,ticker_i,ticker_j,cost\r\n" + "".join(cli._cost_lines(cost, window_end))
    assert got.encode("utf-8") == oracle_costs_csv(rows)
