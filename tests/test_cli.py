"""End-to-end command-line tests: config parsing, subcommands, file outputs,
and byte-identical reruns."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

import mstport
from mstport.cli import main
from mstport.config import parse_config, parse_seeds, parse_strategies
from mstport.errors import ConfigError
from synth import random_walk_table, with_flat_start, write_long_csv

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
    assert cfg.prices_path == prices
    assert cfg.fmt == "long"
    assert cfg.strategy.benchmark_ticker == "IDX"
    assert cfg.strategy.window == 30
    assert cfg.strategy.top_k == 3
    assert cfg.strategy.seeds == (11, 12)
    assert cfg.strategy.nnar_epochs == 25
    assert cfg.strategies == ("buy_hold", "mst_var", "mst_nnar_var")
    assert cfg.out_dir == tmp_path / "out"
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


def test_config_buy_hold_needs_benchmark_ticker(tmp_path):
    prices = write_panel(tmp_path)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        f"[data]\nprices = {prices}\n\n[strategy]\nstrategies = buy_hold\n", encoding="utf-8"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path)
    assert "buy_hold requires data.benchmark_ticker" in str(err.value)


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


def test_network_and_simulate_reject_a_single_ticker_universe(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    write_long_csv(random_walk_table(1, 100, seed=3, extra_tickers=("IDX",)), prices)
    cfg_path = write_config(tmp_path, prices, tmp_path / "out", strategies="mst_var")
    for command in ("network", "simulate"):
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "empty universe" in capsys.readouterr().err


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


def test_report_errors_without_summary(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


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
