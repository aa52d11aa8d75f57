"""End-to-end command-line tests: config parsing, subcommands, file outputs,
and byte-identical reruns."""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mstport
from mstport import backtest, config, var_fevd
from mstport.backtest import StrategyConfig
from mstport.cli import main
from mstport.config import RunConfig, parse_config, parse_seeds, parse_strategies
from mstport.errors import ConfigError
from mstport.market_data import PriceTable, compute_returns, drop_tickers, select_tickers
from synth import random_walk_table, with_flat_start, with_masked, write_long_csv

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


def test_config_rejects_the_removed_fee_bps_key(tmp_path):
    prices = write_panel(tmp_path)
    cfg_path = write_config(tmp_path, prices, tmp_path / "out")
    text = cfg_path.read_text(encoding="utf-8").replace("[strategy]\n", "[strategy]\nfee_bps = 0\n")
    cfg_path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path)
    assert "strategy.fee_bps: unknown key" in str(err.value)


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


# Every config key: the field it sets, a non-default value as written in the
# file, and that value as parsed.
ROUND_TRIP = {
    "prices": ("prices_path", "other.csv", Path("other.csv")),
    "format": ("fmt", "wide", "wide"),
    "benchmark_ticker": ("strategy.benchmark_ticker", "SPX", "SPX"),
    "benchmark_prices": ("benchmark_path", "other.csv", Path("other.csv")),
    "sectors": ("sectors_path", "other.csv", Path("other.csv")),
    "max_missing_frac": ("max_missing_frac", "0.25", 0.25),
    "window": ("strategy.window", "60", 60),
    "horizon": ("strategy.horizon", "4", 4),
    "top_k": ("strategy.top_k", "2", 2),
    "alpha": ("strategy.alpha", "0.1", 0.1),
    "initial_capital": ("strategy.initial_capital", "5000", 5000.0),
    "risk_free": ("strategy.risk_free", "0.001", 0.001),
    "seeds": ("strategy.seeds", "3..5", (3, 4, 5)),
    "strategies": ("strategies", "mst_var, fixed", ("mst_var", "fixed")),
    "rebalance_every": ("strategy.rebalance_every", "3", 3),
    "use_open_prices": ("strategy.use_open_prices", "off", False),
    "fevd_mode": ("strategy.fevd_mode", "as_written", "as_written"),
    "fixed_weighting": ("fixed_weighting", "sharpe", "sharpe"),
    "min_var_history": ("strategy.min_var_history", "60", 60),
    "nnar_lags": ("strategy.nnar_lags", "4", 4),
    "nnar_hidden": ("strategy.nnar_hidden", "2", 2),
    "nnar_learning_rate": ("strategy.nnar_learning_rate", "0.05", 0.05),
    "nnar_epochs": ("strategy.nnar_epochs", "50", 50),
    "arima_max_p": ("strategy.arima_max_p", "1", 1),
    "arima_max_d": ("strategy.arima_max_d", "0", 0),
    "arima_max_q": ("strategy.arima_max_q", "1", 1),
    "dir": ("out_dir", "elsewhere", Path("elsewhere")),
}


def field_of(cfg: RunConfig, key: str):
    return functools.reduce(getattr, ROUND_TRIP[key][0].split("."), cfg)


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
    # The default strategy list holds buy_hold, which needs the ticker.
    with pytest.raises(ConfigError) as err:
        parse_config(only_prices)
    assert err.value.problems == ("strategy.strategies: buy_hold requires data.benchmark_ticker",)
    cfg_path = write_ini(tmp_path, prices)
    assert parse_config(cfg_path) == RunConfig(
        prices_path=prices,
        strategy=StrategyConfig(benchmark_ticker="IDX"),
        raw_text=cfg_path.read_text(encoding="utf-8"),
    )


@pytest.mark.parametrize("key", sorted(ROUND_TRIP))
def test_config_key_round_trip(tmp_path, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    prices = write_panel(tmp_path)
    (tmp_path / "other.csv").write_text("", encoding="utf-8")
    _, raw, expected = ROUND_TRIP[key]
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
        ("nnar_lags", "0", "strategy: nnar_lags must be at least 1"),
        ("nnar_hidden", "0", "strategy: nnar_hidden must be at least 1"),
        ("nnar_epochs", "-1", "strategy: nnar_epochs must be at least 0"),
        ("nnar_learning_rate", "0", "strategy: nnar_learning_rate must be finite and positive"),
        ("nnar_learning_rate", "inf", "strategy: nnar_learning_rate must be finite and positive"),
        ("arima_max_p", "-1", "strategy: arima_max_p must be at least 0"),
        ("arima_max_q", "-1", "strategy: arima_max_q must be at least 0"),
        ("arima_max_d", "2", "strategy: arima_max_d must be 0 or 1"),
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
        block = cost_records(*args, **kwargs)
        rows.extend(block)
        return block

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
