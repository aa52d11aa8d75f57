"""Degenerate inputs classified across every entry point.

Each input (a flat market, a fully masked column, an exactly collinear
pair, a one-ticker universe, a history shorter than the window, a history
of exactly one window) runs through the three subcommands that read a
panel and the three library entry points, and each run is reduced to an
outcome: ``("ok", "")``, ``("hold", reason)`` when the network cannot be
estimated and the run holds cash or skips the window with a warning, or
``("error", message)`` for an exit-2 message or the error it comes from.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from mstport import market_data, var_fevd
from mstport.backtest import BENCHMARK_STRATEGY, StrategyConfig, make_strategy, run_multi_seed, run_simulation
from mstport.cli import main
from mstport.errors import ConfigError, DataError, EstimationError, InsufficientHistory
from mstport.market_data import PriceTable
from synth import flat_table, random_walk_table, write_long_csv

WINDOW = 30
CFG = StrategyConfig(window=WINDOW, top_k=3, seeds=(11,), benchmark_ticker="IDX", nnar_epochs=25)
NAMES = ("buy_hold", "mst_var", "mst_arima_var", "mst_nnar_sharpe", "fixed", "dynamic_var")


def fully_masked_column() -> PriceTable:
    table = random_walk_table(6, 100, seed=21, extra_tickers=("IDX",))
    mask = table.mask.copy()
    mask[:, table.ticker_index("S02")] = True
    return PriceTable(table.dates, table.tickers, table.adj_close, mask, table.open_px)


def collinear_pair() -> PriceTable:
    # Doubling a price is exact, so S01's returns equal S00's bit for bit.
    table = random_walk_table(6, 100, seed=21, extra_tickers=("IDX",))
    a, b = table.ticker_index("S00"), table.ticker_index("S01")
    closes, opens = table.adj_close.copy(), table.open_px.copy()
    closes[:, b], opens[:, b] = 2.0 * closes[:, a], 2.0 * opens[:, a]
    return PriceTable(table.dates, table.tickers, closes, table.mask, opens)


INPUTS = {
    "flat_market": flat_table(6, 100, extra_tickers=("IDX",)),
    "masked_column": fully_masked_column(),
    "collinear_pair": collinear_pair(),
    "one_ticker": random_walk_table(1, 100, seed=3, extra_tickers=("IDX",)),
    "short_history": random_walk_table(6, 20, seed=5, extra_tickers=("IDX",)),
    # window + 1 price dates: one window, which ends on the last return row.
    "one_window": random_walk_table(6, WINDOW + 1, seed=5, extra_tickers=("IDX",)),
}

ENTRIES = ("ingest", "network", "simulate", "run_simulation", "run_multi_seed", "influence_matrix")
OK = ("ok", "")
FLAT = ("hold", "every pair estimation failed in window")
EMPTY = ("error", "empty universe after filtering")
SHORT = ("error", f"need at least window + 1 = {WINDOW + 1} price dates, got 20")
NO_DAY = (
    "error",
    f"no decision day: a simulation needs at least window + 2 = {WINDOW + 2} price dates, got {WINDOW + 1}",
)
EXPECTED = {
    "flat_market": {
        "ingest": OK,  # ingest only reports the panel
        "network": FLAT,
        "simulate": FLAT,
        "run_simulation": FLAT,
        "run_multi_seed": FLAT,
        # the error that network and the simulations turn into the hold
        "influence_matrix": ("error", FLAT[1]),
    },
    # The command line's quality filter drops the masked column (a missing
    # fraction of 1 is not below 1); the library entry points keep it.
    "masked_column": dict.fromkeys(ENTRIES, OK),
    "collinear_pair": dict.fromkeys(ENTRIES, OK),
    "one_ticker": {
        "ingest": OK,
        "network": EMPTY,
        "simulate": EMPTY,
        "run_simulation": EMPTY,
        "run_multi_seed": EMPTY,
        "influence_matrix": ("error", "influence matrix needs at least two tickers"),
    },
    "short_history": {
        "ingest": OK,
        "network": SHORT,
        "simulate": SHORT,
        "run_simulation": SHORT,
        "run_multi_seed": SHORT,
        "influence_matrix": ("error", "window end index beyond available history"),
    },
    # network writes the one window; a simulation has no day to decide on.
    "one_window": {
        "ingest": OK,
        "network": OK,
        "simulate": NO_DAY,
        "run_simulation": NO_DAY,
        "run_multi_seed": NO_DAY,
        "influence_matrix": OK,
    },
}

HOLD = re.compile(
    r"(?:network unavailable at|warning: skipped window ending) [\d-]+: (.+?)(?:; holding cash)?$"
)


def from_warnings(warnings: list[str]) -> tuple[str, str]:
    """``("hold", reason)`` when the warnings hold or skip for one reason, else OK."""
    reasons = {m.group(1) for m in map(HOLD.match, warnings) if m}
    if not reasons:
        return OK
    assert len(reasons) == 1, reasons
    return ("hold", reasons.pop())


def cli_outcome(command: str, table: PriceTable, tmp_path: Path, names: tuple[str, ...] = NAMES) -> tuple[str, str]:
    write_long_csv(table, tmp_path / "prices.csv")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        f"""[data]
prices = {tmp_path / "prices.csv"}
benchmark_ticker = IDX
max_missing_frac = 1.0

[strategy]
window = {WINDOW}
top_k = 3
seeds = 11
strategies = {",".join(names)}

[forecast]
nnar_epochs = 25

[output]
dir = {tmp_path / "out"}
""",
        encoding="utf-8",
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg_path)])
    if code == 2:
        assert err.getvalue().startswith("error: ")
        return ("error", err.getvalue().removeprefix("error: ").strip())
    assert code == 0, err.getvalue()
    if command == "network":
        return from_warnings(err.getvalue().splitlines())
    if command == "simulate":
        blob = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        return from_warnings([w for s in blob["strategies"].values() for w in s["seeds"]["11"]["warnings"]])
    return OK


def library_outcome(entry: str, table: PriceTable, names: tuple[str, ...] = NAMES) -> tuple[str, str]:
    returns = market_data.compute_returns(table)
    try:
        if entry == "run_simulation":
            result = run_simulation(make_strategy(CFG, "mst_var"), table, returns)
            outcome = from_warnings(list(result.warnings))
            assert outcome == OK or result.trade_count == 0  # a hold never trades
            return outcome
        if entry == "run_multi_seed":
            multi = run_multi_seed(CFG, table, returns, strategies=names)
            simulated = [multi.results[(name, 11)] for name in names if name != BENCHMARK_STRATEGY]
            outcomes = {from_warnings(list(result.warnings)) for result in simulated}
            assert len(outcomes) == 1, outcomes  # every strategy classifies the input alike
            return outcomes.pop()
        stocks = market_data.select_tickers(returns, [t for t in returns.tickers if t != "IDX"])
        var_fevd.influence_matrix(market_data.window(stocks, WINDOW - 1, WINDOW), CFG.horizon, CFG.fevd_mode)
        return OK
    except (ConfigError, DataError, EstimationError, InsufficientHistory) as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("name", list(INPUTS))
def test_degenerate_input_is_classified_alike_everywhere(tmp_path, name, entry):
    table = INPUTS[name]
    if entry in ("ingest", "network", "simulate"):
        outcome = cli_outcome(entry, table, tmp_path)
    else:
        outcome = library_outcome(entry, table)
    assert outcome == EXPECTED[name][entry]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("name", list(INPUTS))
def test_degenerate_input_is_classified_alike_with_one_pair_per_block(tmp_path, monkeypatch, name, entry):
    # Each pair a block of its own: every degenerate class keeps its message.
    monkeypatch.setattr(var_fevd, "PAIR_BLOCK", 1)
    test_degenerate_input_is_classified_alike_everywhere(tmp_path, name, entry)


@pytest.mark.parametrize("names", [("mst_var",), ("buy_hold",), ("buy_hold", "mst_var")], ids="+".join)
@pytest.mark.parametrize("name", ["short_history", "one_window"])
def test_every_strategy_list_meets_one_date_rule(tmp_path, name, names):
    # buy_hold builds no decision path, yet it meets the path's date check
    # and the no-decision-day rule with the same messages.
    want = EXPECTED[name]["run_multi_seed"]
    assert library_outcome("run_multi_seed", INPUTS[name], names) == want
    assert cli_outcome("simulate", INPUTS[name], tmp_path, names) == want


def test_network_writes_the_one_window_a_simulation_cannot_trade_on(tmp_path):
    assert cli_outcome("network", INPUTS["one_window"], tmp_path) == OK
    assert len(list((tmp_path / "out").glob("mst_*.dot"))) == 1
