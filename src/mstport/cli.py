"""Command-line entry point: ingest, network, simulate, and report.

All outputs are deterministic: identical config and seeds produce
byte-identical files (no timestamps, sorted JSON keys, full-precision
floats).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import gc
import io
import json
import logging
import sys
from collections.abc import Iterator
from datetime import date
from pathlib import Path

import numpy as np

from . import __version__, backtest, market_data, network, var_fevd
from .config import FLAGS, RunConfig, output_dir, parse_config
from .errors import ConfigError, DataError, EstimationError, InsufficientHistory

log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstport",
        description="Influence-network portfolio engine",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0, help="increase log level")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("ingest", "validate input data and print panel statistics"),
        ("network", "write per-window cost matrices and spanning trees"),
        ("simulate", "run strategy simulations and write result files"),
        ("report", "re-render summary tables from a finished run"),
    ):
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", required=(name != "report"), help="path to the run config file")
        # Each flag's dest is the config key it stands for.
        cmd.add_argument("--out", dest="dir", metavar="OUT", help="output directory (overrides config)")
        if name in ("network", "simulate"):
            cmd.add_argument("--rebalance-every", help="days between network rebuilds")
        if name == "simulate":
            cmd.add_argument("--seeds", help="seed list: '132', '99,103', or range '99..108'")
            cmd.add_argument("--strategies", help="comma-separated strategy names")
    return parser


def _load_panel(cfg: RunConfig) -> tuple[market_data.PriceTable, market_data.PriceTable | None]:
    """Load the trading panel and, separately, the benchmark series table on its dates.

    The benchmark ticker is removed from the trading universe before the
    quality filter so index data never competes with stocks.
    """
    table = source = market_data.load_prices(cfg.prices, cfg.format)
    ticker = cfg.strategy.benchmark_ticker
    if cfg.benchmark_prices is not None:
        source = market_data.load_prices(cfg.benchmark_prices, cfg.format)
        if ticker not in source.tickers:
            raise DataError(f"benchmark ticker {ticker!r} not found in {cfg.benchmark_prices}")
    benchmark = market_data.select_tickers(source, [ticker]) if ticker in source.tickers else None
    if ticker in table.tickers:
        table = market_data.drop_tickers(table, [ticker])
    filtered = market_data.quality_filter(table, cfg.max_missing_frac)
    if benchmark is not None and benchmark.dates != filtered.dates:
        raise DataError("benchmark dates do not align with the trading panel")
    return filtered, benchmark


def _load_sectors(path: Path | None) -> dict[str, str] | None:
    if path is None:
        return None
    return {
        row[0].strip(): row[1].strip()
        for row in market_data._read_rows(path)
        if len(row) >= 2 and row[0].strip() and row[0].strip().lower() != "ticker"
    }


@functools.lru_cache(maxsize=1 << 16)
def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` encodes one field of a row of several.

    The field is written beside an empty one, because ``csv.writer`` quotes
    an empty string only when it is a row's sole field, and with the default
    line terminator, because it quotes the characters of the terminator.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[: -len(",\r\n")]


def _cost_lines(costs: var_fevd.CostMatrix, window_end) -> Iterator[str]:
    """One window's ``costs.csv`` text, one string per ``cost_records`` block.

    Each pair i < j of the window is one ``window_end,ticker_i,ticker_j,cost``
    row, source-major.  The stamp and each ticker are quoted once per window,
    not once per row.  A block's rows share their stamp-and-ticker head; each
    row adds the later ticker's field and the cost's ``repr``, the bytes
    ``csv.writer`` writes.
    """
    stamp = _csv_field(window_end.isoformat()) + ","
    fields = [_csv_field(name) + "," for name in costs.tickers]
    for i, block in enumerate(var_fevd.cost_records(costs)):
        head = stamp + fields[i]
        yield head + ("\r\n" + head).join(map(str.__add__, fields[i + 1 :], map(repr, block))) + "\r\n"


def cmd_ingest(cfg: RunConfig) -> int:
    table, benchmark = _load_panel(cfg)
    returns = market_data.compute_returns(table)
    masked = int(table.mask.sum())
    print(f"dates: {len(table.dates)} ({table.dates[0]} .. {table.dates[-1]})")
    print(f"tickers kept (missing fraction < {cfg.max_missing_frac}): {len(table.tickers)}")
    print(f"masked cells: {masked} of {table.mask.size}")
    print(f"return rows: {len(returns.dates)}")
    print(f"opens present: {table.open_px is not None}")
    print(f"benchmark series: {'present' if benchmark is not None else 'absent'}")
    return 0


def _make_out_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {out}: {exc}") from exc


def cmd_network(cfg: RunConfig) -> int:
    table, _ = _load_panel(cfg)
    strat = cfg.strategy
    path = backtest.DecisionPath(strat, table, market_data.compute_returns(table), ())
    window_ends = path.returns.dates
    out = cfg.dir
    sectors = _load_sectors(cfg.sectors)
    _make_out_dir(out)
    n_windows = 0
    # Each source ticker's rows are written as one string and dropped, so
    # memory holds one row of the cost matrix, not a window's N(N-1)/2 rows.
    with open(out / "costs.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["window_end", "ticker_i", "ticker_j", "cost"])
        for tau, built in path.trees_at(range(strat.window - 1, len(window_ends), strat.rebalance_every)):
            window_end = window_ends[tau]
            if isinstance(built, Exception):
                # Same policy as simulate's hold: an unestimable window is skipped.
                print(f"warning: skipped window ending {window_end}: {built}", file=sys.stderr)
                continue
            costs, tree = built
            fh.writelines(_cost_lines(costs, window_end))
            dot_path = out / f"mst_{window_end.isoformat()}.dot"
            dot_path.write_text(network.export_dot(tree, sectors), encoding="utf-8")
            n_windows += 1
    print(f"wrote {n_windows} windows to {out}")
    return 0


def _write_values_csv(path: Path, result: backtest.SimulationResult, stamps: dict[date, str]) -> None:
    """One run's ``date,portfolio_value`` file; ``stamps`` maps each date to its encoded field and comma."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["date", "portfolio_value"])
        fh.write("".join([f"{stamps[day]}{value!r}\r\n" for day, value in zip(result.dates, result.values.tolist())]))


def _write_seeds_table(path: Path, summary: backtest.MultiSeedResult) -> None:
    rows = [["seed", *summary.strategies]]
    for seed, values in zip(summary.seeds, summary.returns_pct):
        rows.append([str(seed), *(repr(float(v)) for v in values)])
    rows.append(["average", *(repr(float(v)) for v in summary.means)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _config_dict(cfg: RunConfig) -> dict:
    """``cfg``'s settings by config key, paths as text, without ``raw_text`` (written as
    ``config_echo``) or ``dir`` (one run written to two output dirs gives the same bytes)."""
    blob = dataclasses.asdict(cfg)
    del blob["dir"], blob["raw_text"]
    return {key: str(value) if isinstance(value, Path) else value for key, value in blob.items()}


def cmd_simulate(cfg: RunConfig) -> int:
    table, benchmark = _load_panel(cfg)
    if benchmark is not None:
        # Append the benchmark column for the engine to find by name.  It reads
        # only the column's closes and mask, so the closes stand in for opens.
        close = benchmark.adj_close
        table = market_data.PriceTable(
            table.dates,
            table.tickers + benchmark.tickers,
            np.hstack([table.adj_close, close]),
            np.hstack([table.mask, benchmark.mask]),
            None if table.open_px is None else np.hstack([table.open_px, close]),
        )
    returns = market_data.compute_returns(table)
    summary = backtest.run_multi_seed(cfg.strategy, table, returns, strategies=cfg.strategies)
    out = cfg.dir
    _make_out_dir(out)
    strategies_blob: dict = {}
    # Every result's dates are panel dates; each is encoded once per run.  An
    # ISO date holds only digits and '-', which csv.writer never quotes.
    stamps = {day: day.isoformat() + "," for day in table.dates}
    for name in summary.strategies:
        per_seed = {}
        for seed in summary.seeds:
            res = summary.results[(name, seed)]
            _write_values_csv(out / f"values_{name}_{seed}.csv", res, stamps)
            per_seed[str(seed)] = {
                "total_return_pct": res.total_return_pct,
                "trade_count": res.trade_count,
                "warnings": list(res.warnings),
            }
        col = summary.strategies.index(name)
        strategies_blob[name] = {
            "seeds": per_seed,
            "mean_total_return_pct": float(summary.means[col]),
        }
    blob = {
        "engine_version": __version__,
        "config_echo": cfg.raw_text,
        "config": _config_dict(cfg),
        "seeds": list(summary.seeds),
        "strategies": strategies_blob,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_seeds_table(out / "seeds_table.csv", summary)
    print(f"wrote {len(summary.strategies)} strategies x {len(summary.seeds)} seeds to {out}")
    return 0


def cmd_report(out_dir: Path) -> int:
    summary_path = out_dir / "summary.json"
    if not summary_path.exists():
        raise ConfigError(f"no summary.json under {out_dir}")
    try:
        blob = json.loads(summary_path.read_text(encoding="utf-8"))
        strategies = list(blob["strategies"])
        # json.dump sorted the strategy keys; the table's columns keep the
        # run's order, which the config echo lists.
        listed = list(blob.get("config", {}).get("strategies", strategies))
        if sorted(listed) != sorted(strategies):
            raise ValueError(f"config lists strategies {listed}, results hold {strategies}")
        strategies = listed
        seeds = [int(s) for s in blob["seeds"]]
        table = np.array(
            [
                [blob["strategies"][name]["seeds"][str(seed)]["total_return_pct"] for name in strategies]
                for seed in seeds
            ],
            dtype=float,
        )
        means = np.array(
            [blob["strategies"][name]["mean_total_return_pct"] for name in strategies], dtype=float
        )
    except KeyError as exc:
        raise ConfigError(f"{summary_path}: missing key {exc}") from exc
    except (OSError, ValueError, TypeError, AttributeError) as exc:  # unreadable, undecodable, not JSON, wrong shape
        raise ConfigError(f"{summary_path}: not a simulate summary: {exc}") from exc
    if not strategies:
        raise ConfigError(f"{summary_path}: lists no strategies")
    if not (np.all(np.isfinite(table)) and np.all(np.isfinite(means))):
        raise ConfigError(f"{summary_path}: a total return is null or not finite")
    summary = backtest.MultiSeedResult(tuple(seeds), tuple(strategies), table, means)
    _write_seeds_table(out_dir / "seeds_table.csv", summary)
    width = max(len(n) for n in strategies) + 2
    print("total return (%) by strategy")
    for col, name in enumerate(strategies):
        print(f"  {name:<{width}} mean {means[col]:+9.4f}")
    return 0


_COMMANDS = {"ingest": cmd_ingest, "network": cmd_network, "simulate": cmd_simulate}


def main(argv: list[str] | None = None) -> int:
    # Every module a run needs is imported by now, and those objects live
    # until exit.  Freezing them once per process keeps every later full
    # collection, mid-run and at interpreter exit, from walking them again;
    # objects made after this point are collected as before.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING - 10 * min(args.verbose, 2),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "report":
            return cmd_report(output_dir(args.config, args.dir))
        # ``is not None``: an empty or zero flag is checked, not ignored.
        overrides = {key: text for key in FLAGS if (text := getattr(args, key, None)) is not None}
        return _COMMANDS[args.command](parse_config(args.config, overrides))
    except (ConfigError, DataError, InsufficientHistory, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
