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
import io
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, backtest, market_data, network, var_fevd
from .config import RunConfig, parse_config, parse_seeds, parse_strategies
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
        cmd.add_argument("--out", help="output directory (overrides config)")
        if name in ("network", "simulate"):
            cmd.add_argument("--rebalance-every", type=int, help="days between network rebuilds")
        if name == "simulate":
            cmd.add_argument("--seeds", help="seed list: '132', '99,103', or range '99..108'")
            cmd.add_argument("--strategies", help="comma-separated strategy names")
    return parser


def _out_override(args: argparse.Namespace) -> Path | None:
    """``--out`` as a path, or None when it is not given."""
    if args.out is None:
        return None
    if not args.out:
        raise ConfigError("--out: empty path")
    return Path(args.out)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates: dict = {}
    # ``is not None``: an empty or zero override is checked, not ignored.
    out_dir = _out_override(args)
    if out_dir is not None:
        updates["out_dir"] = out_dir
    strategy_updates: dict = {}
    if getattr(args, "rebalance_every", None) is not None:
        strategy_updates["rebalance_every"] = int(args.rebalance_every)
    if getattr(args, "seeds", None) is not None:
        try:
            strategy_updates["seeds"] = parse_seeds(args.seeds)
        except ValueError as exc:
            raise ConfigError(f"--seeds: {exc}") from exc
    if getattr(args, "strategies", None) is not None:
        try:
            updates["strategies"] = parse_strategies(args.strategies)
        except ValueError as exc:
            raise ConfigError(f"--strategies: {exc}") from exc
    if strategy_updates:
        updates["strategy"] = dataclasses.replace(cfg.strategy, **strategy_updates)
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _load_panel(cfg: RunConfig) -> tuple[market_data.PriceTable, market_data.PriceTable | None]:
    """Load the trading panel and, separately, the benchmark series table.

    The benchmark ticker is removed from the trading universe before the
    quality filter so index data never competes with stocks.
    """
    table = source = market_data.load_prices(cfg.prices_path, cfg.fmt)
    ticker = cfg.strategy.benchmark_ticker
    if cfg.benchmark_path is not None:
        source = market_data.load_prices(cfg.benchmark_path, cfg.fmt)
        if ticker not in source.tickers:
            raise DataError(f"benchmark ticker {ticker!r} not found in {cfg.benchmark_path}")
    benchmark = market_data.select_tickers(source, [ticker]) if ticker in source.tickers else None
    if ticker in table.tickers:
        table = market_data.drop_tickers(table, [ticker])
    filtered = market_data.quality_filter(table, cfg.max_missing_frac)
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


def _csv_line(fields: list[str]) -> str:
    """One CSV row of string fields, ending in ``\\r\\n`` like ``csv.writer``'s."""
    return ",".join(map(_csv_field, fields)) + "\r\n"


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


def cmd_network(cfg: RunConfig) -> int:
    table, _ = _load_panel(cfg)
    returns = market_data.compute_returns(table)
    strat = cfg.strategy
    n_returns = len(returns.dates)
    if n_returns < strat.window:
        raise InsufficientHistory("not enough return rows for one window")
    if len(returns.tickers) < 2:
        raise DataError("empty universe after filtering")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    sectors = _load_sectors(cfg.sectors_path)
    n_windows = 0
    # Each window's rows are written as one block and dropped, so memory
    # holds one window's N(N-1)/2 rows, not every window's.
    with open(out / "costs.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line(["window_end", "ticker_i", "ticker_j", "cost"]))
        for tau in range(strat.window - 1, n_returns, strat.rebalance_every):
            win = market_data.window(returns, tau, strat.window)
            window_end = win.dates[-1]
            try:
                costs, tree = backtest.window_tree(win, strat)
            except (EstimationError, DataError) as exc:
                # Same policy as simulate's hold: an unestimable window is skipped.
                print(f"warning: skipped window ending {window_end}: {exc}", file=sys.stderr)
                continue
            fh.write(
                "".join(
                    [
                        f"{_csv_field(stamp)},{_csv_field(ti)},{_csv_field(tj)},{cost!r}\r\n"
                        for stamp, ti, tj, cost in var_fevd.cost_records(costs, window_end)
                    ]
                )
            )
            dot_path = out / f"mst_{window_end.isoformat()}.dot"
            dot_path.write_text(network.export_dot(tree, sectors), encoding="utf-8")
            n_windows += 1
    print(f"wrote {n_windows} windows to {out}")
    return 0


def _write_values_csv(path: Path, result: backtest.SimulationResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line(["date", "portfolio_value"]))
        fh.write(
            "".join(
                [
                    f"{_csv_field(day.isoformat())},{float(value)!r}\r\n"
                    for day, value in zip(result.dates, result.values.tolist())
                ]
            )
        )


def _write_seeds_table(path: Path, summary: backtest.MultiSeedResult) -> None:
    rows = [["seed", *summary.strategies]]
    for seed, values in zip(summary.seeds, summary.returns_pct):
        rows.append([str(seed), *(repr(float(v)) for v in values)])
    rows.append(["average", *(repr(float(v)) for v in summary.means)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(map(_csv_line, rows)))


def _config_dict(cfg: RunConfig) -> dict:
    return {
        "prices": str(cfg.prices_path),
        "format": cfg.fmt,
        "benchmark_prices": str(cfg.benchmark_path) if cfg.benchmark_path else None,
        "sectors": str(cfg.sectors_path) if cfg.sectors_path else None,
        "max_missing_frac": cfg.max_missing_frac,
        "strategies": list(cfg.strategies),
        "fixed_weighting": cfg.fixed_weighting,
        "strategy": dataclasses.asdict(cfg.strategy),
    }


def cmd_simulate(cfg: RunConfig) -> int:
    table, benchmark = _load_panel(cfg)
    strat = cfg.strategy
    if benchmark is not None:
        # Append the benchmark column for the engine to find by name.  It reads
        # only the column's closes and mask, so the closes stand in for opens.
        if benchmark.dates != table.dates:
            raise DataError("benchmark dates do not align with the trading panel")
        close = benchmark.adj_close
        table = market_data.PriceTable(
            table.dates,
            table.tickers + benchmark.tickers,
            np.hstack([table.adj_close, close]),
            np.hstack([table.mask, benchmark.mask]),
            None if table.open_px is None else np.hstack([table.open_px, close]),
        )
    returns = market_data.compute_returns(table)
    summary = backtest.run_multi_seed(
        strat,
        table,
        returns,
        seeds=strat.seeds,
        strategies=cfg.strategies,
        fixed_weighting=cfg.fixed_weighting,
    )
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    strategies_blob: dict = {}
    for name in summary.strategies:
        per_seed = {}
        for seed in summary.seeds:
            res = summary.results[(name, seed)]
            _write_values_csv(out / f"values_{name}_{seed}.csv", res)
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
    except (OSError, ValueError, TypeError) as exc:  # unreadable, undecodable, not JSON, wrong shape
        raise ConfigError(f"{summary_path}: not a simulate summary: {exc}") from exc
    if not strategies:
        raise ConfigError(f"{summary_path}: lists no strategies")
    if not (np.all(np.isfinite(table)) and np.all(np.isfinite(means))):
        raise ConfigError(f"{summary_path}: a total return is null or not finite")
    summary = backtest.MultiSeedResult(
        seeds=tuple(seeds),
        strategies=tuple(strategies),
        returns_pct=table,
        means=means,
    )
    _write_seeds_table(out_dir / "seeds_table.csv", summary)
    width = max(len(n) for n in strategies) + 2
    print("total return (%) by strategy")
    for col, name in enumerate(strategies):
        print(f"  {name:<{width}} mean {means[col]:+9.4f}")
    return 0


_COMMANDS = {"ingest": cmd_ingest, "network": cmd_network, "simulate": cmd_simulate}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING - 10 * min(args.verbose, 2),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "report":
            out_dir = _out_override(args)
            if args.config:
                cfg = parse_config(args.config)
                out_dir = out_dir or cfg.out_dir
            if out_dir is None:
                raise ConfigError("report needs --out or a config with an output dir")
            return cmd_report(out_dir)
        cfg = parse_config(args.config)
        cfg = _apply_overrides(cfg, args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, DataError, InsufficientHistory, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
