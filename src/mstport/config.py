"""Run configuration: flat key-value file with one section per concern.

The file uses INI syntax.  Unknown keys are rejected so typos surface as
errors instead of silently falling back to defaults, and every validation
problem is reported with its section-qualified field name.

    [data]
    prices = prices.csv
    format = long
    benchmark_ticker = ^GSPC

    [strategy]
    window = 120
    seeds = 99..108

    [output]
    dir = out
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .backtest import STRATEGY_NAMES, WEIGHTING_SHARPE, WEIGHTING_VAR, StrategyConfig
from .errors import ConfigError

_DATA_KEYS = {
    "prices",
    "format",
    "benchmark_ticker",
    "benchmark_prices",
    "sectors",
    "max_missing_frac",
}
_STRATEGY_KEYS = {
    "window",
    "horizon",
    "top_k",
    "alpha",
    "initial_capital",
    "risk_free",
    "seeds",
    "strategies",
    "rebalance_every",
    "use_open_prices",
    "fevd_mode",
    "fixed_weighting",
    "min_var_history",
}
_FORECAST_KEYS = {
    "nnar_lags",
    "nnar_hidden",
    "nnar_learning_rate",
    "nnar_epochs",
    "arima_max_p",
    "arima_max_d",
    "arima_max_q",
}
_OUTPUT_KEYS = {"dir"}
_SECTIONS = {
    "data": _DATA_KEYS,
    "strategy": _STRATEGY_KEYS,
    "forecast": _FORECAST_KEYS,
    "output": _OUTPUT_KEYS,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one engine run."""

    prices_path: Path
    fmt: str = "long"
    benchmark_path: Path | None = None
    sectors_path: Path | None = None
    max_missing_frac: float = 0.10
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    strategies: tuple[str, ...] = STRATEGY_NAMES
    fixed_weighting: str = WEIGHTING_VAR
    out_dir: Path = Path("out")
    raw_text: str = ""


def parse_seeds(text: str) -> tuple[int, ...]:
    """Seed list syntax: ``132``, ``99,103,124`` or inclusive range ``99..108``."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError("seed range upper bound below lower bound")
        return tuple(range(lo, hi + 1))
    seeds = tuple(int(part) for part in text.split(",") if part.strip())
    if not seeds:
        raise ValueError("empty seed list")
    return seeds


def parse_strategies(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [n for n in names if n not in STRATEGY_NAMES]
    if unknown:
        raise ValueError(f"unknown strategies: {', '.join(unknown)}")
    if not names:
        raise ValueError("empty strategy list")
    return names


class _Reader:
    """Typed accessors over the parsed INI with field-qualified errors."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.problems: list[str] = []

    def get(self, section: str, key: str, default=None):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key).strip()
        return default

    def typed(self, section: str, key: str, cast, default):
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except (ValueError, TypeError) as exc:
            self.problems.append(f"{section}.{key}: {exc}")
            return default


def _to_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_config(path: str | Path) -> RunConfig:
    """Load and validate a run configuration file."""
    path = Path(path)
    try:
        raw_text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(raw_text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    problems: list[str] = []
    for section in parser.sections():
        if section not in _SECTIONS:
            problems.append(f"{section}: unknown section")
            continue
        for key in parser.options(section):
            if key not in _SECTIONS[section]:
                problems.append(f"{section}.{key}: unknown key")
    reader = _Reader(parser)
    prices_raw = reader.get("data", "prices")
    fmt = reader.get("data", "format", "long")
    if fmt not in ("long", "wide"):
        problems.append(f"data.format: expected long or wide, got {fmt!r}")
    benchmark_ticker = reader.get("data", "benchmark_ticker")
    benchmark_raw = reader.get("data", "benchmark_prices")
    sectors_raw = reader.get("data", "sectors")
    max_missing = reader.typed("data", "max_missing_frac", float, 0.10)
    seeds = reader.typed("strategy", "seeds", parse_seeds, (132,))
    strategies = reader.typed("strategy", "strategies", parse_strategies, STRATEGY_NAMES)
    fixed_weighting = reader.get("strategy", "fixed_weighting", WEIGHTING_VAR)
    if fixed_weighting not in (WEIGHTING_VAR, WEIGHTING_SHARPE):
        problems.append(f"strategy.fixed_weighting: unknown weighting {fixed_weighting!r}")
    min_var_raw = reader.get("strategy", "min_var_history")
    min_var_history = None
    if min_var_raw is not None:
        try:
            min_var_history = int(min_var_raw)
        except ValueError as exc:
            problems.append(f"strategy.min_var_history: {exc}")
    strategy_kwargs = dict(
        window=reader.typed("strategy", "window", int, 120),
        horizon=reader.typed("strategy", "horizon", int, 10),
        top_k=reader.typed("strategy", "top_k", int, 5),
        alpha=reader.typed("strategy", "alpha", float, 0.05),
        initial_capital=reader.typed("strategy", "initial_capital", float, 100_000.0),
        risk_free=reader.typed("strategy", "risk_free", float, 0.0),
        seeds=seeds,
        benchmark_ticker=benchmark_ticker,
        rebalance_every=reader.typed("strategy", "rebalance_every", int, 1),
        use_open_prices=reader.typed("strategy", "use_open_prices", _to_bool, True),
        fevd_mode=reader.get("strategy", "fevd_mode", "orthogonalized"),
        min_var_history=min_var_history,
        nnar_lags=reader.typed("forecast", "nnar_lags", int, 5),
        nnar_hidden=reader.typed("forecast", "nnar_hidden", int, 3),
        nnar_learning_rate=reader.typed("forecast", "nnar_learning_rate", float, 0.01),
        nnar_epochs=reader.typed("forecast", "nnar_epochs", int, 500),
        arima_max_p=reader.typed("forecast", "arima_max_p", int, 2),
        arima_max_d=reader.typed("forecast", "arima_max_d", int, 1),
        arima_max_q=reader.typed("forecast", "arima_max_q", int, 2),
    )
    problems.extend(reader.problems)
    if prices_raw is None:
        problems.append("data.prices: required path is missing")
        prices_path = Path("missing")
    else:
        prices_path = Path(prices_raw)
        if not prices_path.exists():
            problems.append(f"data.prices: file not found: {prices_path}")
    benchmark_path = None
    if benchmark_raw is not None:
        benchmark_path = Path(benchmark_raw)
        if not benchmark_path.exists():
            problems.append(f"data.benchmark_prices: file not found: {benchmark_path}")
    sectors_path = None
    if sectors_raw is not None:
        sectors_path = Path(sectors_raw)
        if not sectors_path.exists():
            problems.append(f"data.sectors: file not found: {sectors_path}")
    if not 0.0 <= max_missing <= 1.0:
        problems.append("data.max_missing_frac: must lie in [0, 1]")
    strategy = None
    try:
        strategy = StrategyConfig(**strategy_kwargs)
    except ConfigError as exc:
        problems.extend(f"strategy: {p}" for p in exc.problems)
    if "buy_hold" in strategies and benchmark_ticker is None:
        problems.append("strategy.strategies: buy_hold requires data.benchmark_ticker")
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        prices_path=prices_path,
        fmt=fmt,
        benchmark_path=benchmark_path,
        sectors_path=sectors_path,
        max_missing_frac=max_missing,
        strategy=strategy,
        strategies=strategies,
        fixed_weighting=fixed_weighting,
        out_dir=Path(reader.get("output", "dir", "out")),
        raw_text=raw_text,
    )
