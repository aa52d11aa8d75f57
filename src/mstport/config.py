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
from dataclasses import dataclass, field, fields
from pathlib import Path

from .backtest import STRATEGY_NAMES, StrategyConfig, check_strategies, repeats
from .errors import ConfigError


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
    repeated = repeats(seeds)
    if repeated:
        raise ValueError(f"repeated seeds: {', '.join(map(str, repeated))}")
    return seeds


def parse_strategies(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    check_strategies(names)
    return names


def _to_path(raw: str) -> Path:
    if not raw:
        raise ValueError("empty path")
    return Path(raw)


def _to_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


# Every config key, once: INI key -> (section, reader).  A key sets the
# field _FIELDS gives it, or else the field of its name: a StrategyConfig
# field where it has one, a RunConfig field otherwise.  A key neither the
# file nor a flag gives is not passed, so the dataclasses hold the only
# defaults.
_KEYS = {
    "prices": ("data", _to_path),
    "format": ("data", str),
    "benchmark_ticker": ("data", str),
    "benchmark_prices": ("data", _to_path),
    "sectors": ("data", _to_path),
    "max_missing_frac": ("data", float),
    "window": ("strategy", int),
    "horizon": ("strategy", int),
    "top_k": ("strategy", int),
    "alpha": ("strategy", float),
    "initial_capital": ("strategy", float),
    "risk_free": ("strategy", float),
    "seeds": ("strategy", parse_seeds),
    "strategies": ("strategy", parse_strategies),
    "rebalance_every": ("strategy", int),
    "use_open_prices": ("strategy", _to_bool),
    "fevd_mode": ("strategy", str),
    "fixed_weighting": ("strategy", str),
    "nnar_lags": ("forecast", int),
    "nnar_hidden": ("forecast", int),
    "nnar_learning_rate": ("forecast", float),
    "nnar_epochs": ("forecast", int),
    "arima_max_p": ("forecast", int),
    "arima_max_d": ("forecast", int),
    "arima_max_q": ("forecast", int),
    "dir": ("output", _to_path),
}
_SECTIONS = {section for section, _ in _KEYS.values()}
_FIELDS = {
    "prices": "prices_path",
    "format": "fmt",
    "benchmark_prices": "benchmark_path",
    "sectors": "sectors_path",
    "fixed_weighting": "weighting",  # the base weighting, which only ``fixed`` reads
    "dir": "out_dir",
}
_STRATEGY_FIELDS = {f.name for f in fields(StrategyConfig)}
# The command-line flag of each key that has one.
FLAGS = {"dir": "--out", "rebalance_every": "--rebalance-every", "seeds": "--seeds", "strategies": "--strategies"}


def parse_config(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Load and validate a run configuration file.

    ``overrides`` maps keys of ``FLAGS`` to their flags' text.
    """
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
            if key not in _KEYS or _KEYS[key][0] != section:
                problems.append(f"{section}.{key}: unknown key")
    # A flag's text takes the place of the file's value before any reader
    # sees it; its problems are labelled with the flag.
    overrides = overrides or {}
    for key, text in overrides.items():
        parser.read_dict({_KEYS[key][0]: {key: text}})
    label = {key: f"{section}.{key}" for key, (section, _) in _KEYS.items()} | {key: FLAGS[key] for key in overrides}
    values: dict = {}
    for key, (section, reader) in _KEYS.items():
        if parser.has_option(section, key):
            try:
                values[key] = reader(parser.get(section, key))
            except (ValueError, TypeError) as exc:
                problems.append(f"{label[key]}: {exc}")
    fmt = values.get("format")
    if fmt is not None and fmt not in ("long", "wide"):
        problems.append(f"data.format: expected long or wide, got {fmt!r}")
    if not parser.has_option("data", "prices"):
        problems.append("data.prices: required path is missing")
    for key in ("prices", "benchmark_prices", "sectors"):
        if key in values and not values[key].exists():
            problems.append(f"data.{key}: file not found: {values[key]}")
    if "max_missing_frac" in values and not 0.0 <= values["max_missing_frac"] <= 1.0:
        problems.append("data.max_missing_frac: must lie in [0, 1]")
    # The default dir stands in only when none is given: one that fails to
    # read has its own problem.
    out_dir = values.get("dir") or (None if parser.has_option("output", "dir") else RunConfig.out_dir)
    if out_dir is not None and out_dir.exists() and not out_dir.is_dir():
        problems.append(f"{label['dir']}: not a directory: {out_dir}")
    by_field = {_FIELDS.get(k, k): v for k, v in values.items()}
    strategy = None
    try:
        strategy = StrategyConfig(**{k: v for k, v in by_field.items() if k in _STRATEGY_FIELDS})
    except ConfigError as exc:
        problems.extend(f"strategy: {p}" for p in exc.problems)
    if "benchmark_prices" in values and "benchmark_ticker" not in values:
        problems.append("data.benchmark_prices requires data.benchmark_ticker")
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        strategy=strategy,
        raw_text=raw_text,
        **{k: v for k, v in by_field.items() if k not in _STRATEGY_FIELDS},
    )
