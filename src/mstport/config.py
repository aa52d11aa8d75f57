"""Run configuration: flat key-value file with one section per concern.

The file uses INI syntax.  Unknown keys are rejected so typos surface as
errors instead of silently falling back to defaults.  A value that fails
its reader or a check of one key is reported with its section-qualified
key, or with the flag that gave it (``data.format: ...``, ``--seeds: ...``);
a problem that ``StrategyConfig`` or the strategy-list check reports is
labelled ``strategy:`` whatever the key's section (``strategy: nnar_epochs
must be at least 0``).

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
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .backtest import STRATEGY_NAMES, StrategyConfig, check_seeds, check_strategies
from .errors import ConfigError
from .market_data import FORMAT_LONG, FORMAT_WIDE


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one engine run."""

    prices: Path
    format: str = FORMAT_LONG
    benchmark_prices: Path | None = None
    sectors: Path | None = None
    max_missing_frac: float = 0.10
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    strategies: tuple[str, ...] = STRATEGY_NAMES
    dir: Path = Path("out")
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
    check_seeds(seeds)
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
# field of its name: a StrategyConfig field where it has one, a RunConfig
# field otherwise.  A key neither the file nor a flag gives is not passed,
# so the dataclasses hold the only defaults.
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
_STRATEGY_FIELDS = {f.name for f in fields(StrategyConfig)}
# The command-line flag of each key that has one.
FLAGS = {"dir": "--out", "rebalance_every": "--rebalance-every", "seeds": "--seeds", "strategies": "--strategies"}


def _read(path: Path) -> tuple[str, configparser.ConfigParser]:
    """The text of config file ``path``, without a byte-order mark, and its parse."""
    try:
        # Drop the byte-order mark that some editors write.
        raw_text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode config {path}: {exc}") from exc
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(raw_text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    return raw_text, parser


def output_dir(path: str | None, out: str | None) -> Path:
    """``report``'s dir: ``out``, the ``--out`` text, if given, else config ``path``'s ``[output] dir``.

    Only the file's syntax and that key are read: a run reports after its inputs move.
    """
    parser = _read(Path(path))[1] if path else configparser.ConfigParser()
    text = out if out is not None else parser.get("output", "dir", fallback=None)
    if text is None and not path:
        raise ConfigError("report needs --out or a config with an output dir")
    try:
        return RunConfig.dir if text is None else _to_path(text)
    except ValueError as exc:
        raise ConfigError(f"{FLAGS['dir'] if out is not None else 'output.dir'}: {exc}") from exc


def parse_config(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Load and validate a run configuration file.

    ``overrides`` maps keys of ``FLAGS`` to their flags' text.
    """
    raw_text, parser = _read(Path(path))
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
    if fmt is not None and fmt not in (FORMAT_LONG, FORMAT_WIDE):
        problems.append(f"data.format: expected long or wide, got {fmt!r}")
    if not parser.has_option("data", "prices"):
        problems.append("data.prices: required path is missing")
    # os.path.exists reads any stat error (an overlong name, say) as absence.
    for key in ("prices", "benchmark_prices", "sectors"):
        if key in values and not os.path.exists(values[key]):
            problems.append(f"data.{key}: file not found: {values[key]}")
    if "max_missing_frac" in values and not 0.0 <= values["max_missing_frac"] <= 1.0:
        problems.append("data.max_missing_frac: must lie in [0, 1]")
    # The default dir stands in only when none is given: one that fails to
    # read has its own problem.
    out_dir = values.get("dir") or (None if parser.has_option("output", "dir") else RunConfig.dir)
    if out_dir is not None:
        # The run makes what is missing of the dir, which it can do only
        # beneath a directory: the nearest part that exists must be one.
        # os.path's tests, unlike Path's, read any stat error as absence, so
        # an overlong or unsearchable path is left for mkdir to report.
        existing = next((p for p in (out_dir, *out_dir.parents) if os.path.exists(p)), None)
        if existing is not None and not os.path.isdir(existing):
            problems.append(f"{label['dir']}: not a directory: {existing}")
    strategy = None
    try:
        strategy = StrategyConfig(**{k: v for k, v in values.items() if k in _STRATEGY_FIELDS})
        # A list that failed to read has its own problem.
        if "strategies" in values or not parser.has_option("strategy", "strategies"):
            check_strategies(values.get("strategies", RunConfig.strategies), strategy)
    except ConfigError as exc:
        problems.extend(f"strategy: {p}" for p in exc.problems)
    if "benchmark_prices" in values and "benchmark_ticker" not in values:
        problems.append("data.benchmark_prices requires data.benchmark_ticker")
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        strategy=strategy,
        raw_text=raw_text,
        **{k: v for k, v in values.items() if k not in _STRATEGY_FIELDS},
    )
