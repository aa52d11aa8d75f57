"""Per-layer metrics derived from the spans of one traced process.

A span is ``[name, start, end, parent, key, extra]`` as ``probe.py``
writes it.  A span's self time is its duration minus the durations of its
direct children; a layer's busy time is the self time of all its spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

# Modules of the engine, as the layers of the trace; config is part of cli.
LAYERS = ("market_data", "var_fevd", "network", "allocation", "forecast", "backtest", "cli")

PER_LAYER = {
    "market_data.load_prices.s": "s",
    "market_data.input_bytes": "bytes",
    "market_data.window.calls": "count",
    "market_data.window.s": "s",
    "var_fevd.influence_matrix.calls": "count",
    "var_fevd.influence_matrix.s": "s",
    "var_fevd.influence_matrix.p50_ms": "ms",
    "var_fevd.influence_matrix.p90_ms": "ms",
    "var_fevd.pairs": "count",
    "var_fevd.pairs_per_s": "1/s",
    "var_fevd.distinct_ratio": "ratio",
    "var_fevd.cost_records.s": "s",
    "network.prim_mst.calls": "count",
    "network.prim_mst.s": "s",
    "network.export_dot.s": "s",
    "allocation.weights.calls": "count",
    "allocation.weights.s": "s",
    "forecast.nnar_fit.calls": "count",
    "forecast.nnar_fit.s": "s",
    "forecast.nnar_fit.p50_ms": "ms",
    "forecast.nnar_fit.p90_ms": "ms",
    "forecast.nnar_fit.epochs": "count",
    "forecast.nnar_fit.distinct_ratio": "ratio",
    "forecast.nnar_fit.retries": "count",
    "forecast.arima_fit.calls": "count",
    "forecast.arima_fit.s": "s",
    "forecast.arima_fit.distinct_ratio": "ratio",
    "backtest.run_simulation.calls": "count",
    "backtest.execute_day.calls": "count",
    "backtest.execute_day.s": "s",
    "backtest.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    **{f"layer.{name}.share": "ratio" for name in LAYERS},
}


def _layer(span_name: str) -> str:
    module = span_name.split(".", 1)[0]
    return "cli" if module == "config" else module


def metrics(spans: list[list], wall_s: float, out_dir: Path) -> dict[str, float]:
    """Every ``PER_LAYER`` metric except the trace overhead, for one process."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations = defaultdict(list)
    self_time = defaultdict(float)
    keys = defaultdict(set)
    extra = defaultdict(lambda: defaultdict(float))
    busy = defaultdict(float)
    for index, (name, start, end, _, key, more) in enumerate(spans):
        own = end - start - child_time[index]
        durations[name].append(end - start)
        self_time[name] += own
        busy[_layer(name)] += own
        if key is not None:
            keys[name].add(json.dumps(key))
        for field, value in (more or {}).items():
            extra[name][field] += value

    def calls(name: str) -> float:
        return float(len(durations[name]))

    def total(name: str) -> float:
        return float(sum(durations[name]))

    def pct_ms(name: str, q: float) -> float:
        return float(np.percentile(durations[name], q)) * 1e3 if durations[name] else 0.0

    def distinct(name: str) -> float:
        return len(keys[name]) / calls(name) if durations[name] else 0.0

    fevd_s = total("var_fevd.influence_matrix")
    pairs = extra["var_fevd.influence_matrix"]["pairs"]
    out = {
        "market_data.load_prices.s": total("market_data.load_prices"),
        "market_data.input_bytes": extra["market_data.load_prices"]["bytes"],
        "market_data.window.calls": calls("market_data.window"),
        "market_data.window.s": total("market_data.window"),
        "var_fevd.influence_matrix.calls": calls("var_fevd.influence_matrix"),
        "var_fevd.influence_matrix.s": fevd_s,
        "var_fevd.influence_matrix.p50_ms": pct_ms("var_fevd.influence_matrix", 50),
        "var_fevd.influence_matrix.p90_ms": pct_ms("var_fevd.influence_matrix", 90),
        "var_fevd.pairs": pairs,
        "var_fevd.pairs_per_s": pairs / fevd_s if fevd_s > 0.0 else 0.0,
        "var_fevd.distinct_ratio": distinct("var_fevd.influence_matrix"),
        "var_fevd.cost_records.s": total("var_fevd.cost_records"),
        "network.prim_mst.calls": calls("network.prim_mst"),
        "network.prim_mst.s": total("network.prim_mst"),
        "network.export_dot.s": total("network.export_dot"),
        "allocation.weights.calls": calls("allocation.var_weights") + calls("allocation.sharpe_weights"),
        "allocation.weights.s": total("allocation.var_weights") + total("allocation.sharpe_weights"),
        "forecast.nnar_fit.calls": calls("forecast.nnar_fit"),
        "forecast.nnar_fit.s": total("forecast.nnar_fit"),
        "forecast.nnar_fit.p50_ms": pct_ms("forecast.nnar_fit", 50),
        "forecast.nnar_fit.p90_ms": pct_ms("forecast.nnar_fit", 90),
        "forecast.nnar_fit.epochs": extra["forecast.nnar_fit"]["epochs"],
        "forecast.nnar_fit.distinct_ratio": distinct("forecast.nnar_fit"),
        "forecast.nnar_fit.retries": extra["forecast.nnar_fit"]["retry"],
        "forecast.arima_fit.calls": calls("forecast.arima_fit"),
        "forecast.arima_fit.s": total("forecast.arima_fit"),
        "forecast.arima_fit.distinct_ratio": distinct("forecast.arima_fit"),
        "backtest.run_simulation.calls": calls("backtest.run_simulation"),
        "backtest.execute_day.calls": calls("backtest.execute_day"),
        "backtest.execute_day.s": total("backtest.execute_day"),
        "backtest.self_s": self_time["backtest.run_simulation"],
        "cli.self_s": self_time["cli.main"],
        "cli.output_bytes": float(sum(p.stat().st_size for p in out_dir.iterdir())),
        "trace.wall_s": wall_s,
    }
    for name in LAYERS:
        out[f"layer.{name}.share"] = busy[name] / wall_s
    return out


def dominant(values: dict[str, float]) -> str:
    """The layer with the largest busy share of the traced wall time."""
    share, name = max((values[f"layer.{n}.share"], n) for n in LAYERS)
    return f"{name} ({share:.1%} of traced wall_s)"
