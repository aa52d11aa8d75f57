"""Child process for one benchmark run of the ``mstport`` command line.

    python3 probe.py SRC_DIR SIDECAR TRACE -- CLI_ARGS...

Imports the engine from ``SRC_DIR``, runs ``mstport.cli.main(CLI_ARGS)``
and writes a JSON sidecar.  The sidecar always holds the monotonic time at
which the first ``compute_returns`` call returned (end of set-up).  With
``TRACE`` = 1 the public functions of every engine module are wrapped from
outside, and the sidecar also holds every span as
``[name, start, end, parent, key, extra]``; ``parent`` is the index of the
enclosing span or -1.  Nothing inside the engine is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# Public functions wrapped in a traced run, by module: every one the engine
# calls across modules, so each span's self time lands in its own layer.
# The engine calls each through its module attribute, so replacing the
# attribute catches every call.
TRACED = {
    "market_data": ("load_prices", "quality_filter", "compute_returns", "window"),
    "var_fevd": ("influence_matrix", "to_cost", "cost_records"),
    "network": ("prim_mst", "degree_centrality", "select_top_k", "export_dot"),
    "allocation": ("var_weights", "sharpe_weights"),
    "forecast": ("arima_fit", "arima_forecast", "nnar_fit", "nnar_forecast"),
    "backtest": ("run_multi_seed", "run_simulation", "benchmark_buy_hold", "execute_day"),
}


def _series_key(series) -> int:
    return hash(series.tobytes())


def _influence_key(args, kwargs, result):
    win = args[0]
    usable = int((~win.mask.any(axis=0)).sum())
    return [win.dates[-1].isoformat(), hash(win.tickers)], {"pairs": usable * (usable - 1) // 2}


def _nnar_key(args, kwargs, result):
    seed = args[3] if len(args) > 3 else kwargs.get("seed", 0)
    extra = {"epochs": result.epochs_run, "retry": int(result.seed != seed)}
    return [_series_key(args[0]), seed], extra


def _arima_key(args, kwargs, result):
    return [_series_key(args[0]), list(args[1:])], {}


def _load_key(args, kwargs, result):
    return None, {"bytes": Path(args[0]).stat().st_size}


KEYS = {
    "var_fevd.influence_matrix": _influence_key,
    "forecast.nnar_fit": _nnar_key,
    "forecast.arima_fit": _arima_key,
    "market_data.load_prices": _load_key,
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        key_of = KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.monotonic(), None, self.stack[-1] if self.stack else -1, None, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self.stack.pop()
            if key_of is not None:
                span[4], span[5] = key_of(args, kwargs, result)
            return result

        return traced


def main(argv: list[str]) -> int:
    src_dir, sidecar, trace = Path(argv[0]).resolve(), Path(argv[1]), argv[2] == "1"
    cli_args = argv[4:] if argv[3:4] == ["--"] else argv[3:]
    sys.path.insert(0, str(src_dir))
    import mstport
    from mstport import cli, market_data

    if src_dir not in Path(mstport.__file__).resolve().parents:
        print(f"probe: mstport imported from {mstport.__file__}, not {src_dir}", file=sys.stderr)
        return 3
    marks: dict[str, float] = {}
    compute_returns = market_data.compute_returns

    def mark_setup(*args, **kwargs):
        result = compute_returns(*args, **kwargs)
        marks.setdefault("setup_end", time.monotonic())
        return result

    market_data.compute_returns = mark_setup
    tracer = Tracer() if trace else None
    entry = cli.main
    if tracer is not None:
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"mstport.{module_name}")
            for name in names:
                setattr(module, name, tracer.wrap(f"{module_name}.{name}", getattr(module, name)))
        cli.parse_config = tracer.wrap("config.parse_config", cli.parse_config)
        entry = tracer.wrap("cli.main", cli.main)
    code = entry(cli_args)
    blob = dict(marks)
    if tracer is not None:
        blob["spans"] = tracer.spans
    Path(sidecar).write_text(json.dumps(blob), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
