"""The benchmark probe wraps engine functions by name: every name must exist."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from mstport import cli, forecast

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def load_probe(monkeypatch):
    """``perfbench/probe.py`` as a module, loaded without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_every_name_the_probe_wraps_exists_and_is_callable(monkeypatch):
    probe = load_probe(monkeypatch)
    for module_name, names in probe.TRACED.items():
        module = importlib.import_module(f"mstport.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mstport.{module_name}.{name}"
    assert callable(cli.main) and callable(cli.parse_config)
    traced = {f"{module_name}.{name}" for module_name, names in probe.TRACED.items() for name in names}
    assert set(probe.KEYS) <= traced


def test_arima_fit_keeps_the_positional_grid_the_probe_keys_on():
    # The probe keys an arima_fit span on args[1:], the positional grid.
    params = list(inspect.signature(forecast.arima_fit).parameters)
    assert params == ["series", "max_p", "max_d", "max_q", "order"]
