"""Correctness checks on the files one ``mstport`` run wrote.

Each output directory is reduced to a *record*: a JSON-able summary of
everything the check compares.  Building a record already checks the
outputs against properties that hold for every panel (file set, dates,
accounting identities, the buy-and-hold closed form, and for ``network``
an independent influence estimator and spanning tree).  ``compare``
then matches a record against a stored reference: counts, warnings,
tickers, dates and DOT edges exactly, floats within ``TOL``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Same bound the engine's tests use for influence shares; relative for
# values above one (portfolio values are around 1e5).
TOL = 1e-10
HORIZON = 10  # engine default, used by every workload
RANK_RTOL = 1e-12


class CheckError(Exception):
    """An output file is missing, malformed or wrong."""


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def read_panel(path: Path, fmt: str) -> tuple[list[str], list[str], np.ndarray]:
    """Dates, tickers and closes (NaN where absent) of a generated panel."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if fmt == "wide":
        tickers = rows[0][1:]
        dates = [r[0] for r in rows[1:]]
        closes = np.array([[float(c) if c else np.nan for c in r[1:]] for r in rows[1:]])
        return dates, tickers, closes
    dates = sorted({r[0] for r in rows[1:]})
    tickers = sorted({r[1] for r in rows[1:]})
    d_idx = {d: i for i, d in enumerate(dates)}
    t_idx = {t: j for j, t in enumerate(tickers)}
    closes = np.full((len(dates), len(tickers)), np.nan)
    for day, ticker, _, close_px in rows[1:]:
        closes[d_idx[day], t_idx[ticker]] = float(close_px)
    return dates, tickers, closes


# ---------------------------------------------------------------- simulate


def _values_file(path: Path) -> tuple[list[str], list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["date", "portfolio_value"]:
        raise CheckError(f"{path.name}: bad header {rows[0]}")
    return [r[0] for r in rows[1:]], [float(r[1]) for r in rows[1:]]


def simulate_record(
    out_dir: Path,
    strategies: list[str],
    seeds: list[int],
    panel_dates: list[str],
    index_closes: np.ndarray,
    window: int,
    initial_capital: float = 100_000.0,
) -> dict:
    """Record of a ``simulate`` run, checked against panel-level properties."""
    expected = {f"values_{s}_{k}.csv" for s in strategies for k in seeds}
    expected |= {"summary.json", "seeds_table.csv"}
    present = {p.name for p in out_dir.iterdir()}
    if present != expected:
        raise CheckError(f"output files differ: missing {sorted(expected - present)}, extra {sorted(present - expected)}")
    dates = panel_dates[window:]
    values: dict[str, list[float]] = {}
    for name in strategies:
        for seed in seeds:
            got_dates, vals = _values_file(out_dir / f"values_{name}_{seed}.csv")
            if got_dates != dates:
                raise CheckError(f"values_{name}_{seed}.csv: dates differ from the panel's")
            if not close(vals[0], initial_capital) or not all(math.isfinite(v) and v >= 0.0 for v in vals):
                raise CheckError(f"values_{name}_{seed}.csv: bad start value or non-finite value")
            values[f"{name}_{seed}"] = vals
    if "buy_hold" in strategies:
        index = index_closes[window:]
        for seed in seeds:
            expect = initial_capital * index / index[0]
            if not all(close(v, e) for v, e in zip(values[f"buy_hold_{seed}"], expect)):
                raise CheckError("buy_hold path differs from C0 * P_t / P_0")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if summary["seeds"] != seeds or sorted(summary["strategies"]) != sorted(strategies):
        raise CheckError("summary.json seeds or strategies differ from the config")
    blob: dict = {}
    for name in strategies:
        entry = summary["strategies"][name]
        per_seed = {}
        for seed in seeds:
            cell = entry["seeds"][str(seed)]
            vals = values[f"{name}_{seed}"]
            if not close(cell["total_return_pct"], (vals[-1] / vals[0] - 1.0) * 100.0):
                raise CheckError(f"summary total return of {name}/{seed} disagrees with its values file")
            if not isinstance(cell["trade_count"], int) or not 0 <= cell["trade_count"] < len(vals):
                raise CheckError(f"summary trade count of {name}/{seed} out of range")
            per_seed[str(seed)] = cell
        blob[name] = {"seeds": per_seed, "mean_total_return_pct": entry["mean_total_return_pct"]}
    with open(out_dir / "seeds_table.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if table[0] != ["seed", *strategies] or [r[0] for r in table[1:]] != [*map(str, seeds), "average"]:
        raise CheckError("seeds_table.csv labels differ from the config")
    for row, seed in zip(table[1:], seeds):
        for name, cell in zip(strategies, row[1:]):
            if float(cell) != blob[name]["seeds"][str(seed)]["total_return_pct"]:
                raise CheckError(f"seeds_table.csv cell {name}/{seed} disagrees with summary.json")
    return {
        "dates": dates,
        "values": values,
        "summary": blob,
        "seeds_table": [[r[0], *map(float, r[1:])] for r in table[1:]],
    }


# ----------------------------------------------------------------- network


def influence_oracle(y: np.ndarray, horizon: int = HORIZON) -> np.ndarray:
    """Orthogonalized pairwise VAR(1) influence shares from Gram matrices.

    Written independently of the engine's estimator: the OLS fit of each
    pair, its residual covariance ``F'F - C'B`` and the forecast error
    variance decomposition are closed-form 2x2 algebra over the entries
    of ``L'L``, ``L'F`` and ``F'F`` of the centred lags L and leads F.
    ``theta[j, i]`` is the share of j's variance due to i.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return _influence(y, horizon)


def _influence(y: np.ndarray, horizon: int) -> np.ndarray:
    lc = y[:-1] - y[:-1].mean(axis=0)
    fc = y[1:] - y[1:].mean(axis=0)
    t_obs = lc.shape[0]
    gram, cross, lead = lc.T @ lc, lc.T @ fc, fc.T @ fc
    i, j = np.triu_indices(y.shape[1], k=1)
    g00, g01, g11 = gram[i, i], gram[i, j], gram[j, j]
    c00, c01, c10, c11 = cross[i, i], cross[i, j], cross[j, i], cross[j, j]
    tr, det = g00 + g11, g00 * g11 - g01 * g01
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    ok = ((tr + disc) > 0.0) & ((tr - disc) / 2.0 > RANK_RTOL * (tr + disc) / 2.0)
    det = np.where(ok, det, 1.0)
    # B = G^-1 C: rows are lag variables, columns equations; A1 = B'.
    b00, b01 = (g11 * c00 - g01 * c10) / det, (g11 * c01 - g01 * c11) / det
    b10, b11 = (g00 * c10 - g01 * c00) / det, (g00 * c11 - g01 * c01) / det
    a00, a01, a10, a11 = b00, b10, b01, b11
    s00 = np.maximum((lead[i, i] - (c00 * b00 + c10 * b10)) / (t_obs - 3), 0.0)
    s11 = np.maximum((lead[j, j] - (c01 * b01 + c11 * b11)) / (t_obs - 3), 0.0)
    s01 = ((lead[i, j] - (c00 * b01 + c10 * b11)) + (lead[j, i] - (c01 * b00 + c11 * b10))) / 2.0 / (t_obs - 3)
    l00 = np.sqrt(s00)
    l10 = np.where(l00 > 0.0, s01 / np.where(l00 > 0.0, l00, 1.0), 0.0)
    rem = s11 - l10 * l10
    l11 = np.sqrt(np.maximum(rem, 0.0))
    pd = (s00 > 0.0) & (rem > 0.0)
    p00, p01, p10, p11 = np.ones_like(a00), np.zeros_like(a00), np.zeros_like(a00), np.ones_like(a00)
    n_o = np.zeros((2, 2, a00.size))
    n_r = np.zeros((2, 2, a00.size))
    den = np.zeros((2, a00.size))
    for step in range(horizon):
        if step:
            p00, p01, p10, p11 = (
                p00 * a00 + p01 * a10, p00 * a01 + p01 * a11,
                p10 * a00 + p11 * a10, p10 * a01 + p11 * a11,
            )
        phi = ((p00, p01), (p10, p11))
        for r in range(2):
            n_o[r, 0] += (phi[r][0] * l00 + phi[r][1] * l10) ** 2
            n_o[r, 1] += (phi[r][1] * l11) ** 2
            n_r[r, 0] += phi[r][0] ** 2
            n_r[r, 1] += phi[r][1] ** 2
            den[r] += phi[r][0] ** 2 * s00 + 2.0 * phi[r][0] * phi[r][1] * s01 + phi[r][1] ** 2 * s11
    num = np.where(pd, n_o, n_r)
    shares = num / np.where(den > 0.0, den, 1.0)[:, None, :]
    # A variable without forecast error variance explains itself.
    shares = np.clip(np.where((den <= 0.0)[:, None, :], np.eye(2)[:, :, None], shares), 0.0, 1.0)
    theta = np.zeros((y.shape[1], y.shape[1]))
    theta[j, i] = np.where(ok, shares[1, 0], 0.0)
    theta[i, j] = np.where(ok, shares[0, 1], 0.0)
    return theta


def _kruskal(tickers: list[str], cost: dict[tuple[str, str], float]) -> set[frozenset]:
    parent = {t: t for t in tickers}

    def root(t: str) -> str:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    tree = set()
    for (u, v), _ in sorted(cost.items(), key=lambda kv: (kv[1], kv[0])):
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            tree.add(frozenset((u, v)))
    return tree


def _dot_file(text: str) -> tuple[list[str], list[list]]:
    nodes, edges = [], []
    for line in text.splitlines()[1:-1]:
        line = line.strip().rstrip(";")
        if " -- " in line:
            pair, attrs = line.split(" [weight=")
            u, v = (part.strip().strip('"') for part in pair.split(" -- "))
            edges.append([u, v, float(attrs.rstrip("]"))])
        else:
            nodes.append(line.split(" [")[0].strip('"'))
    return nodes, edges


def network_record(out_dir: Path, panel: Path, fmt: str, window: int, rebalance_every: int) -> dict:
    """Record of a ``network`` run, checked against the oracle estimator."""
    dates, tickers, closes = read_panel(panel, fmt)
    keep = [k for k, t in enumerate(tickers) if not t.startswith("^")]
    names = [tickers[k] for k in keep]
    closes = closes[:, keep]
    if np.isnan(closes).any():
        raise CheckError("network oracle expects a panel without gaps")
    rets = closes[1:] / closes[:-1] - 1.0
    ends = list(range(window - 1, rets.shape[0], rebalance_every))
    stamps = [dates[tau + 1] for tau in ends]
    present = {p.name for p in out_dir.iterdir()}
    expected = {"costs.csv"} | {f"mst_{s}.dot" for s in stamps}
    if present != expected:
        raise CheckError(f"output files differ: missing {sorted(expected - present)}, extra {sorted(present - expected)}")
    costs: dict[str, dict[tuple[str, str], float]] = {s: {} for s in stamps}
    with open(out_dir / "costs.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["window_end", "ticker_i", "ticker_j", "cost"]:
            raise CheckError("costs.csv: bad header")
        for stamp, ti, tj, cost in reader:
            costs[stamp][(ti, tj)] = float(cost)
    dots = {}
    for stamp, tau in zip(stamps, ends):
        theta = influence_oracle(rets[tau - window + 1 : tau + 1])
        i, j = np.triu_indices(len(names), k=1)
        expect = 1.0 - np.maximum(theta[i, j], theta[j, i])
        got = costs[stamp]
        if len(got) != expect.size:
            raise CheckError(f"costs.csv: {len(got)} rows for {stamp}, expected {expect.size}")
        values = np.array([got[(names[a], names[b])] for a, b in zip(i, j)])
        bad = np.flatnonzero(np.abs(values - expect) > TOL * np.maximum(1.0, np.abs(expect)))
        if bad.size:
            a, b = names[i[bad[0]]], names[j[bad[0]]]
            raise CheckError(f"costs.csv: {bad.size} costs for {stamp} differ from the oracle, first {a}-{b}")
        nodes, edges = _dot_file((out_dir / f"mst_{stamp}.dot").read_text(encoding="utf-8"))
        if nodes != names:
            raise CheckError(f"mst_{stamp}.dot: node list differs from the panel's tickers")
        if {frozenset((u, v)) for u, v, _ in edges} != _kruskal(names, got):
            raise CheckError(f"mst_{stamp}.dot: edges are not the minimum spanning tree of costs.csv")
        for u, v, w in edges:
            if w != got.get((u, v), got.get((v, u))):
                raise CheckError(f"mst_{stamp}.dot: weight of {u}-{v} differs from costs.csv")
        dots[stamp] = {"nodes": nodes, "edges": edges}
    return {"windows": stamps, "cost_rows": sum(len(c) for c in costs.values()), "dot": dots}


# ----------------------------------------------------------------- compare


def compare(actual, reference, path: str = "") -> list[str]:
    """Differences between two records: floats within TOL, all else exact."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict) or set(actual) != set(reference):
            return [f"{path}: keys differ"]
        out = []
        for key in reference:
            out += compare(actual[key], reference[key], f"{path}/{key}")
        return out
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{path}: lengths differ"]
        out = []
        for k, (a, r) in enumerate(zip(actual, reference)):
            out += compare(a, r, f"{path}[{k}]")
        return out
    if isinstance(reference, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        return [] if close(float(actual), reference) else [f"{path}: {actual!r} != {reference!r}"]
    return [] if actual == reference and type(actual) is type(reference) else [f"{path}: {actual!r} != {reference!r}"]


def dumps(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
