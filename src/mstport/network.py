"""Minimum spanning tree extraction and degree-centrality ranking.

The tree is grown with Prim's algorithm over the symmetric cost matrix.
Tie-breaking is fully deterministic: candidate edges are compared by
(cost, source ticker, destination ticker) and growth starts from the
lexicographically smallest ticker, so equal-cost inputs always yield the
same tree.  The trees of many windows over one ticker set grow together
in one stacked pass (:func:`prim_mst_stack`), one step of every window per
numpy call; :func:`prim_mst` is that pass on one window, with the same tie
rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .var_fevd import CostMatrix


@dataclass(frozen=True)
class MstTree:
    """Spanning tree: ``edges`` are (source, destination, cost) in discovery order."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    total_cost: float

    def __post_init__(self) -> None:
        if len(self.edges) != max(len(self.nodes) - 1, 0):
            raise DataError("a spanning tree over N nodes needs exactly N-1 edges")


@dataclass(frozen=True)
class CentralityRanking:
    """Tickers ranked by tree degree, descending; ties lexicographic."""

    entries: tuple[tuple[str, int], ...]

    @property
    def tickers(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.entries)


def check_costs(tickers: tuple[str, ...], symmetric: np.ndarray) -> None:
    """Reject an empty ticker set, or a non-finite off-diagonal cost in a window or a stack of them."""
    n = len(tickers)
    if n == 0:
        raise DataError("cannot build a tree over an empty ticker set")
    finite = np.isfinite(symmetric)
    finite[..., range(n), range(n)] = True  # the diagonal is a self-edge sentinel
    if not finite.all():
        raise DataError("non-finite off-diagonal cost")


def prim_mst_stack(tickers: tuple[str, ...], symmetric: np.ndarray) -> list[MstTree]:
    """Grow the minimum spanning tree of each window of a ``(B, N, N)`` stack of symmetric costs.

    The windows' trees grow together, one node per window per step, so
    each numpy call covers every window.  The costs must pass
    :func:`check_costs`.  A node outside a window's tree keeps its cheapest
    edge into the tree and that edge's tie key ``rank(source) * N +
    rank(node)``, over the tickers' lexicographic ranks; a node in the tree
    holds a NaN cost, which no comparison picks or relaxes.  Each step
    adds the least-cost edge and, among equal costs, the least key: the
    smaller source ticker, then the smaller destination ticker.  A new node
    takes over a frontier edge that it beats on cost, or ties with a
    smaller source ticker.
    """
    n = len(tickers)
    b = symmetric.shape[0]
    order = np.argsort(np.array(tickers))  # the tickers by rank
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    best = symmetric[:, order[0]].copy()  # growth starts from the smallest ticker
    best[:, order[0]] = np.nan
    key = np.tile(rank, (b, 1))
    first = np.arange(b) * n  # flat index of each window's first row or cell
    flat_best, flat_rows = best.reshape(-1), symmetric.reshape(b * n, n)
    picked = np.empty((n - 1, b), dtype=np.intp)  # each step's edge key
    cost = np.empty((n - 1, b))
    for step in range(n - 1):
        picked[step] = np.where(best == np.fmin.reduce(best, axis=1, keepdims=True), key, n * n).min(axis=1)
        joined = picked[step] % n
        at = first + order[joined]
        cost[step] = flat_best[at]
        flat_best[at] = np.nan
        new = flat_rows[at]
        new_key = (joined * n)[:, None] + rank
        better = new < best
        better |= (new == best) & (new_key < key)
        np.putmask(best, better, new)
        np.putmask(key, better, new_key)
    names = [tickers[i] for i in order]
    trees = []
    for src, dst, paid in zip(*np.divmod(picked.T, n), cost.T.tolist()):
        total = 0.0  # added left to right; sum() compensates from Python 3.12 on
        for c in paid:
            total += c
        edges = zip([names[i] for i in src.tolist()], [names[i] for i in dst.tolist()], paid)
        trees.append(MstTree(nodes=tickers, edges=tuple(edges), total_cost=total))
    return trees


def prim_mst(costs: CostMatrix) -> MstTree:
    """Grow the minimum spanning tree of the symmetric cost graph: :func:`prim_mst_stack` on one window."""
    check_costs(costs.tickers, costs.symmetric)
    return prim_mst_stack(costs.tickers, costs.symmetric[None])[0]


def degree_centrality(tree: MstTree) -> CentralityRanking:
    """Degree of each node in the tree, ranked descending."""
    degree = {t: 0 for t in tree.nodes}
    for u, v, _ in tree.edges:
        degree[u] += 1
        degree[v] += 1
    ranked = sorted(degree.items(), key=lambda kv: (-kv[1], kv[0]))
    return CentralityRanking(entries=tuple(ranked))


def select_top_k(ranking: CentralityRanking, k: int) -> tuple[str, ...]:
    """First min(k, N) tickers of the ranking."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return ranking.tickers[:k]


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(tree: MstTree, sector_labels: dict[str, str] | None = None) -> str:
    """Render the tree as an undirected DOT graph.

    Sector labels, when provided, are emitted as node attributes; edge
    costs are emitted as ``weight`` attributes.
    """
    lines = ["graph mst {"]
    for node in tree.nodes:
        attrs = ""
        if sector_labels and node in sector_labels:
            attrs = f" [sector={_dot_quote(sector_labels[node])}]"
        lines.append(f"  {_dot_quote(node)}{attrs};")
    for u, v, cost in tree.edges:
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)} [weight={cost!r}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
