"""One-window Prim loop, kept as the oracle of ``network.prim_msts``.

This is the engine's former ``prim_mst``: it grows one tree with a scalar
frontier scan per step and breaks ties with a ``lexsort`` over the tied
nodes' (source rank, destination rank).  The stacked kernel must give
the same edges, in the same discovery order and orientation, and the
same ``total_cost``, byte for byte.
"""

from __future__ import annotations

import numpy as np

from mstport.errors import DataError
from mstport.network import MstTree
from mstport.var_fevd import CostMatrix


def prim_mst(costs: CostMatrix) -> MstTree:
    """Grow the minimum spanning tree of the symmetric cost graph."""
    tickers = costs.tickers
    n = len(tickers)
    if n == 0:
        raise DataError("cannot build a tree over an empty ticker set")
    sym = costs.symmetric
    off_diag = ~np.eye(n, dtype=bool)
    if not np.all(np.isfinite(sym[off_diag])) and n > 1:
        raise DataError("non-finite off-diagonal cost")
    if n == 1:
        return MstTree(nodes=tickers, edges=(), total_cost=0.0)
    # Rank of each ticker in lexicographic order, used for tie-breaking.
    rank = np.empty(n, dtype=int)
    rank[np.argsort(np.array(tickers))] = np.arange(n)
    start = int(np.argmin(rank))
    in_tree = np.zeros(n, dtype=bool)
    in_tree[start] = True
    best_cost = sym[start].copy()
    best_src = np.full(n, start)
    edges: list[tuple[str, str, float]] = []
    total = 0.0
    for _ in range(n - 1):
        out = np.flatnonzero(~in_tree)
        cand_cost = best_cost[out]
        m = cand_cost.min()
        tied = out[cand_cost == m]
        if tied.size > 1:
            order = np.lexsort((rank[tied], rank[best_src[tied]]))
            v = int(tied[order[0]])
        else:
            v = int(tied[0])
        src = int(best_src[v])
        edges.append((tickers[src], tickers[v], float(best_cost[v])))
        total += float(best_cost[v])
        in_tree[v] = True
        # Relax the frontier through the new node; on equal cost prefer the
        # lexicographically smaller source ticker.
        new_cost = sym[v]
        better = (~in_tree) & (
            (new_cost < best_cost)
            | ((new_cost == best_cost) & (rank[v] < rank[best_src]))
        )
        best_cost[better] = new_cost[better]
        best_src[better] = v
    return MstTree(nodes=tickers, edges=tuple(edges), total_cost=total)
