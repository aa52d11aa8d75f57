"""Spanning-tree extraction, centrality ranking, and DOT export."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_prim
from mstport import errors, network as nw, var_fevd as vf


def cost_matrix(tickers: tuple[str, ...], grid: np.ndarray) -> vf.CostMatrix:
    grid = np.asarray(grid, dtype=float)
    sym = np.minimum(grid, grid.T).copy()
    np.fill_diagonal(sym, np.inf)
    return vf.CostMatrix(tickers=tickers, symmetric=sym)


def brute_force_tree_cost(sym: np.ndarray) -> float:
    """Minimum total cost over every spanning tree, by exhaustive search."""
    n = sym.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = math.inf
    for combo in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        joined = 0
        for i, j in combo:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                joined += 1
        if joined == n - 1:
            best = min(best, sum(sym[i, j] for i, j in combo))
    return best


def random_cost(n: int, seed: int) -> vf.CostMatrix:
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(theta, 0.0)
    tickers = tuple(f"N{i:02d}" for i in range(n))
    return vf.to_cost(vf.InfluenceMatrix(tickers=tickers, theta=theta))


def test_tree_cost_matches_exhaustive_enumeration():
    for seed in range(30):
        n = 3 + seed % 4
        cost = random_cost(n, seed)
        tree = nw.prim_mst(cost)
        assert len(tree.edges) == n - 1
        oracle = brute_force_tree_cost(cost.symmetric)
        assert tree.total_cost == pytest.approx(oracle, abs=1e-12)
        # edge costs recorded on the tree match the matrix
        for src, dst, c in tree.edges:
            i, j = cost.tickers.index(src), cost.tickers.index(dst)
            assert c == cost.symmetric[i, j]


def test_tree_on_known_graph():
    #     A --1-- B
    #     |       |
    #     4       2
    #     |       |
    #     D --5-- C     plus A-C 7, B-D 6
    grid = np.array(
        [
            [0.0, 1.0, 7.0, 4.0],
            [1.0, 0.0, 2.0, 6.0],
            [7.0, 2.0, 0.0, 5.0],
            [4.0, 6.0, 5.0, 0.0],
        ]
    )
    tree = nw.prim_mst(cost_matrix(("A", "B", "C", "D"), grid))
    assert tree.edges == (("A", "B", 1.0), ("B", "C", 2.0), ("A", "D", 4.0))
    assert tree.total_cost == 7.0


def test_equal_costs_resolve_to_lexicographic_star():
    grid = np.ones((4, 4))
    tree = nw.prim_mst(cost_matrix(("C", "A", "D", "B"), grid))
    assert tree.edges == (("A", "B", 1.0), ("A", "C", 1.0), ("A", "D", 1.0))


def test_tree_is_invariant_to_ticker_permutation():
    rng = np.random.default_rng(40)
    n = 7
    base = random_cost(n, 41)
    perm = rng.permutation(n)
    shuffled = vf.CostMatrix(
        tickers=tuple(base.tickers[i] for i in perm),
        symmetric=base.symmetric[np.ix_(perm, perm)],
    )
    t1 = nw.prim_mst(base)
    t2 = nw.prim_mst(shuffled)
    assert t1.total_cost == pytest.approx(t2.total_cost, abs=1e-12)
    assert sorted(tuple(sorted((s, d))) for s, d, _ in t1.edges) == sorted(
        tuple(sorted((s, d))) for s, d, _ in t2.edges
    )


def test_single_node_and_bad_input():
    single = cost_matrix(("A",), np.zeros((1, 1)))
    tree = nw.prim_mst(single)
    assert tree.nodes == ("A",) and tree.edges == ()
    bad = cost_matrix(("A", "B"), np.array([[0.0, np.nan], [1.0, 0.0]]))
    with pytest.raises(errors.DataError):
        nw.prim_mst(bad)


def test_degree_centrality_orders_by_degree_then_name():
    tree = nw.MstTree(
        nodes=("A", "B", "C", "D", "E"),
        edges=(("B", "A", 0.1), ("B", "C", 0.2), ("D", "B", 0.3), ("D", "E", 0.4)),
        total_cost=1.0,
    )
    ranking = nw.degree_centrality(tree)
    assert ranking.entries == (("B", 3), ("D", 2), ("A", 1), ("C", 1), ("E", 1))
    assert ranking.tickers == ("B", "D", "A", "C", "E")


def test_select_top_k_caps_at_node_count():
    tree = nw.MstTree(nodes=("A", "B", "C"), edges=(("A", "B", 0.1), ("B", "C", 0.1)), total_cost=0.2)
    ranking = nw.degree_centrality(tree)
    assert nw.select_top_k(ranking, 2) == ("B", "A")
    assert nw.select_top_k(ranking, 10) == ("B", "A", "C")
    with pytest.raises(ValueError):
        nw.select_top_k(ranking, 0)


def test_tree_edge_count_validated():
    with pytest.raises(errors.DataError):
        nw.MstTree(nodes=("A", "B", "C"), edges=(("A", "B", 0.1),), total_cost=0.1)


def test_dot_export_format_and_escaping():
    tree = nw.MstTree(
        nodes=("A", "B"),
        edges=(("A", "B", 0.25),),
        total_cost=0.25,
    )
    text = nw.export_dot(tree, {"A": 'Tech "core"', "B": "Energy"})
    assert text.startswith("graph mst {")
    assert text.rstrip().endswith("}")
    assert '"A" [sector="Tech \\"core\\""];' in text
    assert '"B" [sector="Energy"];' in text
    assert '"A" -- "B" [weight=0.25];' in text
    plain = nw.export_dot(tree)
    assert "sector" not in plain
    assert '"A" -- "B"' in plain


def tree_bytes(tree: nw.MstTree) -> tuple:
    """A tree with every cost as its eight bytes, so -0.0 and 0.0 differ."""
    edges = tuple((src, dst, struct.pack("<d", cost)) for src, dst, cost in tree.edges)
    return tree.nodes, edges, struct.pack("<d", tree.total_cost)


# How one window's influence shares are drawn: uniform; rounded to halves or
# thirds, so many costs tie; with some tickers' shares zero, so their cost
# rows are 1.0 like a masked ticker's; or all one, so every cost is 0.0 as
# ``as_written`` shares clamped at one give.
KINDS = ("uniform", "halves", "thirds", "masked", "zero")


def drawn_theta(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    theta = rng.uniform(0.0, 1.0, (n, n))
    if kind == "halves":
        theta = np.round(theta * 2.0) / 2.0
    elif kind == "thirds":
        theta = np.round(theta * 3.0) / 3.0
    elif kind == "masked":
        gone = rng.random(n) < 0.4
        theta[gone, :] = 0.0
        theta[:, gone] = 0.0
    elif kind == "zero":
        theta = np.ones((n, n))
    np.fill_diagonal(theta, 0.0)
    return theta


@settings(max_examples=400, deadline=None)
@given(
    names=st.lists(st.text(alphabet="ABCab_9", min_size=1, max_size=3), min_size=2, max_size=14, unique=True),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_trees_equal_the_one_window_loop_byte_for_byte(names, kinds, seed):
    # The names come in drawn order, so the rank order is a permutation of
    # the column order.
    rng = np.random.default_rng(seed)
    tickers = tuple(names)
    costs = [
        vf.to_cost(vf.InfluenceMatrix(tickers=tickers, theta=drawn_theta(kind, len(tickers), rng)))
        for kind in kinds
    ]
    stack = np.stack([c.symmetric for c in costs])
    kept = stack.copy()
    got = nw.prim_mst_stack(tickers, stack)
    want = [reference_prim.prim_mst(c) for c in costs]
    assert [tree_bytes(t) for t in got] == [tree_bytes(t) for t in want]
    assert [tree_bytes(nw.prim_mst(c)) for c in costs] == [tree_bytes(t) for t in want]
    assert stack.tobytes() == kept.tobytes()  # the kernel reads the stack only


def test_stacked_trees_cover_one_node_and_reject_what_the_loop_rejects():
    assert nw.prim_mst_stack(("A",), np.full((3, 1, 1), np.inf)) == [nw.MstTree(("A",), (), 0.0)] * 3
    assert tree_bytes(nw.prim_mst(cost_matrix(("A",), np.zeros((1, 1))))) == tree_bytes(
        reference_prim.prim_mst(cost_matrix(("A",), np.zeros((1, 1))))
    )
    empty = vf.CostMatrix(tickers=(), symmetric=np.zeros((0, 0)))
    bad = cost_matrix(("A", "B", "C"), np.array([[0.0, 1.0, 2.0], [1.0, 0.0, np.nan], [2.0, 3.0, 0.0]]))
    for costs, message in ((empty, "empty ticker set"), (bad, "non-finite off-diagonal cost")):
        for build in (nw.prim_mst, reference_prim.prim_mst):
            with pytest.raises(errors.DataError, match=message):
                build(costs)
    stack = np.stack([cost_matrix(("A", "B", "C"), np.ones((3, 3))).symmetric, bad.symmetric])
    with pytest.raises(errors.DataError, match="non-finite off-diagonal cost"):
        nw.check_costs(("A", "B", "C"), stack)
